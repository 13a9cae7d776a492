"""The hypext benchmark: how long a suite takes to reach a trusted PASS.

    python3 perfbench/run.py --workload converge-fine --seed 0 \
        --seconds 40 --trace 0

runs one workload (``--workload all`` runs each in turn) through the
public entry point ``hypext.cli.main`` of the checkout's ``src/``.  Every
workload runs in fresh processes, one at a time, each single-threaded
(OMP, OpenBLAS and MKL threads set to 1) and pinned to one CPU.  Workloads
are defined in workloads.py, the correctness gate in gate.py, the traced
run in tracing.py, the host-speed probe in probe.py.

With ``--trace 0`` the run measures, within ``--seconds``:

* setup_s: import hypext.cli, resolve the config and build the family,
  before the first pass; median over every fresh process of the run;
* first_run_s: the first pass of a fresh process, median over processes;
* run_s: one warm pass, reports included, median over every later pass;
* points_per_s: join-grid points verified per pass (from the workload's
  arguments) divided by run_s;
* peak_rss_mb: the largest ru_maxrss of the workload processes;
* fail_ratio: passes that failed the gate over passes attempted.

The three times are wall seconds rescaled towards the probe's reference
host speed (wall seconds x (REFERENCE_REP_S / median probe rep of the
run) ** PROBE_WEIGHT), so that a busy host reads less as a slower program;
the wall medians are printed beside them.

With ``--trace 1`` one untraced process and then one traced process run;
the per-layer metrics listed in layers.json come from the traced passes,
and trace.overhead_s is the traced minus the untraced median pass.  The
traced counts must repeat exactly from pass to pass and equal the counts
that workloads.expected_counts derives from the arguments.  The spans are
written to perfbench/_runs/<workload>-spans.npz.

Every metric is printed by name with its unit, then provenance, then as
the last line one JSON object with the keys correct, attempted, failed and
metrics.  ``--corrupt`` passes a corruption hook of the program to the
suites it applies to, as a negative control of the gate.

Exit codes: 0 every pass correct, 1 a pass failed the gate (the result is
still printed), 2 bad usage or no program to run (nothing printed on
stdout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads as wl
from gate import judge, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
LAYERS = json.loads((HERE / "layers.json").read_text())
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# pass time of one untraced worker; fresh workers follow one another while
# another fits, so first passes and set-ups have several samples
WORKER_S = 3.0
# further fresh processes that only set up, for the set-up median; more
# follow in the time left after the last pass worker that fits
SETUP_ONLY = 4
# a worker runs past its budget only to finish its first and one warm
# pass; a converge-fine pass takes longer than WORKER_S, so this sets how
# many fresh processes, and so first_run_s samples, a run has (five in 40 s)
MIN_PASSES = 2
# a worker that runs longer than its budget by this much is killed
WORKER_GRACE_S = 60.0

E2E_UNITS = {"run_s": "s", "first_run_s": "s", "setup_s": "s",
             "points_per_s": "1/s", "peak_rss_mb": "MB"}


class Runner:
    """Starts the workload processes of one run in a scratch directory."""

    def __init__(self, name, suites, work, min_passes=MIN_PASSES):
        self.work = work
        self.min_passes = min_passes
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.txt"
        config.write_text(wl.CONFIG_TEXT)
        self.suites = [argv + ["--config", str(config),
                               "--out", str(work / f"out{i}")]
                       for i, argv in enumerate(suites)]
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.spans = work.parent / f"{name}-spans.npz"
        self.jobs = 0

    def spawn(self, budget_s=None, trace=False):
        """Run one fresh worker process to completion; its result, or
        {"error": ...} when it did not finish cleanly."""
        self.jobs += 1
        job = {"root": str(ROOT), "suites": self.suites, "trace": trace,
               "budget_s": budget_s, "min_passes": self.min_passes,
               "spans": str(self.spans),
               "result": str(self.work / f"result{self.jobs}.json")}
        job_path = self.work / f"job{self.jobs}.json"
        job_path.write_text(json.dumps(job))
        timeout = (budget_s or 0.0) + WORKER_GRACE_S
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"worker killed after {timeout:.0f} s"}
        result = Path(job["result"])
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
        return json.loads(result.read_text())


def measure(runner, seconds, trace, setup_only=SETUP_ONLY):
    """Spend ``seconds`` on fresh processes, one at a time: set-up-only
    processes, then pass workers for as long as another one fits, then
    set-up-only processes in the time left; or one untraced and one traced
    worker."""
    deadline = time.perf_counter() + seconds
    if trace:
        untraced = [runner.spawn(budget_s=0.4 * seconds)]
        traced = [runner.spawn(budget_s=max(0.0, deadline
                                            - time.perf_counter()),
                               trace=True)]
        return {"setup_only": [], "untraced": untraced, "traced": traced}
    setups = []

    def set_up():
        t = time.perf_counter()
        setups.append(runner.spawn())
        return time.perf_counter() - t

    longest_setup = max((set_up() for _ in range(setup_only)), default=None)
    untraced = []
    longest = 0.0
    while not untraced or time.perf_counter() + longest <= deadline:
        t = time.perf_counter()
        untraced.append(runner.spawn(
            budget_s=min(WORKER_S, max(0.0, deadline - t))))
        longest = max(longest, time.perf_counter() - t)
    while longest_setup is not None and \
            time.perf_counter() + longest_setup <= deadline:
        longest_setup = max(longest_setup, set_up())
    return {"setup_only": setups, "untraced": untraced, "traced": []}


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _ok(results):
    return [r for r in results if "error" not in r]


def e2e_metrics(results, points):
    """End-to-end metrics and one printable line for each.  Times are
    rescaled towards the probe's reference host speed (probe.py)."""
    workers = _ok(results["untraced"])
    processes = _ok(results["setup_only"]) + workers
    first = [r["passes"][0]["s"] for r in workers if r["passes"]]
    warm = [p["s"] for r in workers for p in r["passes"][1:]] or first
    if not first:
        return {}, ["no worker finished a pass"]
    setups = [r["setup_s"] for r in processes]
    factor = probe.to_reference([t for r in processes for t in r["probe_s"]])
    run_s = factor * statistics.median(warm)
    values = {
        "run_s": (run_s, f"median of {len(warm)} warm passes; wall "
                         "median %.4f, quartiles %.4f..%.4f" % (
                             statistics.median(warm), *_quartiles(warm))),
        "first_run_s": (factor * statistics.median(first),
                        f"median over {len(first)} fresh processes; wall "
                        "median %.4f" % statistics.median(first)),
        "setup_s": (factor * statistics.median(setups),
                    f"median over {len(processes)} fresh processes; wall "
                    "median %.4f" % statistics.median(setups)),
        "points_per_s": (points / run_s,
                         f"{points} join-grid points per pass / run_s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in workers),
                        f"largest ru_maxrss of {len(workers)} processes"),
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
               for k, (v, _) in values.items()}
    lines = [f"{k:<14} {v:.6g} {E2E_UNITS[k]}  ({note})"
             for k, (v, note) in values.items()]
    lines.append(f"(times in seconds rescaled towards the reference host "
                 f"speed: wall seconds x {factor:.4f}, from the probe's "
                 "median rep)")
    return metrics, lines


def layer_value(metric, trace):
    """A per-layer metric of one traced pass: '<span>.calls' and
    '<span>.self_s' from the spans, '<module>.self_s' summed over the
    module's spans, anything else from the counters."""
    spans = trace["spans"]
    base, _, kind = metric.rpartition(".")
    if kind == "calls":
        return spans.get(base, {}).get("calls", 0)
    if kind == "self_s":
        if "." not in base:
            return sum(v["self_s"] for k, v in spans.items()
                       if k.startswith(base + "."))
        return spans.get(base, {}).get("self_s", 0.0)
    return trace["counters"].get(metric, 0)


def trace_metrics(results, suites):
    """Per-layer metrics, printable lines and the trace's problems."""
    traced = [p["trace"] for r in _ok(results["traced"])
              for p in r["passes"]]
    untraced = [p["s"] for r in _ok(results["untraced"])
                for p in r["passes"]]
    if not (traced and untraced):
        return {}, [], ["no traced or untraced pass finished"]
    problems = [e for r in _ok(results["traced"]) for e in r["problems"]]
    counts = [{f"{k}.calls": v["calls"] for k, v in t["spans"].items()}
              | t["counters"] for t in traced]
    for key in sorted(set().union(*counts)):
        seen = {c.get(key, 0) for c in counts}
        if len(seen) > 1:
            problems.append(f"{key} differs between traced passes: "
                            f"{sorted(seen)}")
    for key, want in wl.expected_counts(suites).items():
        got = layer_value(key, traced[0])
        if got != want:
            problems.append(f"{key} = {got}, expected {want} from the "
                            "workload arguments")
    overhead = statistics.median(
        [p["s"] for r in _ok(results["traced"]) for p in r["passes"]]) \
        - statistics.median(untraced)
    metrics, lines = {}, []
    for layer in LAYERS:
        name, unit = layer["name"], layer["unit"]
        if name == "trace.overhead_s":
            value = overhead
        elif unit == "s":
            value = statistics.median(layer_value(name, t) for t in traced)
        else:
            value = layer_value(name, traced[0])
        metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:.6g}" if isinstance(value, float) else value
        lines.append(f"{name:<44} {shown} {unit}")
    lines.append(f"({len(traced)} traced passes, {len(untraced)} untraced; "
                 "times are medians over traced passes, counts per pass, "
                 "bytes computed from array and file sizes)")
    return metrics, lines, problems


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]) != ROOT:
        return "unknown (not a git checkout)"
    return out[1]


def provenance(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "hypext").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_commit": _git_commit(),
            "source_sha256": src.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed,
            "threads": {v: "1" for v in THREAD_VARS}}


def evaluate(results, suites, reference, seed, trace):
    """Gate and metrics of one run: (correct, attempted, failed, metrics,
    printable lines)."""
    runs = results["untraced"] + results["traced"]
    attempted, failed, errors = judge(runs, suites, reference, seed)
    problems = [r["error"] for r in results["setup_only"] if "error" in r]
    if trace:
        metrics, lines, trace_problems = trace_metrics(results, suites)
        problems += trace_problems
    else:
        metrics, lines = e2e_metrics(results, wl.points_per_pass(suites))
    lines.append(f"{'fail_ratio':<14} {failed / max(attempted, 1):.6g}  "
                 f"({failed} of {attempted} passes failed the gate)")
    lines += [f"FAIL {e}" for e in errors + problems]
    correct = failed == 0 and attempted > 0 and not problems and \
        bool(metrics)
    return correct, max(attempted, 1), failed, metrics, lines


def run_workload(name, seed, seconds, trace, corrupt=None):
    """Measure one workload in a scratch directory under _runs."""
    templates = wl.WORKLOADS[name]["suites"]
    suites = wl.suite_argvs(templates, seed, corrupt)
    reference = load_reference(name, templates)
    runner = Runner(name, suites, RUNS / f"{name}-{os.getpid()}")
    try:
        results = measure(runner, seconds, trace)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    return evaluate(results, suites, reference, seed, trace)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", choices=sorted(wl.CORRUPTIONS))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0.0 < args.seconds <= 120.0:
        p.error("--seconds must lie in (0, 120]")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hypext" / "cli.py").is_file():
        print(f"run.py: no hypext sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(wl.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if args.corrupt:
        target = wl.CORRUPTIONS[args.corrupt]
        names = [n for n in names if any(
            s[0] == target for s in wl.WORKLOADS[n]["suites"])]
        if not names:
            print(f"run.py: {args.workload} runs no {target} suite for "
                  f"--corrupt {args.corrupt}", file=sys.stderr)
            return 2
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, met, lines = run_workload(
            name, args.seed, args.seconds, args.trace, args.corrupt)
        print(f"== {name} (trace {args.trace}, seed {args.seed}, "
              f"{args.seconds:g} s)")
        print("\n".join(lines))
        correct &= ok
        attempted += att
        failed += fail
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in met.items()})
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
