"""One workload process of the hypext benchmark; run.py starts it.

Usage: python3 worker.py JOB_JSON

The job names the checkout root, the suite argv lists of one pass, a time
budget and whether to trace.  The process measures its own set-up (import
hypext.cli, resolve the first suite's config, build the family with its
positivity check), then runs passes through ``hypext.cli.main`` in a closed
loop until the next pass would end past the budget.  After each pass it
checks the exit codes and the last summary line, and hashes report.jsonl;
after set-up and after each pass it runs the host-speed probe (probe.py).
The result goes to the job's result file as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import probe


def _out_dir(argv):
    return Path(argv[argv.index("--out") + 1])


def run_pass(cli, suites):
    """Run one pass; return its wall time and per-suite outcomes."""
    for argv in suites:
        for f in ("report.jsonl", "summary.txt"):
            (_out_dir(argv) / f).unlink(missing_ok=True)
    codes = []
    t = time.perf_counter()
    for argv in suites:
        try:
            codes.append(cli.main(argv))
        except Exception as e:  # a traceback is a failed pass, not a crash
            codes.append(f"{type(e).__name__}: {e}")
    secs = time.perf_counter() - t
    return secs, codes


def check_outputs(suites, codes, texts):
    """Errors of one pass and the sha256 of each suite's report.jsonl;
    the text of each report not seen before is kept in ``texts``."""
    errors, hashes = [], []
    for argv, code in zip(suites, codes):
        out = _out_dir(argv)
        if code != 0:
            errors.append(f"{argv[0]}: exit {code}")
        summary = out / "summary.txt"
        lines = summary.read_text().splitlines() if summary.exists() else []
        if not lines or not lines[-1].startswith("PASS"):
            errors.append(f"{argv[0]}: summary does not end in PASS")
        report = out / "report.jsonl"
        data = report.read_bytes() if report.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        texts.setdefault(digest, data.decode())
        hashes.append(digest)
    return errors, hashes


def run_passes(cli, job, result, host):
    """Passes in a closed loop until the next one would end past the
    budget, each followed by a probe of the host's speed."""
    suites = job["suites"]
    rec = None
    traced = contextlib.nullcontext()
    if job["trace"]:
        from tracing import SpanRecorder, instrument
        rec = SpanRecorder()
        traced = instrument(rec)
    deadline = time.perf_counter() + job["budget_s"]
    secs_seen = []
    with traced:
        while True:
            secs, codes = run_pass(cli, suites)
            errors, hashes = check_outputs(suites, codes, result["reports"])
            entry = {"s": secs, "errors": errors, "hashes": hashes}
            if rec is not None:
                entry["trace"] = rec.end_pass()
            result["passes"].append(entry)
            result["probe_s"] += host.run(probe.PROBE_SHARE * secs)
            secs_seen.append(secs)
            if (len(secs_seen) >= job["min_passes"] and
                    time.perf_counter() + statistics.median(secs_seen)
                    > deadline):
                break
    if rec is not None:
        rec.write(job["spans"])
        result["problems"] = rec.problems


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    # one CPU for this process and, by inheritance, its probe process, so
    # the probe measures the speed of the CPU the passes ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    from hypext import cli
    if Path(cli.__file__).resolve().parent != (src / "hypext").resolve():
        raise SystemExit(f"hypext was imported from {cli.__file__}, "
                         f"not from {src}")
    suites = job["suites"]
    cfg = cli.resolve_config(cli.build_parser().parse_args(suites[0]))
    cli.build_family(cfg)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "passes": [], "reports": {},
              "problems": []}
    with probe.Probe() as host:
        result["probe_s"] = host.run(probe.PROBE_SHARE * setup_s)
        if job["budget_s"] is not None:
            run_passes(cli, job, result, host)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
