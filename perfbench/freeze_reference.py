"""Freeze the reference reports the benchmark's gate compares with.

    python3 perfbench/freeze_reference.py [WORKLOAD ...]

runs one pass of each named workload (all by default) at the program's
default seed through hypext.cli.main and writes
perfbench/reference/<workload>.json.  Run it only when a change of the
program's reports is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl
from gate import reference_path
from run import ROOT, RUNS


def freeze(name):
    sys.path.insert(0, str(ROOT / "src"))
    from hypext import cli
    work = RUNS / f"freeze-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.txt"
    config.write_text(wl.CONFIG_TEXT)
    suites = []
    try:
        templates = wl.WORKLOADS[name]["suites"]
        for argv, template in zip(
                wl.suite_argvs(templates, wl.DEFAULT_SEED), templates):
            out = work / "out"
            code = cli.main(argv + ["--config", str(config),
                                    "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{name}: {argv[0]} exited {code}")
            records = [json.loads(line) for line in
                       (out / "report.jsonl").read_text().splitlines()]
            suites.append({"argv": template, "records": records})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = reference_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": wl.DEFAULT_SEED, "suites": suites},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    for workload in sys.argv[1:] or sorted(wl.WORKLOADS):
        freeze(workload)
