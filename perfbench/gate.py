"""Correctness gate of the hypext benchmark.

A pass is correct only when every suite exits 0, every summary.txt ends in
a PASS line, each suite's report.jsonl is byte-identical to the one of the
run's first pass, and that report matches the frozen reference in
``reference/``.  The reference holds the reports at the program's default
seed; a suite that takes the seed is compared with it only at that seed
(its other checks hold at every seed).

Numbers are compared within ``|x - ref| <= REL_TOL * max(1, |ref|)``.  The
reports are sups of differences, and the largest amplification of a
last-bit change sits in two places:

* the C^2 part of a converge distance is a second central difference,
  so a one-ulp change of block_m (values near 1, ulp 2.2e-16) moves c2 by
  up to 4 ulp / h^2; on the finest grid (grid 384, h_beta = 3.84e-3) that
  is 6.0e-11;
* the oracle's relative errors come from a Richardson difference of the
  triangle solvers with step 1e-5, which turns one ulp into about 2e-11.

REL_TOL = 1e-9 leaves 16 or more such ulps of room for a reordered but
equivalent computation, and stays far below what any gate of the program
tests: final C^2 1e-4, boundary 1e-6, oracle 1e-5.  The corruption hooks
move a report by 1e-3 (limit-shift) or 1e-2 (formula-beta).
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-9


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload, templates):
    """{"seed": int, "suites": [{"argv": [...], "records": [...]}]}, frozen
    for the given suite argv templates."""
    ref = json.loads(reference_path(workload).read_text())
    if [s["argv"] for s in ref["suites"]] != templates:
        raise ValueError(f"{reference_path(workload)} was frozen for other "
                         "suite arguments")
    return ref


def _diff(got, ref, where, out):
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not abs(got - ref) <= REL_TOL * max(1.0, abs(ref)):
            out.append(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, list) and isinstance(got, list) \
            and len(got) == len(ref):
        for i, (g, r) in enumerate(zip(got, ref)):
            _diff(g, r, f"{where}[{i}]", out)
    elif isinstance(ref, dict) and isinstance(got, dict) \
            and got.keys() == ref.keys():
        for k in sorted(ref):
            _diff(got[k], ref[k], f"{where}.{k}", out)
    elif type(got) is not type(ref) or got != ref:
        out.append(f"{where}: {got!r} != reference {ref!r}")


def compare_report(text, ref_records):
    """Differences between a report.jsonl text and reference records."""
    try:
        got = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as e:
        return [f"report.jsonl is not JSON lines: {e}"]
    out = []
    if len(got) != len(ref_records):
        return [f"{len(got)} records, reference has {len(ref_records)}"]
    for i, (g, r) in enumerate(zip(got, ref_records)):
        _diff(g, r, f"record {i}", out)
    return out


def judge(results, suites, reference, seed):
    """Count the passes of one run that fail the gate.

    ``results`` are the worker results of the run in the order they ran
    (a worker that died is ``{"error": ...}`` and counts as one failed
    attempt).  Returns (attempted, failed, errors) with each distinct
    error message once.
    """
    ref_suites = reference["suites"]
    verdict = {}   # (suite index, report hash) -> errors

    def report_errors(i, digest, texts):
        key = (i, digest)
        if key not in verdict:
            argv = suites[i]
            if "--seed" in argv and seed != reference["seed"]:
                verdict[key] = []
            else:
                verdict[key] = [f"{argv[0]}: {e}" for e in compare_report(
                    texts[digest], ref_suites[i]["records"])][:5]
        return verdict[key]

    attempted = failed = 0
    first = None
    errors = []
    for res in results:
        if "error" in res:
            attempted += 1
            failed += 1
            errors.append(res["error"])
            continue
        for p in res["passes"]:
            attempted += 1
            errs = list(p["errors"])
            first = first or p["hashes"]
            for i, (digest, want) in enumerate(zip(p["hashes"], first)):
                if digest != want:
                    errs.append(f"{suites[i][0]}: report.jsonl differs "
                                "from the run's first pass")
                errs.extend(report_errors(i, digest, res["reports"]))
            if errs:
                failed += 1
                errors.extend(e for e in errs if e not in errors)
    return attempted, failed, errors
