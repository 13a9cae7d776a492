"""Fast tests of the benchmark itself: its definition file, the counts it
derives from workload arguments, and that its gate fails what it must.

The process tests run small suites (grid 24) through the same runner,
tracer and gate as the workloads, so they stay within a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import workloads as wl

HERE = Path(__file__).resolve().parent

SMALL = [["converge", "--family", "bump", "--grid", "24", "--theta", "pi/2",
          "--b=-2,-1", "--lambda-prime", "4,6,8,10"],
         ["oracle", "--family", "bump", "--grid", "24", "--s-values", "1,3"]]


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.E2E_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert bench["per_layer"] == [
        {k: layer[k] for k in ("name", "unit", "better")}
        for layer in run.LAYERS]


def test_counts_follow_from_the_arguments():
    fine = wl.suite_argvs(wl.WORKLOADS["converge-fine"]["suites"], 0)
    sweep = wl.suite_argvs(wl.WORKLOADS["converge-sweep"]["suites"], 0)
    assert wl.expected_counts(fine)["hyptrig.solve_r.calls"] == 40 * 390
    assert wl.expected_counts(fine)["fields.at_angles.calls"] == 19440
    assert wl.expected_counts(sweep)["fields.c2_sups.calls"] == 2912
    assert wl.expected_counts(sweep)["fields.c2_distance.calls"] == 232
    assert wl.points_per_pass(fine) == 40 * 192 * 384 * 2


def _reference_run(name):
    templates = wl.WORKLOADS[name]["suites"]
    ref = gate.load_reference(name, templates)
    text = "".join(json.dumps(r, sort_keys=True) + "\n"
                   for r in ref["suites"][0]["records"])
    passes = [{"s": 1.0, "errors": [], "hashes": ["h"]} for _ in range(2)]
    return (wl.suite_argvs(templates, 0), ref,
            {"passes": passes, "reports": {"h": text}})


def test_reference_perturbed_by_one_value_fails_the_gate():
    suites, ref, result = _reference_run("converge-sweep")
    assert gate.judge([result], suites, ref, 0)[:2] == (2, 0)
    record = ref["suites"][0]["records"][7]
    near = copy.deepcopy(ref)
    near["suites"][0]["records"][7]["c0"] = record["c0"] + 1e-12
    assert gate.judge([result], suites, near, 0)[:2] == (2, 0)
    bad = copy.deepcopy(ref)
    bad["suites"][0]["records"][7]["c0"] = record["c0"] + 1e-6
    attempted, failed, errors = gate.judge([result], suites, bad, 0)
    assert failed / attempted > 0
    assert any("record 7.c0" in e for e in errors)


def test_report_that_changes_between_passes_fails_the_gate():
    suites, ref, result = _reference_run("converge-fine")
    result["passes"][1]["hashes"] = ["g"]
    result["reports"]["g"] = result["reports"]["h"]
    attempted, failed, errors = gate.judge([result], suites, ref, 0)
    assert (attempted, failed) == (2, 1)
    assert any("differs from the run's first pass" in e for e in errors)


def _measure(work, suites, trace=False, min_passes=2):
    runner = run.Runner("test", suites, work, min_passes=min_passes)
    return run.measure(runner, seconds=0.1, trace=trace, setup_only=0)


def _reference_of(results, suites):
    res = results["untraced"][0]
    first = res["passes"][0]["hashes"]
    return {"seed": wl.DEFAULT_SEED, "suites": [
        {"argv": argv, "records": [json.loads(line) for line in
                                   res["reports"][h].splitlines()]}
        for argv, h in zip(suites, first)]}


@pytest.fixture(scope="module")
def traced_small(tmp_path_factory):
    results = _measure(tmp_path_factory.mktemp("traced") / "work", SMALL,
                       trace=True)
    return results, _reference_of(results, SMALL)


def test_traced_run_passes_the_gate_and_matches_expected_counts(
        traced_small):
    results, ref = traced_small
    correct, attempted, failed, metrics, lines = run.evaluate(
        results, SMALL, ref, wl.DEFAULT_SEED, trace=True)
    assert correct, lines
    assert attempted >= 4 and failed == 0
    assert set(metrics) == {layer["name"] for layer in run.LAYERS}
    # converge: 8 cuts of 24 + 6 columns; oracle: 2 s values of 12 columns
    # plus 5 array solves in the pullback
    assert metrics["hyptrig.solve_r.calls"]["value"] == \
        8 * (24 + 6) + 2 * (12 + 5)
    assert metrics["fields.c2_distance.calls"]["value"] == 8 + 4
    assert metrics["extension.cut_via_pullback.self_s"]["value"] > 0


@pytest.mark.parametrize("corrupt", ["limit-shift", "formula-beta"])
def test_corruption_hook_fails_the_gate(traced_small, tmp_path, corrupt):
    _, ref = traced_small
    suites = wl.suite_argvs(SMALL, wl.DEFAULT_SEED, corrupt)
    results = _measure(tmp_path / "work", suites, min_passes=1)
    correct, attempted, failed, metrics, lines = run.evaluate(
        results, suites, ref, wl.DEFAULT_SEED, trace=False)
    assert not correct
    assert failed / attempted > 0
    target = wl.CORRUPTIONS[corrupt]
    assert f"FAIL {target}: exit 1" in lines
    assert not any(line.startswith("FAIL") and target not in line
                   for line in lines), lines


def test_without_the_program_the_runner_refuses(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "converge-fine",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
