import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypext import cli


def run(args):
    return cli.main(args)


def read_jsonl(out_dir):
    return [json.loads(line)
            for line in (Path(out_dir) / "report.jsonl").read_text().splitlines()
            if line]


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "schema_version = 1\n"
        "# comment line\n"
        "seed = 7\n"
        "grid = 48\n"
        f"out = {tmp_path / 'a'}\n")
    rc = run(["identities", "--config", str(cfgfile),
              "--out", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "b" / "report.jsonl").exists()
    assert not (tmp_path / "a").exists()
    recs = read_jsonl(tmp_path / "b")
    assert all(r["seed"] == 7 for r in recs)


def test_unknown_config_key_is_exit_2(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("no_such_key = 3\n")
    assert run(["identities", "--config", str(cfgfile)]) == 2


def test_bad_schema_version_is_exit_2(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("schema_version = 99\n")
    assert run(["identities", "--config", str(cfgfile)]) == 2


def test_unknown_subcommand_is_exit_2(tmp_path):
    assert run(["frobnicate"]) == 2


def test_angle_parsing():
    assert cli.parse_angle("pi/2") == math.pi / 2
    assert cli.parse_angle("pi") == math.pi
    assert cli.parse_angle("0.75") == 0.75
    for bad in ("pi/0", "pi/x", "nan", "inf", "pi/nan", ""):
        with pytest.raises(cli.ConfigError):
            cli.parse_angle(bad)


@pytest.mark.parametrize("argv", [
    ["converge", "--theta", "pi/0"],
    ["converge", "--theta", "nan"],
    ["oracle", "--s-values", "800"],
    ["oracle", "--s-values", "1,nan"],
    ["oracle", "--s-values", "0"],
    ["identities", "--seed", "-1"],
    ["converge", "--b=nan"],
    ["converge", "--b=-inf"],
    ["converge", "--b="],
    ["converge", "--lambda-prime", "nan"],
    ["converge", "--lambda-prime", "4,inf"],
    ["converge", "--lambda-prime", "0,4"],
    ["identities", "--fd-step", "0"],
    ["identities", "--fd-step", "-0.001"],
    ["identities", "--fd-step", "nan"],
    ["identities", "--grid", "100000"],
])
def test_bad_numeric_input_is_exit_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "hypext" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite,line", [
    ("identities", "s_min = nan"),
    ("identities", "beta_max = nan"),
    ("claim", "claim_lambda_max = inf"),
    ("converge", "bump_support_end = inf"),
    ("oracle", "bump_base_lambda = nan"),
    ("identities", "fd_step = 0"),
])
def test_non_finite_config_file_value_is_exit_2(tmp_path, suite, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"schema_version = 1\n{line}\n")
    assert run([suite, "--config", str(cfgfile), "--grid", "24",
                "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# fuzzed command lines: exit codes are exact and never a traceback
# ---------------------------------------------------------------------------

def _listed(tokens):
    return st.lists(st.sampled_from(tokens), min_size=1,
                    max_size=3).map(",".join)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


_argv = st.tuples(
    st.sampled_from(["identities", "oracle", "converge", "claim"]),
    _flag("family", st.sampled_from(["bump", "hyperbolic"])),
    _flag("theta", _listed(["pi/2", "pi/3", "pi/6", "0.9", "pi/0", "nan",
                            "0", "pi", "-1", "inf"])),
    _flag("b", st.one_of(st.just("auto"), _listed(
        ["-2", "-1", "0", "0.5", "3", "nan", "inf", "-inf", "x"]))),
    _flag("lambda-prime", _listed(["4", "6", "10", "0", "-1", "nan", "inf",
                                   "1e6"])),
    _flag("s-values", _listed(["1", "3", "0.01", "0", "-1", "349", "350",
                               "800", "nan"])),
    _flag("seed", st.integers(-3, 50).map(str)),
    _flag("fd-step", st.sampled_from(["0", "-0.001", "0.02", "1e-3",
                                      "1e-300", "0.5", "nan", "inf"])),
    _flag("grid", st.integers(-1, 48).map(str)),
).map(lambda parts: [parts[0]] + [a for flag in parts[1:] for a in flag])


@settings(max_examples=40, deadline=None)
@given(_argv)
def test_fuzzed_argv_gives_an_exact_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out", str(out)])
        err = err.getvalue()
        assert rc in (0, 1, 2), (argv, rc, err)
        assert "Traceback" not in err
        if rc == 1:
            summary = out / "summary.txt"
            assert ("verification failed" in err or (
                summary.exists() and "FAIL" in summary.read_text())), argv


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_identities_pass_and_outputs(tmp_path):
    out = tmp_path / "out"
    assert run(["identities", "--out", str(out), "--seed", "3"]) == 0
    recs = read_jsonl(out)
    names = {r["identity"] for r in recs}
    assert {"law_of_sines", "cross_identity", "pythagorean",
            "polar_identity_fd", "polar_identity_closed",
            "shift_gap_at_30"} <= names
    assert all(r["passed"] for r in recs)
    summary = (out / "summary.txt").read_text()
    assert "PASS identities suite" in summary
    csv = (out / "report.csv").read_text().splitlines()
    assert csv[0].startswith("identity,")
    assert len(csv) == len(recs) + 1


def test_identities_negative_control_fd_step(tmp_path):
    out = tmp_path / "out"
    # runnable but far too coarse: tolerance breach, exit 1
    assert run(["identities", "--out", str(out), "--fd-step", "0.02"]) == 1
    summary = (out / "summary.txt").read_text()
    assert "FAIL" in summary


def test_identities_unrunnable_fd_step_is_refused(tmp_path):
    # the stencil cannot fit the grid at all: precondition error, exit 2
    out = tmp_path / "out"
    assert run(["identities", "--out", str(out), "--fd-step", "0.5"]) == 2


def test_identities_narrowed_grid(tmp_path):
    cfgfile = tmp_path / "narrow.cfg"
    cfgfile.write_text(
        "schema_version = 1\n"
        "s_min = 1.0\ns_max = 2.0\nbeta_min = 0.5\nbeta_max = 1.0\n")
    out = tmp_path / "out"
    assert run(["identities", "--config", str(cfgfile),
                "--out", str(out)]) == 0
    recs = read_jsonl(out)
    assert all(r["s_range"] == [1.0, 2.0] for r in recs)


def test_identities_shift_gap_fails_on_nan(tmp_path, monkeypatch):
    # NaN from the second angle on: a builtin max keeps the first, finite
    # gap and drops the rest
    from hypext import hyptrig as ht
    real = ht.vartheta

    def vartheta(lam, beta, b, theta):
        return math.nan if beta > 0.1 else real(lam, beta, b, theta)

    monkeypatch.setattr(ht, "vartheta", vartheta)
    out = tmp_path / "out"
    assert run(["identities", "--out", str(out)]) == 1
    rec = {r["identity"]: r for r in read_jsonl(out)}["shift_gap_at_30"]
    assert math.isnan(rec["worst"]) and not rec["passed"]


def test_identities_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["identities", "--out", str(a), "--seed", "11"]) == 0
    assert run(["identities", "--out", str(b), "--seed", "11"]) == 0
    assert (a / "report.jsonl").read_bytes() == (b / "report.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["hyperbolic", "bump"])
def test_oracle_passes(tmp_path, family):
    out = tmp_path / "out"
    rc = run(["oracle", "--out", str(out), "--family", family,
              "--s-values", "1,3", "--grid", "48"])
    assert rc == 0
    recs = read_jsonl(out)
    assert len(recs) == 2
    for r in recs:
        assert r["passed"]
        assert r["max_rel_err_block_M"] < 1e-5
        assert r["max_abs_offdiag"] < 1e-6


def test_oracle_negative_control(tmp_path):
    out = tmp_path / "out"
    rc = run(["oracle", "--out", str(out), "--family", "hyperbolic",
              "--s-values", "1", "--grid", "48",
              "--corrupt", "formula-beta"])
    assert rc == 1


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_smoke(tmp_path):
    out = tmp_path / "out"
    rc = run(["converge", "--out", str(out), "--family", "bump",
              "--theta", "pi/2", "--lambda-prime", "4,6,8",
              "--b", "0.0,0.5", "--grid", "48"])
    assert rc == 0
    recs = read_jsonl(out)
    assert len(recs) == 6
    cols = (Path(out) / "report.csv").read_text().splitlines()[0]
    assert cols == ("theta,b,lambda_prime,c0,c1,c2,grid,fd_step,"
                    "family_id,boundary_M_c0,boundary_H_c0")


def test_converge_hyperbolic_family_is_exact(tmp_path):
    # the constantly round family is a fixed point: every distance sits at
    # the exact-zero floor and the suite still passes
    out = tmp_path / "out"
    rc = run(["converge", "--out", str(out), "--family", "hyperbolic",
              "--theta", "pi/2,pi/3", "--lambda-prime", "4,6,8,10",
              "--b=-1.0,0.0", "--grid", "48"])
    assert rc == 0
    for r in read_jsonl(out):
        assert max(r["c0"], r["c1"], r["c2"]) < 1e-10


def test_converge_refuses_b_beyond_c_prime(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(["converge", "--out", str(out), "--family", "bump",
              "--theta", "pi/3", "--b", "2.0", "--grid", "48"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "c'" in err and "ln sin(theta)" in err


def test_converge_negative_control(tmp_path):
    out = tmp_path / "out"
    rc = run(["converge", "--out", str(out), "--family", "bump",
              "--theta", "pi/2", "--lambda-prime", "4,6",
              "--b", "0.0", "--grid", "48", "--corrupt", "limit-shift"])
    assert rc == 1


def test_converge_with_full_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "schema_version = 1\n"
        "family = bump\n"
        "theta = pi/2\n"
        "b = -1.0,0.5\n"
        "lambda_prime = 4,6,8,10\n"
        "grid = 48\n"
        "bump_amplitude = 0.03\n"
        "bump_direction = cos2\n")
    out = tmp_path / "out"
    assert run(["converge", "--config", str(cfgfile), "--out", str(out)]) == 0
    recs = read_jsonl(out)
    assert all("eps=0.03,cos2" in r["family_id"] for r in recs)
    assert {r["b"] for r in recs} == {-1.0, 0.5}


def test_converge_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["converge", "--family", "bump", "--theta", "pi/2",
            "--lambda-prime", "4,6,8,10", "--b", "0.0", "--grid", "48"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "report.jsonl").read_bytes() == (b / "report.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# claim
# ---------------------------------------------------------------------------

def test_claim_passes(tmp_path):
    out = tmp_path / "out"
    rc = run(["claim", "--out", str(out), "--family", "bump",
              "--theta", "pi/2,pi/3"])
    assert rc == 0
    recs = read_jsonl(out)
    assert len(recs) == 2
    for r in recs:
        assert r["passed"] and r["lambda0"] <= 10.0


def test_claim_hyperbolic_trivially_consistent(tmp_path):
    out = tmp_path / "out"
    assert run(["claim", "--out", str(out), "--family", "hyperbolic",
                "--theta", "pi/2"]) == 0


def test_claim_negative_control(tmp_path):
    out = tmp_path / "out"
    rc = run(["claim", "--out", str(out), "--family", "bump",
              "--theta", "pi/2", "--corrupt", "beta1-large"])
    assert rc == 1

