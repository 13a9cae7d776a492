import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
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


def test_config_file_without_schema_version_is_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "bare.cfg"
    cfgfile.write_text("grid = 24\n")
    out = tmp_path / "out"
    assert run(["identities", "--config", str(cfgfile),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "missing key 'schema_version'" in err and "Traceback" not in err
    assert not out.exists()


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
    ["identities", "--seed", "1.5"],
    ["converge", "--grid", "23"],
    ["oracle", "--s-values", "350"],
    ["converge", "--grid", "100000"],
    # unusable paths; {tmp} holds the file "file" and nothing else
    ["identities", "--config", "{tmp}/missing.cfg"],
    ["identities", "--config", "{tmp}"],
    ["identities", "--out", "{tmp}/file"],
    ["identities", "--out", "{tmp}/file/sub"],
    # a repeated b is bad input, not a failed decay check
    ["converge", "--grid", "24", "--theta", "pi/2", "--b=0.5,0.5"],
    ["converge", "--grid", "24", "--theta", "pi/2", "--b=0.5,-1,0.5"],
    # a lambda' grid must increase strictly: one rule for a repeat and a
    # step down
    ["converge", "--grid", "24", "--lambda-prime", "4,4"],
    ["converge", "--grid", "24", "--lambda-prime", "6,4"],
    # a corruption hook belongs to one suite; no other suite takes it
    ["converge", "--grid", "24", "--corrupt", "formula-beta"],
    ["claim", "--corrupt", "limit-shift"],
    ["oracle", "--grid", "24", "--corrupt", "beta1-large"],
    ["identities", "--corrupt", "limit-shift"],
    # below extension.RADIUS_MIN the compared blocks are subnormal: a
    # vacuous PASS at 1e-160, a 0/0 at 1e-170
    ["oracle", "--grid", "24", "--s-values", "1e-160"],
    ["oracle", "--grid", "24", "--s-values", "1e-170"],
    # beyond hyptrig.LAMBDA_PRIME_MAX = 700, lambda' + b rounds b away
    # (false decay failures) and near 1e308 the solvers overflow
    ["converge", "--lambda-prime", "4,6,8,700.5"],
    ["converge", "--lambda-prime", "4,6,8,1e8"],
    ["converge", "--lambda-prime", "4,6,8,1e308"],
    # an empty out would be the current directory
    ["identities", "--out", ""],
    # an out the reports cannot be written into: a path component longer
    # than any file system admits
    ["identities", "--out", "{tmp}/" + "a" * 300],
    # the console step's refusals, as CI ran them: a flag the suite does
    # not read; a theta whose claim sweep would start above its top,
    # lambda' = 700, alone or after one that verifies; lambda' beyond 700
    # and a sphere radius of 350 at the smallest grid
    ["identities", "--grid", "24"],
    ["claim", "--theta", "1e-304"],
    ["claim", "--theta", "pi/2,1e-304"],
    ["converge", "--grid", "24", "--lambda-prime", "4,6,8,1e8"],
    ["oracle", "--grid", "24", "--s-values", "350"],
])
def test_bad_numeric_input_is_exit_2(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    # a later --out in argv overrides this one
    assert run(argv[:1] + ["--out", str(tmp_path / "out")] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "hypext" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no os.symlink")
def test_out_under_a_dangling_symlink_is_exit_2(tmp_path, capsys):
    # out's nearest existing parent is a directory, so the suite runs; the
    # reports cannot be written, which is bad input, not a traceback
    os.symlink(tmp_path / "missing", tmp_path / "dangling")
    out = tmp_path / "dangling" / "out"
    assert run(["identities", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"hypext: cannot write reports into {out}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("suite,line", [
    ("converge", "bump_support_end = inf"),
    # the polar identity's step is a module constant, not a key
    ("identities", "fd_step = 0"),
    # every key is checked whichever suite runs
    ("identities", "bump_direction = foo"),
    ("identities", "bump_support_start = 2"),
    # a file sets each key once, not the last of several values
    ("identities", "seed = 1\nseed = 2"),
    # at so small a theta the claim's threshold sweep would start above
    # its top, lambda' = 700: refused, not swept backwards into a failed
    # inequality
    ("claim", "theta = 1e-304"),
    # the bump shape is fixed (families.BUMP_SUPPORT and BUMP_AMPLITUDE):
    # its support and amplitude are not configuration keys
    ("identities", "bump_amplitude = -30"),
    ("converge", "bump_direction = cos2\nbump_amplitude = -1"),
    ("converge", "bump_direction = cos2\nbump_amplitude = -1.00001"),
    # the extension rank and the base dimension are fixed (1 and 2): they
    # are not configuration keys
    ("converge", "k = 1"),
    ("oracle", "n = 2"),
    # so are the identities suite's sampling ranges, the oracle's base
    # member and the claim's sweep top (module constants)
    ("identities", "s_min = 0"),
    ("identities", "s_max = 1000"),
    ("identities", "beta_min = 0.01"),
    ("identities", "beta_max = 0.005"),
    ("oracle", "bump_base_lambda = nan"),
    ("claim", "claim_lambda_max = 0.5"),
    # an empty out would be the current directory
    ("identities", "out ="),
    # no path holds a NUL byte
    ("identities", "out = a\0b"),
    # the amplitude is refused even at the family's own value
    ("identities", "bump_amplitude = 0.05"),
])
def test_non_finite_config_file_value_is_exit_2(tmp_path, capsys, suite,
                                                line):
    cfgfile = tmp_path / "bad.cfg"
    # the grid is a file key, since not every suite takes --grid
    cfgfile.write_text(f"schema_version = 1\ngrid = 24\n{line}\n")
    assert run([suite, "--config", str(cfgfile),
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "hypext" in err and "Traceback" not in err
    if line.split("=")[0].strip() not in cli.DEFAULTS:
        assert "unknown key" in err


@pytest.mark.parametrize("grid", ["4,4", "6,4"])
def test_lambda_prime_order_has_one_rule(tmp_path, capsys, grid):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"schema_version = 1\nlambda_prime = {grid}\n")
    for argv in (["--lambda-prime", grid], ["--config", str(cfgfile)]):
        assert run(["converge", "--grid", "24", *argv,
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "is not strictly increasing" in err
        assert "Traceback" not in err


def test_config_file_range_error_names_its_line(tmp_path, capsys):
    # a range error in a file names the file and line, as a non-finite
    # value does; the file value is checked even where a flag overrides it
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("schema_version = 1\n# the grid\ngrid = 23\n")
    out = tmp_path / "out"
    for flags in ([], ["--grid", "48"]):
        assert run(["converge", "--config", str(cfgfile), *flags,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfgfile}:3: bad value for grid: 23 lies outside" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_report_name_taken_by_a_directory_is_exit_2(tmp_path, capsys):
    # refused before the suite runs: no temporary is left, and an earlier
    # run's reports stay as they were
    out = tmp_path / "out"
    assert run(["identities", "--out", str(out)]) == 0
    earlier = (out / "report.jsonl").read_bytes()
    (out / "report.csv").unlink()
    (out / "report.csv").mkdir()
    assert run(["identities", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "report.csv exists and is not a file" in err
    assert "Traceback" not in err
    assert list(out.glob("*.tmp-*")) == []
    assert (out / "report.jsonl").read_bytes() == earlier


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_failed_report_write_leaves_no_temporary(tmp_path, monkeypatch,
                                                 failure):
    out = tmp_path / "out"
    cli.write_reports(out, [{"a": 1.0}], ("a",), ["old"])
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    if failure == "write":
        # the last temporary cannot be written: a directory holds its name
        blocker = out / f"summary.txt.tmp-{os.getpid()}"
        blocker.mkdir()
    else:
        def replace(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(cli.os, "replace", replace)
    with pytest.raises(OSError):
        cli.write_reports(out, [{"a": 2.0}], ("a",), ["new"])
    left = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert left == earlier
    if failure == "write":
        assert blocker.is_dir()


# the flags of each suite besides --config and --out (README "Command
# line"), each with a value the suite accepts
SUITE_FLAGS = {
    "identities": {"--seed": "1"},
    "oracle": {"--family": "bump", "--grid": "48", "--s-values": "1"},
    "converge": {"--family": "bump", "--theta": "pi/2", "--b": "0",
                 "--lambda-prime": "4,6", "--grid": "48"},
    "claim": {"--family": "bump", "--theta": "pi/2"},
}
# flags of deleted keys, which every suite refuses (the polar identity's
# step is extension.POLAR_FD_STEP)
GONE_FLAGS = {"--fd-step": "0.02"}
FLAG_VALUES = {flag: value for flags in (*SUITE_FLAGS.values(), GONE_FLAGS)
               for flag, value in flags.items()}


@pytest.mark.parametrize("suite,flag", [
    (suite, flag) for suite in sorted(SUITE_FLAGS)
    for flag in sorted(FLAG_VALUES) if flag not in SUITE_FLAGS[suite]])
def test_flag_a_suite_does_not_read_is_exit_2(tmp_path, capsys, suite,
                                              flag):
    out = tmp_path / "out"
    assert run([suite, flag, FLAG_VALUES[flag], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "hypext" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("suite,key,value", [
    ("converge", "grid", "48"),
    ("converge", "theta", "pi/3,0.9"),
    ("converge", "b", "-1,0.5"),
    ("converge", "lambda_prime", "4,6"),
    ("oracle", "family", "hyperbolic"),
    ("oracle", "s_values", "1,3"),
    ("identities", "seed", "5"),
])
def test_flag_file_line_and_default_resolve_alike(tmp_path, suite, key,
                                                  value):
    def resolved(*argv):
        args = cli.build_parser().parse_args(
            [suite, "--out", str(tmp_path / "out"), *argv])
        return cli.resolve_config(args)

    flag = "--" + key.replace("_", "-")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"schema_version = 1\n{key} = {value}\n")
    default = resolved()
    assert resolved(f"{flag}={value}") == resolved("--config", str(cfgfile))
    assert resolved(f"{flag}={value}") != default
    # the default given as a flag, alone or over the file line
    assert resolved(f"{flag}={cli.DEFAULTS[key]}") == default
    assert resolved("--config", str(cfgfile),
                    f"{flag}={cli.DEFAULTS[key]}") == default


# ---------------------------------------------------------------------------
# fuzzed command lines: exit codes are exact and never a traceback
# ---------------------------------------------------------------------------

def _listed(tokens):
    return st.lists(st.sampled_from(tokens), min_size=1,
                    max_size=3).map(",".join)


def _flag(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


_FLAG_DRAWS = {
    "--family": st.sampled_from(["bump", "hyperbolic"]),
    "--theta": _listed(["pi/2", "pi/3", "pi/6", "0.9", "pi/0", "nan", "0",
                        "pi", "-1", "inf"]),
    "--b": st.one_of(st.just("auto"), _listed(
        ["-2", "-1", "0", "0.5", "3", "nan", "inf", "-inf", "x"])),
    "--lambda-prime": _listed(["4", "6", "10", "0", "-1", "nan", "inf",
                               "1e6"]),
    "--s-values": _listed(["1", "3", "0.01", "0", "-1", "349", "350", "800",
                           "nan", "1e-150", "3e-153", "1e-160", "1e-170",
                           "5e-324"]),
    "--seed": st.integers(-3, 50).map(str),
    "--grid": st.integers(-1, 48).map(str),
}

# a suite and some of its own flags, so that every example reaches it
_argv = st.sampled_from(sorted(SUITE_FLAGS)).flatmap(
    lambda suite: st.tuples(*(_flag(flag, _FLAG_DRAWS[flag])
                              for flag in SUITE_FLAGS[suite]))
    .map(lambda flags: [suite] + [a for flag in flags for a in flag]))


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
# report.csv
# ---------------------------------------------------------------------------

def _csv_cell(value):
    # floats as repr, lists joined by "x", anything else as str
    if isinstance(value, list):
        return "x".join(str(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("argv,code", [
    (["identities"], 0), (["oracle"], 0), (["converge"], 0), (["claim"], 0),
    # a failed claim's record lacks lambda0 and the later columns
    (["claim", "--corrupt", "beta1-large"], 1),
], ids=["identities", "oracle", "converge", "claim", "claim-failed"])
def test_report_csv_is_well_formed(tmp_path, argv, code):
    # the cos2 bump family's id holds commas, which must be quoted
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("schema_version = 1\ngrid = 24\n"
                       "bump_direction = cos2\n")
    out = tmp_path / "out"
    assert run(argv + ["--config", str(cfgfile), "--out", str(out)]) == code
    with open(out / "report.csv", newline="") as f:
        header, *rows = csv.reader(f)
    recs = read_jsonl(out)
    assert len(rows) == len(recs) > 0
    for row, rec in zip(rows, recs):
        assert len(row) == len(header)
        assert row == [_csv_cell(rec[col]) for col in header]
    if argv[0] == "converge":
        assert all("," in rec["family_id"] for rec in recs)
    if code:
        assert all(rec["lambda0"] == "" for rec in recs)


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
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("identity,")
    assert len(csv_lines) == len(recs) + 1


def test_identities_unrunnable_fd_step_is_refused(tmp_path, monkeypatch):
    # the stencil cannot fit the grid at all: precondition error, exit 2
    monkeypatch.setattr(cli.ext, "POLAR_FD_STEP", 0.5)
    out = tmp_path / "out"
    assert run(["identities", "--out", str(out)]) == 2
    assert not out.exists()


def test_identities_shift_gap_fails_on_nan(tmp_path, monkeypatch):
    # NaN from the second angle on, which is every gap after the first
    # angle's: a builtin max would keep a first, finite gap and drop the rest
    from hypext import hyptrig as ht
    real = ht.vartheta

    def vartheta(lam, beta, b, theta):
        return np.where(beta > 0.1, math.nan, real(lam, beta, b, theta))

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


# a seed of two 64-bit limbs, 2**64 + 5
BIG_SEED = 2 ** 64 + 5


def _splitmix64(state, n):
    """SplitMix64's first n outputs from ``state``, on Python ints: the
    published generator, as the reference of the suite's stream."""
    mask = 2 ** 64 - 1
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed, state", [
    (0, 0), (1, 1), (2 ** 63, 2 ** 63), (2 ** 64 - 1, 2 ** 64 - 1),
    # the high limb folds in through the mix's first multiplier
    (BIG_SEED, (0xBF58476D1CE4E5B9 + 5) % 2 ** 64),
])
def test_identities_stream_is_splitmix64(seed, state):
    # below 2**64 the seed is SplitMix64's state itself, so those seeds
    # have distinct streams; draw i keeps the top 53 bits of output i
    got = cli._uniforms(seed, 0, 5)
    assert got.tolist() == [(z >> 11) * 2.0 ** -53
                            for z in _splitmix64(state, 5)]
    # a slice drawn on its own is that slice of the stream
    assert cli._uniforms(seed, 3, 2).tolist() == got[3:].tolist()
    # SplitMix64's published first output from state 0
    assert _splitmix64(0, 1) == [0xE220A8397B1DCDAF]


def test_identities_seeds_give_different_worst_values(tmp_path):
    sampled = ("law_of_sines", "cross_identity", "pythagorean",
               "leg_two_forms", "reparam_round_trip")
    worst = []
    for seed in (0, 1, BIG_SEED):
        out = tmp_path / str(seed)
        assert run(["identities", "--seed", str(seed), "--out", str(out)]) == 0
        recs = {r["identity"]: r["worst"] for r in read_jsonl(out)}
        worst.append([recs[name] for name in sampled])
    for name, values in zip(sampled, zip(*worst)):
        assert len(set(values)) == 3, name


@pytest.mark.parametrize("seed", [0, BIG_SEED])
def test_identities_draws_lie_in_their_ranges(seed):
    draws = cli.identities_draws(seed)
    assert list(draws) == [name for name, _, _ in cli.IDENTITIES_DRAWS]
    for name, (lo, hi), shape in cli.IDENTITIES_DRAWS:
        x = draws[name]
        assert x.shape == shape and x.dtype == np.float64
        assert np.all((lo <= x) & (x < hi)), name


@pytest.mark.parametrize("seed", [0, BIG_SEED])
def test_identities_draws_fill_their_deciles(seed):
    # a 10,000-draw range puts 1,000 draws in each tenth, +-150 (about
    # five standard deviations of a binomial(10,000, 0.1) count)
    draws = cli.identities_draws(seed)
    for name, (lo, hi), shape in cli.IDENTITIES_DRAWS:
        if math.prod(shape) != 10_000:
            continue
        counts, _ = np.histogram(draws[name], bins=10, range=(lo, hi))
        assert np.all(np.abs(counts - 1000) <= 150), (name, counts)


@pytest.mark.parametrize("seed", [*range(20), BIG_SEED])
def test_identities_pass_at_many_seeds_without_warnings(tmp_path, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["identities", "--seed", str(seed),
                    "--out", str(tmp_path)]) == 0


def test_no_suite_imports_numpy_random(tmp_path):
    # a fresh interpreter: pytest and hypothesis may import numpy.random
    # into this one themselves
    script = (
        "import sys\n"
        "from hypext.cli import main\n"
        "out = sys.argv[1]\n"
        "for argv in (['identities'], ['oracle', '--grid', '24'],\n"
        "             ['converge', '--grid', '24'], ['claim']):\n"
        "    if main([*argv, '--out', f'{out}/{argv[0]}']) != 0:\n"
        "        sys.exit(f'{argv[0]} did not pass')\n"
        "if 'numpy.random' in sys.modules:\n"
        "    sys.exit('numpy.random was imported')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


def test_converge_passes_at_the_top_lambda_prime(tmp_path):
    # lambda' = hyptrig.LAMBDA_PRIME_MAX = 700 is the largest admitted
    out = tmp_path / "out"
    assert run(["converge", "--out", str(out), "--grid", "24",
                "--lambda-prime", "4,6,8,700"]) == 0
    assert max(r["lambda_prime"] for r in read_jsonl(out)) == 700.0


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


def test_converge_refuses_auto_b_grid_below_minus_two(tmp_path, capsys,
                                                      monkeypatch):
    # c' = 1 + ln sin(0.04) - 0.1 ~ -2.32: the auto grid [-2, c'] would
    # hold b values beyond c' only.  Every b grid is resolved before the
    # first cut, so pi/2, which comes first, is not cut either.
    cuts = []
    monkeypatch.setattr(cli.cl, "run_convergence",
                        lambda *args, **kw: cuts.append(args))
    out = tmp_path / "out"
    rc = run(["converge", "--out", str(out), "--grid", "24",
              "--theta", "pi/2,0.04"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "auto b grid" in err and "theta = 0.04" in err
    assert "Traceback" not in err
    assert cuts == [] and not out.exists()


def test_converge_computes_each_thetas_indices_once(tmp_path, monkeypatch):
    # the indices cmd_converge checks before the first cut are the ones
    # run_convergence cuts with
    calls = []
    real = cli.cl.cut_indices

    def cut_indices(theta, lambda_primes, b_min):
        calls.append(theta)
        return real(theta, lambda_primes, b_min)

    monkeypatch.setattr(cli.cl, "cut_indices", cut_indices)
    assert run(["converge", "--grid", "24", "--theta", "pi/2,pi/3",
                "--out", str(tmp_path / "out")]) == 0
    assert calls == [math.pi / 2, math.pi / 3]


def test_converge_summary_is_each_thetas_verdict(tmp_path, monkeypatch):
    # summary.txt lists every theta's line, then every theta's failures,
    # then the verdict, each as check_convergence_assertions gives it; the
    # boundary gate fails at lambda' + b = 5
    reports = []
    real = cli.cl.run_convergence

    def run_convergence(*args, **kw):
        reports.append(real(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(cli.cl, "run_convergence", run_convergence)
    out = tmp_path / "out"
    assert run(["converge", "--grid", "24", "--lambda-prime", "4,5",
                "--b=-1,0", "--out", str(out)]) == 1
    verdicts = [cli.cl.check_convergence_assertions(rep) for rep in reports]
    failures = [f"FAIL {f}" for _, fails in verdicts for f in fails]
    assert len(verdicts) == 2 and failures
    assert (out / "summary.txt").read_text().splitlines() == [
        *(line for line, _ in verdicts), *failures,
        "FAIL converge suite (bump[B=-1,c=1,eps=0.05,uniform])"]


@pytest.mark.parametrize("argv,message", [
    # reparam(1, 0.3) = 0.3407 is below LAMBDA_MIN = 0.5
    (["--theta", "pi/2,0.3", "--b=-0.5", "--lambda-prime", "1,2"],
     "family index 0.340668 below LAMBDA_MIN"),
    # lambda' + b = 1 - 1.5 is no sphere radius
    (["--theta", "pi/3,pi/2", "--b=-1.5", "--lambda-prime", "1,4"],
     "cut radius lambda'+b = -0.5"),
], ids=["index", "radius"])
def test_converge_checks_every_theta_before_the_first_cut(
        tmp_path, capsys, monkeypatch, argv, message):
    # the smallest lambda' and b of every theta are checked before the
    # first theta is measured
    def measure(*args, **kw):
        raise AssertionError("a theta was measured before every theta "
                             "was checked")

    monkeypatch.setattr(cli.cl, "run_convergence", measure)
    out = tmp_path / "out"
    rc = run(["converge", "--out", str(out), "--grid", "24"] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_converge_with_full_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "schema_version = 1\n"
        "family = bump\n"
        "theta = pi/2\n"
        "b = -1.0,0.5\n"
        "lambda_prime = 4,6,8,10\n"
        "grid = 48\n"
        "bump_direction = cos2\n")
    out = tmp_path / "out"
    assert run(["converge", "--config", str(cfgfile), "--out", str(out)]) == 0
    recs = read_jsonl(out)
    assert all("eps=0.05,cos2" in r["family_id"] for r in recs)
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


def test_claim_passes_at_a_small_theta(tmp_path):
    # at theta = 0.1 the claim grid starts where lambda' + c' <= 0; those
    # points are skipped and the rest verifies
    out = tmp_path / "out"
    assert run(["claim", "--theta", "0.1", "--out", str(out)]) == 0


def test_claim_hyperbolic_trivially_consistent(tmp_path):
    out = tmp_path / "out"
    assert run(["claim", "--out", str(out), "--family", "hyperbolic",
                "--theta", "pi/2"]) == 0


def test_claim_checks_every_theta_before_the_first_claim(tmp_path, capsys,
                                                         monkeypatch):
    # the sweep of 1e-304 would start above its top, lambda' = 700; every
    # theta's threshold is computed first, whichever hook is set, so pi/2,
    # which comes first, is not claimed
    thresholds = []
    real = cli.ht.beta1_threshold

    def threshold(theta, *bounds):
        thresholds.append(theta)
        return real(theta, *bounds)

    def claim(*args):
        raise AssertionError("a claim ran before every theta was checked")

    monkeypatch.setattr(cli.ht, "beta1_threshold", threshold)
    monkeypatch.setattr(cli.cl, "verify_beta1_claim", claim)
    out = tmp_path / "out"
    for hook in ([], ["--corrupt", "beta1-large"]):
        thresholds.clear()
        rc = run(["claim", "--out", str(out), "--theta", "pi/2,pi/3,1e-304"]
                 + hook)
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep top 700" in err and "theta = 1e-304" in err
        assert "Traceback" not in err
        assert thresholds == [math.pi / 2, math.pi / 3, 1e-304]
        assert not out.exists()


# ---------------------------------------------------------------------------
# frozen small-grid reports (tests/gen_regression.py)
# ---------------------------------------------------------------------------

FROZEN_REPORTS = json.loads(
    (Path(__file__).parent / "fixtures" / "report_regression.json")
    .read_text())


@pytest.mark.parametrize("case", FROZEN_REPORTS, ids=lambda c: c["name"])
def test_report_matches_frozen_records(tmp_path, case):
    extra = ["--out", str(tmp_path / "out")]
    if case["config"] is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(case["config"])
        extra += ["--config", str(cfgfile)]
    assert run(case["argv"] + extra) == 0
    recs = read_jsonl(tmp_path / "out")
    assert len(recs) == len(case["records"])
    for got, want in zip(recs, case["records"]):
        assert got.keys() == want.keys()
        for key, ref in want.items():
            if isinstance(ref, float) or (
                    isinstance(ref, list)
                    and any(isinstance(v, float) for v in ref)):
                assert got[key] == pytest.approx(ref, rel=1e-12, abs=0.0), key
            else:
                assert got[key] == ref, key
