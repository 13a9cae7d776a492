"""Command-line front end for the identity, oracle, convergence and
small-angle-claim suites.

Subcommands and the flags each takes besides --config and --out
---------------------------------------------------------------
identities   --seed: triangle and reparametrization identities on random
             grids, plus the polar coordinate identity (finite-difference
             and closed-form derivative variants); the grids are slices
             of the seed's SplitMix64 stream (identities_draws), so no
             suite loads numpy's random module and its import cost
oracle       --family, --grid, --s-values: closed-form cut vs
             finite-difference pullback, per family
converge     --family, --theta, --b, --lambda-prime, --grid: cut-limit
             convergence of reparametrized extension families
claim        --family, --theta: small-angle threshold, inequality sweep
             plus exact-roundness, at the collar bound B and shifted edge
             c' that cutlimits.claim_bounds reads from the family

Every configuration key has one row in KEYS: its default and its parser,
which holds all of the key's rules.  Each value, from the defaults, a
flag or a flat ``key = value`` file (--config; it must carry
``schema_version = 1``, and sets each key at most once), goes through it
once, so a file value is checked whichever suite runs, even where a flag
overrides it.  Flags override file keys; a flag a suite does not read is
refused.  A suite checks every theta before it measures the first.  Each
suite returns its records, CSV columns, summary lines and verdict; main
writes them (write_reports) as report.jsonl, report.csv (standard CSV)
and summary.txt into --out, byte-identically for identical configuration
(including the seed).  Exit codes: 0 all assertions passed, 1 an
assertion failed, 2 usage or configuration error, an input a suite
refuses (say a claim theta so small that the claim's threshold sweep
would start above hyptrig.LAMBDA_PRIME_MAX), or an unwritable --out.

Negative-control hooks (test-only, documented here on purpose):
--corrupt formula-beta scales the closed-form beta block by 1.01 in the
oracle suite; --corrupt limit-shift displaces the predicted limit in the
converge suite; --corrupt beta1-large replaces the verified threshold
angle by 1.5 in the claim suite.  Each must flip the corresponding suite
to exit code 1; only that suite takes the hook.  The identities suite
has no hook: its control, a coarse extension.POLAR_FD_STEP, is a
monkeypatch in the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DomainError, VerificationError
from . import hyptrig as ht
from . import extension as ext
from . import cutlimits as cl
from . import families as fam

SCHEMA_VERSION = 1

# largest grid resolution accepted: the converge suite holds several
# (grid/2) x grid x 2 arrays at once
GRID_MAX = 2048

# radius and angle ranges of the identities suite's random triangles
IDENTITIES_S_RANGE = (0.1, 30.0)
IDENTITIES_BETA_RANGE = (0.01, math.pi / 2 - 0.01)

# the identities suite's random inputs, in the order they are drawn from
# one seeded stream: name, half-open range and shape
IDENTITIES_DRAWS = (("s", IDENTITIES_S_RANGE, (100, 100)),
                    ("beta", IDENTITIES_BETA_RANGE, (100, 100)),
                    ("lam", (0.1, 700.0), (400,)),
                    ("th", (0.05, math.pi / 2), (400,)))

# SplitMix64 (Steele, Lea and Flood, 2014): the increment of its counter
# and the two multipliers of its output mix
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

# the bump family member whose unwarped cut is the oracle suite's base
ORACLE_BASE_LAMBDA = 2.0


class ConfigError(argparse.ArgumentTypeError):
    """Bad configuration; argparse reports one raised by a flag's parser
    as a usage error."""


def _finite(value, what):
    if not math.isfinite(value):
        raise ConfigError(f"{what} {value} is not finite")
    return value


def parse_angle(tok):
    """Angles in config values: 'pi', 'pi/IN', or a plain float.  A
    malformed token, a zero divisor or a non-finite angle is a
    ConfigError."""
    tok = tok.strip()
    try:
        if tok == "pi":
            val = math.pi
        elif tok.startswith("pi/"):
            val = math.pi / float(tok[3:])
        else:
            val = float(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad angle {tok!r}") from None
    return _finite(val, "angle")


def _number(kind):
    """Parser of one int, or of one finite float."""
    def parse(text):
        try:
            return _finite(kind(text), "number")
        except ValueError:
            raise ConfigError(f"bad {kind.__name__} {text!r}") from None
    return parse


def _where(parse, ok, rule):
    """Parser of one ``parse`` value that ``ok`` admits; any other value
    is a ConfigError saying that it ``rule``."""
    def check(text):
        value = parse(text)
        if not ok(value):
            raise ConfigError(f"{value!r} {rule}")
        return value
    return check


def _list(parse):
    """Parser of a comma list, each item by ``parse``."""
    return lambda text: [parse(t) for t in text.split(",")]


def _auto(parse):
    """Parser of 'auto' (None) or of one ``parse`` value."""
    return lambda text: None if text == "auto" else parse(text)


_int, _float = _number(int), _number(float)

# the files of one report set, in the order write_reports writes them
REPORTS = ("report.jsonl", "report.csv", "summary.txt")


def _out(text):
    """Parser of the output directory: a non-empty path (Path("") is the
    current directory) whose nearest existing path (by os.path.exists,
    which is False for a path too long to look up) is a directory, where
    no report name is taken by anything but a file."""
    if not text:
        raise ConfigError("empty path")
    if "\0" in text:
        raise ConfigError(f"{text!r} holds a NUL byte")
    out = Path(text)
    existing = next((p for p in (out, *out.parents) if os.path.exists(p)),
                    None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"{existing} exists and is not a directory")
    for report in (out / name for name in REPORTS):
        if os.path.exists(report) and not os.path.isfile(report):
            raise ConfigError(f"{report} exists and is not a file")
    return out


# every configuration key: its default and its parser, which holds the
# key's every rule (beyond LAMBDA_PRIME_MAX, lambda' + b rounds b away)
KEYS = {
    "schema_version": (SCHEMA_VERSION, _where(
        _int, lambda v: v == SCHEMA_VERSION,
        f"is not supported (expected {SCHEMA_VERSION})")),
    "family": ("bump", _where(str, lambda f: f in ("hyperbolic", "bump"),
                              "is not hyperbolic or bump")),
    "theta": ("pi/2,pi/3", _list(_where(
        parse_angle, lambda t: 0.0 < t <= math.pi / 2,
        "lies outside (0, pi/2]"))),
    "b": ("auto", _auto(_where(_list(_float),
                               lambda bs: len(set(bs)) == len(bs),
                               "repeats a value"))),
    "lambda_prime": ("4,6,8,10", _where(_list(_where(
        _float, lambda x: 0.0 < x <= ht.LAMBDA_PRIME_MAX,
        f"lies outside (0, {ht.LAMBDA_PRIME_MAX:g}]")),
        lambda xs: all(x < y for x, y in zip(xs, xs[1:])),
        "is not strictly increasing")),
    "grid": (96, _where(_int, lambda n: 24 <= n <= GRID_MAX,
                        f"lies outside [24, {GRID_MAX}]")),
    "seed": (0, _where(_int, lambda n: n >= 0, "is negative")),
    "out": ("out", _out),
    "s_values": ("1,3,6", _list(_where(
        _float, lambda s: ext.RADIUS_MIN <= s < ext.RADIUS_MAX,
        f"lies outside the oracle's sphere radii [{ext.RADIUS_MIN:.3g}, "
        f"{ext.RADIUS_MAX:g})"))),
    "bump_direction": ("uniform", _where(
        str, lambda d: d in fam.DIRECTION_TAGS,
        f"is not one of {', '.join(fam.DIRECTION_TAGS)}")),
}
DEFAULTS = {key: default for key, (default, _) in KEYS.items()}


def read_config_file(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{e.strerror or e}") from None
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (t.strip() for t in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = KEYS[key][1](raw)
        except ConfigError as e:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key}: {e}") from None
    if "schema_version" not in values:
        raise ConfigError(f"{path}: missing key 'schema_version' (a config "
                          f"file must carry schema_version = "
                          f"{SCHEMA_VERSION})")
    return values


def b_grid(b, family, theta):
    """The b grid of one theta: the given ``b`` values, refusing any
    beyond c', or for b = auto (None) five distinct values from -2 up to
    c'."""
    cp = cl.c_prime_bound(family, theta)
    if b is None:
        grid = np.linspace(-2.0, cp if math.isfinite(cp) else 1.0, 5)
        if not np.all(np.diff(grid) > 0.0):
            raise ConfigError(
                f"the auto b grid runs from -2 up to c' = {cp:.6g}, "
                f"which holds no five distinct values for theta = "
                f"{theta:.6g}: give b values at or below c'")
        return grid.tolist()
    beyond = [x for x in b if x > cp]
    if beyond:
        raise ConfigError(
            f"b values {beyond} exceed c' = {cp:.6g} for theta = "
            f"{theta:.6g}: the reparametrized family has no predicted "
            "limit there (requires b <= c + ln sin(theta) - margin)")
    return b


def build_family(cfg):
    if cfg.family == "hyperbolic":
        return fam.hyperbolic_family()
    return fam.bump_family(cfg.bump_direction)


def build_base_metric(cfg):
    """(name, unwarped cut r -> circle field) of the oracle suite's
    sinh-warped base: the family member ORACLE_BASE_LAMBDA, which for the
    hyperbolic model is the round form at every radius."""
    family = build_family(cfg)
    name = ("hyperbolic" if cfg.family == "hyperbolic"
            else f"bump-member[lam={ORACLE_BASE_LAMBDA:g}]")
    return name, lambda r: family.cut(ORACLE_BASE_LAMBDA, r)


def _cell(value):
    """A report.csv cell: repr for floats, x-joined lists, str otherwise."""
    if isinstance(value, list):
        return "x".join(str(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def write_reports(out_dir, records, columns, summary_lines):
    """Write report.jsonl (sorted keys), report.csv (standard CSV) and
    summary.txt into out_dir, all three into temporaries before the first
    rename (a failed write unlinks its temporaries); a record that lacks
    one of the ``columns`` holds "" there in both reports."""
    records = [{**dict.fromkeys(columns, ""), **r} for r in records]
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")
    table.writerow(columns)
    table.writerows([_cell(r[c]) for c in columns] for r in records)
    texts = ("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
             buf.getvalue(), "\n".join(summary_lines) + "\n")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmps = [out / f"{name}.tmp-{os.getpid()}" for name in REPORTS]
    try:
        for tmp, text in zip(tmps, texts):
            tmp.write_text(text)
        for tmp, name in zip(tmps, REPORTS):
            os.replace(tmp, out / name)
    except OSError:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                tmp.unlink()
        raise


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

def _uniforms(seed, start, n):
    """Draws start, ..., start + n - 1 of the seed's SplitMix64 stream of
    uniforms in [0, 1): draw i is mix(key + (i + 1) * gamma) >> 11, times
    2**-53.  The key folds every 64-bit limb of the seed, so any seed >= 0
    has a stream, and is the seed itself below 2**64, so those seeds have
    distinct streams.  The key is a Python int taken mod 2**64; the stream
    is uint64 arrays, whose arithmetic wraps without a warning."""
    key = 0
    for shift in reversed(range(0, max(seed.bit_length(), 1), 64)):
        key = (key * _SPLITMIX_MIX[0] + ((seed >> shift) & _MASK64)) & _MASK64
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _SPLITMIX_GAMMA
    z += key
    z ^= z >> 30
    z *= _SPLITMIX_MIX[0]
    z ^= z >> 27
    z *= _SPLITMIX_MIX[1]
    z ^= z >> 31
    z >>= 11
    return z * 2.0 ** -53


def identities_draws(seed):
    """{name: array} of the identities suite's random inputs
    (IDENTITIES_DRAWS): consecutive slices of the seed's ``_uniforms``
    stream, each mapped onto its range.  Each slice is drawn on its own:
    the temporaries of the whole 20,800-draw stream are large enough that
    malloc maps and unmaps them afresh on every run."""
    draws, start = {}, 0
    for name, (lo, hi), shape in IDENTITIES_DRAWS:
        n = math.prod(shape)
        draws[name] = lo + (hi - lo) * _uniforms(seed, start, n).reshape(shape)
        start += n
    return draws


def cmd_identities(cfg):
    draws = identities_draws(cfg.seed)
    s, beta = draws["s"], draws["beta"]
    r = ht.solve_r(s, beta)
    t = ht.solve_t(s, beta)

    def relmax(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))

    checks = []
    checks.append(("law_of_sines",
                   relmax(np.sinh(r), np.sin(beta) * np.sinh(s)), 1e-12))
    checks.append(("cross_identity",
                   relmax(np.cosh(r) * np.sinh(t),
                          np.sinh(s) * np.cos(beta)), 1e-12))
    checks.append(("pythagorean",
                   relmax(np.cosh(r) * np.cosh(t), np.cosh(s)), 1e-12))
    checks.append(("leg_two_forms",
                   relmax(t, np.arctanh(np.cos(beta) * np.tanh(s))), 1e-12))

    lam, th = draws["lam"], draws["th"]
    back = ht.reparam(ht.reparam_inverse(lam, th), th)
    checks.append(("reparam_round_trip", relmax(back, lam), 1e-12))

    sg = np.linspace(0.5, 10.0, 50)
    bg = np.linspace(0.05, math.pi / 2 - 0.05, 50)
    ss, bb = np.meshgrid(sg, bg, indexing="ij")
    for derivatives, tol in (("fd", 1e-6), ("closed", 1e-12)):
        res = ext.polar_identity_residual(ss, bb, derivatives)
        checks.append((f"polar_identity_{derivatives}", float(np.max(res)),
                       tol))

    be, b, theta = np.meshgrid(np.linspace(0.08, 0.30, 10),
                               np.linspace(-2.0, -0.6, 5),
                               (math.pi / 2, math.pi / 3, 1.0), indexing="ij")
    gaps = np.abs(ht.vartheta(30.0, be, b, theta) - 30.0
                  - ht.vartheta_shift(be, b, theta))
    checks.append(("shift_gap_at_30", float(np.max(gaps)), 1e-8))

    records, summary = [], []
    all_ok = True
    for name, worst, tol in checks:
        ok = worst < tol
        all_ok &= ok
        records.append({"identity": name, "worst": worst, "tolerance": tol,
                        "passed": ok,
                        "s_range": list(IDENTITIES_S_RANGE),
                        "beta_range": list(IDENTITIES_BETA_RANGE),
                        "seed": cfg.seed})
        summary.append(f"{'PASS' if ok else 'FAIL'} {name}: worst residual "
                       f"{worst:.3e} (tolerance {tol:.0e})")
    summary.append(f"{'PASS' if all_ok else 'FAIL'} identities suite")
    return (records, ("identity", "worst", "tolerance", "passed", "seed"),
            summary, all_ok)


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def cmd_oracle(cfg):
    base_name, base = build_base_metric(cfg)
    n_phi = max(16, cfg.grid // 3)
    n_beta = max(12, cfg.grid // 4)
    phi, beta = ext.join_grid(n_phi, n_beta)
    records, summary = [], []
    all_ok = True
    for s in cfg.s_values:
        formula = ext.cut_via_formula(base, s).sample(phi, beta)
        if cfg.corrupt == "formula-beta":
            formula = replace(formula, block_beta=formula.block_beta * 1.01)
        oracle = ext.cut_via_pullback(base, s, phi, beta)
        rep = ext.compare_join(formula, oracle)
        rep["s"] = s
        rep["family_id"] = base_name
        ok = (rep["max_rel_err_block_M"] < 1e-5
              and rep["max_rel_err_block_beta"] < 1e-5
              and rep["max_abs_offdiag"] < 1e-6)
        rep["passed"] = ok
        all_ok &= ok
        records.append(rep)
        summary.append(
            f"{'PASS' if ok else 'FAIL'} s={s:g}: block_M "
            f"{rep['max_rel_err_block_M']:.3e}, block_beta "
            f"{rep['max_rel_err_block_beta']:.3e}, offdiag "
            f"{rep['max_abs_offdiag']:.3e}")
    summary.append(f"{'PASS' if all_ok else 'FAIL'} oracle suite "
                   f"({base_name}, {n_phi}x{n_beta} points)")
    return (records, ("family_id", "s", "grid", "max_rel_err_block_H",
                      "max_rel_err_block_M", "max_rel_err_block_beta",
                      "max_abs_offdiag", "passed"),
            summary, all_ok)


# ---------------------------------------------------------------------------
# convergence suite
# ---------------------------------------------------------------------------

def cmd_converge(cfg):
    family = build_family(cfg)
    n_beta = cfg.grid
    n_phi = max(16, cfg.grid // 2)
    # every theta's b grid and cut indices are resolved before the first
    # cut
    cuts = []
    for theta in cfg.theta:
        bs = b_grid(cfg.b, family, theta)
        cuts.append((theta, bs,
                     cl.cut_indices(theta, cfg.lambda_prime, min(bs))))
    reports = [cl.run_convergence(
        family, theta, bs, cfg.lambda_prime, lams,
        n_phi=n_phi, n_beta=n_beta,
        corrupt_limit=1e-3 if cfg.corrupt == "limit-shift" else 0.0)
        for theta, bs, lams in cuts]
    verdicts = [cl.check_convergence_assertions(rep) for rep in reports]
    failures = [f for _, fails in verdicts for f in fails]
    summary = [line for line, _ in verdicts]
    summary.extend(f"FAIL {f}" for f in failures)
    summary.append(f"{'PASS' if not failures else 'FAIL'} converge suite "
                   f"({family.family_id})")
    return ([r for rep in reports for r in rep.records],
            ("theta", "b", "lambda_prime", "c0", "c1", "c2", "grid",
             "fd_step", "family_id", "boundary_M_c0", "boundary_H_c0"),
            summary, not failures)


# ---------------------------------------------------------------------------
# claim suite
# ---------------------------------------------------------------------------

def cmd_claim(cfg):
    family = build_family(cfg)
    # every theta's threshold is computed (or refused) before the first
    # claim; a threshold that fails its own check fails that theta's row
    thresholds = []
    for theta in cfg.theta:
        try:
            thresholds.append(
                (ht.beta1_threshold(theta, *cl.claim_bounds(family, theta)),
                 None))
        except VerificationError as e:
            thresholds.append((None, str(e)))
    records, summary = [], []
    all_ok = True
    for theta, (beta1, error) in zip(cfg.theta, thresholds):
        if cfg.corrupt == "beta1-large":
            beta1, error = 1.5, None
        if error is None:
            try:
                rep = cl.verify_beta1_claim(family, theta, beta1)
            except VerificationError as e:
                error = str(e)
        ok = error is None
        if not ok:
            rep = {"beta1": beta1, "error": error}
        all_ok &= ok
        rec = {"theta": theta, "passed": ok}
        rec.update(rep)
        records.append(rec)
        if ok:
            summary.append(
                f"PASS theta={theta:.6g}: beta1={rep['beta1']:.6g}, holds "
                f"from lambda'={rep['lambda0']:.6g}, margin at top "
                f"{rep['margin_at_top']:.6g}, exact-roundness deviation "
                f"{rep['exactness_max_dev']:.1e}")
        else:
            summary.append(f"FAIL theta={theta:.6g}: {rep.get('error')}")
    summary.append(f"{'PASS' if all_ok else 'FAIL'} claim suite "
                   f"({family.family_id})")
    return (records, ("theta", "passed", "beta1", "lambda0", "margin_at_top",
                      "exactness_max_dev"),
            summary, all_ok)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

# each suite: its function, the keys it takes as flags besides --out, and
# its negative-control hook
SUITES = {
    "identities": (cmd_identities, ("seed",), None),
    "oracle": (cmd_oracle, ("family", "grid", "s_values"), "formula-beta"),
    "converge": (cmd_converge, ("family", "theta", "b", "lambda_prime",
                                "grid"), "limit-shift"),
    "claim": (cmd_claim, ("family", "theta"), "beta1-large"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypext",
        description="identity, oracle, convergence and claim suites for "
                    "hyperbolic-extension cut limits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, keys, hook) in SUITES.items():
        p = sub.add_parser(name)
        p.set_defaults(func=fn, corrupt=None)
        p.add_argument("--config",
                       help="flat key = value configuration file")
        for key in ("out", *keys):
            # a flag left out stays out of the namespace, so that a file
            # key is overridden only by a flag that is given
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=KEYS[key][1], default=argparse.SUPPRESS,
                           help=f"the {key} key (default {DEFAULTS[key]})")
        if hook:
            p.add_argument("--corrupt", choices=(hook,),
                           help="test-only negative-control hook")
    return parser


def resolve_config(args):
    """The run configuration, one attribute per key ('auto' is None) and
    the corruption hook: each key from its flag, else its --config file
    line, else its default, each through its parser."""
    given = read_config_file(args.config) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in KEYS)
    return argparse.Namespace(
        **{key: given[key] if key in given else parse(str(default))
           for key, (default, parse) in KEYS.items()},
        corrupt=args.corrupt)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError) as e:
        print(f"hypext: configuration error: {e}", file=sys.stderr)
        return 2
    try:
        records, columns, summary, passed = args.func(cfg)
    except ConfigError as e:
        print(f"hypext: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"hypext: refused: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"hypext: verification failed: {e}", file=sys.stderr)
        return 1
    try:
        write_reports(cfg.out, records, columns, summary)
    except OSError as e:
        print(f"hypext: cannot write reports into {cfg.out}: "
              f"{e.strerror or e}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
