"""Command-line front end for the identity, oracle, convergence and
small-angle-claim suites.

Subcommands and the flags each takes besides --config and --out
---------------------------------------------------------------
identities   --seed, --fd-step: triangle and reparametrization identities
             on random grids, plus the polar coordinate identity
             (finite-difference and closed-form derivative variants)
oracle       --family, --grid, --s-values: closed-form cut vs
             finite-difference pullback, per family
converge     --family, --theta, --b, --lambda-prime, --grid: cut-limit
             convergence of reparametrized extension families
claim        --family, --theta: small-angle threshold, inequality sweep
             plus exact-roundness, at the collar bound B and shifted edge
             c' that cutlimits.claim_bounds reads from the family

Every configuration key has one row in KEYS: its default and the parser
that each of its values, from the defaults, a flag or a flat
``key = value`` file (--config; it must carry ``schema_version = 1``),
goes through once; a file sets each key at most once.  Flags override
file keys, and file keys serve every suite; a flag a suite does not read
is refused.  RunConfig.validate checks every key whichever suite runs.
Each suite returns its records, CSV columns, summary lines and verdict;
main writes them (write_reports) as report.jsonl, report.csv (standard
CSV) and summary.txt into --out (never empty), atomically, and
byte-identically for identical configuration (including the seed).  Exit
codes: 0 all assertions passed, 1 an assertion failed, 2 usage or
configuration error, an input a suite refuses (say a lambda' above
hyptrig.LAMBDA_PRIME_MAX, or a claim theta so small that the claim's
threshold sweep would start above that top), or an unwritable --out.

Negative-control hooks (test-only, documented here on purpose): a coarse
--fd-step 0.02 breaks the identities suite's tolerance (steps so large
that the stencil leaves the domain, e.g. 0.5, are refused with exit 2
instead); --corrupt formula-beta scales the closed-form beta block by
1.01 in the oracle suite; --corrupt limit-shift displaces the predicted
limit in the converge suite; --corrupt beta1-large replaces the verified
threshold angle by 1.5 in the claim suite.  Each must flip the
corresponding suite to exit code 1; only that suite takes the hook.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DomainError, VerificationError
from . import hyptrig as ht
from . import fields as mf
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


def _list(parse):
    """Parser of a comma list, each item by ``parse``."""
    return lambda text: [parse(t) for t in text.split(",")]


def _auto(parse):
    """Parser of 'auto' (None) or of one ``parse`` value."""
    return lambda text: None if text == "auto" else parse(text)


_int, _float = _number(int), _number(float)


def _path(text):
    """Parser of a non-empty path (Path("") is the current directory)."""
    if not text:
        raise ConfigError("empty path")
    return Path(text)


def _schema_version(text):
    if _int(text) != SCHEMA_VERSION:
        raise ConfigError(f"{text} is not supported (expected "
                          f"{SCHEMA_VERSION})")
    return SCHEMA_VERSION


# every configuration key: its default and its parser
KEYS = {
    "schema_version": (SCHEMA_VERSION, _schema_version),
    "family": ("bump", str),
    "theta": ("pi/2,pi/3", _list(parse_angle)),
    "b": ("auto", _auto(_list(_float))),
    "lambda_prime": ("4,6,8,10", _list(_float)),
    "grid": (96, _int),
    "seed": (0, _int),
    "out": ("out", _path),
    "fd_step": ("auto", _auto(_float)),
    "s_values": ("1,3,6", _list(_float)),
    "bump_direction": ("uniform", str),
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


@dataclass
class RunConfig:
    """Resolved run parameters: one field per configuration key but
    schema_version ('auto' is None), and the corruption hook."""

    family: str
    theta: list
    b: list | None
    lambda_prime: list
    grid: int
    seed: int
    out: Path
    fd_step: float | None
    s_values: list
    bump_direction: str
    corrupt: str | None

    def validate(self):
        """Refuse any value some suite cannot run, whichever suite runs:
        every angle, radius, step and seed in its range, and a bump
        direction outside families.DIRECTION_TAGS.  The parsers have
        refused every non-finite number."""
        if self.family not in ("hyperbolic", "bump"):
            raise ConfigError(f"unknown family {self.family!r}")
        for th in self.theta:
            if not (0.0 < th <= math.pi / 2):
                raise ConfigError(f"theta {th} outside (0, pi/2]")
        if sorted(self.lambda_prime) != self.lambda_prime:
            raise ConfigError("lambda_prime grid must be sorted")
        if self.lambda_prime[0] <= 0.0:
            raise ConfigError(
                f"lambda_prime {self.lambda_prime[0]} must be > 0")
        if self.lambda_prime[-1] > ht.LAMBDA_PRIME_MAX:
            # beyond it lambda' + b rounds b away, and near 1e308 overflows
            raise ConfigError(
                f"lambda_prime {self.lambda_prime[-1]} exceeds "
                f"{ht.LAMBDA_PRIME_MAX:g}, the largest lambda' evaluated")
        if not 24 <= self.grid <= GRID_MAX:
            raise ConfigError(
                f"grid resolution {self.grid} outside [24, {GRID_MAX}]")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
        if self.fd_step is not None and not self.fd_step > 0.0:
            raise ConfigError(f"fd_step {self.fd_step} must be > 0")
        for s in self.s_values:
            if not ext.RADIUS_MIN <= s < ext.RADIUS_MAX:
                raise ConfigError(
                    f"s value {s} outside the sphere radii "
                    f"[{ext.RADIUS_MIN:.3g}, {ext.RADIUS_MAX:g}) of the "
                    "oracle's cuts")
        if self.bump_direction not in fam.DIRECTION_TAGS:
            raise ConfigError(
                f"unknown bump_direction {self.bump_direction!r} (expected "
                f"one of {', '.join(fam.DIRECTION_TAGS)})")
        # the reports go into out, or into a directory made there: the
        # nearest existing path must be a directory (os.path.exists, unlike
        # Path.exists, is False for a path too long to look up)
        existing = next((p for p in (self.out, *self.out.parents)
                         if os.path.exists(p)), None)
        if existing is not None and not existing.is_dir():
            raise ConfigError(f"output path {existing} exists and is not "
                              "a directory")

    def b_grid(self, family, theta):
        """Resolve the b grid for one theta, refusing values beyond c' and
        an auto grid [-2, c'] that holds no five distinct values."""
        cp = cl.c_prime_bound(family, theta)
        if self.b is None:
            top = cp if math.isfinite(cp) else 1.0
            if not top > -2.0:
                raise ConfigError(
                    f"the auto b grid runs from -2 up to c' = {cp:.6g}, "
                    f"which lies at or below -2 for theta = {theta:.6g}: "
                    "give b values at or below c'")
            return list(np.linspace(-2.0, top, 5))
        beyond = [b for b in self.b if b > cp]
        if beyond:
            raise ConfigError(
                f"b values {beyond} exceed c' = {cp:.6g} for theta = "
                f"{theta:.6g}: the reparametrized family has no predicted "
                "limit there (requires b <= c + ln sin(theta) - margin)")
        return self.b


def build_family(cfg):
    if cfg.family == "hyperbolic":
        return fam.hyperbolic_family()
    return fam.bump_family(cfg.bump_direction)


def build_base_metric(cfg):
    """(name, unwarped cut r -> circle field) of the oracle suite's
    sinh-warped base: the hyperbolic model, whose unwarped cut is the
    round form at every radius, or one bump family member (index
    ORACLE_BASE_LAMBDA)."""
    if cfg.family == "hyperbolic":
        sigma = mf.round_metric()
        return "hyperbolic", lambda r: sigma
    family = build_family(cfg)
    lam0 = ORACLE_BASE_LAMBDA
    return f"bump-member[lam={lam0:g}]", lambda r: family.cut(lam0, r)


def _atomic_write(path, text):
    tmp = Path(f"{path}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cell(value):
    """A report.csv cell: repr for floats, x-joined lists, str otherwise."""
    if isinstance(value, list):
        return "x".join(str(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def write_reports(out_dir, records, columns, summary_lines):
    """Write report.jsonl (sorted keys), report.csv (standard CSV) and
    summary.txt into out_dir, each atomically; a record that lacks one of
    the ``columns`` holds "" there in both reports."""
    records = [{**dict.fromkeys(columns, ""), **r} for r in records]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "report.jsonl", "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in records))
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")
    table.writerow(columns)
    table.writerows([_cell(r[c]) for c in columns] for r in records)
    _atomic_write(out / "report.csv", buf.getvalue())
    _atomic_write(out / "summary.txt", "\n".join(summary_lines) + "\n")


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

def cmd_identities(cfg):
    rng = np.random.default_rng(cfg.seed)
    s = rng.uniform(*IDENTITIES_S_RANGE, size=(100, 100))
    beta = rng.uniform(*IDENTITIES_BETA_RANGE, size=(100, 100))
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

    lam = rng.uniform(0.1, 700.0, size=400)
    th = rng.uniform(0.05, math.pi / 2, size=400)
    back = ht.reparam(ht.reparam_inverse(lam, th), th)
    checks.append(("reparam_round_trip", relmax(back, lam), 1e-12))

    fd_step = cfg.fd_step
    sg = np.linspace(0.5, 10.0, 50)
    bg = np.linspace(0.05, math.pi / 2 - 0.05, 50)
    ss, bb = np.meshgrid(sg, bg, indexing="ij")
    res_fd = ext.polar_identity_residual(ss, bb, fd_step=fd_step,
                                         derivatives="fd")
    checks.append(("polar_identity_fd", float(np.max(res_fd)), 1e-6))
    res_cl = ext.polar_identity_residual(ss, bb, derivatives="closed")
    checks.append(("polar_identity_closed", float(np.max(res_cl)), 1e-12))

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
              and rep["max_rel_err_block_H"] < 1e-5
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
                   f"({base_name}, {n_phi}x{n_beta}x2 points)")
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
    # every b grid, and every theta's cut radii and family indices, are
    # checked before the first cut
    b_grids = [cfg.b_grid(family, theta) for theta in cfg.theta]
    for theta, bs in zip(cfg.theta, b_grids):
        cl.cut_indices(theta, cfg.lambda_prime, min(bs))
    reports = []
    for theta, bs in zip(cfg.theta, b_grids):
        rep = cl.run_convergence(
            family, theta, bs, cfg.lambda_prime,
            n_phi=n_phi, n_beta=n_beta,
            corrupt_limit=1e-3 if cfg.corrupt == "limit-shift" else 0.0)
        reports.append(rep)
    failures = cl.check_convergence_assertions(reports)
    records = [r for rep in reports for r in rep.records]
    summary = []
    for rep in reports:
        last_lp = max(r["lambda_prime"] for r in rep.records)
        final = [r for r in rep.records if r["lambda_prime"] == last_lp]
        worst_final = mf.max_carrying_nan(
            *(r[k] for r in final for k in ("c0", "c1", "c2")))
        worst_boundary = mf.max_carrying_nan(
            *(r["boundary_M_c0"] for r in final))
        summary.append(
            f"theta={rep.records[0]['theta']:.6g}: final C2 "
            f"{worst_final:.3e}, final boundary {worst_boundary:.3e}")
    summary.extend(f"FAIL {f}" for f in failures)
    summary.append(f"{'PASS' if not failures else 'FAIL'} converge suite "
                   f"({family.family_id})")
    return (records, ("theta", "b", "lambda_prime", "c0", "c1", "c2", "grid",
                      "fd_step", "family_id", "boundary_M_c0",
                      "boundary_H_c0"),
            summary, not failures)


# ---------------------------------------------------------------------------
# claim suite
# ---------------------------------------------------------------------------

def cmd_claim(cfg):
    family = build_family(cfg)
    # every theta's threshold sweep is checked before the first claim
    bounds = [cl.claim_bounds(family, theta) for theta in cfg.theta]
    for theta, (B, cp) in zip(cfg.theta, bounds):
        ht.beta1_sweep_start(theta, B, cp)
    records, summary = [], []
    all_ok = True
    for theta, (B, cp) in zip(cfg.theta, bounds):
        beta1 = None
        try:
            beta1 = (1.5 if cfg.corrupt == "beta1-large"
                     else ht.beta1_threshold(theta, B, cp))
            rep = cl.verify_beta1_claim(family, theta, beta1)
            ok = True
        except VerificationError as e:
            rep = {"beta1": beta1, "error": str(e)}
            ok = False
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
    "identities": (cmd_identities, ("seed", "fd_step"), None),
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
    """The run configuration: each key from its flag, else its --config
    file line, else its default, then validated."""
    given = read_config_file(args.config) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in KEYS)
    values = {key: given[key] if key in given else parse(str(default))
              for key, (default, parse) in KEYS.items()}
    del values["schema_version"]   # checked by its parser
    cfg = RunConfig(**values, corrupt=args.corrupt)
    cfg.validate()
    return cfg


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
