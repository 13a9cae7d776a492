"""Command-line front end for the identity, oracle, convergence and
small-angle-claim suites.

Subcommands
-----------
identities   triangle and reparametrization identities on random grids,
             plus the polar coordinate identity (finite-difference and
             closed-form derivative variants)
oracle       closed-form cut vs finite-difference pullback, per family
converge     cut-limit convergence of reparametrized extension families
claim        small-angle threshold: inequality sweep plus exact-roundness

Configuration is a flat ``key = value`` text file (see DEFAULTS for the
schema; the file must carry ``schema_version = 1``); command-line flags
override file keys.  Every suite writes report.jsonl, report.csv and
summary.txt into --out, atomically, and byte-identically for identical
configuration (including the seed).  Exit codes: 0 all assertions passed,
1 an assertion failed, 2 usage or configuration error.

Negative-control hooks (test-only, documented here on purpose): a coarse
--fd-step 0.02 breaks the identities suite's tolerance (steps so large
that the stencil leaves the domain, e.g. 0.5, are refused with exit 2
instead); --corrupt formula-beta scales the closed-form beta block by
1.01 in the oracle suite; --corrupt limit-shift displaces the predicted
limit in the converge suite; --corrupt beta1-large replaces the verified
threshold angle by 1.5 in the claim suite.  Each must flip the
corresponding suite to exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, VerificationError
from . import hyptrig as ht
from . import fields as mf
from . import extension as ext
from . import cutlimits as cl
from . import families as fam

SCHEMA_VERSION = 1

DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "family": "bump",
    "theta": "pi/2,pi/3",
    "b": "auto",
    "lambda_prime": "4,6,8,10",
    "grid": 96,
    "seed": 0,
    "out": "out",
    "fd_step": "auto",
    "s_values": "1,3,6",
    "bump_support_start": -1.0,
    "bump_support_end": 1.0,
    "bump_amplitude": 0.05,
    "bump_direction": "uniform",
    "bump_base_lambda": 2.0,
    "s_min": 0.1,
    "s_max": 30.0,
    "beta_min": 0.01,
    "beta_max": math.pi / 2 - 0.01,
    "claim_lambda_max": 700.0,
}

_INT_KEYS = {"schema_version", "grid", "seed"}
_FLOAT_KEYS = {"bump_support_start", "bump_support_end", "bump_amplitude",
               "bump_base_lambda", "s_min", "s_max", "beta_min", "beta_max",
               "claim_lambda_max"}


# the radial domain (0, BASE_RADIUS_MAX) of both oracle bases
BASE_RADIUS_MAX = 350.0

# largest grid resolution accepted: the converge suite holds several
# (grid/2) x grid x 2 arrays at once
GRID_MAX = 2048


class ConfigError(Exception):
    pass


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


def _parse_floats(text, what):
    """A comma list of finite floats; anything else is a ConfigError."""
    try:
        vals = [float(t) for t in str(text).split(",")]
    except ValueError:
        raise ConfigError(f"bad {what} list {text!r}") from None
    return [_finite(v, what) for v in vals]


def _parse_value(key, raw):
    raw = raw.strip()
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def read_config_file(path):
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (t.strip() for t in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}")
    if values.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {values.get('schema_version')} is "
            f"not supported (expected {SCHEMA_VERSION})")
    return values


@dataclass
class RunConfig:
    """Resolved run parameters shared by the suites."""

    family: str
    thetas: list
    b_values: list | None     # None: the "auto" grid
    lambda_primes: list
    grid: int
    seed: int
    out: Path
    fd_step: float | None
    s_values: list
    bump_support_start: float
    bump_support_end: float
    bump_amplitude: float
    bump_direction: str
    bump_base_lambda: float
    s_min: float
    s_max: float
    beta_min: float
    beta_max: float
    claim_lambda_max: float
    corrupt: str | None = None

    def validate(self):
        """Refuse any value a suite cannot run: every number finite, every
        angle, radius, step and seed in its range."""
        for key in sorted(_FLOAT_KEYS):
            _finite(getattr(self, key), key)
        if self.family not in ("hyperbolic", "bump"):
            raise ConfigError(f"unknown family {self.family!r}")
        if not self.thetas:
            raise ConfigError("theta list is empty")
        for th in self.thetas:
            if not (0.0 < th <= math.pi / 2):
                raise ConfigError(f"theta {th} outside (0, pi/2]")
        if not self.lambda_primes or sorted(self.lambda_primes) != \
                self.lambda_primes:
            raise ConfigError("lambda_prime grid must be nonempty and sorted")
        if self.lambda_primes[0] <= 0.0:
            raise ConfigError(
                f"lambda_prime {self.lambda_primes[0]} must be > 0")
        if not 24 <= self.grid <= GRID_MAX:
            raise ConfigError(
                f"grid resolution {self.grid} outside [24, {GRID_MAX}]")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
        if self.fd_step is not None and not (
                math.isfinite(self.fd_step) and self.fd_step > 0.0):
            raise ConfigError(f"fd_step {self.fd_step} must be finite "
                              "and > 0")
        for s in self.s_values:
            if not 0.0 < s < BASE_RADIUS_MAX:
                raise ConfigError(
                    f"s value {s} outside the base's radial domain "
                    f"(0, {BASE_RADIUS_MAX:g})")

    def b_grid(self, family, theta):
        """Resolve the b grid for one theta, refusing values beyond c'."""
        cp = cl.c_prime_bound(family, theta)
        if self.b_values is None:
            top = cp if math.isfinite(cp) else 1.0
            return list(np.linspace(-2.0, top, 5))
        bs = self.b_values
        beyond = [b for b in bs if b > cp]
        if beyond:
            raise ConfigError(
                f"b values {beyond} exceed c' = {cp:.6g} for theta = "
                f"{theta:.6g}: the reparametrized family has no predicted "
                "limit there (requires b <= c + ln sin(theta) - margin)")
        return bs


def build_family(cfg):
    if cfg.family == "hyperbolic":
        return fam.hyperbolic_family()
    spec = fam.FamilySpec(kind="bump",
                          support_start=cfg.bump_support_start,
                          support_end=cfg.bump_support_end,
                          amplitude=cfg.bump_amplitude,
                          direction=cfg.bump_direction)
    return spec.build()


def build_base_metric(cfg):
    """Radial base for the oracle suite: the hyperbolic model, or one bump
    family member (index bump_base_lambda) as a warped-by-sinh metric."""
    if cfg.family == "hyperbolic":
        return mf.hyperbolic_radial()
    family = build_family(cfg)
    lam0 = cfg.bump_base_lambda

    def cut(r):
        return mf.scale(family.cut(lam0, r), math.sinh(r) ** 2)

    return mf.RadialMetric(domain=(0.0, BASE_RADIUS_MAX),
                           name=f"bump-member[lam={lam0:g}]", _cut=cut)


def _atomic_write(path, text):
    tmp = Path(f"{path}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_reports(out_dir, records, csv_columns, summary_lines):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    _atomic_write(out / "report.jsonl", jsonl + ("\n" if jsonl else ""))
    csv_rows = [",".join(csv_columns)]
    for r in records:
        row = []
        for col in csv_columns:
            v = r[col]
            if isinstance(v, list):
                row.append("x".join(str(x) for x in v))
            elif isinstance(v, float):
                row.append(repr(v))
            else:
                row.append(str(v))
        csv_rows.append(",".join(row))
    _atomic_write(out / "report.csv", "\n".join(csv_rows) + "\n")
    _atomic_write(out / "summary.txt", "\n".join(summary_lines) + "\n")


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

def cmd_identities(cfg):
    rng = np.random.default_rng(cfg.seed)
    s = rng.uniform(cfg.s_min, cfg.s_max, size=(100, 100))
    beta = rng.uniform(cfg.beta_min, cfg.beta_max, size=(100, 100))
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

    gaps = []
    for be in np.linspace(0.08, 0.30, 10):
        for b in np.linspace(-2.0, -0.6, 5):
            for theta in (math.pi / 2, math.pi / 3, 1.0):
                gap = abs(ht.vartheta(30.0, be, b, theta) - 30.0
                          - ht.vartheta_shift(be, b, theta))
                gaps.append(gap)
    checks.append(("shift_gap_at_30", mf.max_carrying_nan(*gaps), 1e-8))

    records, summary = [], []
    all_ok = True
    for name, worst, tol in checks:
        ok = worst < tol
        all_ok &= ok
        records.append({"identity": name, "worst": worst, "tolerance": tol,
                        "passed": ok,
                        "s_range": [cfg.s_min, cfg.s_max],
                        "beta_range": [cfg.beta_min, cfg.beta_max],
                        "seed": cfg.seed})
        summary.append(f"{'PASS' if ok else 'FAIL'} {name}: worst residual "
                       f"{worst:.3e} (tolerance {tol:.0e})")
    summary.append(f"{'PASS' if all_ok else 'FAIL'} identities suite")
    write_reports(cfg.out, records,
                  ("identity", "worst", "tolerance", "passed", "seed"),
                  summary)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def cmd_oracle(cfg):
    base = build_base_metric(cfg)
    n_phi = max(16, cfg.grid // 3)
    n_beta = max(12, cfg.grid // 4)
    phi, beta = ext.join_grid(n_phi, n_beta)
    records, summary = [], []
    all_ok = True
    for s in cfg.s_values:
        formula = ext.cut_via_formula(base, s, unwarped=False) \
            .sample(phi, beta)
        if cfg.corrupt == "formula-beta":
            from dataclasses import replace
            formula = replace(formula, block_beta=formula.block_beta * 1.01)
        oracle = ext.cut_via_pullback(base, s, phi, beta)
        rep = ext.compare_join(formula, oracle)
        rep["family_id"] = base.name
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
                   f"({base.name}, {n_phi}x{n_beta}x2 points)")
    write_reports(cfg.out, records,
                  ("family_id", "s", "grid", "max_rel_err_block_H",
                   "max_rel_err_block_M", "max_rel_err_block_beta",
                   "max_abs_offdiag", "passed"),
                  summary)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# convergence suite
# ---------------------------------------------------------------------------

def cmd_converge(cfg):
    family = build_family(cfg)
    n_beta = cfg.grid
    n_phi = max(16, cfg.grid // 2)
    reports = []
    for theta in cfg.thetas:
        bs = cfg.b_grid(family, theta)
        rep = cl.run_convergence(
            family, theta, bs, cfg.lambda_primes,
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
    write_reports(cfg.out, records, cl.ConvergenceReport.CSV_COLUMNS, summary)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# claim suite
# ---------------------------------------------------------------------------

def cmd_claim(cfg):
    family = build_family(cfg)
    if cfg.family == "bump":
        B, c = cfg.bump_support_start, cfg.bump_support_end
    else:
        # every cut is round: any finite bound below the interval top works
        B, c = 0.0, 1.0
    records, summary = [], []
    all_ok = True
    for theta in cfg.thetas:
        cp = c + math.log(math.sin(theta)) - cl.C_PRIME_MARGIN
        params = ht.ReparamParams(theta=theta, b=0.0, B=B, c=c, c_prime=cp)
        beta1 = None
        try:
            beta1 = (1.5 if cfg.corrupt == "beta1-large"
                     else ht.beta1_threshold(
                         params, lambda_max=cfg.claim_lambda_max))
            params = ht.ReparamParams(theta=theta, b=0.0, B=B, c=c,
                                      c_prime=cp, beta1=beta1)
            rep = cl.verify_beta1_claim(
                family, params,
                np.geomspace(1.0, cfg.claim_lambda_max, 80))
            ok = True
        except VerificationError as e:
            rep = {"beta1": beta1, "error": str(e)}
            ok = False
        all_ok &= ok
        rec = {"theta": theta, "passed": ok}
        rec.update({k: v for k, v in rep.items()})
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
    cols = ("theta", "passed", "beta1", "lambda0", "margin_at_top",
            "exactness_max_dev")
    for r in records:
        for colkey in cols:
            r.setdefault(colkey, "")
    write_reports(cfg.out, records, cols, summary)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypext",
        description="identity, oracle, convergence and claim suites for "
                    "hyperbolic-extension cut limits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("identities", cmd_identities), ("oracle", cmd_oracle),
                     ("converge", cmd_converge), ("claim", cmd_claim)):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", type=str, default=None,
                       help="flat key = value configuration file")
        p.add_argument("--theta", type=str, default=None,
                       help="comma list of angles (pi/2, pi/3, 0.9, ...)")
        p.add_argument("--lambda-prime", dest="lambda_prime", type=str,
                       default=None, help="comma list of sphere radii")
        p.add_argument("--b", type=str, default=None,
                       help="comma list of cut offsets, or 'auto'; use the "
                            "--b=-2,-1 form for values starting with a minus")
        p.add_argument("--family", type=str, default=None,
                       choices=("hyperbolic", "bump"))
        p.add_argument("--out", type=str, default=None,
                       help="output directory")
        p.add_argument("--grid", type=int, default=None,
                       help="grid resolution")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--fd-step", dest="fd_step", type=float, default=None,
                       help="finite-difference step override")
        p.add_argument("--s-values", dest="s_values", type=str, default=None,
                       help="comma list of sphere radii for the oracle suite")
        p.add_argument("--corrupt", type=str, default=None,
                       choices=("formula-beta", "limit-shift", "beta1-large"),
                       help="test-only corruption hooks (negative controls)")
    return parser


def resolve_config(args):
    values = dict(DEFAULTS)
    if args.config:
        values.update(read_config_file(args.config))
    overrides = {
        "theta": args.theta, "lambda_prime": args.lambda_prime, "b": args.b,
        "family": args.family, "out": args.out, "grid": args.grid,
        "seed": args.seed, "s_values": args.s_values,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    fd_step = args.fd_step
    if fd_step is None and values["fd_step"] != "auto":
        fd_step = float(values["fd_step"])
    b = str(values["b"])
    cfg = RunConfig(
        family=str(values["family"]),
        thetas=[parse_angle(t) for t in str(values["theta"]).split(",")],
        b_values=None if b == "auto" else _parse_floats(b, "b"),
        lambda_primes=_parse_floats(values["lambda_prime"], "lambda_prime"),
        grid=int(values["grid"]), seed=int(values["seed"]),
        out=Path(values["out"]), fd_step=fd_step,
        s_values=_parse_floats(values["s_values"], "s value"),
        bump_support_start=float(values["bump_support_start"]),
        bump_support_end=float(values["bump_support_end"]),
        bump_amplitude=float(values["bump_amplitude"]),
        bump_direction=str(values["bump_direction"]),
        bump_base_lambda=float(values["bump_base_lambda"]),
        s_min=float(values["s_min"]), s_max=float(values["s_max"]),
        beta_min=float(values["beta_min"]), beta_max=float(values["beta_max"]),
        claim_lambda_max=float(values["claim_lambda_max"]),
        corrupt=args.corrupt,
    )
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
        return args.func(cfg)
    except ConfigError as e:
        print(f"hypext: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"hypext: refused: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"hypext: verification failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
