"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (visible with pytest -s / -rA).

Every running maximum is folded with ``max_carrying_nan`` and every
running minimum taken by ``np.min``, so that a NaN reaching a criterion's
input fails it (the builtin ``max(0.0, nan)`` is 0.0); the rows of
``tests/test_acceptance_nan.py`` check this."""

import math
import time

import numpy as np

from hypext import cli
from hypext import cutlimits as cl
from hypext import extension as ext
from hypext import families as fam
from hypext import fields as mf
from hypext import hyptrig as ht
from hypext.errors import max_carrying_nan

HALF_PI = math.pi / 2
PI_3 = math.pi / 3


def report(name, passed, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. triangle identity suite
# ---------------------------------------------------------------------------

def test_triangle_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    s = rng.uniform(0.1, 30.0, size=(100, 100))
    beta = rng.uniform(0.01, HALF_PI - 0.01, size=(100, 100))
    r = ht.solve_r(s, beta)
    t = ht.solve_t(s, beta)

    def relmax(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))

    worst = max_carrying_nan(
        relmax(np.sinh(r), np.sin(beta) * np.sinh(s)),
        relmax(np.cosh(r) * np.sinh(t), np.sinh(s) * np.cos(beta)),
        relmax(np.cosh(r) * np.cosh(t), np.cosh(s)),
    )
    elapsed = time.perf_counter() - t0
    report("identity-suite",
           worst < 1e-12 and elapsed < 1.0,
           f"worst relative residual {worst:.2e} on a 100x100 random grid, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. polar coordinate identity
# ---------------------------------------------------------------------------

def test_polar_identity():
    t0 = time.perf_counter()
    sg = np.linspace(0.5, 10.0, 50)
    bg = np.linspace(0.05, HALF_PI - 0.05, 50)
    ss, bb = np.meshgrid(sg, bg, indexing="ij")
    worst_fd = float(np.max(ext.polar_identity_residual(ss, bb,
                                                        derivatives="fd")))
    worst_closed = float(np.max(ext.polar_identity_residual(
        ss, bb, derivatives="closed")))
    elapsed = time.perf_counter() - t0
    report("polar-identity",
           worst_fd < 1e-6 and worst_closed < 1e-12 and elapsed < 10.0,
           f"fd residual {worst_fd:.2e} (< 1e-6), closed-form residual "
           f"{worst_closed:.2e} (< 1e-12), 50x50 grid, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. closed-form cut vs pullback oracle
# ---------------------------------------------------------------------------

def test_formula_vs_pullback_oracle():
    t0 = time.perf_counter()
    phi, beta = ext.join_grid(32, 24)   # 32*24 = 768 points
    # each base by its unwarped cut r -> circle field
    sigma = mf.round_metric()
    family = fam.bump_family("uniform")
    bases = {
        "hyperbolic": lambda r: sigma,
        "bump-member": lambda r: family.cut(2.0, r),
    }

    worst_rel = 0.0
    worst_off = 0.0
    for name, base in bases.items():
        for s in (1.0, 3.0, 6.0):
            formula = ext.cut_via_formula(base, s).sample(phi, beta)
            oracle = ext.cut_via_pullback(base, s, phi, beta)
            rep = ext.compare_join(formula, oracle)
            worst_rel = max_carrying_nan(
                worst_rel, rep["max_rel_err_block_M"],
                rep["max_rel_err_block_beta"])
            worst_off = max_carrying_nan(worst_off, rep["max_abs_offdiag"])
    elapsed = time.perf_counter() - t0
    report("formula-vs-oracle",
           worst_rel < 1e-5 and worst_off < 1e-6 and elapsed < 120.0,
           f"worst blockwise relative error {worst_rel:.2e} (< 1e-5), "
           f"worst off-diagonal {worst_off:.2e} (< 1e-6), s in {{1,3,6}}, "
           f"both bases, 768 points, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. round-sphere recovery
# ---------------------------------------------------------------------------

def test_round_sphere_recovery(round_metric_in_join_coordinates):
    # the cut of the hyperbolic base (unwarped cut: the round form at
    # every radius) over sinh^2(s) is the round metric
    sigma = mf.round_metric()
    base = lambda r: sigma
    phi, beta = ext.join_grid(32, 24)
    worst = 0.0
    for s in (1.0, 3.0, 6.0):
        sample = ext.cut_via_formula(base, s).sample(phi, beta)
        f = math.sinh(s) ** 2
        # the one stored sheet against the transport of every sheet
        for sheet in ext.SHEETS:
            tm, tb, tx = round_metric_in_join_coordinates(phi, beta, sheet)
            worst = max_carrying_nan(
                worst,
                float(np.max(np.abs(sample.block_m / f - tm))),
                float(np.max(np.abs(sample.block_beta / f - tb))),
                float(np.max(np.abs(tx))))
    report("round-sphere-recovery", worst < 1e-10,
           f"worst deviation from the chart-transported round metric "
           f"{worst:.2e} (< 1e-10), s in {{1,3,6}}, both sheets")


# ---------------------------------------------------------------------------
# 5. additive shift asymptotics
# ---------------------------------------------------------------------------

def test_shift_asymptotics():
    betas = np.linspace(0.08, 0.30, 10)
    bs = np.linspace(-2.0, -0.6, 5)
    thetas = (HALF_PI, PI_3, 1.0)
    gaps30, ratios = [], []
    for be in betas:
        for b in bs:
            for theta in thetas:
                shift = ht.vartheta_shift(be, b, theta)
                gap = lambda lam: abs(ht.vartheta(lam, be, b, theta)
                                      - lam - shift)
                gaps30.append(gap(30.0))
                ratios.append(gap(15.0) / gap(17.0))
    worst_gap30 = max_carrying_nan(*gaps30)
    worst_ratio = float(np.min(ratios))
    report("shift-asymptotics",
           worst_gap30 < 1e-8 and worst_ratio >= 40.0,
           f"worst gap at lambda=30 is {worst_gap30:.2e} (< 1e-8); smallest "
           f"decay factor 15->17 is {worst_ratio:.1f} (>= 40, consistent "
           f"with e^4 = 54.6) on the 10x5x3 grid")


# ---------------------------------------------------------------------------
# 6. cut-limit convergence at desk scale
# ---------------------------------------------------------------------------

def test_cut_limit_convergence():
    t0 = time.perf_counter()
    family = fam.bump_family("uniform")
    reports = []
    finals, boundaries = [], []
    for theta in (HALF_PI, PI_3):
        cp = cl.c_prime_bound(family, theta)
        b_grid = np.linspace(-2.0, cp, 5)
        lps = [4.0, 6.0, 8.0, 10.0]
        rep = cl.run_convergence(family, theta, b_grid, lps,
                                 cl.cut_indices(theta, lps, -2.0),
                                 n_phi=48, n_beta=96)
        reports.append(rep)
        finals.extend(max_carrying_nan(r["c0"], r["c1"], r["c2"])
                      for r in rep.records
                      if r["lambda_prime"] == 10.0)
        boundaries.extend(r["boundary_M_c0"] for r in rep.records
                          if r["lambda_prime"] == 10.0)
    # the gates are cl.C2_FLOOR = 1e-8, cl.FINAL_TOL = 1e-4 and
    # cl.BOUNDARY_TOL = 1e-6, the values this criterion states
    assert (cl.C2_FLOOR, cl.FINAL_TOL, cl.BOUNDARY_TOL) == (1e-8, 1e-4, 1e-6)
    failures = [f for rep in reports
                for f in cl.check_convergence_assertions(rep)[1]]
    elapsed = time.perf_counter() - t0
    coth_dev = max(ht.coth_sq_minus_one(10.0 + b)
                   for b in np.linspace(-2.0, 0.9, 5))
    final = max_carrying_nan(*finals)
    boundary = max_carrying_nan(*boundaries)
    report("cut-limit-convergence",
           not failures and final < 1e-4
           and boundary < 1e-6 and elapsed < 600.0,
           f"strict decay over lambda' in {{4,6,8,10}} (above the 1e-8 "
           f"floor); final C2 distance {final:.2e} (< 1e-4); final "
           f"boundary distance {boundary:.2e} (< 1e-6, coth^2-1 "
           f"reaches {coth_dev:.1e}); theta in {{pi/2, pi/3}}, 5 b-values "
           f"in [-2, c']; {elapsed:.1f}s single-threaded"
           + ("" if not failures else f"; failures: {failures}"))


# ---------------------------------------------------------------------------
# 7. small-angle threshold claim
# ---------------------------------------------------------------------------

def test_small_angle_claim():
    family = fam.bump_family("uniform")
    worst_lambda0 = 0.0
    worst_dev = 0.0
    for theta in (HALF_PI, PI_3):
        B, cp = cl.claim_bounds(family, theta)
        beta1 = ht.beta1_threshold(theta, B, cp)
        rep = cl.verify_beta1_claim(family, theta, beta1)
        worst_lambda0 = max_carrying_nan(worst_lambda0, rep["lambda0"])
        worst_dev = max_carrying_nan(worst_dev, rep["exactness_max_dev"])
    report("small-angle-claim",
           worst_lambda0 <= 10.0 and worst_dev <= 1e-14,
           f"inequality holds from lambda' = {worst_lambda0:.3g} (<= 10); "
           f"forced region exactly round to {worst_dev:.1e} (<= 1e-14)")


# ---------------------------------------------------------------------------
# 8. negative controls
# ---------------------------------------------------------------------------

def test_negative_controls(tmp_path, monkeypatch):
    # the identities suite's control is a polar-identity step far too
    # coarse for its tolerance; no other suite reads the step
    monkeypatch.setattr(ext, "POLAR_FD_STEP", 0.02)
    controls = [
        ("identities", ["identities"]),
        ("oracle", ["oracle", "--family", "hyperbolic", "--s-values", "1",
                    "--grid", "48", "--corrupt", "formula-beta"]),
        ("converge", ["converge", "--family", "bump", "--theta", "pi/2",
                      "--lambda-prime", "4,6", "--b", "0.0", "--grid", "48",
                      "--corrupt", "limit-shift"]),
        ("claim", ["claim", "--family", "bump", "--theta", "pi/2",
                   "--corrupt", "beta1-large"]),
    ]
    codes = {}
    for i, (name, args) in enumerate(controls):
        codes[name] = cli.main(args + ["--out", str(tmp_path / f"nc{i}")])
    report("negative-controls",
           all(code == 1 for code in codes.values()),
           "corrupted exit codes " +
           ", ".join(f"{k}={v}" for k, v in codes.items()) +
           " (all must be 1: the suites are live)")
