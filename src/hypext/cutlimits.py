"""Indexed metric families, their reparametrized extension cuts, and the
convergence experiments.

A ``MetricFamily`` is a lambda-indexed family of centered metrics on the
base, known through its unwarped cuts ``cut(lam, rho)``.  A family is
*hyperbolic around the origin* with bound B when the diagonal cuts at
radius lam + b equal the round metric for every b <= B; it *has cut
limits* when the diagonal cuts converge in C^2, which synthetic families
declare through an explicit ``limit`` oracle.

For such a family the engine builds, for a fixed angle theta in
(0, pi/2], the unwarped cut of the reparametrized extension family member
at sphere radius lambda' + b (``extension_family_cut`` of the index that
``cut_indices`` gives, a join-coordinate field) and the predicted limit of
those cuts (``predicted_limit``):
interior block sin^2(beta) * limit(b + ln(sin beta / sin theta)), round
S^0 coefficient cos^2(beta), unit beta block, together with the equator
form that the join chart cannot reach (the polar form is the flat metric
itself).  ``run_convergence`` measures grid C^2 distances between the two
across a lambda' grid and reports them; the limit is assembled from the
oracle, never extrapolated from measurements, so the two routes stay
independent.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, VerificationError
from . import hyptrig as ht
from . import fields as mf
from .extension import (BETA_MARGIN, JoinMetricField, join_c2_distance,
                        join_field, join_grid)

# the reparametrized family is controlled for b < c + ln sin(theta); runs
# keep a fixed margin below that strict bound so they are reproducible
C_PRIME_MARGIN = 0.1

# the smallest family index any family is evaluated at
LAMBDA_MIN = 0.5

# finite stand-ins for the collar bound B and the interval top c of a
# family that is round at every radius: any B < c serves there
ROUND_B, ROUND_C = 0.0, 1.0

# grid C^2 floors: below this level differences are finite-difference and
# roundoff noise and monotone decay is no longer meaningful
C2_FLOOR = 1e-8

# gates at the last lambda': distance to the limit, equator, pole deviation
FINAL_TOL = 1e-4
BOUNDARY_TOL = 1e-6
POLE_TOL = 1e-10

HYPERBOLIC_PASS_TOL = 1e-10

# the equator form of the limit is the family limit on the base circle
# plus this coefficient of the flat normal block; the measured coefficient
# is coth^2(lambda' + b) = 1 + 1/sinh^2(lambda' + b)
EQUATOR_NORMAL_COEFF = 1.0

# the small-angle claim: lambda' points of its inequality grid, geometric
# on [1, LAMBDA_PRIME_MAX], and phi points and tolerance of its
# exact-roundness check
CLAIM_N_LAMBDA = 80
CLAIM_N_PHI = 16
EXACTNESS_TOL = 1e-14


@dataclass(frozen=True)
class MetricFamily:
    """A lambda-indexed family of centered metrics, given by unwarped cuts.

    ``cut(lam, rho)`` is the unwarped cut of the member lam >= LAMBDA_MIN
    at radius rho; ``limit(b)`` is the C^2 limit of the diagonal cuts at
    radius lam + b; ``hyperbolic_bound`` is the collar bound B (math.inf
    for a family that is round at every radius); ``interval_bound`` is the
    largest b for which the limit oracle is controlled (the cut-limit
    interval is (-inf, interval_bound]).
    """

    cut: object
    hyperbolic_bound: float
    limit: object
    interval_bound: float
    family_id: str


def is_hyperbolic_around_origin(family, B):
    """Check the round-collar property at the bound B: cuts at radius
    lam + b equal the round metric for lam in {lam0, lam0 + 4} and b in
    {B - 1, B}, with lam0 = max(2, 2 - B), so every index is at least
    LAMBDA_MIN and every radius at least 1.

    Returns (passed, max deviation); the deviation is the worst C^0..C^2
    component of the grid distance to the round metric, and the check
    passes below HYPERBOLIC_PASS_TOL.
    """
    sigma = mf.round_metric()
    lam0 = max(2.0, 2.0 - B)
    worst = 0.0
    for lam in (lam0, lam0 + 4.0):
        for b in (B - 1.0, B):
            d = mf.c2_distance(family.cut(lam, lam + b), sigma)
            worst = mf.max_carrying_nan(worst, d.max())
    return worst < HYPERBOLIC_PASS_TOL, worst


def cut_indices(theta, lambda_primes, b_min):
    """The family indices reparam(lambda', theta) of the extension cuts at
    radii lambda' + b >= lambda' + b_min, refusing a radius <= 0, an index
    below LAMBDA_MIN and a NaN; a message names the first refused lambda'."""
    s0 = np.add(lambda_primes, b_min)
    # both tests are negated, so that a NaN is refused too
    bad = ~(s0 > 0.0)
    if bad.any():
        raise DomainError(
            "cut_indices: cut radius lambda'+b = "
            f"{float(s0[bad][0])} must be positive")
    lams = ht.reparam(lambda_primes, theta)
    low = ~(lams >= LAMBDA_MIN)
    if low.any():
        raise DomainError(
            f"cut_indices: family index {float(lams[low][0]):.6g} "
            f"below LAMBDA_MIN {LAMBDA_MIN}")
    return lams


def extension_family_cut(family, lam, s0):
    """Unwarped cut of the extension of the family member lam at sphere
    radius s0 (lambda' + b, lam from ``cut_indices``), in join coordinates:

        cos^2(beta) sigma_{S^0} + sin^2(beta) cut(lam, r(s0, beta)) + dbeta^2.
    """
    return join_field(
        lambda beta: family.cut(lam, ht.solve_r(s0, beta)), 1.0)


@dataclass(frozen=True)
class LimitAssembly:
    """Predicted limit of the reparametrized extension cuts at a fixed b:
    the interior join field plus the base-circle field of the equator form
    (whose normal block is EQUATOR_NORMAL_COEFF), which the degenerate
    join chart is never asked to produce."""

    interior: JoinMetricField
    equator: object


def c_prime_bound(family, theta):
    """Largest admitted b: c' = interval_bound + ln sin(theta) -
    C_PRIME_MARGIN, infinite for an infinite interval."""
    return family.interval_bound + math.log(math.sin(theta)) - C_PRIME_MARGIN


def claim_bounds(family, theta):
    """The finite bounds (B, c') of the family at theta that the
    small-angle claim and the collar check read: its collar bound and
    c_prime_bound, with ROUND_B and ROUND_C standing in for the bounds of
    a family that is round at every radius."""
    if math.isinf(family.hyperbolic_bound):
        family = replace(family, hyperbolic_bound=ROUND_B,
                         interval_bound=ROUND_C)
    return family.hyperbolic_bound, c_prime_bound(family, theta)


def predicted_limit(family, theta, b):
    """Assembled limit of the reparametrized extension cuts at b.

    Interior block_m at angle beta uses the family limit at the shifted
    index b + ln(sin beta / sin theta); where that index falls at or below
    the collar bound the block is exactly round.  The equator form is the
    family limit at b - ln sin(theta) plus a unit flat normal block; the
    polar form is the flat metric.  b beyond c' = interval_bound +
    ln sin(theta) - C_PRIME_MARGIN is refused: past it the shifted index
    leaves the interval where the family's limits are controlled.
    """
    cp = c_prime_bound(family, theta)
    if b > cp:
        raise DomainError(
            f"b = {b} exceeds c' = {cp:.6g}: beyond c' the shifted index "
            "b + ln(sin beta / sin theta) leaves the controlled interval "
            "at the equator, so no uniform limit is predicted")

    interior = join_field(
        lambda beta: family.limit(
            b + math.log(math.sin(beta) / math.sin(theta))), 1.0)
    return LimitAssembly(interior,
                         family.limit(b - math.log(math.sin(theta))))


@dataclass
class ConvergenceReport:
    """Per-(theta, b, lambda') grid C^2 distances to the predicted limit,
    plus boundary checks, and the wall time of the measuring loop.  The
    records are the converge suite's report rows; cli.cmd_converge names
    their CSV columns."""

    records: list
    wall_clock_s: float


def run_convergence(family, theta, b_grid, lambda_prime_grid, lams,
                    n_phi=48, n_beta=96, corrupt_limit=0.0):
    """Measure grid C^2 distances between the reparametrized extension
    cuts and the assembled limit over (b, lambda') grids.

    The lambda' grid increases strictly, the b grid repeats no value, and
    ``lams`` are the family indices that ``cut_indices`` gives at the
    smallest b.  Checked up front: both grids are nonempty and the family
    passes the round-collar check at its declared bound.  Records are
    emitted sorted by (b, lambda').  ``corrupt_limit`` is a test-only hook
    that shifts the predicted limit components by a constant, used by the
    negative-control suite.
    """
    b_grid = sorted(float(b) for b in np.atleast_1d(b_grid))
    lp_grid = [float(x) for x in np.atleast_1d(lambda_prime_grid)]
    if not (b_grid and lp_grid):
        raise DomainError("b and lambda' grids must not be empty")
    B, _ = claim_bounds(family, theta)
    ok, dev = is_hyperbolic_around_origin(family, B)
    if not ok:
        raise VerificationError(
            f"family {family.family_id!r} fails the round-collar check at "
            f"its declared bound (deviation {dev:.3e}); aborting")

    t0 = time.perf_counter()
    phi, beta = join_grid(n_phi, n_beta)
    fd_step = float(beta[1] - beta[0])      # every join distance's beta step
    probe_beta = np.geomspace(1e-3, BETA_MARGIN, 6)
    probe_sin_sq = np.sin(probe_beta)[None, :] ** 2
    # per cut: the family index (alike for every b) and coth^2(lambda' + b)
    lams = lams.tolist()
    normals = (1.0 + ht.coth_sq_minus_one(
        np.add.outer(b_grid, lp_grid))).tolist()
    records = []
    cauchy_worst = 0.0
    for b, normal_row in zip(b_grid, normals):
        assembly = predicted_limit(family, theta, b)
        pred = assembly.interior.sample(phi, beta)
        if corrupt_limit:
            pred = replace(pred, block_m=pred.block_m + corrupt_limit)
        h_pred = assembly.equator
        # Cauchy spot check: adjacent cuts are no farther apart than the
        # sum of their distances to the limit
        prev = None     # (sample, distance to the limit) of the last cut
        for lp, lam, normal_meas in zip(lp_grid, lams, normal_row):
            cut = extension_family_cut(family, lam, lp + b)
            meas = cut.sample(phi, beta)
            dist = join_c2_distance(meas, pred)
            if prev is not None:
                direct = join_c2_distance(prev[0], meas).max()
                cauchy_worst = mf.max_carrying_nan(
                    cauchy_worst, direct - (prev[1] + dist.max()))
            prev = (meas, dist.max())

            h_meas = family.cut(lam, lp + b)
            bdist = mf.c2_distance(h_meas, h_pred)
            boundary_m_c0 = mf.max_carrying_nan(
                abs(normal_meas - EQUATOR_NORMAL_COEFF), bdist.max())

            pole_m = cut.block_m(phi, probe_beta)
            pole_dev = float(np.max(np.abs(
                pole_m / probe_sin_sq - 1.0)))
            records.append({
                "theta": theta, "b": b, "lambda_prime": lp,
                "c0": dist.c0, "c1": dist.c1, "c2": dist.c2,
                "grid": [n_phi, n_beta], "fd_step": fd_step,
                "family_id": family.family_id,
                "boundary_M_c0": boundary_m_c0,
                "boundary_H_c0": pole_dev,
            })
    if not (cauchy_worst <= 1e-12):
        raise VerificationError(
            f"Cauchy spot check violated by {cauchy_worst:.3e}")
    return ConvergenceReport(records=records,
                             wall_clock_s=time.perf_counter() - t0)


def _decay_breaks(dists):
    """The adjacent pairs (hi, lo) of ``dists`` where lo is not strictly
    below hi while either lies above the floor C2_FLOOR (a NaN breaks)."""
    return [(hi, lo) for hi, lo in zip(dists, dists[1:])
            if not (lo < hi or (lo <= C2_FLOOR and hi <= C2_FLOOR))]


def check_convergence_assertions(report):
    """Monotone-decay, final-tolerance, boundary and pole assertions over
    one convergence report, whose records come in (b, lambda') order.
    Returns (summary line, failure descriptions); no failure = passed.

    Per b the distance must decrease strictly in lambda' while above the
    finite-difference floor C2_FLOOR (at or below the floor only
    non-growth beyond the floor is required), and so must its maximum
    over b; the final distance, boundary distance and pole deviation
    (``boundary_H_c0``) must beat FINAL_TOL, BOUNDARY_TOL and POLE_TOL.
    The summary line gives the worst final and final boundary distances.

    The boundary distance carries the structural coth^2(lambda' + b) - 1
    gap (~4 e^{-2(lambda'+b)}), so BOUNDARY_TOL = 1e-6 presumes a grid
    whose top reaches lambda' + b >= 8; shorter grids report an honest
    "not yet within tolerance".
    """
    theta = report.records[0]["theta"]
    failures, boundaries = [], []
    worst = None    # per lambda', the maximum over b of the distance
    for b, rows in itertools.groupby(report.records, lambda r: r["b"]):
        rows = list(rows)
        dists = [mf.max_carrying_nan(r["c0"], r["c1"], r["c2"])
                 for r in rows]
        where = f"theta={theta:.6g} b={b:.6g}"
        failures += [f"{where}: distance not decreasing above floor "
                     f"({hi:.3e} -> {lo:.3e})"
                     for hi, lo in _decay_breaks(dists)]
        if not (dists[-1] < FINAL_TOL):
            failures.append(f"{where}: final C^2 distance "
                            f"{dists[-1]:.3e} >= {FINAL_TOL:.0e}")
        boundaries.append(rows[-1]["boundary_M_c0"])
        if not (boundaries[-1] < BOUNDARY_TOL):
            failures.append(f"{where}: boundary distance "
                            f"{boundaries[-1]:.3e} >= {BOUNDARY_TOL:.0e}")
        pole = rows[-1]["boundary_H_c0"]
        if not (pole < POLE_TOL):
            failures.append(f"{where}: pole deviation {pole:.3e} >= "
                            f"{POLE_TOL:.0e}")
        worst = dists if worst is None else [
            mf.max_carrying_nan(w, d) for w, d in zip(worst, dists)]
    failures += [f"theta={theta:.6g}: max-over-b distance not strictly "
                 f"decreasing above floor ({hi:.3e} -> {lo:.3e})"
                 for hi, lo in _decay_breaks(worst)]
    return (f"theta={theta:.6g}: final C2 {worst[-1]:.3e}, final boundary "
            f"{mf.max_carrying_nan(*boundaries):.3e}"), failures


def verify_beta1_claim(family, theta, beta1):
    """Verify the small-angle inequality r(lambda' + c', beta1) <=
    reparam(lambda') + B on the claim grid, CLAIM_N_LAMBDA geometric
    points on [1, LAMBDA_PRIME_MAX], at the points where the hypotenuse
    lambda' + c' is positive (as in beta1_threshold's sweep), with
    (B, c') the family's claim_bounds at theta, and the exact roundness
    it forces.

    Reports the first grid lambda' from which the inequality holds through
    the top of the grid, the margin at the top, and the worst deviation of
    block_m from sin^2(beta) * round on the forced region (beta <= beta1,
    b <= c').  Raises VerificationError if the inequality never holds or
    the forced region is not exactly round to EXACTNESS_TOL.
    """
    B, c_prime = claim_bounds(family, theta)
    grid = np.geomspace(1.0, ht.LAMBDA_PRIME_MAX, CLAIM_N_LAMBDA)
    grid = grid[grid + c_prime > 0.0]
    lhs = ht.solve_r(grid + c_prime, beta1)
    rhs = ht.reparam(grid, theta) + B
    # the inequality holds from just past its last failure (a NaN fails)
    fails = np.flatnonzero(~(lhs <= rhs))
    idx = int(fails[-1]) + 1 if fails.size else 0
    if idx == len(grid):
        raise VerificationError(
            "verify_beta1_claim: inequality never holds on the grid; "
            "beta1 must be recomputed")
    lambda0 = float(grid[idx])
    margin_top = float(rhs[-1] - lhs[-1])

    # exact roundness of block_m on the forced region
    phi = np.linspace(0.0, 2.0 * math.pi, CLAIM_N_PHI, endpoint=False)
    betas = np.linspace(max(1e-3, beta1 / 5.0), beta1, 5)
    bs = [c_prime, c_prime - 0.5]
    lo = max(lambda0, 2.0)
    # one lambda' where the inequality holds only at the top of the grid
    lps = np.geomspace(lo, grid[-1], 4 if lo < grid[-1] else 1)
    lps = lps[(lps + min(bs) > 0.0)
              & (lps >= ht.reparam_inverse(LAMBDA_MIN, theta))]
    lams = cut_indices(theta, lps, min(bs))
    worst = 0.0
    for lp, lam in zip(lps.tolist(), lams.tolist()):
        for b in bs:
            cut = extension_family_cut(family, lam, lp + b)
            m = cut.block_m(phi, betas)
            worst = mf.max_carrying_nan(worst, float(np.max(
                np.abs(m - np.sin(betas)[None, :] ** 2))))
    if not (worst <= EXACTNESS_TOL):
        raise VerificationError(
            f"verify_beta1_claim: forced region not exactly round "
            f"(deviation {worst:.3e} > {EXACTNESS_TOL:.0e})")
    return {
        "beta1": beta1,
        "lambda0": lambda0,
        "margin_at_top": margin_top,
        "exactness_max_dev": worst,
        "grid_min": float(grid[0]),
        "grid_max": float(grid[-1]),
    }
