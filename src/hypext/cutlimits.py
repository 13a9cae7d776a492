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
at sphere radius lambda' + b (``extension_family_cut``, a join-coordinate
field) and the predicted limit of those cuts (``predicted_limit``):
interior block sin^2(beta) * limit(b + ln(sin beta / sin theta)), round
S^0 coefficient cos^2(beta), unit beta block, together with the two
boundary-sphere forms that the join chart cannot reach.
``run_convergence`` measures grid C^2 distances between the two across a
lambda' grid and reports them; the limit is assembled from the oracle,
never extrapolated from measurements, so the two routes stay independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError
from . import hyptrig as ht
from . import fields as mf
from .extension import (BETA_MARGIN, JoinMetricField, join_c2_distance,
                        join_grid, unwarped_join_field)

HALF_PI = 0.5 * math.pi

# the reparametrized family is controlled for b < c + ln sin(theta); runs
# keep a fixed margin below that strict bound so they are reproducible
C_PRIME_MARGIN = 0.1

# grid C^2 floors: below this level differences are finite-difference and
# roundoff noise and monotone decay is no longer meaningful
C2_FLOOR = 1e-8

HYPERBOLIC_PASS_TOL = 1e-10


@dataclass(frozen=True)
class MetricFamily:
    """A lambda-indexed family of centered metrics, given by unwarped cuts.

    ``cut(lam, rho)`` is the unwarped cut of the member lam at radius rho;
    ``limit(b)``, when present, is the C^2 limit of the diagonal cuts at
    radius lam + b; ``hyperbolic_bound`` is the collar bound B (math.inf
    for a family that is round at every radius); ``interval_bound`` is the
    largest b for which the limit oracle is controlled (the cut-limit
    interval is (-inf, interval_bound]).
    """

    cut: object
    lambda_min: float
    hyperbolic_bound: float | None = None
    limit: object = None
    interval_bound: float = math.inf
    family_id: str = ""


def is_hyperbolic_around_origin(family, B, lambda_grid, b_grid,
                                resolution=128):
    """Check the round-collar property: cuts at radius lam + b equal the
    round metric for every b <= B on the tested grids.

    Returns (passed, max deviation); the deviation is the worst C^0..C^2
    component of the grid distance to the round metric, and the check
    passes below 1e-10.
    """
    b_grid = np.atleast_1d(np.asarray(b_grid, dtype=float))
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if np.any(b_grid > B):
        raise DomainError("is_hyperbolic_around_origin: b grid must be <= B")
    sigma = mf.round_metric()
    worst = 0.0
    for lam in lambda_grid:
        if lam < family.lambda_min:
            raise DomainError(
                f"is_hyperbolic_around_origin: lambda {lam} below the "
                f"family's lambda_min {family.lambda_min}")
        for b in b_grid:
            if lam + b <= 0.0:
                raise DomainError(
                    "is_hyperbolic_around_origin: cut radius lam + b must "
                    "be positive")
            d = mf.c2_distance(family.cut(float(lam), float(lam + b)), sigma,
                               resolution=resolution)
            worst = mf.max_carrying_nan(worst, d.max())
    return worst < HYPERBOLIC_PASS_TOL, worst


def extension_family_cut(family, theta, lambda_prime, b):
    """Unwarped cut of the theta-reparametrized extension family member at
    sphere radius lambda' + b, in join coordinates:

        cos^2(beta) * sigma_{S^0}
      + sin^2(beta) * cut(reparam(lambda', theta), r(lambda' + b, beta))
      + dbeta^2.
    """
    s0 = lambda_prime + b
    if s0 <= 0.0:
        raise DomainError(
            f"extension_family_cut: cut radius lambda'+b = {s0} must be "
            "positive")
    lam = ht.reparam(lambda_prime, theta)
    if lam < family.lambda_min:
        raise DomainError(
            f"extension_family_cut: family index {lam:.6g} below "
            f"lambda_min {family.lambda_min}")

    return unwarped_join_field(
        lambda beta: family.cut(lam, ht.solve_r(s0, beta)), s0,
        name=f"{family.family_id}-ext-cut")


@dataclass(frozen=True)
class BoundaryForm:
    """Limit form on the equatorial base circle: a field on S^1 plus
    the coefficient of the flat hyperbolic-factor block in the normal
    splitting at the equator."""

    normal_coeff: float
    h_field: object


@dataclass(frozen=True)
class LimitAssembly:
    """Predicted limit of the reparametrized extension cuts at a fixed b:
    the interior join field plus the two boundary-sphere forms, which the
    degenerate join chart is never asked to produce."""

    b: float
    theta: float
    interior: JoinMetricField
    boundary_h: np.ndarray
    boundary_m: BoundaryForm


def c_prime_bound(family, theta, margin=C_PRIME_MARGIN):
    """Largest admitted b: interval_bound + ln sin(theta) - margin."""
    if not math.isfinite(family.interval_bound):
        return math.inf
    return family.interval_bound + math.log(math.sin(theta)) - margin


def predicted_limit(family, theta, b, margin=C_PRIME_MARGIN):
    """Assembled limit of the reparametrized extension cuts at b.

    Interior block_m at angle beta uses the family limit at the shifted
    index b + ln(sin beta / sin theta); where that index falls at or below
    the collar bound the block is exactly round.  The equator form is the
    family limit at b - ln sin(theta) plus a unit flat normal block; the
    polar form is the flat metric.  b beyond c' = interval_bound +
    ln sin(theta) - margin is refused: past it the shifted index leaves
    the interval where the family's limits are controlled.
    """
    if family.limit is None:
        raise DomainError(
            f"family {family.family_id!r} declares no limit oracle")
    cp = c_prime_bound(family, theta, margin)
    if b > cp:
        raise DomainError(
            f"b = {b} exceeds c' = {cp:.6g}: beyond c' the shifted index "
            "b + ln(sin beta / sin theta) leaves the controlled interval "
            "at the equator, so no uniform limit is predicted")

    interior = unwarped_join_field(
        lambda beta: family.limit(
            b + math.log(math.sin(beta) / math.sin(theta))), None,
        name=f"{family.family_id}-limit[b={b:g},theta={theta:g}]")
    boundary_m = BoundaryForm(
        normal_coeff=1.0,
        h_field=family.limit(b - math.log(math.sin(theta))))
    return LimitAssembly(b=b, theta=theta, interior=interior,
                         boundary_h=np.eye(2), boundary_m=boundary_m)


def boundary_positivity(assembly, resolution=128):
    """Positivity of the assembled limit: interior blocks on the join
    grid, the polar flat form, and the equator form."""
    phi, beta = join_grid(32, 48)
    sample = assembly.interior.sample(phi, beta)
    _, eq_min = mf.positivity_check(assembly.boundary_m.h_field, resolution)
    worst = mf.min_carrying_nan(
        float(np.min(sample.block_m)), float(np.min(sample.block_beta)),
        float(np.min(np.linalg.eigvalsh(assembly.boundary_h))),
        eq_min, assembly.boundary_m.normal_coeff)
    return worst > 0.0, worst


@dataclass
class ConvergenceReport:
    """Per-(theta, b, lambda') grid C^2 distances to the predicted limit,
    plus boundary checks and grid metadata."""

    family_id: str
    records: list
    n_phi: int
    n_beta: int
    beta_margin: float
    wall_clock_s: float
    cauchy_worst: float = 0.0

    CSV_COLUMNS = ("theta", "b", "lambda_prime", "c0", "c1", "c2",
                   "grid", "fd_step", "family_id",
                   "boundary_M_c0", "boundary_H_c0")


def run_convergence(family, theta, b_grid, lambda_prime_grid,
                    n_phi=48, n_beta=96, margin=C_PRIME_MARGIN,
                    boundary_resolution=128, corrupt_limit=0.0):
    """Measure grid C^2 distances between the reparametrized extension
    cuts and the assembled limit over (b, lambda') grids.

    Preconditions are checked up front: the family must pass the
    round-collar check at its declared bound, every b must lie in the
    admitted interval, and the lambda' grid must be strictly increasing.
    Records are emitted sorted by (b, lambda').  ``corrupt_limit`` is a
    test-only hook that shifts the predicted limit components by a
    constant, used by the negative-control suite.
    """
    b_grid = sorted(float(b) for b in np.atleast_1d(b_grid))
    lp_grid = [float(x) for x in np.atleast_1d(lambda_prime_grid)]
    if not all(x < y for x, y in zip(lp_grid, lp_grid[1:])):
        raise DomainError("lambda' grid must be strictly increasing")
    if family.limit is None:
        raise DomainError("run_convergence requires a family limit oracle")

    bound = family.hyperbolic_bound
    if bound is None:
        raise DomainError("run_convergence requires a declared collar bound")
    b_check = 0.0 if math.isinf(bound) else bound
    lam_lo = max(family.lambda_min + 0.5, 2.0, 2.0 - b_check)
    lam_check = [lam_lo, lam_lo + 4.0]
    ok, dev = is_hyperbolic_around_origin(
        family, b_check, lam_check, [b_check - 1.0, b_check])
    if not ok:
        raise VerificationError(
            f"family {family.family_id!r} fails the round-collar check at "
            f"its declared bound (deviation {dev:.3e}); aborting")

    t0 = time.perf_counter()
    phi, beta = join_grid(n_phi, n_beta)
    probe_beta = np.geomspace(1e-3, BETA_MARGIN, 6)
    records = []
    cauchy_worst = 0.0
    for b in b_grid:
        assembly = predicted_limit(family, theta, b, margin)
        pred = assembly.interior.sample(phi, beta)
        if corrupt_limit:
            pred = _shift_sample(pred, corrupt_limit)
        h_pred = assembly.boundary_m.h_field
        samples = []
        for lp in lp_grid:
            cut = extension_family_cut(family, theta, lp, b)
            meas = cut.sample(phi, beta)
            samples.append(meas)
            dist = join_c2_distance(meas, pred)

            lam = ht.reparam(lp, theta)
            normal_meas = 1.0 + ht.coth_sq_minus_one(lp + b)
            h_meas = family.cut(lam, lp + b)
            bdist = mf.c2_distance(h_meas, h_pred,
                                   resolution=boundary_resolution)
            boundary_m_c0 = mf.max_carrying_nan(
                abs(normal_meas - assembly.boundary_m.normal_coeff),
                bdist.max())

            pole_m = cut.block_m(phi, probe_beta)
            pole_dev = float(np.max(np.abs(
                pole_m / np.sin(probe_beta)[None, :] ** 2 - 1.0)))
            records.append({
                "theta": theta, "b": b, "lambda_prime": lp,
                "c0": dist.c0, "c1": dist.c1, "c2": dist.c2,
                "grid": [n_phi, n_beta], "fd_step": dist.fd_step,
                "family_id": family.family_id,
                "boundary_M_c0": boundary_m_c0,
                "boundary_H_c0": pole_dev,
            })
        # Cauchy spot check: adjacent cuts are no farther apart than the
        # sum of their distances to the limit
        for i in range(len(samples) - 1):
            direct = join_c2_distance(samples[i], samples[i + 1]).max()
            via = (_rec(records, b, lp_grid[i]) + _rec(records, b, lp_grid[i + 1]))
            cauchy_worst = mf.max_carrying_nan(cauchy_worst, direct - via)
    if not (cauchy_worst <= 1e-12):
        raise VerificationError(
            f"Cauchy spot check violated by {cauchy_worst:.3e}")
    return ConvergenceReport(
        family_id=family.family_id, records=records,
        n_phi=n_phi, n_beta=n_beta, beta_margin=BETA_MARGIN,
        wall_clock_s=time.perf_counter() - t0, cauchy_worst=cauchy_worst)


def _rec(records, b, lp):
    for r in records:
        if r["b"] == b and r["lambda_prime"] == lp:
            return mf.max_carrying_nan(r["c0"], r["c1"], r["c2"])
    raise KeyError((b, lp))


def _shift_sample(sample, delta):
    from dataclasses import replace
    return replace(sample, block_m=sample.block_m + delta)


def check_convergence_assertions(reports, floor=C2_FLOOR, final_tol=1e-4,
                                 boundary_tol=1e-6):
    """Monotone-decay, final-tolerance and boundary assertions over one or
    more convergence reports.  Returns a list of failure descriptions
    (empty = all passed).

    Per (theta, b) the distance must decrease strictly in lambda' while
    above the finite-difference floor (at or below the floor only
    non-growth beyond the floor is required); the maximum over b must
    decrease strictly; the final distances must beat final_tol and the
    final boundary distances boundary_tol.

    The boundary distance carries the structural coth^2(lambda' + b) - 1
    gap (~4 e^{-2(lambda'+b)}), so boundary_tol = 1e-6 presumes a grid
    whose top reaches lambda' + b >= 8; shorter grids report an honest
    "not yet within tolerance".
    """
    failures = []
    if isinstance(reports, ConvergenceReport):
        reports = [reports]
    for rep in reports:
        by_b = {}
        for r in rep.records:
            by_b.setdefault((r["theta"], r["b"]), []).append(r)
        lp_sorted = sorted({r["lambda_prime"] for r in rep.records})
        max_over_b = {lp: 0.0 for lp in lp_sorted}
        for (theta, b), rows in sorted(by_b.items()):
            rows.sort(key=lambda r: r["lambda_prime"])
            dists = [mf.max_carrying_nan(r["c0"], r["c1"], r["c2"])
                     for r in rows]
            for i in range(len(dists) - 1):
                lo, hi = dists[i + 1], dists[i]
                if not (lo < hi or (lo <= floor and hi <= floor)):
                    failures.append(
                        f"theta={theta:.6g} b={b:.6g}: distance not "
                        f"decreasing above floor ({hi:.3e} -> {lo:.3e})")
            if not (dists[-1] < final_tol):
                failures.append(
                    f"theta={theta:.6g} b={b:.6g}: final C^2 distance "
                    f"{dists[-1]:.3e} >= {final_tol:.0e}")
            if not (rows[-1]["boundary_M_c0"] < boundary_tol):
                failures.append(
                    f"theta={theta:.6g} b={b:.6g}: boundary distance "
                    f"{rows[-1]['boundary_M_c0']:.3e} >= {boundary_tol:.0e}")
            for lp, d in zip(lp_sorted, dists):
                max_over_b[lp] = mf.max_carrying_nan(max_over_b[lp], d)
        agg = [max_over_b[lp] for lp in lp_sorted]
        for i in range(len(agg) - 1):
            lo, hi = agg[i + 1], agg[i]
            if not (lo < hi or (lo <= floor and hi <= floor)):
                failures.append(
                    f"theta={rep.records[0]['theta']:.6g}: max-over-b "
                    f"distance not strictly decreasing above floor "
                    f"({hi:.3e} -> {lo:.3e})")
    return failures


def verify_beta1_claim(family, params, lambda_prime_grid, n_phi=16,
                       exactness_tol=1e-14):
    """Verify the small-angle inequality r(lambda' + c', beta1) <=
    reparam(lambda') + B on the grid and the exact roundness it forces.

    Reports the first grid lambda' from which the inequality holds through
    the top of the grid, the margin at the top, and the worst deviation of
    block_m from sin^2(beta) * round on the forced region (beta <= beta1,
    b <= c').  Raises VerificationError if the inequality never holds or
    the forced region is not exactly round to ``exactness_tol``.
    """
    if params.beta1 is None:
        raise DomainError("verify_beta1_claim: params.beta1 is unset; "
                          "call beta1_threshold first")
    grid = np.sort(np.atleast_1d(np.asarray(lambda_prime_grid, dtype=float)))
    lhs = ht.solve_r(grid + params.c_prime, params.beta1)
    rhs = ht.reparam(grid, params.theta) + params.B
    holds = lhs <= rhs
    idx = None
    for i in range(len(grid)):
        if np.all(holds[i:]):
            idx = i
            break
    if idx is None:
        raise VerificationError(
            "verify_beta1_claim: inequality never holds on the grid; "
            "beta1 must be recomputed")
    lambda0 = float(grid[idx])
    margin_top = float(rhs[-1] - lhs[-1])

    # exact roundness of block_m on the forced region
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    betas = np.linspace(max(1e-3, params.beta1 / 5.0), params.beta1, 5)
    bs = [params.c_prime, params.c_prime - 0.5]
    lps = [lp for lp in np.geomspace(max(lambda0, 2.0), grid[-1], 4)
           if ht.reparam(float(lp), params.theta) >= family.lambda_min
           and lp + min(bs) > 0.0]
    worst = 0.0
    for lp in lps:
        for b in bs:
            cut = extension_family_cut(family, params.theta, float(lp), b)
            m = cut.block_m(phi, betas)
            worst = mf.max_carrying_nan(worst, float(np.max(
                np.abs(m - np.sin(betas)[None, :] ** 2))))
    if not (worst <= exactness_tol):
        raise VerificationError(
            f"verify_beta1_claim: forced region not exactly round "
            f"(deviation {worst:.3e} > {exactness_tol:.0e})")
    return {
        "beta1": params.beta1,
        "lambda0": lambda0,
        "margin_at_top": margin_top,
        "exactness_max_dev": worst,
        "grid_min": float(grid[0]),
        "grid_max": float(grid[-1]),
    }
