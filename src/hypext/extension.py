"""The warped hyperbolic extension of a centered metric and the join
coordinates on its geodesic spheres.

Given a centered radial metric h = h_r + dr^2 on a surface (a circle
base, so h_r is a field on S^1), the extension of hyperbolic rank 1
carries the warped product metric

    f = cosh^2(r) * dt^2 + h

on H^1 x M.  Every base here is sinh-warped, h_r = sinh^2(r) * g'_r, and
is given by its unwarped cut: a function r -> g'_r (a circle field).  A
geodesic sphere of radius s in [RADIUS_MIN, RADIUS_MAX) about the center
meets every totally geodesic 2-plane spanned by a base ray and an H^1 ray
in a right triangle with hypotenuse s, so the sphere is charted by join
coordinates (w, u, beta): w the sign label of the two H^1 rays, u a
circle angle, and beta in (0, pi/2) the angle from the H^1 axis.  The
chart covers the 2-sphere minus the two poles and the equator.  w enters
the induced metric only as w^2, so its two sheets are equal and a
``JoinSample`` holds one (phi, beta) sheet.

Two routes to the induced sphere metric are implemented:

* ``cut_via_formula`` -- the closed-form block expression
  sinh^2(s) * (cos^2(beta) sigma_{S^0} + sin^2(beta) g'_r + dbeta^2)
  with r = asinh(sin(beta) sinh(s)), since sinh^2(r) = sin^2(beta)
  sinh^2(s);
* ``cut_via_pullback`` -- a finite-difference pullback of the ambient
  metric through the join embedding, the oracle for the closed form; it
  builds only the entries a diagonal ambient metric can make nonzero.

``polar_identity_residual`` checks the underlying change-of-variables
identity sinh^2(s) dbeta^2 + ds^2 = cosh^2(r) dt^2 + dr^2 on (s, beta)
arrays, with closed-form partials or with Richardson differences of the
fixed step POLAR_FD_STEP.
``join_field`` builds every join metric of this form from its circle
block per beta and its radial factor: the closed-form cut, and, with
radial factor 1, the unwarped cuts and limits of ``cutlimits``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import hyptrig as ht
from . import fields as mf

# join-chart sampling stays this far from the degenerate loci beta = 0 and
# beta = pi/2; the boundary spheres are handled by dedicated closed forms
BETA_MARGIN = 0.05

# the two sheets w = +1, -1 of the join chart
SHEETS = (1, -1)

# every cut is taken on a sphere of radius s in [RADIUS_MIN, RADIUS_MAX):
# every closed-form block, the smallest about (s * sin(BETA_MARGIN))^2, is a
# normal double, and sinh^2(s) stays finite
RADIUS_MIN = math.sqrt(sys.float_info.min) / math.sin(BETA_MARGIN)
RADIUS_MAX = 350.0

# the finite-difference step of polar_identity_residual: dt/ds decays like
# e^{-2s}, so at large s a tight step leaves the stencil difference at the
# roundoff floor; 2e-4 keeps cancellation small while Richardson holds
# truncation near h^4
POLAR_FD_STEP = 2e-4


# the off-diagonal block of every join sample, exactly zero (0-d)
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _richardson_d1(f, x, h):
    """Central difference with one Richardson pass (step ratio 2)."""
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_h2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


@dataclass(frozen=True)
class JoinMetricField:
    """Closed-form join metric on the extension's sphere (rank 1, circle
    base):

        radial * (cos^2(beta) * sigma_{S^0}  (zero-dimensional at k = 1)
                  + dbeta^2)
      + block_m(phi, beta) * dphi^2

    Blocks are independent of the sheet label w for the bases considered,
    since w enters the metric only as w^2: a sample holds one sheet.
    """

    block_m: object
    radial: float

    def sample(self, phi, beta):
        phi = np.asarray(phi, dtype=float)
        beta = np.asarray(beta, dtype=float)
        return JoinSample(
            phi=phi, beta=beta,
            block_m=np.asarray(self.block_m(phi, beta), dtype=float),
            block_beta=np.full(beta.size, self.radial), offdiag=_ZERO,
            block_h_coeff=self.radial * np.cos(beta) ** 2)


@dataclass(frozen=True)
class JoinSample:
    """Join-chart components on one (phi, beta) sheet, each block stored at
    the shape it varies at and made read-only: the converge loop compares
    one predicted-limit sample with the cut at every lambda'."""

    phi: np.ndarray
    beta: np.ndarray
    block_m: np.ndarray      # (n_phi, n_beta)
    block_beta: np.ndarray   # (n_beta,)
    offdiag: np.ndarray      # ()
    block_h_coeff: np.ndarray | None = None   # (n_beta,) or None (oracle)

    def __post_init__(self):
        for block in (self.block_m, self.block_beta, self.offdiag):
            block.flags.writeable = False

    @property
    def steps(self):
        return (float(self.phi[1] - self.phi[0]),
                float(self.beta[1] - self.beta[0]))


def join_grid(n_phi, n_beta):
    """Standard join-chart grid: phi uniform over the full circle, beta
    uniform over [BETA_MARGIN, pi/2 - BETA_MARGIN].

    Both axes are read-only views of immutable ``bytes``, which numpy
    never lets anyone make writeable, so nothing can write into them
    after they are built.  Every bump family evaluates its direction row
    once for the last such axis it is given and reuses it in every beta
    column (see ``families.bump_family``)."""
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    beta = np.linspace(BETA_MARGIN, ht.HALF_PI - BETA_MARGIN, n_beta)
    return np.frombuffer(phi.tobytes()), np.frombuffer(beta.tobytes())


def _check_radius(s, who):
    if not RADIUS_MIN <= s < RADIUS_MAX:
        raise DomainError(f"{who}: sphere radius {s} outside "
                          f"[{RADIUS_MIN:.3g}, {RADIUS_MAX:g})")


def _column_block(column, x, phi, weight):
    """The C-ordered (phi.size, x.size) block whose column j is weight_j
    times the field column(x_j) (called with a float) at the angles phi,
    by one transposing multiply of the contiguously written rows."""
    rows = np.empty((x.size, phi.size))
    for j, xj in enumerate(x.tolist()):
        rows[j] = column(xj).at_angles(phi)
    out = np.empty((phi.size, x.size))
    np.multiply(rows.T, weight, out=out)
    return out


def join_field(column, radial):
    """The join metric

        radial * (cos^2(beta) * sigma_{S^0} + sin^2(beta) * column(beta)
                  + dbeta^2)

    whose circle block at each beta is the field ``column(beta)``.  The
    extension-family cut and its predicted limit are unwarped (radial 1)
    and differ only in the column; the closed-form cut has radial
    sinh^2(s).  radial * sin^2(beta) is the weight of the column block.
    """

    def block_m(phi, beta):
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        return _column_block(column, beta, phi, radial * np.sin(beta) ** 2)

    return JoinMetricField(block_m=block_m, radial=float(radial))


def cut_via_formula(base, s):
    """Closed-form cut of the extension of the base with unwarped cut
    ``base`` (r -> circle field) at sphere radius s: the join field of
    the column base(r(s, beta)) with radial factor sinh^2(s).
    """
    _check_radius(s, "cut_via_formula")
    return join_field(lambda b: base(ht.solve_r(s, b)), math.sinh(s) ** 2)


def cut_via_pullback(base, s, phi, beta):
    """Finite-difference pullback of the extension's ambient metric
    through the join embedding; the oracle for the closed-form cut.

    The embedding (phi, beta) -> (w t(s, beta), phi, r(s, beta)) has the
    tangents (w dt/dbeta, 0, dr/dbeta) and (0, dphi/dphi, 0), each nonzero
    entry a central difference with one Richardson pass, and the ambient
    metric is diagonal in (t, phi, r), so only the beta block (a beta
    vector) and the circle block h_r (dphi/dphi)^2 are built; the
    off-diagonal block is zero.  w enters only as w^2, so one sheet is the
    sample.  The step max(1e-5, 1e-6 s) balances truncation against
    cancellation across the radius range used.
    """
    _check_radius(s, "cut_via_pullback")
    phi = np.asarray(phi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    h = max(1e-5, 1e-6 * float(s))
    if not (np.min(beta) >= 2.0 * h and np.max(beta) <= ht.HALF_PI - 2.0 * h):
        raise DomainError(
            "cut_via_pullback: beta grid must be finite and stay "
            "2*fd_step inside (0, pi/2)")

    dt_db = _richardson_d1(lambda bb: ht.solve_t(s, bb), beta, h)
    dr_db = _richardson_d1(lambda bb: ht.solve_r(s, bb), beta, h)
    dphi_dphi = _richardson_d1(lambda pp: pp, phi, h)

    r_c = ht.solve_r(s, beta)
    g_bb = np.cosh(r_c) ** 2 * dt_db ** 2 + dr_db ** 2
    f_pp = _column_block(base, r_c, phi, np.sinh(r_c) ** 2)  # h_r
    f_pp *= (dphi_dphi ** 2)[:, None]                        # now g_pp
    return JoinSample(phi, beta, f_pp, g_bb, _ZERO)


def _require_same_grid(a, b, who):
    """Refuse two samples unless they lie on the same (phi, beta) grid
    with blocks of the same shape."""
    if a.block_m.shape != b.block_m.shape or not all(
            x is y or np.array_equal(x, y)
            for x, y in ((a.phi, b.phi), (a.beta, b.beta))):
        raise DomainError(f"{who}: sample grids differ")


def compare_join(formula, oracle):
    """Blockwise maximum relative errors and the worst off-diagonal entry
    between a closed-form sample and an oracle sample on the same grid,
    each block differenced at the shape its operands broadcast to."""
    _require_same_grid(formula, oracle, "compare_join")

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.abs(a)))

    return {
        "grid": [int(formula.phi.size), int(formula.beta.size)],
        "max_rel_err_block_M": rel(formula.block_m, oracle.block_m),
        "max_rel_err_block_beta": rel(formula.block_beta, oracle.block_beta),
        # at k = 1 the S^{k-1} block is zero-dimensional: nothing to compare
        "max_rel_err_block_H": 0.0,
        "max_abs_offdiag": float(np.max(np.abs(oracle.offdiag))),
    }


def join_c2_distance(a, b):
    """C^2-style grid distance between join samples on the same grid: sups
    of component differences and their central differences, periodic in
    phi, interior in beta, maximized over the three component slots.

    Each slot is differenced at the shape its blocks vary at and viewed on
    the (phi, beta) sheet, with stride 0 along every axis where neither
    block varies.
    """
    _require_same_grid(a, b, "join_c2_distance")
    steps = a.steps
    shape = (a.phi.size, a.beta.size)
    # the (c0, c1, c2) of every slot, each column folded once.  Repeating
    # each call per label of SHEETS only keeps the _JOIN_SLOTS * _SHEETS
    # calls per join perfbench's expected_counts pins (ROADMAP item 1 step 1b)
    sups = [mf.c2_sups(da, steps)
            for da in (np.broadcast_to(np.subtract(x, y), shape)
                       for x, y in ((a.block_m, b.block_m),
                                    (a.block_beta, b.block_beta),
                                    (a.offdiag, b.offdiag)))
            for _ in SHEETS]
    c0, c1, c2 = (mf.max_carrying_nan(*col) for col in zip(*sups))
    return mf.C2Distance(c0=c0, c1=c1, c2=c2)


def polar_identity_residual(s, beta, derivatives):
    """Residual of the coordinate identity
    sinh^2(s) dbeta^2 + ds^2 = cosh^2(r) dt^2 + dr^2 on (s, beta) arrays.

    The Jacobian of (s, beta) -> (t, r) is formed either by Richardson
    central differences with step POLAR_FD_STEP ("fd") or from the
    closed-form partials ("closed"); the right-hand side is pulled back to
    (s, beta) and the deviation from diag(1, sinh^2 s) is measured in the
    orthonormal frame (d_s, d_beta / sinh s), so every entry is
    dimensionless:

        max( |G_ss - 1|, |G_sb| / sinh(s), |G_bb / sinh^2(s) - 1| ).
    """
    s = np.asarray(s, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if derivatives == "closed":
        dt_ds, dt_db, dr_ds, dr_db = ht.triangle_jacobian(s, beta)
    elif derivatives == "fd":
        h = POLAR_FD_STEP
        if not (np.min(beta) >= 2.0 * h and np.min(s) >= 2.0 * h
                and np.max(beta) <= ht.HALF_PI - 2.0 * h):
            raise DomainError(
                "polar_identity_residual: s and beta must be finite and "
                "stay 2*POLAR_FD_STEP inside s > 0 and beta in (0, pi/2)")
        dt_ds = _richardson_d1(lambda x: ht.solve_t(x, beta), s, h)
        dt_db = _richardson_d1(lambda x: ht.solve_t(s, x), beta, h)
        dr_ds = _richardson_d1(lambda x: ht.solve_r(x, beta), s, h)
        dr_db = _richardson_d1(lambda x: ht.solve_r(s, x), beta, h)
    else:
        raise DomainError("derivatives must be 'fd' or 'closed'")

    r = ht.solve_r(s, beta)
    ch2 = np.cosh(r) ** 2
    g_ss = ch2 * dt_ds ** 2 + dr_ds ** 2
    g_sb = ch2 * dt_ds * dt_db + dr_ds * dr_db
    g_bb = ch2 * dt_db ** 2 + dr_db ** 2
    sh = np.sinh(s)
    return np.maximum.reduce([
        np.abs(g_ss - 1.0),
        np.abs(g_sb) / sh,
        np.abs(g_bb / sh ** 2 - 1.0),
    ])
