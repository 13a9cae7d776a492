"""The warped hyperbolic extension of a centered metric and the join
coordinates on its geodesic spheres.

Given a centered radial metric h = h_r + dr^2 on a surface (a circle
base, so h_r is a field on S^1), the extension of hyperbolic rank 1
carries the warped product metric

    f = cosh^2(r) * dt^2 + h

on H^1 x M.  A geodesic sphere of radius s about the center meets every
totally geodesic 2-plane spanned by a base ray and an H^1 ray in a right
triangle with hypotenuse s, so the sphere is charted by join coordinates
(w, u, beta): w the sign label of the two H^1 rays, u a circle angle, and
beta in (0, pi/2) the angle from the H^1 axis.  The chart covers the
2-sphere minus the two poles and the equator.

Two independent routes to the induced sphere metric are implemented:

* ``cut_via_formula`` -- the closed-form block expression
  sinh^2(s) cos^2(beta) sigma_{S^0} + h_r + sinh^2(s) dbeta^2 (warped),
  respectively cos^2(beta) sigma + sin^2(beta) h^_r + dbeta^2 (unwarped),
  with r = asinh(sin(beta) sinh(s));
* ``cut_via_pullback`` -- a finite-difference pullback of the ambient
  metric through the embedding of the join chart, which assumes no block
  structure and therefore serves as the oracle for the closed form.

``polar_identity_residual`` checks the underlying change-of-variables
identity sinh^2(s) dbeta^2 + ds^2 = cosh^2(r) dt^2 + dr^2, and
``angle_oracle`` realizes the triangle in an explicit 2D model to validate
the closed-form interior angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError
from . import hyptrig as ht
from . import fields as mf

# join-chart sampling stays this far from the degenerate loci beta = 0 and
# beta = pi/2; the boundary spheres are handled by dedicated closed forms
BETA_MARGIN = 0.05

HALF_PI = 0.5 * math.pi


def default_fd_step(s):
    """Step for pullback tangents: balances truncation against cancellation
    across the radius range used."""
    return max(1e-5, 1e-6 * float(s))


def _richardson_d1(f, x, h):
    """Central difference with one Richardson pass (step ratio 2)."""
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_h2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


@dataclass(frozen=True)
class JoinMetricField:
    """Closed-form join metric on the extension's sphere (rank 1, circle
    base):

        block_h_coeff(beta) * sigma_{S^0}  (zero-dimensional at k = 1)
      + block_m(phi, beta) * dphi^2
      + block_beta(beta) * dbeta^2

    Blocks are independent of the sheet label w for the bases considered;
    the pullback oracle still samples both sheets and the comparison
    checks them separately.
    """

    s: float | None
    block_m: object
    block_beta: object
    block_h_coeff: object
    name: str = ""

    def sample(self, phi, beta, sheets=(1, -1)):
        phi = np.asarray(phi, dtype=float)
        beta = np.asarray(beta, dtype=float)
        m = np.asarray(self.block_m(phi, beta), dtype=float)
        bb = np.broadcast_to(np.asarray(self.block_beta(beta), dtype=float),
                             (phi.size, beta.size))
        # the blocks do not depend on the sheet: every sheet is a read-only
        # view of the one computed sheet
        shape = (len(sheets), phi.size, beta.size)
        return JoinSample(
            phi=phi, beta=beta, sheets=tuple(sheets),
            block_m=np.broadcast_to(m, shape),
            block_beta=np.broadcast_to(bb, shape),
            offdiag=np.broadcast_to(0.0, shape),
            block_h_coeff=np.asarray(self.block_h_coeff(beta), dtype=float),
            s=self.s, name=self.name)


@dataclass(frozen=True)
class JoinSample:
    """Join-chart components sampled on a (sheet, phi, beta) grid."""

    phi: np.ndarray
    beta: np.ndarray
    sheets: tuple
    block_m: np.ndarray      # (n_sheets, n_phi, n_beta)
    block_beta: np.ndarray   # (n_sheets, n_phi, n_beta)
    offdiag: np.ndarray      # (n_sheets, n_phi, n_beta)
    block_h_coeff: np.ndarray | None = None   # (n_beta,) or None (oracle)
    s: float | None = None
    name: str = ""

    @property
    def steps(self):
        hphi = float(self.phi[1] - self.phi[0]) if self.phi.size > 1 else 1.0
        hbeta = float(self.beta[1] - self.beta[0]) if self.beta.size > 1 else 1.0
        return hphi, hbeta


def join_grid(n_phi=32, n_beta=24, margin=BETA_MARGIN):
    """Standard join-chart grid: phi uniform over the full circle, beta
    uniform over [margin, pi/2 - margin]."""
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    beta = np.linspace(margin, HALF_PI - margin, n_beta)
    return phi, beta


def unwarped_join_field(column, s, name):
    """The unwarped join metric

        cos^2(beta) * sigma_{S^0} + sin^2(beta) * column(beta) + dbeta^2

    whose circle block at each beta is the field ``column(beta)``, called
    once per sampled beta (a float).  The unwarped formula cut, the
    extension-family cut and its predicted limit differ only in the column.
    """

    def block_m(phi, beta):
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        out = np.empty((phi.size, beta.size))
        for j, bj in enumerate(beta):
            bj = float(bj)
            out[:, j] = math.sin(bj) ** 2 * column(bj).at_angles(phi)
        return out

    return JoinMetricField(
        s=s, block_m=block_m,
        block_beta=lambda beta: np.ones_like(np.asarray(beta, dtype=float)),
        block_h_coeff=lambda beta: np.cos(np.asarray(beta, dtype=float)) ** 2,
        name=name)


def cut_via_formula(base, s, unwarped=True):
    """Closed-form cut of the extension of the radial metric ``base`` at
    sphere radius s.

    Warped blocks: sinh^2(s) cos^2(beta), h_r, sinh^2(s); unwarped blocks:
    cos^2(beta), sin^2(beta) * unwarped base cut at r, 1 -- both with
    r = asinh(sin(beta) sinh(s)).
    """
    if s <= 0.0:
        raise DomainError("cut_via_formula: s must be positive")
    if unwarped:
        return unwarped_join_field(
            lambda beta: mf.unwarped_cut(base, ht.solve_r(s, beta)), s,
            name=f"{base.name}-cut-unwarped-s={s:g}")
    sinh2_s = math.sinh(s) ** 2

    def block_m(phi, beta):
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        out = np.empty((phi.size, beta.size))
        for j, bj in enumerate(beta):
            out[:, j] = mf.warped_cut(base, ht.solve_r(s, float(bj))) \
                .at_angles(phi)
        return out

    return JoinMetricField(
        s=s, block_m=block_m,
        block_beta=lambda beta: np.full(np.shape(beta), sinh2_s),
        block_h_coeff=lambda beta: sinh2_s * np.cos(
            np.asarray(beta, dtype=float)) ** 2,
        name=f"{base.name}-cut-warped-s={s:g}")


def cut_via_pullback(base, s, phi, beta, fd_step=None):
    """Finite-difference pullback of the ambient metric of the extension
    of ``base`` through the join embedding; the independent oracle for the
    closed-form (warped) cut.

    At every grid point the tangent vectors of the embedding
    (phi, beta) -> (w t(s, beta), phi, r(s, beta)) are built by central
    differences with one Richardson pass, the ambient components are
    evaluated at the center point, and the pulled-back 2x2 matrix is
    assembled.  The off-diagonal entry is computed, not assumed zero.
    """
    if s <= 0.0:
        raise DomainError("cut_via_pullback: s must be positive")
    phi = np.asarray(phi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    h = fd_step if fd_step is not None else default_fd_step(s)
    if np.min(beta) < 2.0 * h or np.max(beta) > HALF_PI - 2.0 * h:
        raise DomainError(
            "cut_via_pullback: beta grid must stay 2*fd_step inside "
            "(0, pi/2)")

    # beta-direction tangent of the embedding (t and r components)
    dt_db = _richardson_d1(lambda bb: ht.solve_t(s, bb), beta, h)
    dr_db = _richardson_d1(lambda bb: ht.solve_r(s, bb), beta, h)
    # the phi-component of the embedding is the constant phi along beta:
    # its central difference is a difference of identical values, i.e. 0.0
    dphi_db = np.zeros_like(beta)

    # phi-direction tangent: the embedding is the identity in phi and
    # constant in (t, r)
    dphi_dphi = _richardson_d1(lambda pp: pp, phi, h)
    dt_dphi = np.zeros_like(phi)
    dr_dphi = np.zeros_like(phi)

    r_c = ht.solve_r(s, beta)
    f_yy = np.cosh(r_c) ** 2                     # (n_beta,)
    f_pp = np.empty((phi.size, beta.size))       # h_r(phi) per beta row
    for j, rj in enumerate(r_c):
        f_pp[:, j] = mf.warped_cut(base, float(rj)).at_angles(phi)

    n_w = 2
    block_m = np.empty((n_w, phi.size, beta.size))
    block_beta_arr = np.empty_like(block_m)
    offdiag = np.empty_like(block_m)
    for iw, w in enumerate((1, -1)):
        v_beta = (w * dt_db, dphi_db, dr_db)          # functions of beta
        v_phi = (w * dt_dphi, dphi_dphi, dr_dphi)     # functions of phi
        g_bb = (f_yy * v_beta[0] ** 2)[None, :] \
            + f_pp * (v_beta[1] ** 2)[None, :] \
            + (v_beta[2] ** 2)[None, :]
        g_pp = (f_yy[None, :] * (v_phi[0] ** 2)[:, None]) \
            + f_pp * (v_phi[1] ** 2)[:, None] \
            + (v_phi[2] ** 2)[:, None]
        g_pb = (f_yy[None, :] * v_phi[0][:, None] * v_beta[0][None, :]) \
            + f_pp * v_phi[1][:, None] * v_beta[1][None, :] \
            + v_phi[2][:, None] * v_beta[2][None, :]
        block_m[iw] = g_pp
        block_beta_arr[iw] = g_bb
        offdiag[iw] = g_pb

    return JoinSample(phi=phi, beta=beta, sheets=(1, -1),
                      block_m=block_m, block_beta=block_beta_arr,
                      offdiag=offdiag, block_h_coeff=None, s=s,
                      name=f"{base.name}-pullback-s={s:g}")


def compare_join(formula, oracle):
    """Blockwise maximum relative errors and the worst off-diagonal entry
    between a closed-form sample and an oracle sample on the same grid."""
    if formula.block_m.shape != oracle.block_m.shape:
        raise DomainError("compare_join: sample grids differ")

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.abs(a)))

    out = {
        "s": formula.s,
        "grid": [int(formula.phi.size), int(formula.beta.size)],
        "max_rel_err_block_M": rel(formula.block_m, oracle.block_m),
        "max_rel_err_block_beta": rel(formula.block_beta, oracle.block_beta),
        # at k = 1 the S^{k-1} block is zero-dimensional: nothing to compare
        "max_rel_err_block_H": 0.0,
        "max_abs_offdiag": float(np.max(np.abs(oracle.offdiag))),
    }
    return out


def join_c2_distance(a, b):
    """C^2-style grid distance between join samples: sups of component
    differences and their central differences, periodic in phi, interior
    in beta, maximized over sheets and the three component slots."""
    if a.block_m.shape != b.block_m.shape:
        raise DomainError("join_c2_distance: sample grids differ")
    hphi, hbeta = a.steps
    c0 = c1 = c2 = 0.0
    for da in (a.block_m - b.block_m,
               a.block_beta - b.block_beta,
               a.offdiag - b.offdiag):
        for sheet in range(da.shape[0]):
            s0, s1, s2 = mf.c2_sups(da[sheet], (hphi, hbeta),
                                    periodic=(True, False))
            c0 = mf.max_carrying_nan(c0, s0)
            c1 = mf.max_carrying_nan(c1, s1)
            c2 = mf.max_carrying_nan(c2, s2)
    return mf.C2Distance(c0=c0, c1=c1, c2=c2,
                         grid_resolution=int(a.beta.size), fd_step=hbeta)


def round_join_blocks(phi, beta):
    """The round 2-sphere metric written directly in join coordinates:
    block_m = sin^2(beta), block_beta = 1."""
    phi = np.asarray(phi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    m = np.broadcast_to(np.sin(beta)[None, :] ** 2, (phi.size, beta.size))
    return m.copy(), np.ones((phi.size, beta.size))


def round_metric_in_join_coordinates(phi, beta, sheet=1):
    """The round 2-sphere metric transported into join coordinates through
    a stereographic chart, fully analytically.

    The join point is (sin b cos p, sin b sin p, w cos b); its chart image
    and both Jacobian factors are closed-form, so the pullback
    J^T G_chart J is an independent expression of the same tensor, used to
    witness that the unwarped cut of the hyperbolic-base extension is the
    round metric.
    Returns (block_m, block_beta, offdiag) arrays of shape (n_phi, n_beta).
    """
    atlas = mf.SPHERE_ATLAS
    phi = np.asarray(phi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    pp, bb = np.meshgrid(phi, beta, indexing="ij")
    w = float(sheet)
    pts = np.stack([np.sin(bb) * np.cos(pp),
                    np.sin(bb) * np.sin(pp),
                    w * np.cos(bb)], axis=-1)
    # d(point)/d(phi, beta): (..., 3, 2)
    dp = np.empty(pp.shape + (3, 2))
    dp[..., 0, 0] = -np.sin(bb) * np.sin(pp)
    dp[..., 1, 0] = np.sin(bb) * np.cos(pp)
    dp[..., 2, 0] = 0.0
    dp[..., 0, 1] = np.cos(bb) * np.cos(pp)
    dp[..., 1, 1] = np.cos(bb) * np.sin(pp)
    dp[..., 2, 1] = -w * np.sin(bb)

    chart = "north" if sheet == 1 else "south"
    coords = atlas.coords_of(chart, pts)
    jc = _stereo_coords_jacobian(chart, pts)      # (..., 2, 3)
    J = np.einsum("...ij,...jk->...ik", jc, dp)   # (..., 2, 2)
    G = atlas.round_components(coords)
    pulled = np.einsum("...ki,...kl,...lj->...ij", J, G, J)
    return pulled[..., 0, 0], pulled[..., 1, 1], pulled[..., 0, 1]


def _stereo_coords_jacobian(chart, pts):
    """d(chart coords)/d(x, y, z) for the stereographic charts."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    out = np.zeros(pts.shape[:-1] + (2, 3))
    if chart == "north":
        denom = 1.0 + z
        out[..., 0, 0] = 1.0 / denom
        out[..., 0, 2] = -x / denom ** 2
        out[..., 1, 1] = 1.0 / denom
        out[..., 1, 2] = -y / denom ** 2
    else:
        denom = 1.0 - z
        out[..., 0, 0] = 1.0 / denom
        out[..., 0, 2] = x / denom ** 2
        out[..., 1, 1] = -1.0 / denom
        out[..., 1, 2] = -y / denom ** 2
    return out


def polar_identity_residual(s, beta, fd_step=None, derivatives="fd"):
    """Residual of the coordinate identity
    sinh^2(s) dbeta^2 + ds^2 = cosh^2(r) dt^2 + dr^2.

    The Jacobian of (s, beta) -> (t, r) is formed either by Richardson
    central differences ("fd") or from the closed-form partials
    ("closed"); the right-hand side is pulled back to (s, beta) and the
    deviation from diag(1, sinh^2 s) is measured in the orthonormal frame
    (d_s, d_beta / sinh s), so every entry is dimensionless:

        max( |G_ss - 1|, |G_sb| / sinh(s), |G_bb / sinh^2(s) - 1| ).
    """
    s_arr = np.asarray(s, dtype=float)
    b_arr = np.asarray(beta, dtype=float)
    s_arr, b_arr = np.broadcast_arrays(s_arr, b_arr)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr.astype(float))
    b_arr = np.atleast_1d(b_arr.astype(float))

    if derivatives == "closed":
        dt_ds, dt_db, dr_ds, dr_db = ht.triangle_jacobian(s_arr, b_arr)
    elif derivatives == "fd":
        # dt/ds decays like e^{-2s}, so at large s a tight step leaves the
        # stencil difference at the roundoff floor; 2e-4 keeps cancellation
        # small while Richardson holds truncation near h^4
        h = fd_step if fd_step is not None else 2e-4
        if np.min(b_arr) < 2.0 * h or np.max(b_arr) > HALF_PI - 2.0 * h \
                or np.min(s_arr) < 2.0 * h:
            raise DomainError(
                "polar_identity_residual: fd step too large for the grid")
        dt_ds = _richardson_d1(lambda x: ht.solve_t(x, b_arr), s_arr, h)
        dt_db = _richardson_d1(lambda x: ht.solve_t(s_arr, x), b_arr, h)
        dr_ds = _richardson_d1(lambda x: ht.solve_r(x, b_arr), s_arr, h)
        dr_db = _richardson_d1(lambda x: ht.solve_r(s_arr, x), b_arr, h)
    else:
        raise DomainError("derivatives must be 'fd' or 'closed'")

    r = ht.solve_r(s_arr, b_arr)
    ch2 = np.cosh(r) ** 2
    g_ss = ch2 * dt_ds ** 2 + dr_ds ** 2
    g_sb = ch2 * dt_ds * dt_db + dr_ds * dr_db
    g_bb = ch2 * dt_db ** 2 + dr_db ** 2
    sh = np.sinh(s_arr)
    res = np.maximum.reduce([
        np.abs(g_ss - 1.0),
        np.abs(g_sb) / sh,
        np.abs(g_bb / sh ** 2 - 1.0),
    ])
    return float(res[0]) if scalar else res


# ---------------------------------------------------------------------------
# independent 2D-model oracle for the interior angle
# ---------------------------------------------------------------------------

def _geodesic_shoot(beta, s, n_steps):
    """Unit-speed geodesic of cosh^2(v) du^2 + dv^2 from the origin at
    angle beta to the u-axis, integrated with fixed-step RK4.

    Geodesic equations: u'' = -2 tanh(v) u' v',  v'' = cosh(v) sinh(v) u'^2.
    """
    h = s / n_steps
    state = np.array([0.0, 0.0, math.cos(beta), math.sin(beta)])

    def rhs(st):
        u, v, du, dv = st
        return np.array([
            du,
            dv,
            -2.0 * math.tanh(v) * du * dv,
            math.cosh(v) * math.sinh(v) * du * du,
        ])

    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u, v, du, dv = state
    speed2 = math.cosh(v) ** 2 * du * du + dv * dv
    if abs(speed2 - 1.0) > 1e-8:
        raise VerificationError(
            f"angle_oracle: integrator lost unit speed ({speed2 - 1.0:.2e})")
    return u, v


def _model_distance_to_origin(u, v):
    """Distance from (0, 0) in the warped model, via the upper half-plane.

    The isometric chain is warped coords -> Minkowski hyperboloid
    (cosh v cosh u, cosh v sinh u, sinh v) -> Poincare disk -> upper half
    plane, where d(w1, w2) = 2 asinh(|w1 - w2| / (2 sqrt(Im w1 Im w2))).
    The origin maps to i.
    """
    x0 = math.cosh(v) * math.cosh(u)
    x1 = math.cosh(v) * math.sinh(u)
    x2 = math.sinh(v)
    z = complex(x1, x2) / (1.0 + x0)
    w = 1j * (1.0 + z) / (1.0 - z)
    return 2.0 * math.asinh(abs(w - 1j) / (2.0 * math.sqrt(w.imag)))


def angle_oracle(s, beta, n_steps=None, fd_step=1e-6):
    """Interior angle at the far vertex of the right triangle, measured in
    an explicit 2D hyperbolic model with no use of triangle identities.

    The point p is found by shooting the geodesic from the origin at angle
    beta for arc length s; the angle between the unit gradients of the
    distance-to-origin function and the distance-to-axis function v is
    then  cos(alpha) = (ds/dv) / |grad s|  with the gradient taken
    numerically in the warped metric.
    """
    if s <= 0.0:
        raise DomainError("angle_oracle: s must be positive")
    if not (0.0 < beta < HALF_PI):
        raise DomainError("angle_oracle: beta must lie in (0, pi/2)")
    n = n_steps if n_steps is not None else max(1500, int(600 * s))
    u, v = _geodesic_shoot(beta, s, n)
    d_check = _model_distance_to_origin(u, v)
    if abs(d_check - s) > 1e-6 * max(1.0, s):
        raise VerificationError(
            f"angle_oracle: shot geodesic landed at distance {d_check}, "
            f"expected {s}")
    h = fd_step
    ds_du = (_model_distance_to_origin(u + h, v)
             - _model_distance_to_origin(u - h, v)) / (2.0 * h)
    ds_dv = (_model_distance_to_origin(u, v + h)
             - _model_distance_to_origin(u, v - h)) / (2.0 * h)
    grad_norm = math.sqrt(ds_du ** 2 / math.cosh(v) ** 2 + ds_dv ** 2)
    cos_alpha = ds_dv / grad_norm
    return math.acos(max(-1.0, min(1.0, cos_alpha)))
