"""Numerically stable hyperbolic right-triangle trigonometry.

Everything here concerns a geodesic right triangle in the hyperbolic plane
with hypotenuse ``s``, legs ``t`` and ``r``, angle ``beta`` at the vertex
joining ``s`` and ``t`` (so ``r`` is the side opposite ``beta``), and angle
``alpha`` at the vertex joining ``s`` and ``r``.  The three classical
relations

    sinh(r) = sin(beta) * sinh(s)           (law of sines)
    cosh(r) * sinh(t) = sinh(s) * cos(beta)
    cosh(s) = cosh(r) * cosh(t)             (hyperbolic Pythagoras)

determine the triangle from ``(s, beta)``.  On top of the solvers this
module provides the sphere-radius change of variables

    reparam(lambda', theta) = asinh(sinh(lambda') * sin(theta))

its inverse, the composed map ``vartheta`` and its additive large-radius
limit ``vartheta_shift``, and the small-angle threshold ``beta1_threshold``
used to control the region where cuts of a hyperbolically-collared family
are exactly round.

All functions accept floats or numpy arrays (inputs broadcast together);
scalar inputs give scalar outputs.  Compositions of ``sinh``/``asinh`` are
rewritten in the log domain beyond ``LOG_SWITCH``: naive ``sinh`` overflows
near 710 and, inside compositions, loses digits much earlier.

``solve_r`` with two float scalars (``float`` or ``np.float64``) takes a
scalar path that skips the broadcast, ravel and mask machinery, since
per-column callers pay more for that than for the arithmetic.  It applies
the same numpy ufuncs to 0-d values, in the same order and with the same
branch switches as the array path, so both give the same bits (``math.*``
would not: its ``sinh``/``asinh``/``log``/``exp`` differ from numpy's in
the last bit on a share of inputs).  A NaN angle gives a NaN leg on both
paths; only ``sin(beta) == 0`` gives ``r = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError, max_carrying_nan

_LN2 = math.log(2.0)
HALF_PI = 0.5 * math.pi

# Beyond this threshold exp(-2x) is far below double-precision resolution
# relative to 1, so log-domain forms are exact to the last bit.
LOG_SWITCH = 30.0

# asin/acos arguments may leave [-1, 1] by roundoff only; anything beyond
# this budget is treated as a caller bug rather than silently clamped.
CLAMP_BUDGET = 1e-12


def _prepare(*vals):
    """Broadcast inputs to flat float arrays; report shape and scalarness."""
    arrs = [np.asarray(v, dtype=float) for v in vals]
    scalar = all(a.ndim == 0 for a in arrs)
    shape = np.broadcast_shapes(*[a.shape for a in arrs])
    flat = [np.ravel(np.broadcast_to(a, shape)).astype(float) for a in arrs]
    return flat, shape, scalar


def _finish(out, shape, scalar):
    return float(out[0]) if scalar else out.reshape(shape)


def _clamped_arc(fn, x, what):
    """Apply asin/acos after clamping x to [-1, 1] within CLAMP_BUDGET."""
    over = np.maximum(np.abs(x) - 1.0, 0.0)
    if np.any(over > CLAMP_BUDGET):
        raise DomainError(
            f"{what}: argument exceeds [-1, 1] by {float(np.max(over)):.3e}, "
            f"more than the roundoff budget {CLAMP_BUDGET:.0e}"
        )
    return fn(np.clip(x, -1.0, 1.0))


def log_sinh(x):
    """log(sinh(x)) for x > 0, stable for arbitrarily large x.

    For x > LOG_SWITCH uses  log sinh x = x - log 2 + log(1 - e^{-2x}).
    """
    (x,), shape, scalar = _prepare(x)
    if np.any(x <= 0.0):
        raise DomainError("log_sinh: x must be > 0")
    out = np.empty_like(x)
    m = x <= LOG_SWITCH
    out[m] = np.log(np.sinh(x[m]))
    xb = x[~m]
    out[~m] = xb - _LN2 + np.log1p(-np.exp(-2.0 * xb))
    return _finish(out, shape, scalar)


def log_cosh(x):
    """log(cosh(x)), stable for arbitrarily large |x|."""
    (x,), shape, scalar = _prepare(x)
    ax = np.abs(x)
    out = np.empty_like(ax)
    m = ax <= LOG_SWITCH
    out[m] = np.log(np.cosh(ax[m]))
    xb = ax[~m]
    out[~m] = xb - _LN2 + np.log1p(np.exp(-2.0 * xb))
    return _finish(out, shape, scalar)


def _asinh_of_exp(ln_y):
    """asinh(e^L) from L = ln y.  For L >= 20, asinh(y) = ln(2y) to the
    last bit, since sqrt(1 + 1/y^2) - 1 < 1e-17."""
    out = np.empty_like(ln_y)
    big = ln_y >= 20.0
    out[big] = ln_y[big] + _LN2
    out[~big] = np.arcsinh(np.exp(ln_y[~big]))
    return out


def _asinh_scaled_sinh(log_k, s):
    """asinh(k * sinh(s)) with k = e^{log_k}, for flat arrays s > 0.

    Direct evaluation only when both sinh(s) and the product are safely
    representable; otherwise  ln y = log_k + s - ln 2 + log(1 - e^{-2s})
    and the asinh is taken in the log domain.  A NaN log_k takes the
    direct branch, which keeps the NaN without reaching log1p(-1) at a
    tiny s.
    """
    out = np.empty_like(s)
    direct = (s <= LOG_SWITCH) & ~(log_k + s > 300.0)
    out[direct] = np.arcsinh(np.exp(log_k[direct]) * np.sinh(s[direct]))
    sb = s[~direct]
    ln_y = log_k[~direct] + sb - _LN2 + np.log1p(-np.exp(-2.0 * sb))
    out[~direct] = _asinh_of_exp(ln_y)
    return out


def _check_beta_closed(beta, what):
    if np.any((beta < 0.0) | (beta > HALF_PI)):
        raise DomainError(f"{what}: beta must lie in [0, pi/2]")


def _check_theta(theta, what):
    if np.any((theta <= 0.0) | (theta > HALF_PI)):
        raise DomainError(f"{what}: theta must lie in (0, pi/2]")


def _solve_r_scalar(s, beta):
    """solve_r for float scalars: the ufuncs of the array path
    (``_asinh_scaled_sinh``, ``_asinh_of_exp``) applied to 0-d values in
    the same order, with the same branch switches and domain errors."""
    s, beta = np.float64(s), np.float64(beta)
    if s <= 0.0:
        raise DomainError("solve_r: s must be > 0")
    if beta < 0.0 or beta > HALF_PI:
        raise DomainError("solve_r: beta must lie in [0, pi/2]")
    sinb = np.sin(beta)
    if sinb == 0.0:
        return 0.0
    log_k = np.log(sinb)
    if s <= LOG_SWITCH and not log_k + s > 300.0:
        return float(np.arcsinh(np.exp(log_k) * np.sinh(s)))
    ln_y = log_k + s - _LN2 + np.log1p(-np.exp(-2.0 * s))
    if ln_y >= 20.0:
        return float(ln_y + _LN2)
    return float(np.arcsinh(np.exp(ln_y)))


def solve_r(s, beta):
    """Leg opposite ``beta``:  r = asinh(sin(beta) * sinh(s)).

    Stable for s well beyond 700 via log-domain evaluation.  A NaN input
    gives a NaN leg; r = 0 only where sin(beta) == 0.
    """
    if isinstance(s, float) and isinstance(beta, float):
        return _solve_r_scalar(s, beta)
    (s, beta), shape, scalar = _prepare(s, beta)
    if np.any(s <= 0.0):
        raise DomainError("solve_r: s must be > 0")
    _check_beta_closed(beta, "solve_r")
    sinb = np.sin(beta)
    out = np.zeros_like(s)
    pos = sinb != 0.0
    out[pos] = _asinh_scaled_sinh(np.log(sinb[pos]), s[pos])
    return _finish(out, shape, scalar)


def _solve_rt(s, beta):
    """Both legs from (s, beta), on flat arrays with validated domains.

    t = asinh(sinh(s) cos(beta) / cosh(r)), equivalently
    tanh(t) = cos(beta) tanh(s).  Branches:

    * s <= LOG_SWITCH: direct evaluation (every factor <= cosh(30) ~ 5e12);
    * s > LOG_SWITCH and r > LOG_SWITCH: the exact log-domain form
      collapses to t = asinh(cot(beta)) because 1 - e^{-2s} and
      1 + e^{-2r} are 1.0 to the last bit;
    * s > LOG_SWITCH, r <= LOG_SWITCH (tiny beta): t = asinh(e^L) with
      L = log_sinh(s) + log(cos beta) - log_cosh(r), no cancellation.

    A NaN in s or beta gives NaN legs: the zero legs are kept only where
    sin(beta) or cos(beta) is exactly 0, and a NaN falls into the last
    branch, which carries it.
    """
    sinb = np.sin(beta)
    cosb = np.cos(beta)
    r = np.zeros_like(s)
    pos = sinb != 0.0
    r[pos] = _asinh_scaled_sinh(np.log(sinb[pos]), s[pos])

    t = np.zeros_like(s)
    tpos = cosb != 0.0
    small = tpos & (s <= LOG_SWITCH)
    t[small] = np.arcsinh(np.sinh(s[small]) * cosb[small] / np.cosh(r[small]))
    big = tpos & ~small
    far = big & (r > LOG_SWITCH)
    t[far] = np.arcsinh(cosb[far] / sinb[far])
    near = big & ~far
    if np.any(near):
        ln = (s[near] - _LN2 + np.log1p(-np.exp(-2.0 * s[near]))
              + np.log(cosb[near]) - np.log(np.cosh(r[near])))
        t[near] = _asinh_of_exp(ln)
    return r, t


def solve_t(s, beta):
    """Leg adjacent to ``beta``:  cosh(r) sinh(t) = sinh(s) cos(beta)."""
    (s, beta), shape, scalar = _prepare(s, beta)
    if np.any(s <= 0.0):
        raise DomainError("solve_t: s must be > 0")
    _check_beta_closed(beta, "solve_t")
    _, t = _solve_rt(s, beta)
    return _finish(t, shape, scalar)


def solve_alpha(s, beta):
    """Interior angle at the vertex joining the hypotenuse and the leg r.

    Closed form: cos(alpha) = tanh(r) / tanh(s) (equivalently
    cosh(t) * sin(beta)).  This is derived, not quoted; it must agree with
    the independent 2D-model oracle (``extension.angle_oracle``) before
    being trusted, and the test suite enforces that.
    """
    (s, beta), shape, scalar = _prepare(s, beta)
    if np.any(s <= 0.0):
        raise DomainError("solve_alpha: s must be > 0")
    if np.any((beta <= 0.0) | (beta >= HALF_PI)):
        raise DomainError("solve_alpha: beta must lie in (0, pi/2)")
    r, _ = _solve_rt(s, beta)
    cosa = np.tanh(r) / np.tanh(s)
    out = _clamped_arc(np.arccos, cosa, "solve_alpha")
    return _finish(out, shape, scalar)


def beta_of_r(s, r):
    """Angle from the opposite leg: beta = asin(sinh(r) / sinh(s)).

    Inverse of :func:`solve_r` in its second argument.
    """
    (s, r), shape, scalar = _prepare(s, r)
    if np.any(s <= 0.0):
        raise DomainError("beta_of_r: s must be > 0")
    if np.any(r < 0.0):
        raise DomainError("beta_of_r: r must be >= 0")
    if np.any(r > s):
        raise DomainError("beta_of_r: r must not exceed s (sin(beta) > 1)")
    ratio = np.zeros_like(s)
    pos = r > 0.0
    small = pos & (s <= LOG_SWITCH)
    ratio[small] = np.sinh(r[small]) / np.sinh(s[small])
    big = pos & (s > LOG_SWITCH)
    if np.any(big):
        ratio[big] = np.exp(log_sinh(r[big]) - log_sinh(s[big]))
    out = _clamped_arc(np.arcsin, ratio, "beta_of_r")
    return _finish(out, shape, scalar)


def reparam(lambda_prime, theta):
    """Index change lambda = asinh(sinh(lambda') * sin(theta)).

    Stable form used for lambda' > LOG_SWITCH: writing q = sin(theta),

        lambda = lambda' + ln q
                 + ln[ (1 - e^{-2 lambda'})/2
                       + sqrt( ((1 - e^{-2 lambda'})/2)^2 + e^{-2 lambda'}/q^2 ) ]

    whose bracket is 1 + O(e^{-2 lambda'} / q^2); past the switchover the
    correction is below double resolution and the log-domain asinh
    evaluates the expansion exactly.  theta = pi/2 gives lambda = lambda'.
    """
    (lp, theta), shape, scalar = _prepare(lambda_prime, theta)
    if np.any(lp <= 0.0):
        raise DomainError("reparam: lambda_prime must be > 0")
    _check_theta(theta, "reparam")
    out = _asinh_scaled_sinh(np.log(np.sin(theta)), lp)
    return _finish(out, shape, scalar)


def reparam_inverse(lam, theta):
    """Inverse index change lambda' = asinh(sinh(lambda) / sin(theta))."""
    (lam, theta), shape, scalar = _prepare(lam, theta)
    if np.any(lam <= 0.0):
        raise DomainError("reparam_inverse: lambda must be > 0")
    _check_theta(theta, "reparam_inverse")
    out = _asinh_scaled_sinh(-np.log(np.sin(theta)), lam)
    return _finish(out, shape, scalar)


def vartheta(lam, beta, b, theta):
    """Fiber radius seen at sphere radius lambda'(lambda) + b and angle beta:

        vartheta(lambda, beta, b, theta) = solve_r(reparam_inverse(lambda,
        theta) + b, beta)

    evaluated through the stable primitives above, so the composition keeps
    full precision for lambda up to 700 and beyond.
    """
    (lam, beta, b, theta), shape, scalar = _prepare(lam, beta, b, theta)
    if np.any(lam <= 0.0):
        raise DomainError("vartheta: lambda must be > 0")
    if np.any((beta <= 0.0) | (beta > HALF_PI)):
        raise DomainError("vartheta: beta must lie in (0, pi/2]")
    _check_theta(theta, "vartheta")
    s = _asinh_scaled_sinh(-np.log(np.sin(theta)), lam) + b
    if np.any(s <= 0.0):
        raise DomainError("vartheta: lambda'(lambda) + b must be positive")
    sinb = np.sin(beta)
    out = _asinh_scaled_sinh(np.log(sinb), s)
    return _finish(out, shape, scalar)


def vartheta_shift(beta, b, theta):
    """Additive limit of vartheta:  vartheta(lam, ...) - lam -> b +
    ln(sin(beta)/sin(theta)) as lam -> infinity, with gap O(e^{-2 lam}).

    beta = 0 is rejected: the shift is logarithmically singular there and
    the small-angle regime is handled separately by beta1_threshold.
    """
    (beta, b, theta), shape, scalar = _prepare(beta, b, theta)
    if np.any((beta <= 0.0) | (beta > HALF_PI)):
        raise DomainError("vartheta_shift: beta must lie in (0, pi/2]")
    _check_theta(theta, "vartheta_shift")
    out = b + np.log(np.sin(beta)) - np.log(np.sin(theta))
    return _finish(out, shape, scalar)


@dataclass(frozen=True)
class TriangleState:
    """The five quantities of the right triangle, kept mutually consistent.

    ``from_hypotenuse_angle`` builds the state from (s, beta);
    ``residuals`` reports the relative defect of the three defining
    relations, and ``validate`` enforces them to 1e-12.
    """

    s: float
    t: float
    r: float
    beta: float
    alpha: float

    @classmethod
    def from_hypotenuse_angle(cls, s, beta):
        (sf, bf), _, scalar = _prepare(s, beta)
        if not scalar:
            raise DomainError("TriangleState is built from scalar (s, beta)")
        # a NaN fails every comparison, so each check is written to pass
        # only finite, in-range input
        if not 0.0 < float(sf[0]) < math.inf:
            raise DomainError("TriangleState: s must be finite and > 0")
        if not math.isfinite(float(bf[0])):
            raise DomainError("TriangleState: beta must be finite")
        _check_beta_closed(bf, "TriangleState")
        r, t = _solve_rt(sf, bf)
        if 0.0 < float(bf[0]) < HALF_PI:
            alpha = float(solve_alpha(float(sf[0]), float(bf[0])))
        else:
            # degenerate triangles: cos(alpha) = tanh(r)/tanh(s) gives
            # alpha -> 0 at beta = pi/2 (r = s) and pi/2 at beta = 0 (r = 0)
            alpha = 0.0 if float(bf[0]) >= HALF_PI else HALF_PI
        state = cls(float(sf[0]), float(t[0]), float(r[0]), float(bf[0]), alpha)
        state.validate()
        return state

    def residuals(self):
        s, t, r, beta = self.s, self.t, self.r, self.beta
        sin_law = abs(math.sinh(r) - math.sin(beta) * math.sinh(s))
        sin_sc = max(abs(math.sinh(r)), abs(math.sin(beta) * math.sinh(s)), 1.0)
        cross = abs(math.cosh(r) * math.sinh(t) - math.sinh(s) * math.cos(beta))
        cross_sc = max(abs(math.sinh(s) * math.cos(beta)), 1.0)
        pyth = abs(math.cosh(s) - math.cosh(r) * math.cosh(t))
        pyth_sc = max(math.cosh(s), 1.0)
        return {
            "law_of_sines": sin_law / sin_sc,
            "cross_identity": cross / cross_sc,
            "pythagorean": pyth / pyth_sc,
        }

    def validate(self, tol=1e-12):
        res = self.residuals()
        worst = max_carrying_nan(*res.values())
        if not (worst <= tol):
            raise VerificationError(
                f"TriangleState inconsistent: worst relative residual "
                f"{worst:.3e} exceeds {tol:.0e} ({res})"
            )


@dataclass(frozen=True)
class ReparamParams:
    """Parameters of a reparametrized cut-limit run.

    ``c_prime`` must satisfy c' < c + ln(sin(theta)); ``beta1`` is the
    small-angle threshold below which cuts are exactly round (filled in by
    :func:`beta1_threshold`).
    """

    theta: float
    b: float
    B: float
    c: float
    c_prime: float
    beta1: float | None = None

    def __post_init__(self):
        if not (0.0 < self.theta <= HALF_PI):
            raise DomainError("ReparamParams: theta must lie in (0, pi/2]")
        if not (self.c_prime < self.c + math.log(math.sin(self.theta))):
            raise DomainError(
                "ReparamParams: requires c_prime < c + ln(sin(theta)) "
                f"(got c_prime={self.c_prime}, bound="
                f"{self.c + math.log(math.sin(self.theta))})"
            )
        if self.beta1 is not None and not (0.0 < self.beta1 < HALF_PI):
            raise DomainError("ReparamParams: beta1 must lie in (0, pi/2)")


def beta1_threshold(params, lambda_min=None, lambda_max=700.0, n_grid=80,
                    margin=0.5):
    """A small angle beta1 with solve_r(l' + c', beta1) <= reparam(l') + B
    for every l' in [lambda_min, lambda_max].

    Asymptotically the inequality reads ln(sin beta1) <= B - c' +
    ln(sin theta), so beta1 = asin(exp(B - c' + ln sin(theta) - margin))
    works with slack `margin`; when the exponent is already nonnegative the
    inequality has slack for every angle and pi/4 is returned.  The
    candidate is then verified by direct evaluation on a geometric grid;
    failure raises VerificationError rather than returning an unchecked
    angle.

    The claim is about all sufficiently large lambda': the inequality only
    becomes meaningful once reparam(lambda') clears -B (its right side
    must exceed the nonnegative leg length).  When lambda_min is None the
    sweep therefore starts at max(5, the radius where that happens); an
    explicit lambda_min is honored as given.
    """
    if not params.B < params.c:
        raise DomainError("beta1_threshold: requires B < c")
    expo0 = params.B - params.c_prime + math.log(math.sin(params.theta))
    if expo0 >= 0.0:
        beta1 = 0.25 * math.pi
    else:
        beta1 = math.asin(math.exp(expo0 - margin))
    if lambda_min is None:
        lam_lo = 5.0
        if params.B < 2.0:
            lam_lo = max(lam_lo,
                         reparam_inverse(2.0 - params.B, params.theta))
        # the swept hypotenuse lambda' + c' must stay positive
        lam_lo = max(lam_lo, 1.0 - params.c_prime)
    else:
        lam_lo = lambda_min
    grid = np.geomspace(lam_lo, lambda_max, n_grid)
    lhs = solve_r(grid + params.c_prime, beta1)
    rhs = reparam(grid, params.theta) + params.B
    if np.any(lhs > rhs):
        worst = float(np.max(lhs - rhs))
        raise VerificationError(
            f"beta1_threshold: candidate beta1={beta1:.6g} fails the "
            f"inequality on [{lam_lo:.6g}, {lambda_max:.6g}] by {worst:.3e}"
        )
    return beta1


def triangle_jacobian(s, beta):
    """Closed-form partials of (t, r) with respect to (s, beta):

        dr/ds = sin(beta) cosh(s) / cosh(r)
        dr/dbeta = cos(beta) sinh(s) / cosh(r)
        dt/ds = cos(beta) / cosh(r)^2
        dt/dbeta = -sin(beta) sinh(s) cosh(s) / cosh(r)^2

    evaluated through exp/log-cosh differences so large s stays finite.
    Returns (dt_ds, dt_dbeta, dr_ds, dr_dbeta).
    """
    (s, beta), shape, scalar = _prepare(s, beta)
    if np.any(s <= 0.0):
        raise DomainError("triangle_jacobian: s must be > 0")
    _check_beta_closed(beta, "triangle_jacobian")
    sinb, cosb = np.sin(beta), np.cos(beta)
    r, _ = _solve_rt(s, beta)
    lcs = log_cosh(s)
    lcr = log_cosh(r)
    lss = log_sinh(s)
    dr_ds = sinb * np.exp(lcs - lcr)
    dr_db = cosb * np.exp(lss - lcr)
    dt_ds = cosb * np.exp(-2.0 * lcr)
    dt_db = -sinb * np.exp(lss + lcs - 2.0 * lcr)
    fin = lambda a: _finish(a, shape, scalar)
    return fin(dt_ds), fin(dt_db), fin(dr_ds), fin(dr_db)


def coth_sq_minus_one(x):
    """coth(x)^2 - 1 = 1/sinh(x)^2, accurate for large x (no 1-cancellation)."""
    (x,), shape, scalar = _prepare(x)
    if np.any(x <= 0.0):
        raise DomainError("coth_sq_minus_one: x must be > 0")
    out = np.exp(-2.0 * log_sinh(x))
    return _finish(out, shape, scalar)
