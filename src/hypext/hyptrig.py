"""Numerically stable hyperbolic right-triangle trigonometry.

Everything here concerns a geodesic right triangle in the hyperbolic plane
with hypotenuse ``s``, legs ``t`` and ``r``, and angle ``beta`` at the
vertex joining ``s`` and ``t`` (so ``r`` is the side opposite ``beta``).
The three classical relations

    sinh(r) = sin(beta) * sinh(s)           (law of sines)
    cosh(r) * sinh(t) = sinh(s) * cos(beta)
    cosh(s) = cosh(r) * cosh(t)             (hyperbolic Pythagoras)

determine the triangle from ``(s, beta)``.  On top of the solvers this
module provides the sphere-radius change of variables

    reparam(lambda', theta) = asinh(sinh(lambda') * sin(theta))

its inverse, the composed map ``vartheta`` and its additive large-radius
limit ``vartheta_shift``, and the small-angle threshold ``beta1_threshold``
used to control the region where cuts of a hyperbolically-collared family
are exactly round.  The threshold takes the family's bounds (the collar
bound B and the shifted interval edge c') as plain floats; ``cutlimits``
derives them from the family.

All functions accept floats or numpy arrays (inputs broadcast together);
scalar inputs give scalar outputs.  Compositions of ``sinh``/``asinh`` are
rewritten in the log domain beyond ``LOG_SWITCH``: naive ``sinh`` overflows
near 710 and, inside compositions, loses digits much earlier.

``solve_r`` with two float scalars (``float`` or ``np.float64``) takes a
scalar path for its per-column callers, who pay more for the broadcast,
ravel and mask machinery than for the arithmetic.  Its kernel,
``_solve_r_scalar``, applies the array path's numpy ufuncs to 0-d values
in the same order, with the same branch switches and domain errors, so
both give the same bits (``math.*`` would not: its functions differ from
numpy's in the last bit on a share of inputs).  A NaN ``s`` or ``beta``
takes the array path, since which of two NaNs a numpy scalar sum keeps
depends on how numpy was compiled; there a NaN angle gives a NaN leg.
Only ``sin(beta) == 0`` gives ``r = 0``.

The scalar ``solve_r`` keeps two caches, since its per-column callers
repeat one beta axis in every cut and one s across a cut's columns:
per beta, ``(log sin beta, e^{log sin beta})``, and per s, ``sinh s``.
Each holds at most ``_SCALAR_CACHE_BOUND`` = 1024 entries and is emptied
when full.  Every domain error is raised before either cache is read;
a zero beta is never cached.  The cached values are the floats the
kernel computes from the key, so a hit gives the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, VerificationError

_LN2 = math.log(2.0)
HALF_PI = 0.5 * math.pi

# Beyond this threshold exp(-2x) is far below double-precision resolution
# relative to 1, so log-domain forms are exact to the last bit.
LOG_SWITCH = 30.0

# beta1_threshold: the slack below the asymptotic bound on ln(sin beta1),
# and the number of geometric grid points its candidate is verified on
BETA1_MARGIN = 0.5
BETA1_GRID = 80

# the largest lambda' any suite evaluates: the top of the small-angle
# claim's sweeps, and of the converge suite's lambda' grid
LAMBDA_PRIME_MAX = 700.0


def _prepare(*vals):
    """Broadcast inputs to flat float arrays; report shape and scalarness.
    A flat array may be a read-only view of its input: no function here
    writes into one or returns one."""
    arrs = [np.asarray(v, dtype=float) for v in vals]
    scalar = all(a.ndim == 0 for a in arrs)
    shape = np.broadcast_shapes(*[a.shape for a in arrs])
    flat = [np.ravel(np.broadcast_to(a, shape)) for a in arrs]
    return flat, shape, scalar


def _finish(out, shape, scalar):
    return float(out[0]) if scalar else out.reshape(shape)


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
    # the range test is negated, so that a NaN theta is refused too
    if not np.all((theta > 0.0) & (theta <= HALF_PI)):
        raise DomainError(f"{what}: theta must lie in (0, pi/2]")


# the scalar solve_r caches (see the module docstring); each value is a
# function of its key alone, so callers and threads may share them
_SCALAR_CACHE_BOUND = 1024
_SIN_CACHE = {}
_SINH_CACHE = {}


def _solve_r_scalar(s, beta):
    """solve_r for float scalars other than NaN: the branches of
    ``_asinh_scaled_sinh`` (with ``_asinh_of_exp``) on 0-d values, with
    the array path's domain errors, checked before either cache is read.
    A zero beta is never cached: sin(beta) == 0 gives r = 0."""
    if s <= 0.0:
        raise DomainError("solve_r: s must be > 0")
    if beta < 0.0 or beta > HALF_PI:
        raise DomainError("solve_r: beta must lie in [0, pi/2]")
    cached = _SIN_CACHE.get(beta)
    if cached is None:
        sinb = np.sin(beta)
        if sinb == 0.0:
            return 0.0
        log_k = np.log(sinb)
        if len(_SIN_CACHE) >= _SCALAR_CACHE_BOUND:
            _SIN_CACHE.clear()
        cached = _SIN_CACHE[beta] = float(log_k), float(np.exp(log_k))
    log_k, k = cached
    if s <= LOG_SWITCH and not log_k + s > 300.0:
        # the direct branch, asinh(k * sinh(s))
        sinh_s = _SINH_CACHE.get(s)
        if sinh_s is None:
            if len(_SINH_CACHE) >= _SCALAR_CACHE_BOUND:
                _SINH_CACHE.clear()
            sinh_s = _SINH_CACHE[s] = float(np.sinh(s))
        return float(np.arcsinh(k * sinh_s))
    ln_y = log_k + s - _LN2 + np.log1p(-np.exp(-2.0 * s))
    if ln_y >= 20.0:
        return float(ln_y + _LN2)
    return float(np.arcsinh(np.exp(ln_y)))


def _leg_r(s, sinb):
    """solve_r on flat arrays, from sin(beta): 0 where sin(beta) == 0."""
    r = np.zeros_like(s)
    pos = sinb != 0.0
    r[pos] = _asinh_scaled_sinh(np.log(sinb[pos]), s[pos])
    return r


def solve_r(s, beta):
    """Leg opposite ``beta``:  r = asinh(sin(beta) * sinh(s)).

    Stable for s well beyond 700 via log-domain evaluation.  A NaN input
    gives a NaN leg; r = 0 only where sin(beta) == 0.
    """
    if (isinstance(s, float) and isinstance(beta, float) and s == s
            and beta == beta):
        return _solve_r_scalar(s, beta)
    (s, beta), shape, scalar = _prepare(s, beta)
    if np.any(s <= 0.0):
        raise DomainError("solve_r: s must be > 0")
    _check_beta_closed(beta, "solve_r")
    return _finish(_leg_r(s, np.sin(beta)), shape, scalar)


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
    r = _leg_r(s, sinb)

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

    Both stages are the stable primitives above, so the composition keeps
    full precision for lambda up to 700 and beyond.  A beta outside
    (0, pi/2], NaN included, is refused here; the other refusals are
    those of the two stages.
    """
    beta_arr = np.asarray(beta)
    # the range test is negated, so that a NaN beta is refused too
    if not np.all((beta_arr > 0.0) & (beta_arr <= HALF_PI)):
        raise DomainError("vartheta: beta must lie in (0, pi/2]")
    return solve_r(reparam_inverse(lam, theta) + b, beta)


def vartheta_shift(beta, b, theta):
    """Additive limit of vartheta:  vartheta(lam, ...) - lam -> b +
    ln(sin(beta)/sin(theta)) as lam -> infinity, with gap O(e^{-2 lam}).

    beta = 0 is rejected: the shift is logarithmically singular there and
    the small-angle regime is handled separately by beta1_threshold.
    """
    (beta, b, theta), shape, scalar = _prepare(beta, b, theta)
    # the range test is negated, so that a NaN beta is refused too
    if not np.all((beta > 0.0) & (beta <= HALF_PI)):
        raise DomainError("vartheta_shift: beta must lie in (0, pi/2]")
    _check_theta(theta, "vartheta_shift")
    out = b + np.log(np.sin(beta)) - np.log(np.sin(theta))
    return _finish(out, shape, scalar)


def beta1_threshold(theta, B, c_prime):
    """A small angle beta1 with solve_r(l' + c', beta1) <= reparam(l') + B
    for every l' in a sweep [lam_lo, LAMBDA_PRIME_MAX], for a family with
    collar bound B and shifted interval edge c' at the angle theta.

    Asymptotically the inequality reads ln(sin beta1) <= B - c' +
    ln(sin theta), so beta1 = asin(exp(B - c' + ln sin(theta) -
    BETA1_MARGIN)) works with that slack; when the exponent is already
    nonnegative the inequality has slack for every angle and pi/4 is
    returned.  The candidate is then verified by direct evaluation on a
    geometric grid of BETA1_GRID points; failure raises VerificationError
    rather than returning an unchecked angle.

    The claim is about all sufficiently large lambda': the inequality only
    becomes meaningful once reparam(lambda') clears -B (its right side
    must exceed the nonnegative leg length).  The sweep therefore starts
    at lam_lo = max(5, the radius where that happens, 1 - c'); a start at
    or above LAMBDA_PRIME_MAX is refused, as is a theta outside (0, pi/2].
    """
    if not 0.0 < theta <= HALF_PI:
        raise DomainError("beta1_threshold: theta must lie in (0, pi/2]")
    lam_lo = max(5.0, reparam_inverse(2.0 - B, theta)) if B < 2.0 else 5.0
    # the swept hypotenuse lambda' + c' must stay positive
    lam_lo = max(lam_lo, 1.0 - c_prime)
    if not LAMBDA_PRIME_MAX > lam_lo:
        raise DomainError(
            f"beta1_threshold: the sweep top {LAMBDA_PRIME_MAX:.6g} must "
            f"exceed its start {lam_lo:.6g} at theta = {theta:.6g}")
    expo0 = B - c_prime + math.log(math.sin(theta))
    if expo0 >= 0.0:
        beta1 = 0.25 * math.pi
    else:
        beta1 = math.asin(math.exp(expo0 - BETA1_MARGIN))
    grid = np.geomspace(lam_lo, LAMBDA_PRIME_MAX, BETA1_GRID)
    lhs = solve_r(grid + c_prime, beta1)
    rhs = reparam(grid, theta) + B
    if np.any(lhs > rhs):
        worst = float(np.max(lhs - rhs))
        raise VerificationError(
            f"beta1_threshold: candidate beta1={beta1:.6g} fails the "
            f"inequality on [{lam_lo:.6g}, {LAMBDA_PRIME_MAX:.6g}] by "
            f"{worst:.3e}"
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
