"""Synthetic metric families for the convergence experiments.

Two families are provided.  The *hyperbolic* family is constantly round:
every unwarped cut is the round circle metric, so it is a fixed point of
the whole pipeline.  The *bump* family perturbs the round metric by a
compactly supported C^2 profile riding at a fixed offset from the family
index:

    cut(lam, rho) = sigma + BUMP_AMPLITUDE * bump(rho - lam) * T

with bump supported on BUMP_SUPPORT = [B, c] = [-1, 1], amplitude
BUMP_AMPLITUDE = 0.05, and T a fixed symmetric direction field on the
circle, named by one of DIRECTION_TAGS.  The family is round at every
radius lam + b with b <= B (so it is hyperbolic around the origin with
that bound), and since the cuts depend only on rho - lam the diagonal
family is stationary: its cut limit at b is exactly
sigma + BUMP_AMPLITUDE * bump(b) * T.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from . import fields as mf
from .cutlimits import MetricFamily

# the bump family's shape: its support [B, c] and its amplitude
BUMP_SUPPORT = (-1.0, 1.0)
BUMP_AMPLITUDE = 0.05

DIRECTION_TAGS = ("uniform", "cos2")


def quintic_smoothstep(u):
    """The C^2 step 10u^3 - 15u^4 + 6u^5 on [0, 1], clamped outside; its
    first and second derivatives vanish at both ends.  The output is
    clipped to [0, 1], where the polynomial lives up to roundoff."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return np.clip(u ** 3 * (10.0 + u * (-15.0 + 6.0 * u)), 0.0, 1.0)


def bump_profile(x):
    """C^2 bump supported exactly on BUMP_SUPPORT = [start, end]: quintic
    smoothstep up to 1 at the midpoint and back down; identically 0.0
    outside the support.

    A float ``x`` takes a float path that evaluates only the branch that
    applies, in float arithmetic; it gives the bits of the numpy route on
    a 0-d array, -0.0 and NaN included: each clip to [0, 1] keeps its
    value (a NaN or -0.0 too) unless it lies strictly outside, as
    ``np.clip`` does, and ``u ** 3`` is the C ``pow`` that numpy's scalar
    power also calls (numpy's array power can differ from it in the last
    bit).  Below 0 or above 1 the smoothstep is exactly 0.0 or 1.0, so
    those are returned at once.
    """
    start, end = BUMP_SUPPORT
    mid = 0.5 * (start + end)
    if isinstance(x, float):
        x = float(x)
        if x <= mid:
            u = (x - start) / (mid - start)
        else:
            u = (end - x) / (end - mid)
        if u < 0.0:
            return 0.0
        if u > 1.0:
            return 1.0
        v = u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))
        return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
    x = np.asarray(x, dtype=float)
    up = quintic_smoothstep((x - start) / (mid - start))
    down = quintic_smoothstep((end - x) / (end - mid))
    out = np.where(x <= mid, up, down)
    return float(out) if out.ndim == 0 else out


def _cos_sq(angles):
    """cos^2 of a float angle array, a fresh array (a scalar if 0-d)."""
    c = np.cos(angles)
    return c * c


def _axis_rows(T):
    """A function of an angle array that gives T's evaluation there.  For
    a 1-D axis that views immutable ``bytes`` (the axes of
    ``extension.join_grid``, which no one can make writeable) it is
    computed once for the last such axis given and kept read-only; any
    other angles are evaluated afresh.  The row is kept in this closure
    only, so every family that makes one has its own."""
    axis = row = None

    def rows(angles):
        nonlocal axis, row
        if type(angles.base) is not bytes or angles.ndim != 1:
            return T.components(angles)
        if angles is not axis:
            row = T.components(angles)
            row.flags.writeable = False
            axis = angles
        return row

    return rows


def direction_field(tag):
    """The perturbation direction T on the circle named by ``tag``, one of
    DIRECTION_TAGS: "uniform" is the round form itself, "cos2" modulates
    by cos^2 of the angle (so the block varies over the circle)."""
    if tag not in DIRECTION_TAGS:
        raise DomainError(f"unknown direction tag {tag!r}")
    if tag == "uniform":
        return mf.round_metric()
    return mf.SphereMetricField.from_function(_cos_sq)


def hyperbolic_family():
    """The constantly round family: every cut is the round metric."""
    sigma = mf.round_metric()

    def cut(lam, rho):
        if rho <= 0.0:
            raise DomainError("cut radius must be positive")
        return sigma

    return MetricFamily(
        cut=cut, hyperbolic_bound=math.inf,
        limit=lambda b: sigma, interval_bound=math.inf, family_id="hyperbolic")


def bump_family(direction):
    """Build the bump family with direction field ``direction`` (one of
    DIRECTION_TAGS).  Every cut and limit is 1 + a * T with a in
    [0, BUMP_AMPLITUDE] and T (1 or cos^2) in [0, 1], so it lies in
    [1, 1 + BUMP_AMPLITUDE] and is positive: no check is needed.  Each
    family, of either direction, caches its own row of T on the last join
    axis it is given (``_axis_rows``)."""
    rows = _axis_rows(direction_field(direction))
    sigma = mf.round_metric()
    eps = BUMP_AMPLITUDE
    start, end = BUMP_SUPPORT

    def perturbed(amount):
        if amount == 0.0:
            return sigma
        # sigma is the round form, whose components are exactly 1: T's
        # row times amount is multiplied into a fresh array and 1 is added
        # in place, the bits of (T * amount) + 1
        def fn(angles):
            out = np.multiply(rows(angles), amount)
            out += 1.0
            return out

        return mf.SphereMetricField(fn)

    def cut(lam, rho):
        if rho <= 0.0:
            raise DomainError("cut radius must be positive")
        return perturbed(eps * bump_profile(rho - lam))

    return MetricFamily(
        cut=cut, hyperbolic_bound=start,
        limit=lambda b: perturbed(eps * bump_profile(b)),
        interval_bound=end,
        family_id=(f"bump[B={start:g},c={end:g},eps={eps:g},"
                   f"{direction}]"))
