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


def _clip01(v):
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def _smoothstep_float(u):
    """quintic_smoothstep of a float, in float arithmetic, with the same
    bits as the numpy route on a 0-d array: ``_clip01`` keeps u (a NaN or
    -0.0 too) unless it lies strictly outside [0, 1], as ``np.clip`` does,
    and ``u ** 3`` is the C ``pow`` that numpy's scalar power also calls
    (numpy's array power can differ from it in the last bit)."""
    u = _clip01(u)
    return _clip01(u ** 3 * (10.0 + u * (-15.0 + 6.0 * u)))


def bump_profile(x):
    """C^2 bump supported exactly on BUMP_SUPPORT = [start, end]: quintic
    smoothstep up to 1 at the midpoint and back down; identically 0.0
    outside the support.

    A float ``x`` takes a float path that evaluates only the branch that
    applies; it gives the bits of the numpy route on a 0-d array, -0.0 and
    NaN included.
    """
    start, end = BUMP_SUPPORT
    mid = 0.5 * (start + end)
    if isinstance(x, float):
        x = float(x)
        if x <= mid:
            return _smoothstep_float((x - start) / (mid - start))
        return _smoothstep_float((end - x) / (end - mid))
    x = np.asarray(x, dtype=float)
    up = quintic_smoothstep((x - start) / (mid - start))
    down = quintic_smoothstep((end - x) / (end - mid))
    out = np.where(x <= mid, up, down)
    return float(out) if out.ndim == 0 else out


def direction_field(tag):
    """The perturbation direction T on the circle named by ``tag``, one of
    DIRECTION_TAGS: "uniform" is the round form itself, "cos2" modulates
    by cos^2 of the angle (so the block varies over the circle)."""
    if tag not in DIRECTION_TAGS:
        raise DomainError(f"unknown direction tag {tag!r}")
    if tag == "uniform":
        return mf.round_metric()

    def cos2(angles):
        c = np.cos(angles)
        if c.ndim == 0:
            # np.cos of a 0-d array is a numpy scalar, which has no buffer
            # to square into; a scalar's ``** 2`` is the C ``pow``, which
            # can differ from ``c * c`` in the last bit, so it is kept
            return c ** 2
        return np.multiply(c, c, out=c)

    return mf.SphereMetricField.from_function(cos2)


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
    DIRECTION_TAGS), checking positivity of the most-perturbed cut at
    construction."""
    T = direction_field(direction)
    sigma = mf.round_metric()
    eps = BUMP_AMPLITUDE
    start, end = BUMP_SUPPORT

    def perturbed(amount):
        if amount == 0.0:
            return sigma
        # sigma is the round form, whose components are exactly 1; T's
        # evaluation is a fresh array, so 1 + amount * T is formed in it
        def fn(angles):
            out = T.components(angles)
            out *= amount
            out += 1.0
            return out

        return mf.SphereMetricField.from_function(fn)

    ok, eigmin = mf.positivity_check(perturbed(eps), resolution=256)
    if not ok:
        raise DomainError(
            f"amplitude {eps} destroys positivity (min eigenvalue {eigmin})")

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
