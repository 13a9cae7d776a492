"""Synthetic metric families for the convergence experiments.

Two kinds are provided.  The *hyperbolic* family is constantly round: every
unwarped cut is the round circle metric, so it is a fixed point of the
whole pipeline.  The *bump* family perturbs the round metric by a
compactly supported C^2 profile riding at a fixed offset from the family
index:

    cut(lam, rho) = sigma + amplitude * bump(rho - lam) * T

with bump supported on [support_start, support_end] and T a fixed
symmetric direction field on the circle.  The family is round at every
radius lam + b with b <= support_start (so it is hyperbolic around the
origin with that bound), and since the cuts depend only on rho - lam the
diagonal family is stationary: its cut limit at b is exactly
sigma + amplitude * bump(b) * T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import fields as mf
from .cutlimits import MetricFamily

DIRECTION_TAGS = ("uniform", "cos2")
PROFILE_TAGS = ("quintic",)


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


def bump_profile(x, start, end):
    """C^2 bump supported exactly on [start, end]: quintic smoothstep up to
    1 at the midpoint and back down; identically 0.0 outside the support.

    A float ``x`` takes a float path that evaluates only the branch that
    applies; it gives the bits of the numpy route on a 0-d array, -0.0 and
    NaN included.
    """
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
    """The perturbation direction T on the circle: "uniform" is the round
    form itself, "cos2" modulates by cos^2 of the angle (so the block
    varies over the circle)."""
    if tag == "uniform":
        return mf.round_metric()
    if tag != "cos2":
        raise DomainError(f"unknown direction tag {tag!r}")
    return mf.SphereMetricField.from_function(
        lambda angles: np.cos(angles) ** 2, name="T-cos2")


@dataclass(frozen=True)
class FamilySpec:
    """Construction recipe for a synthetic family."""

    kind: str = "bump"
    support_start: float = -1.0
    support_end: float = 1.0
    amplitude: float = 0.05
    direction: str = "uniform"
    profile: str = "quintic"

    def __post_init__(self):
        if self.kind not in ("hyperbolic", "bump"):
            raise DomainError(f"unknown family kind {self.kind!r}")
        if self.kind == "bump":
            if not self.support_start < self.support_end:
                raise DomainError("bump support must be a proper interval")
            if self.direction not in DIRECTION_TAGS:
                raise DomainError(f"unknown direction tag {self.direction!r}")
            if self.profile not in PROFILE_TAGS:
                raise DomainError(f"unknown profile tag {self.profile!r}")

    def build(self):
        if self.kind == "hyperbolic":
            return hyperbolic_family()
        return bump_family(self)


def hyperbolic_family():
    """The constantly round family: every cut is the round metric."""
    sigma = mf.round_metric()

    def cut(lam, rho):
        if rho <= 0.0:
            raise DomainError("cut radius must be positive")
        return sigma

    return MetricFamily(
        cut=cut, lambda_min=0.5, hyperbolic_bound=math.inf,
        limit=lambda b: sigma, interval_bound=math.inf, family_id="hyperbolic")


def bump_family(spec):
    """Build the bump family from its spec, checking positivity of the
    most-perturbed cut at construction."""
    if spec.kind != "bump":
        raise DomainError("bump_family requires a bump spec")
    T = direction_field(spec.direction)
    sigma = mf.round_metric()
    eps = float(spec.amplitude)
    start, end = float(spec.support_start), float(spec.support_end)

    def perturbed(amount):
        if amount == 0.0:
            return sigma
        # sigma is the round form, whose components are exactly 1
        fn = lambda angles: 1.0 + amount * T.components(angles)
        return mf.SphereMetricField.from_function(fn, name="bump-cut")

    ok, eigmin = mf.positivity_check(perturbed(eps), resolution=256)
    if not ok:
        raise DomainError(
            f"amplitude {eps} destroys positivity (min eigenvalue {eigmin})")

    def cut(lam, rho):
        if rho <= 0.0:
            raise DomainError("cut radius must be positive")
        return perturbed(eps * bump_profile(rho - lam, start, end))

    return MetricFamily(
        cut=cut, lambda_min=0.5, hyperbolic_bound=start,
        limit=lambda b: perturbed(eps * bump_profile(b, start, end)),
        interval_bound=end,
        family_id=(f"bump[B={start:g},c={end:g},eps={eps:g},"
                   f"{spec.direction}]"))
