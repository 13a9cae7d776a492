"""Closed-form symmetric bilinear-form fields on the circle.

A field is a closed-form function of a chart coordinate of
``CIRCLE_ATLAS`` (two overlapping arc charts on S^1 whose transitions are
shifts by pi, Jacobian identically 1) and returns the 1x1 component
matrix in that chart's frame.  ``StereographicAtlas`` keeps only the
stereographic chart map and the round metric of S^2 that the round-sphere
reference route of ``extension`` needs.

On top of the field type the module implements warped/unwarped spherical
cuts of centered radial metrics, componentwise scaling, a positivity
check, and the grid realization of the C^2 distance: sups of component
differences and of their first and second central differences over the
interior grid of every chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, max_carrying_nan, min_carrying_nan
from .hyptrig import log_sinh

TWO_PI = 2.0 * math.pi


def _wrap_angle(a):
    """Wrap to (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(a, dtype=float), TWO_PI)


class CircleAtlas:
    """Two arc charts on the unit circle, centred at angles 0 and pi.

    Chart coordinate: x = angle - centre, wrapped; each chart's domain is
    the open arc |x| < 3*pi/4 and its interior is |x| <= 3*pi/5, so the two
    interiors overlap and cover the circle with margin 3*pi/20 to every
    chart boundary.  Transitions shift by +-pi: Jacobian 1, condition
    number 1.  So a field has the same components in either chart, and the
    east coordinate wrapped to (-pi, pi] is a periodic angle coordinate on
    the whole circle (``angle_coords``).
    """

    chart_ids = ("east", "west")
    half_width = 0.75 * math.pi
    interior_half_width = 0.60 * math.pi

    centers = {"east": 0.0, "west": math.pi}

    def __init__(self):
        # the last angle_coords result, keyed by the shape and bytes of its
        # angles
        self._wrapped = None

    @property
    def margin(self):
        return self.half_width - self.interior_half_width

    def coords_of(self, chart, angles):
        return _wrap_angle(np.asarray(angles, dtype=float)
                           - self.centers[chart])

    def angle_coords(self, angles):
        """The periodic angle coordinate of ``angles``: the east chart
        coordinate, wrapped to (-pi, pi], as a read-only array.

        The last result is kept, keyed by the shape and bytes of the
        angles: callers that evaluate many fields on one angle grid (one
        per beta column) wrap it once.  Equal keys mean equal input bits,
        so a kept result is the one a fresh call would compute.
        """
        a = np.asarray(angles, dtype=float)
        key = (a.shape, a.tobytes())
        last = self._wrapped     # one read: another thread may replace it
        if last is not None and last[0] == key:
            return last[1]
        x = self.coords_of("east", a)
        x.flags.writeable = False
        self._wrapped = (key, x)
        return x

    def interior_grid(self, n):
        L = self.interior_half_width
        return np.linspace(-L, L, n)


class StereographicAtlas:
    """The two stereographic charts of the unit 2-sphere.

    Chart "north" projects from the south pole: w = (x, y) / (1 + z).
    Chart "south" projects from the north pole with the second coordinate
    flipped: w = (x, -y) / (1 - z).  The round metric has components
    4 I / (1 + |w|^2)^2 in either chart.
    """

    def coords_of(self, chart, p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        if chart == "north":
            denom = 1.0 + z
            return np.stack([x / denom, y / denom], axis=-1)
        denom = 1.0 - z
        return np.stack([x / denom, -y / denom], axis=-1)

    def round_components(self, w):
        w = np.asarray(w, dtype=float)
        q = np.sum(w * w, axis=-1)
        factor = 4.0 / (1.0 + q) ** 2
        return factor[..., None, None] * np.eye(2)


# module-level atlas instances
CIRCLE_ATLAS = CircleAtlas()
SPHERE_ATLAS = StereographicAtlas()


@dataclass(frozen=True)
class SphereMetricField:
    """A closed-form symmetric bilinear-form field on the circle:
    ``_fn(chart, coords)`` gives its components at any chart point."""

    atlas: object
    name: str = ""
    _fn: object = None

    @classmethod
    def from_function(cls, atlas, fn, name=""):
        return cls(atlas=atlas, name=name, _fn=fn)

    def components(self, chart, coords):
        return self._fn(chart, np.asarray(coords, dtype=float))

    def grid_components(self, chart, n):
        """Components over the standard interior grid of the chart."""
        return self.components(chart, self.atlas.interior_grid(n))

    def at_angles(self, angles):
        """Evaluate at circle angles, once, through the periodic angle
        coordinate (the east chart's formula, which holds on the whole
        circle because every transition is a shift with Jacobian 1)."""
        return self.components("east", self.atlas.angle_coords(angles))


def round_metric(atlas):
    """The round metric of the unit circle over the given atlas."""
    fn = lambda chart, x: np.ones(np.shape(x) + (1, 1))
    return SphereMetricField.from_function(atlas, fn, name="round")


def scale(a, c):
    """Componentwise multiple c * a of a field; c must be positive."""
    if not np.isscalar(c) and np.ndim(c) != 0:
        raise DomainError("scale: c must be a scalar")
    c = float(c)
    if c <= 0.0 or not math.isfinite(c):
        raise DomainError("scale: factor must be positive and finite")
    fn = lambda chart, x: c * a.components(chart, x)
    return SphereMetricField.from_function(a.atlas, fn, name=a.name)


@dataclass(frozen=True)
class RadialMetric:
    """A centered metric g = g_r + dr^2 given by its warped cuts r -> g_r."""

    domain: tuple
    name: str = ""
    _cut: object = None

    def cut_at(self, r):
        lo, hi = self.domain
        if not (lo < r < hi):
            raise DomainError(
                f"radius {r} outside the radial domain ({lo}, {hi}) "
                f"of {self.name or 'metric'}")
        return self._cut(float(r))


def sinh_warped_radial(gprime, name="sinh-warped", r_max=350.0):
    """g_r = sinh(r)^2 * g' for a fixed field g' (warped-by-sinh metric)."""
    return RadialMetric(domain=(0.0, r_max), name=name,
                        _cut=lambda r: scale(gprime, math.sinh(r) ** 2))


def hyperbolic_radial(atlas):
    """g_r = sinh(r)^2 * round metric (constant-curvature -1 space)."""
    return sinh_warped_radial(round_metric(atlas), name="hyperbolic")


def warped_cut(g, r0):
    """The metric induced on the radius-r0 sphere, as a field g_{r0}."""
    return g.cut_at(r0)


def unwarped_cut(g, r0):
    """The warped cut rescaled by 1/sinh(r0)^2 (constant in r0 exactly for
    warped-by-sinh metrics)."""
    if r0 <= 0.0:
        raise DomainError("unwarped_cut: r0 must be positive")
    return scale(warped_cut(g, r0), math.exp(-2.0 * log_sinh(r0)))


@dataclass(frozen=True)
class C2Distance:
    """Sups of component differences and their first/second central
    differences over the interior grids; deterministic given (grid, step)."""

    c0: float
    c1: float
    c2: float
    grid_resolution: int
    fd_step: float

    def max(self):
        return max_carrying_nan(self.c0, self.c1, self.c2)


def c2_sups(delta, steps, periodic=None):
    """(c0, c1, c2) sups for a difference array over a structured grid.

    ``delta`` has one or two leading grid axes followed by arbitrary
    component axes; ``steps`` gives the grid spacing per grid axis.  A
    periodic axis is differenced with wraparound, a bounded one on its
    interior.

    Each periodic axis is padded once with one wrapped layer on either
    side, so every forward, backward, mid and cross stencil is a view of
    that one copy.  The division by the stencil's step factor is taken
    after the sup: correctly rounded division by a positive number is
    monotone, so ``max|x| / c`` equals ``max|x / c|`` bit for bit.  An
    exactly zero ``delta`` returns ``(0.0, 0.0, 0.0)`` at once.  A NaN
    anywhere a stencil reaches makes that sup NaN; it is never dropped.
    """
    delta = np.asarray(delta, dtype=float)
    n_axes = len(steps)
    periodic = tuple(periodic or (False,) * n_axes)

    def sup(arr, factor):
        """sup |arr| / |factor|; ``arr`` is a temporary and is
        overwritten."""
        if arr.size == 0:
            return 0.0
        return float(np.max(np.abs(arr, out=arr)) / abs(factor))

    c0 = float(np.max(np.abs(delta))) if delta.size else 0.0
    if c0 == 0.0:
        return 0.0, 0.0, 0.0

    # one wrapped layer on each side of every periodic axis
    padded = delta
    for ax in range(n_axes):
        if periodic[ax]:
            last = padded[(slice(None),) * ax + (slice(-1, None),)]
            first = padded[(slice(None),) * ax + (slice(None, 1),)]
            padded = np.concatenate([last, padded, first], axis=ax)

    shift_slices = {1: slice(2, None), -1: slice(None, -2), 0: slice(1, -1)}

    def view(offsets):
        """The stencil neighbour at ``offsets`` (one of +1, -1, 0 or None
        per grid axis; None leaves that axis undifferenced) of every
        evaluation point, as a view of ``padded``."""
        return padded[tuple(
            shift_slices[off] if off is not None
            else (slice(1, -1) if periodic[ax] else slice(None))
            for ax, off in enumerate(offsets))]

    sups1, sups2 = [], []
    for ax in range(n_axes):
        h = steps[ax]
        fwd, bwd, mid = (view([off if a == ax else None
                               for a in range(n_axes)])
                         for off in (1, -1, 0))
        sups1.append(sup(fwd - bwd, 2.0 * h))
        d2 = 2.0 * mid
        np.subtract(fwd, d2, out=d2)
        d2 += bwd
        sups2.append(sup(d2, h * h))

    if n_axes == 2:
        h0, h1 = steps
        pm, mp = view((1, -1)), view((-1, 1))
        if periodic == (True, False):
            # the rounding of the cross stencil depends on the order of its
            # terms: with the periodic axis first, (-1, +1) is subtracted
            # before (+1, -1), which keeps the results bit-identical to the
            # roll-based reference kernel in tests/test_fields.py
            pm, mp = mp, pm
        dxy = view((1, 1)) - pm
        dxy -= mp
        dxy += view((-1, -1))
        sups2.append(sup(dxy, 4.0 * h0 * h1))

    return c0, max_carrying_nan(*sups1), max_carrying_nan(*sups2)


def c2_distance(a, b, resolution):
    """Grid C^2 distance between two circle fields.

    The comparison grid spans each chart's interior with ``resolution``
    points; the finite-difference step is the grid spacing, which must not
    exceed half the chart margin.  Points within the margin of a chart
    boundary are covered by the other chart's interior instead.
    """
    atlas = a.atlas
    axis = atlas.interior_grid(resolution)
    h = float(axis[1] - axis[0])
    if h > atlas.margin / 2.0:
        raise DomainError(
            f"step {h:.4g} too large for chart margin {atlas.margin:.4g}")

    c0 = c1 = c2 = 0.0
    for chart in atlas.chart_ids:
        delta = np.asarray(a.grid_components(chart, resolution), dtype=float) \
            - np.asarray(b.grid_components(chart, resolution), dtype=float)
        s0, s1, s2 = c2_sups(delta, (h,))
        c0 = max_carrying_nan(c0, s0)
        c1 = max_carrying_nan(c1, s1)
        c2 = max_carrying_nan(c2, s2)
    return C2Distance(c0=c0, c1=c1, c2=c2, grid_resolution=resolution,
                      fd_step=h)


def positivity_check(a, resolution):
    """Minimum of the (1x1) component over the grid of every chart.

    Returns (passed, minimum); passes iff the minimum is > 0, so a NaN
    anywhere on the grid makes the minimum NaN and fails.
    """
    worst = math.inf
    for chart in a.atlas.chart_ids:
        g = np.asarray(a.grid_components(chart, resolution), dtype=float)
        worst = min_carrying_nan(worst, float(np.min(g[..., 0, 0])))
    return worst > 0.0, worst
