"""Closed-form symmetric bilinear-form fields on the circle.

A field is a closed-form, 2 pi-periodic function of the circle angle: it
maps an array of angles to the array, of the same shape, of its one
component ``g(d/dangle, d/dangle)`` there.  ``StereographicAtlas`` keeps
only the stereographic chart map and the round metric of S^2 that the
round-sphere reference route of ``extension`` needs.

On top of the field type the module implements warped/unwarped spherical
cuts of centered radial metrics, componentwise scaling, a positivity
check, and the grid realization of the C^2 distance: sups of component
differences and of their first and second central differences over two
overlapping sampling windows that cover the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, max_carrying_nan, min_carrying_nan
from .hyptrig import log_sinh

# The sampling windows are the arcs |angle - centre| <= 3 pi/5 about the
# centres 0 and pi, each sampled by ``centre + interior_grid(n)``.  They
# cover the circle and overlap by pi/5 at either end, so every point within
# MARGIN = 3 pi/20 of a window's end is interior to the other window.
# ``c2_distance`` bounds its step by MARGIN / 2, which 17 points meet
# exactly.
WINDOW_CENTRES = (0.0, math.pi)
INTERIOR_HALF_WIDTH = 0.60 * math.pi
MARGIN = 0.75 * math.pi - INTERIOR_HALF_WIDTH


def interior_grid(n):
    """n evenly spaced offsets from a window centre, ends included."""
    return np.linspace(-INTERIOR_HALF_WIDTH, INTERIOR_HALF_WIDTH, n)


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
        return np.multiply.outer(factor, np.eye(2))


SPHERE_ATLAS = StereographicAtlas()


@dataclass(frozen=True)
class SphereMetricField:
    """A closed-form symmetric bilinear-form field on the circle:
    ``_fn(angles)`` gives its component at every angle of an array."""

    name: str = ""
    _fn: object = None

    @classmethod
    def from_function(cls, fn, name=""):
        return cls(name=name, _fn=fn)

    def at_angles(self, angles):
        """The field at circle angles, as an array of their shape."""
        return self._fn(np.asarray(angles, dtype=float))

    # ``components`` is the same evaluation, called by fields built on this
    # one and by the sampling windows; perfbench traces all three methods by
    # name and pins the ``at_angles`` count to the pipeline's own calls
    def components(self, angles):
        return self._fn(np.asarray(angles, dtype=float))

    def grid_components(self, centre, n):
        return self.components(interior_grid(n) + centre)


def round_metric():
    """The round metric of the unit circle: its component is 1 everywhere
    (a fresh ``np.ones``, which costs a third of ``np.broadcast_to``)."""
    fn = lambda angles: np.ones(np.shape(angles))
    return SphereMetricField.from_function(fn, name="round")


def scale(a, c):
    """Componentwise multiple c * a of a field; c must be positive."""
    if not np.isscalar(c) and np.ndim(c) != 0:
        raise DomainError("scale: c must be a scalar")
    c = float(c)
    if c <= 0.0 or not math.isfinite(c):
        raise DomainError("scale: factor must be positive and finite")
    fn = lambda angles: c * a.components(angles)
    return SphereMetricField.from_function(fn, name=a.name)


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


def hyperbolic_radial():
    """g_r = sinh(r)^2 * round metric (constant-curvature -1 space)."""
    return sinh_warped_radial(round_metric(), name="hyperbolic")


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

    Each sampling window is spanned by ``resolution`` points; the
    finite-difference step is their spacing, which must not exceed half
    of MARGIN.  Points within MARGIN of a window's end are interior to the
    other window instead.
    """
    axis = interior_grid(resolution)
    h = float(axis[1] - axis[0])
    if h > MARGIN / 2.0:
        raise DomainError(
            f"step {h:.4g} too large for window margin {MARGIN:.4g}")

    c0 = c1 = c2 = 0.0
    for centre in WINDOW_CENTRES:
        angles = axis + centre          # the window, built once for both
        s0, s1, s2 = c2_sups(a.components(angles) - b.components(angles),
                             (h,))
        c0 = max_carrying_nan(c0, s0)
        c1 = max_carrying_nan(c1, s1)
        c2 = max_carrying_nan(c2, s2)
    return C2Distance(c0=c0, c1=c1, c2=c2, grid_resolution=resolution,
                      fd_step=h)


def positivity_check(a, resolution):
    """Minimum of the component over both sampling windows.

    Returns (passed, minimum); passes iff the minimum is > 0, so a NaN
    anywhere on the grid makes the minimum NaN and fails.
    """
    worst = math.inf
    for centre in WINDOW_CENTRES:
        g = np.asarray(a.grid_components(centre, resolution), dtype=float)
        worst = min_carrying_nan(worst, float(np.min(g)))
    return worst > 0.0, worst
