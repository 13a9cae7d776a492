"""Symmetric bilinear-form fields on circles and spheres.

A field is evaluated per chart of a fixed atlas and returns the component
matrix in that chart's coordinate frame.  Two atlases are provided:

* ``CircleAtlas`` -- two overlapping arc charts on S^1 whose transitions
  are shifts by pi (Jacobian identically 1);
* ``StereographicAtlas`` -- two stereographic charts on S^2 (projections
  from the two poles), each restricted to a disk strictly containing the
  equator; transitions are conformal inversions.

On top of the field type the module implements warped/unwarped spherical
cuts of centered radial metrics, componentwise scaling, a positivity
check, and the grid realization of the C^2 distance: sups of component
differences and of their first and second central differences over the
interior grid of every chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

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

    atlas_id = "s1-arcs-v1"
    dim = 1
    chart_ids = ("east", "west")
    half_width = 0.75 * math.pi
    interior_half_width = 0.60 * math.pi
    default_resolution = 256
    jacobian_condition_bound = 1.0

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

    def angle_of(self, chart, x):
        return _wrap_angle(np.asarray(x, dtype=float) + self.centers[chart])

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

    def transition(self, src, dst, x):
        if src == dst:
            return np.asarray(x, dtype=float)
        return _wrap_angle(np.asarray(x, dtype=float)
                           + self.centers[src] - self.centers[dst])

    def transition_jacobian(self, src, dst, x):
        return np.ones(np.shape(x) + (1, 1))

    def interior_grid(self, n):
        L = self.interior_half_width
        return np.linspace(-L, L, n)


class StereographicAtlas:
    """Two stereographic charts on the unit 2-sphere.

    Chart "north" projects from the south pole: w = (x, y) / (1 + z),
    covering everything with |w| < 1.5 (well past the equator |w| = 1).
    Chart "south" projects from the north pole with the second coordinate
    flipped: w = (x, -y) / (1 - z).  The transition in both directions is
    the conformal involution (a, b) -> (a, -b) / (a^2 + b^2); its Jacobian
    has both singular values equal to 1/|w|^2, so the condition number is
    identically 1 and the scale factor lies in (4/9, 9/4) on the overlap.
    The round metric has components 4 I / (1 + |w|^2)^2 in either chart.
    """

    atlas_id = "s2-stereo-v1"
    dim = 2
    chart_ids = ("north", "south")
    domain_radius = 1.5
    interior_radius = 1.2
    default_resolution = 96
    jacobian_condition_bound = 1.0

    @property
    def margin(self):
        return self.domain_radius - self.interior_radius

    def to_point(self, chart, w):
        w = np.asarray(w, dtype=float)
        q = np.sum(w * w, axis=-1)
        denom = 1.0 + q
        x = 2.0 * w[..., 0] / denom
        y = 2.0 * w[..., 1] / denom
        z = (1.0 - q) / denom
        if chart == "north":
            return np.stack([x, y, z], axis=-1)
        return np.stack([x, -y, -z], axis=-1)

    def coords_of(self, chart, p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        if chart == "north":
            denom = 1.0 + z
            return np.stack([x / denom, y / denom], axis=-1)
        denom = 1.0 - z
        return np.stack([x / denom, -y / denom], axis=-1)

    def transition(self, src, dst, w):
        w = np.asarray(w, dtype=float)
        if src == dst:
            return w
        q = np.sum(w * w, axis=-1, keepdims=True)
        return np.stack([w[..., 0], -w[..., 1]], axis=-1) / q

    def transition_jacobian(self, src, dst, w):
        w = np.asarray(w, dtype=float)
        if src == dst:
            return np.broadcast_to(np.eye(2), w.shape[:-1] + (2, 2)).copy()
        a, b = w[..., 0], w[..., 1]
        q = a * a + b * b
        j = np.empty(w.shape[:-1] + (2, 2))
        j[..., 0, 0] = (b * b - a * a)
        j[..., 0, 1] = -2.0 * a * b
        j[..., 1, 0] = 2.0 * a * b
        j[..., 1, 1] = (b * b - a * a)
        return j / (q * q)[..., None, None]

    def round_components(self, w):
        w = np.asarray(w, dtype=float)
        q = np.sum(w * w, axis=-1)
        factor = 4.0 / (1.0 + q) ** 2
        return factor[..., None, None] * np.eye(2)

    def interior_grid(self, n):
        R = self.interior_radius
        return np.linspace(-R, R, n)

    def interior_mask(self, axis):
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return xx * xx + yy * yy <= self.interior_radius ** 2


# module-level atlas instances; fields built on the same instance compare
CIRCLE_ATLAS = CircleAtlas()
SPHERE_ATLAS = StereographicAtlas()


@dataclass(frozen=True)
class SphereMetricField:
    """A symmetric bilinear-form field over a fixed atlas.

    ``kind`` is "closed-form" (components evaluable at any chart point) or
    "sampled" (components known on the standard interior grid only).
    """

    atlas: object
    kind: str
    name: str = ""
    is_metric: bool = True
    _fn: object = None
    _samples: dict = dc_field(default=None, repr=False)

    @classmethod
    def from_function(cls, atlas, fn, name="", is_metric=True):
        return cls(atlas=atlas, kind="closed-form", name=name,
                   is_metric=is_metric, _fn=fn)

    @classmethod
    def from_samples(cls, atlas, samples, name="", is_metric=True):
        """samples: dict chart -> component array over the standard interior
        grid, shaped (n, d, d) for dim 1 and (n, n, d, d) for dim 2."""
        return cls(atlas=atlas, kind="sampled", name=name,
                   is_metric=is_metric, _samples=dict(samples))

    @property
    def resolution(self):
        if self.kind != "sampled":
            return None
        any_chart = next(iter(self._samples.values()))
        return any_chart.shape[0]

    def components(self, chart, coords):
        if self.kind != "closed-form":
            raise DomainError(
                "sampled fields are only known on their stored grid; "
                "use grid_components")
        return self._fn(chart, np.asarray(coords, dtype=float))

    def grid_components(self, chart, n):
        """Components over the standard interior grid of the chart."""
        if self.kind == "sampled":
            vals = self._samples[chart]
            if vals.shape[0] != n:
                raise DomainError(
                    f"sampled field has resolution {vals.shape[0]}, "
                    f"requested {n}")
            return vals
        axis = self.atlas.interior_grid(n)
        if self.atlas.dim == 1:
            return self.components(chart, axis)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        return self.components(chart, pts)

    def at_angles(self, angles):
        """S^1 only: evaluate at circle angles, once, through the periodic
        angle coordinate (the east chart's formula, which holds on the
        whole circle because every transition is a shift with Jacobian 1)."""
        if self.atlas.dim != 1:
            raise DomainError("at_angles applies to S^1 fields")
        if self.kind != "closed-form":
            raise DomainError("at_angles requires a closed-form field")
        return self.components("east", self.atlas.angle_coords(angles))

    def sampled(self, n=None):
        """Freeze onto the standard grid (tag becomes "sampled")."""
        n = n or self.atlas.default_resolution
        samples = {c: np.asarray(self.grid_components(c, n))
                   for c in self.atlas.chart_ids}
        return SphereMetricField.from_samples(self.atlas, samples,
                                              name=self.name,
                                              is_metric=self.is_metric)


def round_metric(atlas):
    """The round metric of the unit circle/sphere over the given atlas."""
    if atlas.dim == 1:
        fn = lambda chart, x: np.ones(np.shape(x) + (1, 1))
    else:
        fn = lambda chart, w: atlas.round_components(w)
    return SphereMetricField.from_function(atlas, fn, name="round")


def scale(a, c):
    """Componentwise multiple c * a of a field; c must be positive."""
    if not np.isscalar(c) and np.ndim(c) != 0:
        raise DomainError("scale: c must be a scalar")
    c = float(c)
    if c <= 0.0 or not math.isfinite(c):
        raise DomainError("scale: factor must be positive and finite")
    if a.kind == "sampled":
        samples = {ch: c * v for ch, v in a._samples.items()}
        return SphereMetricField.from_samples(a.atlas, samples, name=a.name,
                                              is_metric=a.is_metric)
    fn = lambda chart, x: c * a.components(chart, x)
    return SphereMetricField.from_function(a.atlas, fn, name=a.name,
                                           is_metric=a.is_metric)


@dataclass(frozen=True)
class RadialMetric:
    """A centered metric g = g_r + dr^2 given by its warped cuts r -> g_r."""

    sphere_dim: int
    atlas: object
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


def euclidean_radial(atlas):
    """g_r = r^2 * round metric (the flat metric in polar form)."""
    sigma = round_metric(atlas)
    return RadialMetric(sphere_dim=atlas.dim, atlas=atlas, domain=(0.0, 350.0),
                        name="euclidean",
                        _cut=lambda r: scale(sigma, r * r))


def sinh_warped_radial(atlas, gprime, name="sinh-warped", r_max=350.0):
    """g_r = sinh(r)^2 * g' for a fixed field g' (warped-by-sinh metric)."""
    return RadialMetric(sphere_dim=atlas.dim, atlas=atlas, domain=(0.0, r_max),
                        name=name,
                        _cut=lambda r: scale(gprime, math.sinh(r) ** 2))


def hyperbolic_radial(atlas):
    """g_r = sinh(r)^2 * round metric (constant-curvature -1 space)."""
    return sinh_warped_radial(atlas, round_metric(atlas), name="hyperbolic")


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


def c2_sups(delta, steps, periodic=None, mask=None):
    """(c0, c1, c2) sups for a difference array over a structured grid.

    ``delta`` has one or two leading grid axes followed by arbitrary
    component axes; ``steps`` gives the grid spacing per grid axis.  A
    periodic axis is differenced with wraparound, a bounded one on its
    interior.  ``mask`` (over the grid axes) restricts all sups.

    Each periodic axis is padded once with one wrapped layer on either
    side, so every forward, backward, mid and cross stencil is a view of
    that one copy.  The division by the stencil's step factor is taken
    after the sup: correctly rounded division by a positive number is
    monotone, so ``max|x| / c`` equals ``max|x / c|`` bit for bit.  An
    exactly zero ``delta`` (no mask) returns ``(0.0, 0.0, 0.0)`` at once.
    A NaN anywhere a stencil reaches makes that sup NaN; it is never
    dropped.
    """
    delta = np.asarray(delta, dtype=float)
    n_axes = len(steps)
    periodic = tuple(periodic or (False,) * n_axes)
    comp_axes = tuple(range(n_axes, delta.ndim))

    def sup(arr, region, factor=1.0):
        """sup |arr| / |factor| over ``region`` (slices of the grid axes)
        where the mask holds; ``arr`` is a temporary and is overwritten."""
        if mask is None:
            if arr.size == 0:
                return 0.0
            top = np.max(np.abs(arr, out=arr))
        else:
            m = mask[region]
            if not np.any(m):
                return 0.0
            vals = np.abs(arr, out=arr)
            if comp_axes:
                vals = np.max(vals, axis=comp_axes)
            top = np.max(vals[m])
        return float(top / abs(factor))

    if mask is None:
        c0 = float(np.max(np.abs(delta))) if delta.size else 0.0
        if c0 == 0.0:
            return 0.0, 0.0, 0.0
    else:
        c0 = sup(delta.copy(), (slice(None),) * n_axes)

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

    def region(differenced):
        """Evaluation points in unpadded grid coordinates: the interior of
        every differenced bounded axis, everything elsewhere."""
        return tuple(slice(1, -1) if ax in differenced and not periodic[ax]
                     else slice(None) for ax in range(n_axes))

    sups1, sups2 = [], []
    for ax in range(n_axes):
        h = steps[ax]
        fwd, bwd, mid = (view([off if a == ax else None
                               for a in range(n_axes)])
                         for off in (1, -1, 0))
        where = region((ax,))
        sups1.append(sup(fwd - bwd, where, 2.0 * h))
        d2 = 2.0 * mid
        np.subtract(fwd, d2, out=d2)
        d2 += bwd
        sups2.append(sup(d2, where, h * h))

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
        sups2.append(sup(dxy, region((0, 1)), 4.0 * h0 * h1))

    return c0, max_carrying_nan(*sups1), max_carrying_nan(*sups2)


def _require_same_atlas(a, b):
    if a.atlas.atlas_id != b.atlas.atlas_id:
        raise DomainError(
            f"fields live on different atlases "
            f"({a.atlas.atlas_id} vs {b.atlas.atlas_id})")


def c2_distance(a, b, resolution=None, step=None):
    """Grid C^2 distance between two fields over the same atlas.

    The comparison grid spans each chart's interior with ``resolution``
    points per axis; the finite-difference step is the grid spacing (a
    ``step`` argument incompatible with it, or larger than half the chart
    margin, is rejected).  Points within the margin of a chart boundary
    are covered by the other chart's interior instead.
    """
    _require_same_atlas(a, b)
    atlas = a.atlas
    n = resolution or atlas.default_resolution
    for f in (a, b):
        if f.kind == "sampled" and f.resolution != n:
            raise DomainError(
                f"sampled field resolution {f.resolution} != grid {n}")
    axis = atlas.interior_grid(n)
    h = float(axis[1] - axis[0])
    if step is not None and abs(step - h) > 1e-12 * h:
        raise DomainError(
            f"step {step} incompatible with grid spacing {h}")
    if h > atlas.margin / 2.0:
        raise DomainError(
            f"step {h:.4g} too large for chart margin {atlas.margin:.4g}")

    c0 = c1 = c2 = 0.0
    for chart in atlas.chart_ids:
        delta = np.asarray(a.grid_components(chart, n), dtype=float) \
            - np.asarray(b.grid_components(chart, n), dtype=float)
        if atlas.dim == 1:
            s0, s1, s2 = c2_sups(delta, (h,))
        else:
            mask = atlas.interior_mask(axis)
            s0, s1, s2 = c2_sups(delta, (h, h), mask=mask)
        c0 = max_carrying_nan(c0, s0)
        c1 = max_carrying_nan(c1, s1)
        c2 = max_carrying_nan(c2, s2)
    return C2Distance(c0=c0, c1=c1, c2=c2, grid_resolution=n, fd_step=h)


def positivity_check(a, resolution=None):
    """Minimum eigenvalue of the component matrix over the grid.

    Returns (passed, min_eigenvalue); passes iff the minimum is > 0, so a
    NaN anywhere on the grid makes the minimum NaN and fails.
    """
    atlas = a.atlas
    n = resolution or atlas.default_resolution
    worst = math.inf
    for chart in atlas.chart_ids:
        g = np.asarray(a.grid_components(chart, n), dtype=float)
        if atlas.dim == 1:
            eigmin = g[..., 0, 0]
        else:
            half_tr = 0.5 * (g[..., 0, 0] + g[..., 1, 1])
            rad = np.sqrt((0.5 * (g[..., 0, 0] - g[..., 1, 1])) ** 2
                          + g[..., 0, 1] ** 2)
            eigmin = half_tr - rad
            eigmin = np.where(atlas.interior_mask(atlas.interior_grid(n)),
                              eigmin, np.inf)
        worst = min_carrying_nan(worst, float(np.min(eigmin)))
    return worst > 0.0, worst

