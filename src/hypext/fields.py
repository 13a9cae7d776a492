"""Closed-form symmetric bilinear-form fields on the circle.

A field is a closed-form, 2 pi-periodic function of the circle angle: it
maps an array of angles to the array, of the same shape, of its one
component ``g(d/dangle, d/dangle)`` there.

On top of the field type the module implements the round form and the
grid C^2 distance over two overlapping sampling windows that cover the
circle.  Its kernel ``c2_sups`` also serves the join sheets of
``extension.join_c2_distance``, periodic in phi and bounded in beta.

Every evaluation of a field (``at_angles``, ``components``) returns a
fresh array that the caller owns and may write into: the next evaluation
is unaffected.  Fields built on another field's evaluation rely on this
and transform it in place (the bump family's ``1 + a * T``).

The phi and beta axes of the join chart (``extension.join_grid``) are
read-only views of immutable ``bytes``.  A cos2 bump family computes its
cos^2 row once for the last such axis it is evaluated on and forms
``1 + a * T`` from that row in every later beta column, still into a
fresh array; any other angles are evaluated afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import max_carrying_nan

# The sampling windows are the arcs |angle - centre| <= 3 pi/5 about the
# centres 0 and pi, each sampled at ``centre + _WINDOW_AXIS``.  They
# cover the circle and overlap by pi/5 at either end, so every point within
# MARGIN = 3 pi/20 of a window's end is interior to the other window.
# ``c2_distance`` samples each window at BOUNDARY_RESOLUTION points, whose
# spacing must not exceed MARGIN / 2 (17 points meet it exactly).
WINDOW_CENTRES = (0.0, math.pi)
INTERIOR_HALF_WIDTH = 0.60 * math.pi
MARGIN = 0.75 * math.pi - INTERIOR_HALF_WIDTH
BOUNDARY_RESOLUTION = 128


# the offsets of ``c2_distance``'s windows from their centres, evenly
# spaced with both ends included, built once and read-only
_WINDOW_AXIS = np.linspace(-INTERIOR_HALF_WIDTH, INTERIOR_HALF_WIDTH,
                           BOUNDARY_RESOLUTION)
_WINDOW_AXIS.flags.writeable = False


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

    # ``components`` is the same evaluation, called by fields built on this
    # one and by the sampling windows; perfbench traces all three methods by
    # name and pins the ``at_angles`` count to the pipeline's own calls
    def components(self, angles):
        return self._fn(np.asarray(angles, dtype=float))

    def grid_components(self, centre):
        """The field on the sampling window about ``centre``."""
        return self.components(_WINDOW_AXIS + centre)


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
    differences over the interior grids."""

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
    """(c0, c1, c2) sups of a difference array on one of the two grids the
    program differences, ``steps`` giving the spacing per axis: a bounded
    1-D circle window, differenced on its interior, or a 2-D join sheet
    (phi, beta), periodic in phi and bounded in beta.

    A window's stencils are slices of ``delta``.  A sheet is padded with
    one wrapped phi row on either side and the C-ordered pad is read as
    one flat vector, so that every phi, beta and cross stencil is one
    contiguous slice of it, computed over the flat span from its first to
    its last point into a scratch buffer allocated with the pad; the two
    lanes between rows (the beta ends) are zeroed before each sup.  At
    192x384 this flat beta stencil takes half the time of a 2-D slice.

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
        if delta.size < 3:
            return c0, 0.0, 0.0
        c1, c2 = _first_and_second(delta[2:], delta[1:-1], delta[:-2],
                                   np.empty(delta.size - 2), steps[0])
        return c0, c1, c2

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

    hphi, hbeta = steps
    phi1, phi2 = _first_and_second(flat[2 * cols:], flat[cols:-cols],
                                   flat[:-2 * cols], scratch[:-2 * cols],
                                   hphi)
    if cols < 3:
        return c0, max_carrying_nan(phi1, 0.0), max_carrying_nan(phi2, 0.0)
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
    """Grid C^2 distance between two circle fields.

    Each sampling window is spanned by BOUNDARY_RESOLUTION points, offsets
    from its centre that are built once, at import, as a read-only axis;
    the finite-difference step is their spacing, at most half of MARGIN,
    so points within MARGIN of a window's end are interior to the other
    window instead.
    """
    h = float(_WINDOW_AXIS[1] - _WINDOW_AXIS[0])
    sups = [c2_sups(a.grid_components(centre) - b.grid_components(centre),
                    (h,))
            for centre in WINDOW_CENTRES]
    c0, c1, c2 = (max_carrying_nan(*col) for col in zip(*sups))
    return C2Distance(c0=c0, c1=c1, c2=c2)
