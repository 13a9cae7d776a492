"""Closed-form symmetric bilinear-form fields on the circle.

A field is a closed-form, 2 pi-periodic function of the circle angle: it
maps an array of angles to the array, of the same shape, of its one
component ``g(d/dangle, d/dangle)`` there.

On top of the field type the module implements the round form, a
positivity check, and the grid realization of the C^2 distance: sups of
component differences and of their first and second central differences
over two overlapping sampling windows that cover the circle.

Every evaluation of a field (``at_angles``, ``components``) returns a
fresh array that the caller owns and may write into: the next evaluation
is unaffected.  Fields built on another field's evaluation rely on this
and transform it in place (the bump family's ``1 + a * T``).

The phi and beta axes of the join chart (``extension.join_grid``) are
read-only arrays that own their data.  A cos2 bump family computes its
cos^2 row once for the last such axis it is evaluated on and forms
``1 + a * T`` from that row in every later beta column, still into a
fresh array; writeable or 0-d angles are evaluated afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import max_carrying_nan, min_carrying_nan

# The sampling windows are the arcs |angle - centre| <= 3 pi/5 about the
# centres 0 and pi, each sampled by ``centre + interior_grid(n)``.  They
# cover the circle and overlap by pi/5 at either end, so every point within
# MARGIN = 3 pi/20 of a window's end is interior to the other window.
# ``c2_distance`` samples each window at BOUNDARY_RESOLUTION points, whose
# spacing must not exceed MARGIN / 2 (17 points meet it exactly).
WINDOW_CENTRES = (0.0, math.pi)
INTERIOR_HALF_WIDTH = 0.60 * math.pi
MARGIN = 0.75 * math.pi - INTERIOR_HALF_WIDTH
BOUNDARY_RESOLUTION = 128


def interior_grid(n):
    """n evenly spaced offsets from a window centre, ends included."""
    return np.linspace(-INTERIOR_HALF_WIDTH, INTERIOR_HALF_WIDTH, n)


# the offsets of ``c2_distance``'s windows, built once and read-only
_WINDOW_AXIS = interior_grid(BOUNDARY_RESOLUTION)
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

    def grid_components(self, centre, n):
        return self.components(interior_grid(n) + centre)


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
    differences over the interior grids, and the finite-difference step
    they were taken with."""

    c0: float
    c1: float
    c2: float
    fd_step: float

    def max(self):
        return max_carrying_nan(self.c0, self.c1, self.c2)


def _sup(x, factor):
    """sup |x| / |factor|, NaN if x holds one; max(max x, -min x) reads x
    twice and writes nothing, and ``abs`` folds its -0.0.  The reductions
    are the ufuncs' own, without the ``ndarray.max`` wrapper."""
    return float(abs(max(np.maximum.reduce(x), -np.minimum.reduce(x)))
                 / abs(factor))


def c2_sups(delta, steps, periodic=None):
    """(c0, c1, c2) sups for a difference array over a structured grid.

    ``delta`` has one or two leading grid axes followed by arbitrary
    component axes; ``steps`` gives the grid spacing per grid axis.  A
    periodic axis is differenced with wraparound, a bounded one on its
    interior.

    Each periodic axis is padded once with one wrapped layer on either
    side, and the C-ordered pad is read as one flat vector: a grid
    neighbour is then a fixed element offset, so every forward, backward,
    mid and cross stencil is a contiguous 1-D slice of that vector.  Each
    stencil is computed over the flat span from its first to its last
    evaluation point into one scratch buffer, allocated with the pad; the
    lanes of that span that fall between rows (the columns outside the
    evaluation region) are zeroed before the sup.  A sup is
    ``max(max x, -min x)`` of the buffer, its sign of zero folded by
    ``abs``, and is divided by the stencil's step factor afterwards:
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
    n_axes = len(steps)
    periodic = tuple(periodic or (False,) * n_axes)

    distinct = delta
    if 0 in delta.strides:
        distinct = delta[tuple(slice(None) if st else slice(0, 1)
                               for st in delta.strides)]
    c0 = float(abs(max(np.maximum.reduce(distinct, axis=None),
                       -np.minimum.reduce(distinct, axis=None)))) \
        if delta.size else 0.0
    if c0 == 0.0:
        return 0.0, 0.0, 0.0

    # one allocation holds the pad, with one wrapped layer on each side of
    # every periodic axis, and the scratch that each stencil is computed
    # in: a second large array per call is often mapped afresh and faulted
    # in page by page, which at 192x384 cost more than the stencils
    comps = delta.shape[n_axes:]
    pad_shape = tuple(n + 2 * w for n, w in zip(delta.shape, periodic))
    size = math.prod(pad_shape + comps)
    work = np.empty(2 * size)
    flat, scratch = work[:size], work[size:]
    padded = flat.reshape(pad_shape + comps)
    inner = tuple(slice(1, -1) if w else slice(None) for w in periodic)
    padded[inner] = delta
    for ax in range(n_axes):
        if periodic[ax]:
            lead = (slice(None),) * ax
            padded[lead + (0,)] = padded[lead + (-2,)]
            padded[lead + (-1,)] = padded[lead + (1,)]

    # the pad as rows x cols cells of ``comp`` elements in C order; a single
    # grid axis is one bounded row
    (rows, cols), (wrap_rows, wrap_cols) = (
        (pad_shape, periodic) if n_axes == 2
        else ((1,) + pad_shape, (False,) + periodic))
    comp = math.prod(comps)
    row = cols * comp

    def region(r0, q0):
        """The evaluation rows [r0, rows - r0) and columns [q0, cols - q0)
        as (flat index of their first element, length of the flat span to
        their last, the span's seam lanes as scratch rows or None), or
        None if empty.  The seam lanes lie between one row's last
        evaluation column and the next row's first."""
        n_rows, width = rows - 2 * r0, (cols - 2 * q0) * comp
        if n_rows <= 0 or width <= 0:
            return None
        seams = None
        if width < row and n_rows > 1:
            seams = scratch[width:width + (n_rows - 1) * row].reshape(
                n_rows - 1, row)[:, :row - width]
        return r0 * row + q0 * comp, (n_rows - 1) * row + width, seams

    sups1, sups2 = [], []
    for h, off, r0, q0 in ((steps[0], row, 1, int(wrap_cols)),
                           (steps[-1], comp, int(wrap_rows), 1))[2 - n_axes:]:
        box = region(r0, q0)
        if box is None:
            sups1.append(0.0)
            sups2.append(0.0)
            continue
        start, n, seams = box
        fwd = flat[start + off:start + off + n]
        bwd = flat[start - off:start - off + n]
        out = scratch[:n]
        np.subtract(fwd, bwd, out=out)
        if seams is not None:
            seams[...] = 0.0
        sups1.append(_sup(out, 2.0 * h))
        np.multiply(flat[start:start + n], 2.0, out=out)
        np.subtract(fwd, out, out=out)
        out += bwd
        if seams is not None:
            seams[...] = 0.0
        sups2.append(_sup(out, h * h))

    box = region(1, 1) if n_axes == 2 else None
    if box is not None:
        start, n, seams = box
        pm, mp = row - comp, comp - row
        if periodic == (True, False):
            # the rounding of the cross stencil depends on the order of its
            # terms: with the periodic axis first, (-1, +1) is subtracted
            # before (+1, -1), which keeps the results bit-identical to the
            # roll-based reference kernel in tests/test_fields.py
            pm, mp = mp, pm
        pp, mm = row + comp, -row - comp
        out = scratch[:n]
        np.subtract(flat[start + pp:start + pp + n],
                    flat[start + pm:start + pm + n], out=out)
        out -= flat[start + mp:start + mp + n]
        out += flat[start + mm:start + mm + n]
        if seams is not None:
            seams[...] = 0.0
        sups2.append(_sup(out, 4.0 * steps[0] * steps[1]))

    return c0, max_carrying_nan(*sups1), max_carrying_nan(*sups2)


def c2_distance(a, b):
    """Grid C^2 distance between two circle fields.

    Each sampling window is spanned by BOUNDARY_RESOLUTION points, offsets
    from its centre that are built once, at import, as a read-only axis;
    the finite-difference step is their spacing, at most half of MARGIN,
    so points within MARGIN of a window's end are interior to the other
    window instead.
    """
    h = float(_WINDOW_AXIS[1] - _WINDOW_AXIS[0])
    sups = []
    for centre in WINDOW_CENTRES:
        angles = _WINDOW_AXIS + centre  # the window, built once for both
        sups.append(c2_sups(a.components(angles) - b.components(angles),
                            (h,)))
    c0, c1, c2 = (max_carrying_nan(*col) for col in zip(*sups))
    return C2Distance(c0=c0, c1=c1, c2=c2, fd_step=h)


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
