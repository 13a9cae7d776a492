import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypext import cli
from hypext import families as fam
from hypext import fields as mf


def _wrap(a):
    """Wrap to (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(a, dtype=float),
                            2.0 * math.pi)


# ---------------------------------------------------------------------------
# sampling windows
# ---------------------------------------------------------------------------

def test_circle_atlas_covers_with_margin():
    angles = np.linspace(-math.pi, math.pi, 5000)
    # every angle lies in some window, within INTERIOR_HALF_WIDTH of its
    # centre
    best = np.min([np.abs(_wrap(angles - c)) for c in mf.WINDOW_CENTRES],
                  axis=0)
    assert np.all(best <= mf.INTERIOR_HALF_WIDTH + 1e-12)
    assert mf.MARGIN == pytest.approx(0.15 * math.pi)
    # the windows overlap by 2 (INTERIOR_HALF_WIDTH - pi/2) on either side;
    # a step within the margin check leaves more than two steps there
    overlap = 2.0 * mf.INTERIOR_HALF_WIDTH - math.pi
    assert overlap > 2.0 * (mf.MARGIN / 2.0)
    x = mf._WINDOW_AXIS
    assert x.shape == (mf.BOUNDARY_RESOLUTION,)
    assert x[0] == -mf.INTERIOR_HALF_WIDTH
    assert x[-1] == mf.INTERIOR_HALF_WIDTH
    assert not x.flags.writeable


def _stereo_point(chart, w):
    """The point of the unit 2-sphere with coordinates w in a chart."""
    q = np.sum(w * w, axis=-1)
    x = 2.0 * w[..., 0] / (1.0 + q)
    y = 2.0 * w[..., 1] / (1.0 + q)
    z = (1.0 - q) / (1.0 + q)
    if chart == "north":
        return np.stack([x, y, z], axis=-1)
    return np.stack([x, -y, -z], axis=-1)


def test_sphere_atlas_point_round_trip(sphere_atlas):
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.4, 1.4, size=(500, 2))
    w = w[np.linalg.norm(w, axis=1) < 1.45]
    p = _stereo_point("north", w)
    assert np.allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)
    assert np.allclose(sphere_atlas.coords_of("north", p), w, atol=1e-12)
    p2 = _stereo_point("south", w)
    assert np.allclose(sphere_atlas.coords_of("south", p2), w, atol=1e-12)


# ---------------------------------------------------------------------------
# evaluation at circle angles
# ---------------------------------------------------------------------------

def both_chart_at_angles(field, angles):
    """Reference: the wrapped both-chart route to a field's value.  Two arc
    charts centred at 0 and pi have coordinates x = angle - centre wrapped
    to (-pi, pi]; each angle goes to the chart where it is most interior,
    and the field is evaluated at that chart's x + centre."""
    a = np.asarray(angles, dtype=float)
    xe = _wrap(a)
    xw = _wrap(a - math.pi)
    use_west = np.abs(xw) < np.abs(xe)
    return field.at_angles(np.where(use_west, xw + math.pi, xe))


def _angle_fields():
    """(name, field, bound on |d component / d angle|) of the circle fields
    the pipeline evaluates at angles, plus one with period 2 pi only, which
    tells the two charts apart (cos^2 cannot: its period is pi)."""
    family = fam.bump_family("cos2")
    amp = fam.BUMP_AMPLITUDE
    cut = family.cut(5.0, 5.0)              # bump profile at its peak, 1
    period_2pi = mf.SphereMetricField.from_function(
        lambda angles: 2.0 + np.cos(angles))
    return [
        ("round", mf.round_metric(), 0.0),
        ("T-cos2", fam.direction_field("cos2"), 1.0),
        ("bump-cut", cut, amp),
        ("bump-limit", family.limit(0.3), amp),
        ("2+cos", period_2pi, 1.0),
    ]


ANGLE_FIELDS = _angle_fields()
SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi,
                  math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
                  0.6 * math.pi, -0.6 * math.pi, 0.75 * math.pi,
                  -0.75 * math.pi, 0.5 * math.pi, -0.5 * math.pi,
                  1e3, -1e3, math.nan]
EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e3, 1e3),
                          st.sampled_from(SPECIAL_ANGLES)),
                min_size=1, max_size=64))
def test_at_angles_matches_both_chart_reference(angles):
    a = np.array(angles)
    nan = np.isnan(a)
    # the reference wraps the angle with its own roundings, a few ulp of
    # max(|angle|, 2 pi) away from the raw angle; a component moves by at
    # most its angular slope times that, on top of 4 ulp of its own value
    slack = 4.0 * np.spacing(np.maximum(np.abs(a), 2.0 * math.pi))
    for name, field, slope in ANGLE_FIELDS:
        got = field.at_angles(a)
        want = both_chart_at_angles(field, a)
        assert got.shape == want.shape == a.shape, name
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        if slope:
            assert np.all(np.isnan(got[nan])), name
        tol = 4.0 * EPS * np.abs(want) + slope * slack
        assert np.all(np.abs(got - want)[~nan] <= tol[~nan]), name


def _window_fields():
    """(field, fn(centre, x)) for every kind of field the pipeline samples on
    the windows.  fn is the field's formula on the arc chart centred at
    ``centre``, in its coordinate x: cos^2(x + centre) for the cos2
    direction, 1 for the round form, and the same operations on top for
    cuts and limits, the oracle suite's unwarped base cuts among them.  The
    boundary and collar numbers of the reports rest on these bits."""
    amp = fam.BUMP_AMPLITUDE
    one = lambda c, x: np.ones(np.shape(x))
    cos2 = lambda c, x: np.cos(x + c) ** 2
    _, hyper = cli.build_base_metric(SimpleNamespace(family="hyperbolic"))
    out = [pytest.param(mf.round_metric(), one, id="round"),
           pytest.param(hyper(1.7), one, id="hyperbolic-unwarped")]
    for direction, T in (("uniform", one), ("cos2", cos2)):
        family = fam.bump_family(direction)
        out.append(pytest.param(fam.direction_field(direction), T,
                                id=f"T-{direction}"))
        # dyadic offsets, so that rho - lam is exactly b
        for what, field, b in (("cut", family.cut(6.0, 6.25), 0.25),
                               ("limit", family.limit(-0.3), -0.3)):
            a = amp * fam.bump_profile(b)
            out.append(pytest.param(
                field, lambda c, x, a=a, T=T: 1.0 + a * T(c, x),
                id=f"bump-{what}-{direction}"))
        # the oracle's base is the member cli.ORACLE_BASE_LAMBDA = 2
        _, base = cli.build_base_metric(SimpleNamespace(
            family="bump", bump_direction=direction))
        a = amp * fam.bump_profile(0.375)
        out.append(pytest.param(
            base(2.375), lambda c, x, a=a, T=T: 1.0 + a * T(c, x),
            id=f"oracle-unwarped-{direction}"))
    return out


@pytest.mark.parametrize("field,fn", _window_fields())
@pytest.mark.parametrize("n", [24, 127, 128, 256])
def test_grid_components_match_chart_formulas(field, fn, n):
    # the field on a window of n points about each centre, odd n holding
    # the centre itself; ``grid_components`` samples the window of
    # BOUNDARY_RESOLUTION points
    axis = np.linspace(-mf.INTERIOR_HALF_WIDTH, mf.INTERIOR_HALF_WIDTH, n)
    for centre in mf.WINDOW_CENTRES:
        got = np.asarray(field.components(axis + centre))
        if n == mf.BOUNDARY_RESOLUTION:
            assert axis.tobytes() == mf._WINDOW_AXIS.tobytes()
            got = np.asarray(field.grid_components(centre))
        want = fn(centre, axis)
        assert got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes(), centre


# ---------------------------------------------------------------------------
# the grid C^2 kernel against the roll-based reference
# ---------------------------------------------------------------------------

def roll_c2_sups(delta, steps, periodic=None):
    """Reference kernel: every stencil built with np.roll and every
    difference divided before its sup.  Results of ``mf.c2_sups`` must
    equal it bit for bit on finite input."""
    delta = np.asarray(delta, dtype=float)
    n_axes = len(steps)
    periodic = periodic or (False,) * n_axes

    def sup(arr):
        return float(np.max(np.abs(arr))) if arr.size else 0.0

    c0 = sup(delta)

    c1 = 0.0
    c2 = 0.0
    slices_all = [slice(None)] * delta.ndim

    def ax_slice(axis, sl):
        s = list(slices_all)
        s[axis] = sl
        return tuple(s)

    for ax in range(n_axes):
        h = steps[ax]
        if periodic[ax]:
            fwd = np.roll(delta, -1, axis=ax)
            bwd = np.roll(delta, 1, axis=ax)
            mid = delta
        else:
            fwd = delta[ax_slice(ax, slice(2, None))]
            bwd = delta[ax_slice(ax, slice(None, -2))]
            mid = delta[ax_slice(ax, slice(1, -1))]
        d1 = (fwd - bwd) / (2.0 * h)
        d2 = (fwd - 2.0 * mid + bwd) / (h * h)
        c1 = max(c1, sup(d1))
        c2 = max(c2, sup(d2))

    if n_axes == 2:
        h0, h1 = steps
        if all(periodic):
            pp = np.roll(np.roll(delta, -1, 0), -1, 1)
            pm = np.roll(np.roll(delta, -1, 0), 1, 1)
            mp = np.roll(np.roll(delta, 1, 0), -1, 1)
            mm = np.roll(np.roll(delta, 1, 0), 1, 1)
        elif not any(periodic):
            pp = delta[2:, 2:]
            pm = delta[2:, :-2]
            mp = delta[:-2, 2:]
            mm = delta[:-2, :-2]
        else:
            p = 0 if periodic[0] else 1
            b = 1 - p
            rolled_f = np.roll(delta, -1, axis=p)
            rolled_b = np.roll(delta, 1, axis=p)
            pp = rolled_f[ax_slice(b, slice(2, None))]
            pm = rolled_b[ax_slice(b, slice(2, None))]
            mp = rolled_f[ax_slice(b, slice(None, -2))]
            mm = rolled_b[ax_slice(b, slice(None, -2))]
        dxy = (pp - pm - mp + mm) / (4.0 * h0 * h1)
        c2 = max(c2, sup(dxy))

    return c0, c1, c2


def assert_bit_identical(got, want):
    assert got == want
    # repr round-trips a float exactly and tells 0.0 from -0.0
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert all(type(v) is float for v in got)


# the two grids the kernel serves, as the reference's ``periodic``: a
# bounded circle window and a join sheet, periodic in phi, bounded in beta
WINDOW, SHEET = (False,), (True, False)

# every layout of the reference, and the component axes a field may carry
# after its grid axes
PERIODIC_1 = [(False,), (True,)]
PERIODIC_2 = [(False, False), (True, False), (False, True), (True, True)]
COMPONENT_SHAPES = [(), (1, 1), (2, 2)]


def served_layout(delta, steps, periodic):
    """``delta`` on a reference layout, as (array, steps) on a grid the
    kernel serves with the same stencils, each in the reference's term
    order: a periodic circle is a sheet of one beta column, a (bounded,
    periodic) grid its transposed sheet, and a periodic x periodic grid
    the transposed sheet of its first axis wrapped by one entry at either
    end.  A bounded x bounded grid has no such layout."""
    if periodic == (True,):
        return delta[:, None], (steps[0], 1.0)
    if periodic == (False, True):
        return delta.T, steps[::-1]
    if periodic == (True, True):
        return np.concatenate([delta[-1:], delta, delta[:1]]).T, steps[::-1]
    return delta, steps


def laid_out(layouts):
    """The layouts of ``layouts`` that ``served_layout`` takes, as
    parameters whose ids count every layout in order."""
    return [pytest.param(p, id=f"periodic{i}")
            for i, p in enumerate(layouts) if p != (False, False)]


def kernel_sups(delta, steps, periodic):
    """``mf.c2_sups`` of an array with trailing component axes: each
    component, a strided view of ``delta``, on its served layout, and the
    sups folded as ``extension.join_c2_distance`` folds its slots."""
    n = len(periodic)
    sups = [mf.c2_sups(*served_layout(delta[(Ellipsis,) + idx], steps,
                                      periodic))
            for idx in np.ndindex(*delta.shape[n:])]
    return tuple(mf.max_carrying_nan(*col) for col in zip(*sups))


@st.composite
def kernel_cases(draw):
    periodic = draw(st.sampled_from([WINDOW, SHEET]))
    grid = tuple(draw(st.integers(1, 8)) for _ in periodic)
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    flat = draw(st.lists(values, min_size=int(np.prod(grid)),
                         max_size=int(np.prod(grid))))
    delta = np.array(flat, dtype=float).reshape(grid)
    steps = tuple(draw(st.floats(1e-3, 2.0)) for _ in periodic)
    return delta, steps, periodic


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_c2_sups_matches_roll_reference(case):
    delta, steps, periodic = case
    want = roll_c2_sups(delta, steps, periodic=periodic)
    got = mf.c2_sups(delta, steps)
    assert_bit_identical(got, want)


def _corners_and_edges(shape):
    """Grid indices on every edge and in every corner of the grid."""
    picks = []
    for idx in np.ndindex(*shape):
        if any(i in (0, n - 1) for i, n in zip(idx, shape)):
            picks.append(idx)
    return picks


@pytest.mark.parametrize("periodic", laid_out(PERIODIC_2))
@pytest.mark.parametrize("comps", COMPONENT_SHAPES)
@pytest.mark.parametrize("read_only", [False, True])
def test_c2_sups_single_entry_on_edges_and_corners_2d(periodic, comps,
                                                      read_only):
    # one nonzero entry at the grid's rim: a wrong wrap shows at once; a
    # read-only input shows that the kernel never writes into it
    shape = (5, 6)
    steps = (0.3, 0.07)
    for idx in _corners_and_edges(shape):
        delta = np.zeros(shape + comps)
        delta[idx] = 1.25
        delta.flags.writeable = not read_only
        before = delta.copy()
        want = roll_c2_sups(delta, steps, periodic=periodic)
        got = kernel_sups(delta, steps, periodic)
        assert_bit_identical(got, want)
        assert np.array_equal(delta, before)


@pytest.mark.parametrize("periodic", laid_out(PERIODIC_1))
@pytest.mark.parametrize("comps", COMPONENT_SHAPES)
def test_c2_sups_single_entry_on_edges_1d(periodic, comps):
    for i in (0, 1, 5, 6):
        delta = np.zeros((7,) + comps)
        delta[i] = -3.0
        delta.flags.writeable = False
        want = roll_c2_sups(delta, (0.2,), periodic=periodic)
        got = kernel_sups(delta, (0.2,), periodic)
        assert_bit_identical(got, want)


@pytest.mark.parametrize("periodic", laid_out(PERIODIC_1 + PERIODIC_2))
@pytest.mark.parametrize("read_only", [False, True])
def test_c2_sups_all_zero_is_zero(periodic, read_only):
    shape = (6,) * len(periodic)
    steps = (0.1,) * len(periodic)
    for delta in (np.zeros(shape + (2, 2)), -np.zeros(shape)):
        delta.flags.writeable = not read_only
        got = kernel_sups(delta, steps, periodic)
        assert_bit_identical(got, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("periodic", laid_out(PERIODIC_1 + PERIODIC_2))
def test_c2_sups_carries_nan(periodic):
    # every sup whose stencils reach the NaN is NaN; the roll-based
    # reference drops it from c1 and c2
    shape = (6,) * len(periodic)
    steps = (0.1,) * len(periodic)
    for idx in [(0,) * len(periodic), (3,) * len(periodic)]:
        delta = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
        delta[idx] = math.nan
        c0, c1, c2 = mf.c2_sups(*served_layout(delta, steps, periodic))
        assert math.isnan(c0) and math.isnan(c1) and math.isnan(c2)


@pytest.mark.parametrize("seed", range(20))
def test_c2_sups_cross_term_keeps_subtraction_order(seed):
    # a field dominated by its mixed derivative, where the rounding of the
    # cross stencil depends on the order of its four terms
    rng = np.random.default_rng(seed)
    phi = 2.0 * math.pi * np.arange(12) / 12
    beta = 0.01 * np.arange(10)
    delta = (np.sin(phi)[:, None] * beta[None, :]
             + rng.uniform(-1e-12, 1e-12, (12, 10)))
    steps = (2.0 * math.pi / 12, 0.01)
    assert_bit_identical(mf.c2_sups(delta, steps),
                         roll_c2_sups(delta, steps, periodic=SHEET))


def _layouts(grid, comps, rng):
    """(name, array of shape grid + comps) in memory layouts that are not
    C-contiguous: a transpose, a stride-0 sheet such as
    ``extension._slot_difference`` broadcasts (constant along the first
    grid axis, as a block_beta difference is along phi), and a strided
    slice of a larger array."""
    shape = grid + comps
    n = len(shape)
    transposed = rng.uniform(-1.0, 1.0, shape[::-1]).transpose()
    sheet = np.broadcast_to(rng.uniform(-1.0, 1.0, (1,) + shape[1:]), shape)
    big = rng.uniform(-1.0, 1.0, tuple(3 * k + 1 for k in shape))
    strided = big[(slice(1, None, 3),) * n]
    return [("transposed", transposed), ("stride-0 sheet", sheet),
            ("strided", strided)]


@pytest.mark.parametrize("periodic", laid_out(PERIODIC_1 + PERIODIC_2))
@pytest.mark.parametrize("comps", COMPONENT_SHAPES)
def test_c2_sups_non_contiguous_input_matches_reference(periodic, comps):
    rng = np.random.default_rng(11)
    grid = (5, 7)[:len(periodic)]
    steps = (0.3, 0.07)[:len(periodic)]
    for name, delta in _layouts(grid, comps, rng):
        assert delta.shape == grid + comps, name
        if name != "transposed" or sum(k > 1 for k in delta.shape) > 1:
            assert not delta.flags.c_contiguous, name
        want = roll_c2_sups(delta, steps, periodic=periodic)
        got = kernel_sups(delta, steps, periodic)
        assert_bit_identical(got, want)
        assert_bit_identical(
            kernel_sups(np.ascontiguousarray(delta), steps, periodic), got)


@pytest.mark.parametrize("periodic", laid_out(PERIODIC_1 + PERIODIC_2))
@pytest.mark.parametrize("comps", COMPONENT_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_c2_sups_row_seams_never_leak(periodic, comps, seed):
    # finite values of random sign near 1e300 on the first and last two
    # columns, small ones inside: the stencil lanes between rows (the
    # columns outside the evaluation region) would hold sums of up to four
    # of them, larger than any sup of the evaluation region, were they not
    # zeroed.  Nothing here overflows, so neither kernel may warn.
    rng = np.random.default_rng(seed)
    grid = (6, 5)[-len(periodic):]
    delta = rng.uniform(-1e-3, 1e-3, grid + comps)
    edges = rng.choice([-1.0, 1.0], (grid[:-1] + (4,) + comps))
    edge_columns = (Ellipsis, [0, 1, -2, -1]) + (slice(None),) * len(comps)
    delta[edge_columns] = 1e300 * edges * rng.uniform(0.9, 1.0, edges.shape)
    steps = (0.3, 0.07)[-len(periodic):]
    with warnings.catch_warnings(record=True) as ref_warned:
        warnings.simplefilter("always")
        want = roll_c2_sups(delta, steps, periodic=periodic)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        got = kernel_sups(delta, steps, periodic)
    assert ref_warned == []
    assert [str(w.message) for w in warned] == []
    assert_bit_identical(got, want)


def test_c2_sups_results_do_not_alias_the_scratch():
    # each sup is a Python float taken out of the scratch buffer: a later
    # call, which fills a scratch of the same size, leaves it as it was
    rng = np.random.default_rng(5)
    steps = (0.3, 0.07)
    first = mf.c2_sups(rng.uniform(-1.0, 1.0, (8, 9)), steps)
    kept = [repr(v) for v in first]
    mf.c2_sups(rng.uniform(-1e3, 1e3, (8, 9)), steps)
    assert [repr(v) for v in first] == kept
    assert all(type(v) is float for v in first)


def _stride0_view(src, shape, strides, read_only):
    """A view of src with the given shape and strides (0 where it repeats
    src), writeable or read-only."""
    return np.lib.stride_tricks.as_strided(src, shape, strides,
                                           writeable=not read_only)


def _broadcast_cases(read_only):
    """(view, steps) for views with stride-0 axes, as the join slots are:
    stride 0 on every axis of a sheet or a window, and a sheet viewed from
    a vector along either of its axes."""
    rng = np.random.default_rng(11)
    n_phi, n_beta = 12, 9
    vectors = [rng.uniform(-2.0, 2.0, n_beta), -np.zeros(n_beta),
               np.array([0.0, -0.0] * 4 + [0.0])]
    nan_vec = rng.uniform(-2.0, 2.0, n_beta)
    nan_vec[4] = math.nan
    vectors.append(nan_vec)
    cases = []
    for value in (0.0, -0.0, 0.75, math.nan):
        src = np.array([value])
        for shape in ((n_phi, n_beta), (n_phi,)):
            cases.append((_stride0_view(src, shape, (0,) * len(shape),
                                        read_only),
                          (0.3, 0.07)[:len(shape)]))
    for vec in vectors:
        along_beta = _stride0_view(vec, (n_phi, n_beta), (0, 8), read_only)
        along_phi = _stride0_view(np.resize(vec, n_phi), (n_phi, n_beta),
                                  (8, 0), read_only)
        for view in (along_beta, along_phi):
            cases.append((view, (0.3, 0.07)))
    return cases


@pytest.mark.parametrize("read_only", [False, True])
def test_c2_sups_broadcast_view_matches_its_copy(read_only):
    # c0 is read from the distinct elements of a stride-0 view: the sups,
    # NaN and the sign of zero included, are those of a contiguous copy
    for view, steps in _broadcast_cases(read_only):
        assert 0 in view.strides
        assert view.flags.writeable is not read_only
        copy = np.ascontiguousarray(view)
        got = mf.c2_sups(view, steps)
        want = mf.c2_sups(copy, steps)
        assert [repr(v) for v in got] == [repr(v) for v in want]
        assert all(type(v) is float for v in got)
        assert np.array_equal(view, copy, equal_nan=True)


def test_c2_distance_max_carries_nan():
    for values in [(math.nan, 0.0, 0.0), (0.0, math.nan, 1.0),
                   (0.0, 1.0, math.nan)]:
        d = mf.C2Distance(*values)
        assert math.isnan(d.max())
    assert mf.C2Distance(1e-3, 2e-3, 0.0).max() == 2e-3
    assert math.isnan(mf.max_carrying_nan(0.0, math.nan))
    assert mf.max_carrying_nan(0.0, -0.0, 3.0) == 3.0


# ---------------------------------------------------------------------------
# C^2 distance
# ---------------------------------------------------------------------------

def test_c2_distance_identity_is_zero():
    sigma = mf.round_metric()
    d = mf.c2_distance(sigma, sigma)
    assert (d.c0, d.c1, d.c2) == (0.0, 0.0, 0.0)


def test_c2_distance_pure_scaling():
    eps = 1e-3
    sigma = mf.round_metric()
    scaled = mf.SphereMetricField.from_function(
        lambda angles: (1.0 + eps) * np.ones(np.shape(angles)))
    d = mf.c2_distance(sigma, scaled)
    # round circle components are identically 1, so c0 = eps exactly and
    # the difference is constant
    assert d.c0 == pytest.approx(eps, rel=1e-12)
    assert d.c1 < 1e-15 and d.c2 < 1e-10


def test_c2_distance_symmetry_and_triangle():
    def mk(a_amp, b_amp):
        def comp(ang):
            return 1.0 + a_amp * np.cos(ang) + b_amp * np.sin(2 * ang)
        return mf.SphereMetricField.from_function(comp)
    A, B, C = mk(0.1, 0.0), mk(0.0, 0.2), mk(0.05, -0.1)
    dab = mf.c2_distance(A, B)
    dba = mf.c2_distance(B, A)
    assert (dab.c0, dab.c1, dab.c2) == (dba.c0, dba.c1, dba.c2)
    dac = mf.c2_distance(A, C)
    dcb = mf.c2_distance(C, B)
    for k in ("c0", "c1", "c2"):
        assert getattr(dab, k) <= getattr(dac, k) + getattr(dcb, k) + 1e-12


def test_c2_distance_through_other_chart():
    # a field vs the same field at its angle taken through the other
    # window's centre (a shift by pi, a wrap and a shift back): the same
    # tensor two ways, must agree
    field = mf.SphereMetricField.from_function(
        lambda angles: 1.0 + 0.3 * np.cos(angles))
    moved = mf.SphereMetricField.from_function(
        lambda angles: field.components(_wrap(angles - math.pi) + math.pi))
    d = mf.c2_distance(field, moved)
    assert d.max() < 1e-8


def test_boundary_resolution_spacing_meets_margin():
    # every point within MARGIN of a window's end must lie two steps inside
    # the other window, so the step c2_distance takes is at most MARGIN / 2
    axis = mf._WINDOW_AXIS
    h = float(axis[1] - axis[0])
    assert h <= mf.MARGIN / 2.0


def test_c2_distance_matches_roll_reference():
    # end to end: each window sampled and differenced, then the sups of
    # both windows folded, equal to the reference kernel bit for bit
    family = fam.bump_family("cos2")
    cut, limit = family.cut(6.0, 6.25), family.limit(-0.3)
    axis = mf._WINDOW_AXIS
    h = float(axis[1] - axis[0])
    sups = [roll_c2_sups(cut.components(axis + c) - limit.components(axis + c),
                         (h,))
            for c in mf.WINDOW_CENTRES]
    want = [mf.max_carrying_nan(*col) for col in zip(*sups)]
    d = mf.c2_distance(cut, limit)
    assert want[0] > 0.0 and want[2] > 0.0
    assert_bit_identical((d.c0, d.c1, d.c2), tuple(want))


def test_c2_distance_carries_nan_of_the_second_window():
    # NaN only within pi/3 of the angle pi: the window about 0 gives finite
    # sups, the window about pi, which comes last, gives NaN ones; a
    # builtin max fold would drop them
    field = mf.SphereMetricField.from_function(
        lambda angles: np.where(np.cos(angles) < -0.5, math.nan, 1.0))
    h = float(mf._WINDOW_AXIS[1] - mf._WINDOW_AXIS[0])
    first = mf.c2_sups(field.grid_components(0.0) - 1.0, (h,))
    assert not any(math.isnan(v) for v in first)
    d = mf.c2_distance(field, mf.round_metric())
    assert math.isnan(d.c0) and math.isnan(d.c1) and math.isnan(d.c2)
