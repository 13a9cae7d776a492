import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypext import families as fam
from hypext import fields as mf
from hypext import hyptrig as ht
from hypext.errors import DomainError

S2 = mf.SPHERE_ATLAS


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
    for n in (24, 128):
        x = mf.interior_grid(n)
        assert x[0] == -mf.INTERIOR_HALF_WIDTH
        assert x[-1] == mf.INTERIOR_HALF_WIDTH


def _stereo_point(chart, w):
    """The point of the unit 2-sphere with coordinates w in a chart."""
    q = np.sum(w * w, axis=-1)
    x = 2.0 * w[..., 0] / (1.0 + q)
    y = 2.0 * w[..., 1] / (1.0 + q)
    z = (1.0 - q) / (1.0 + q)
    if chart == "north":
        return np.stack([x, y, z], axis=-1)
    return np.stack([x, -y, -z], axis=-1)


def test_sphere_atlas_point_round_trip():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.4, 1.4, size=(500, 2))
    w = w[np.linalg.norm(w, axis=1) < 1.45]
    p = _stereo_point("north", w)
    assert np.allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)
    assert np.allclose(S2.coords_of("north", p), w, atol=1e-12)
    p2 = _stereo_point("south", w)
    assert np.allclose(S2.coords_of("south", p2), w, atol=1e-12)


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
    family = fam.FamilySpec(kind="bump", direction="cos2").build()
    amp = fam.FamilySpec().amplitude
    cut = family.cut(5.0, 5.0)              # bump profile at its peak, 1
    warped = mf.sinh_warped_radial(cut)
    period_2pi = mf.SphereMetricField.from_function(
        lambda angles: 2.0 + np.cos(angles), name="2+cos")
    return [
        ("round", mf.round_metric(), 0.0),
        ("T-cos2", fam.direction_field("cos2"), 1.0),
        ("bump-cut", cut, amp),
        ("bump-limit", family.limit(0.3), amp),
        ("scaled", mf.scale(cut, 3.7), 3.7 * amp),
        ("warped", mf.warped_cut(warped, 2.3), math.sinh(2.3) ** 2 * amp),
        ("unwarped", mf.unwarped_cut(warped, 2.3), 1.001 * amp),
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
    cuts, limits and scalings.  The boundary and collar numbers of the
    reports rest on these bits."""
    amp = fam.FamilySpec().amplitude
    one = lambda c, x: np.ones(np.shape(x))
    cos2 = lambda c, x: np.cos(x + c) ** 2
    r = 1.7
    w, u = math.sinh(r) ** 2, math.exp(-2.0 * ht.log_sinh(r))
    hyper = mf.hyperbolic_radial()
    out = [pytest.param(mf.round_metric(), one, id="round"),
           pytest.param(mf.warped_cut(hyper, r),
                        lambda c, x: w * one(c, x), id="hyperbolic-warped"),
           pytest.param(mf.unwarped_cut(hyper, r),
                        lambda c, x: u * (w * one(c, x)),
                        id="hyperbolic-unwarped")]
    for direction, T in (("uniform", one), ("cos2", cos2)):
        family = fam.FamilySpec(kind="bump", direction=direction).build()
        out.append(pytest.param(fam.direction_field(direction), T,
                                id=f"T-{direction}"))
        # dyadic offsets, so that rho - lam is exactly b
        for what, field, b in (("cut", family.cut(6.0, 6.25), 0.25),
                               ("limit", family.limit(-0.3), -0.3)):
            a = amp * fam.bump_profile(b, -1.0, 1.0)
            out.append(pytest.param(
                field, lambda c, x, a=a, T=T: 1.0 + a * T(c, x),
                id=f"bump-{what}-{direction}"))
        cut = family.cut(2.0, 2.375)
        a = amp * fam.bump_profile(0.375, -1.0, 1.0)
        base = mf.RadialMetric(domain=(0.0, 350.0), name="base",
                               _cut=lambda rr, cut=cut: mf.scale(
                                   cut, math.sinh(rr) ** 2))
        out.append(pytest.param(
            mf.unwarped_cut(base, r),
            lambda c, x, a=a, T=T: u * (w * (1.0 + a * T(c, x))),
            id=f"oracle-unwarped-{direction}"))
    return out


@pytest.mark.parametrize("field,fn", _window_fields())
@pytest.mark.parametrize("n", [24, 127, 128, 256])
def test_grid_components_match_chart_formulas(field, fn, n):
    for centre in mf.WINDOW_CENTRES:
        got = np.asarray(field.grid_components(centre, n))
        want = fn(centre, mf.interior_grid(n))
        assert got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes(), centre


# ---------------------------------------------------------------------------
# cuts of radial metrics
# ---------------------------------------------------------------------------

def _euclidean_radial():
    """g_r = r^2 * round metric (the flat metric in polar form)."""
    sigma = mf.round_metric()
    return mf.RadialMetric(domain=(0.0, 350.0), name="euclidean",
                           _cut=lambda r: mf.scale(sigma, r * r))


def test_euclidean_warped_cut():
    g = _euclidean_radial()
    cut = mf.warped_cut(g, 2.5)
    x = mf.interior_grid(16)
    assert np.allclose(cut.at_angles(x), 2.5 ** 2, rtol=1e-15)


def test_hyperbolic_cuts():
    g = mf.hyperbolic_radial()
    for r0 in (0.5, 1.0, 3.0):
        w = mf.warped_cut(g, r0)
        x = mf.interior_grid(8)
        assert np.allclose(w.at_angles(x), math.sinh(r0) ** 2,
                           rtol=1e-15)
        u = mf.unwarped_cut(g, r0)
        assert np.allclose(u.at_angles(x), 1.0, rtol=1e-14)


def test_euclidean_unwarped_cut():
    g = _euclidean_radial()
    r0 = 1.7
    u = mf.unwarped_cut(g, r0)
    x = np.array([0.1])
    expect = r0 ** 2 / math.sinh(r0) ** 2
    assert np.allclose(u.at_angles(x), expect, rtol=1e-14)


def test_sinh_warped_unwarped_cut_constant_in_radius():
    gprime = mf.SphereMetricField.from_function(
        lambda angles: 1.0 + 0.2 * np.cos(angles) ** 2, name="gprime")
    g = mf.sinh_warped_radial(gprime)
    x = mf.interior_grid(64)
    ref = gprime.at_angles(x)
    for r0 in (0.3, 1.0, 2.0, 4.0, 9.0):
        u = mf.unwarped_cut(g, r0)
        got = u.at_angles(x)
        assert np.max(np.abs(got - ref) / ref) < 1e-12


def test_cut_domain_errors():
    g = mf.hyperbolic_radial()
    with pytest.raises(DomainError):
        mf.warped_cut(g, -1.0)
    with pytest.raises(DomainError):
        mf.unwarped_cut(g, 0.0)


def test_scale_properties():
    sigma = mf.round_metric()
    x = np.array([0.2, -0.4])
    assert np.allclose(mf.scale(sigma, 1.0).at_angles(x),
                       sigma.at_angles(x))
    twice_half = mf.scale(mf.scale(sigma, 2.0), 0.5)
    assert np.allclose(twice_half.at_angles(x),
                       sigma.at_angles(x))
    g = mf.hyperbolic_radial()
    direct = mf.warped_cut(g, 3.0).at_angles(x)
    scaled = mf.scale(sigma, math.sinh(3.0) ** 2).at_angles(x)
    assert np.allclose(direct, scaled, rtol=1e-15)
    with pytest.raises(DomainError):
        mf.scale(sigma, 0.0)
    with pytest.raises(DomainError):
        mf.scale(sigma, -2.0)


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


PERIODIC_1 = [(False,), (True,)]
PERIODIC_2 = [(False, False), (True, False), (False, True), (True, True)]
COMPONENT_SHAPES = [(), (1, 1), (2, 2)]


@st.composite
def kernel_cases(draw):
    n_axes = draw(st.sampled_from([1, 2]))
    grid = tuple(draw(st.integers(1, 7)) for _ in range(n_axes))
    comps = draw(st.sampled_from(COMPONENT_SHAPES))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    flat = draw(st.lists(values, min_size=int(np.prod(grid + comps)),
                         max_size=int(np.prod(grid + comps))))
    delta = np.array(flat, dtype=float).reshape(grid + comps)
    steps = tuple(draw(st.floats(1e-3, 2.0)) for _ in range(n_axes))
    periodic = draw(st.sampled_from(PERIODIC_1 if n_axes == 1
                                    else PERIODIC_2))
    return delta, steps, periodic


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_c2_sups_matches_roll_reference(case):
    delta, steps, periodic = case
    want = roll_c2_sups(delta, steps, periodic=periodic)
    got = mf.c2_sups(delta, steps, periodic=periodic)
    assert_bit_identical(got, want)


def _corners_and_edges(shape):
    """Grid indices on every edge and in every corner of the grid."""
    picks = []
    for idx in np.ndindex(*shape):
        if any(i in (0, n - 1) for i, n in zip(idx, shape)):
            picks.append(idx)
    return picks


@pytest.mark.parametrize("periodic", PERIODIC_2)
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
        got = mf.c2_sups(delta, steps, periodic=periodic)
        assert_bit_identical(got, want)
        assert np.array_equal(delta, before)


@pytest.mark.parametrize("periodic", PERIODIC_1)
@pytest.mark.parametrize("comps", COMPONENT_SHAPES)
def test_c2_sups_single_entry_on_edges_1d(periodic, comps):
    for i in (0, 1, 5, 6):
        delta = np.zeros((7,) + comps)
        delta[i] = -3.0
        want = roll_c2_sups(delta, (0.2,), periodic=periodic)
        got = mf.c2_sups(delta, (0.2,), periodic=periodic)
        assert_bit_identical(got, want)


@pytest.mark.parametrize("periodic", PERIODIC_1 + PERIODIC_2)
@pytest.mark.parametrize("read_only", [False, True])
def test_c2_sups_all_zero_is_zero(periodic, read_only):
    shape = (6,) * len(periodic)
    steps = (0.1,) * len(periodic)
    for delta in (np.zeros(shape + (2, 2)), -np.zeros(shape)):
        delta.flags.writeable = not read_only
        got = mf.c2_sups(delta, steps, periodic=periodic)
        assert_bit_identical(got, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("periodic", PERIODIC_1 + PERIODIC_2)
def test_c2_sups_carries_nan(periodic):
    # every sup whose stencils reach the NaN is NaN; the roll-based
    # reference drops it from c1 and c2
    shape = (6,) * len(periodic)
    steps = (0.1,) * len(periodic)
    for idx in [(0,) * len(periodic), (3,) * len(periodic)]:
        delta = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
        delta[idx] = math.nan
        c0, c1, c2 = mf.c2_sups(delta, steps, periodic=periodic)
        assert math.isnan(c0) and math.isnan(c1) and math.isnan(c2)


def test_c2_sups_carries_nan_past_a_finite_sup():
    # the first (bounded) axis has no interior point, so its sups are a
    # finite 0.0 and the second axis's NaN sups come after them
    delta = np.zeros((2, 5))
    delta[0, 2] = math.nan
    c0, c1, c2 = mf.c2_sups(delta, (0.1, 0.1))
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
    for periodic, d, h in (((True, False), delta, steps),
                           ((False, True), delta.T.copy(), steps[::-1])):
        assert_bit_identical(mf.c2_sups(d, h, periodic=periodic),
                             roll_c2_sups(d, h, periodic=periodic))


def test_c2_distance_max_carries_nan():
    for values in [(math.nan, 0.0, 0.0), (0.0, math.nan, 1.0),
                   (0.0, 1.0, math.nan)]:
        d = mf.C2Distance(*values, grid_resolution=8, fd_step=0.1)
        assert math.isnan(d.max())
    assert mf.C2Distance(1e-3, 2e-3, 0.0, 8, 0.1).max() == 2e-3
    assert math.isnan(mf.max_carrying_nan(0.0, math.nan))
    assert mf.max_carrying_nan(0.0, -0.0, 3.0) == 3.0


# ---------------------------------------------------------------------------
# C^2 distance
# ---------------------------------------------------------------------------

def test_c2_distance_identity_is_zero():
    sigma = mf.round_metric()
    d = mf.c2_distance(sigma, sigma, resolution=64)
    assert (d.c0, d.c1, d.c2) == (0.0, 0.0, 0.0)


def test_c2_distance_pure_scaling():
    eps = 1e-3
    sigma = mf.round_metric()
    d = mf.c2_distance(sigma, mf.scale(sigma, 1.0 + eps), resolution=64)
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
    n = 96
    dab = mf.c2_distance(A, B, n)
    dba = mf.c2_distance(B, A, n)
    assert (dab.c0, dab.c1, dab.c2) == (dba.c0, dba.c1, dba.c2)
    dac = mf.c2_distance(A, C, n)
    dcb = mf.c2_distance(C, B, n)
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
    d = mf.c2_distance(field, moved, resolution=48)
    assert d.max() < 1e-8


def test_c2_distance_errors():
    s1 = mf.round_metric()
    with pytest.raises(DomainError):
        mf.c2_distance(s1, s1, resolution=4)  # spacing exceeds margin


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

def test_positivity_round():
    ok, lo = mf.positivity_check(mf.round_metric(), 64)
    assert ok and lo == pytest.approx(1.0)


def test_positivity_fails_for_zero_form():
    zero = mf.SphereMetricField.from_function(
        lambda angles: np.zeros(np.shape(angles)))
    ok, lo = mf.positivity_check(zero, 32)
    assert not ok and lo == 0.0


def test_positivity_detects_indefinite():
    # positive near angle 0, negative near pi; the odd grid of the window
    # about pi contains angle pi, where the component is -0.5
    bad = mf.SphereMetricField.from_function(
        lambda angles: 0.5 + np.cos(angles))
    ok, lo = mf.positivity_check(bad, 25)
    assert not ok and lo == pytest.approx(-0.5)


@pytest.mark.parametrize("nan_charts", [(0.0, math.pi), (math.pi,)])
def test_positivity_fails_on_nan_circle_field(nan_charts):
    # nan_charts: the centres of the windows that sample a NaN.  A field
    # that is NaN only within pi/3 of the angle pi is NaN on the window
    # about pi alone, which comes last: a builtin min fold drops it
    cos_below = -0.5 if nan_charts == (math.pi,) else 2.0
    field = mf.SphereMetricField.from_function(
        lambda angles: np.where(np.cos(angles) < cos_below, math.nan, 1.0))
    ok, lo = mf.positivity_check(field, 32)
    assert not ok and math.isnan(lo)


def test_min_carrying_nan():
    assert math.isnan(mf.min_carrying_nan(1.0, math.nan))
    assert math.isnan(mf.min_carrying_nan(math.inf, math.nan, 0.5))
    assert mf.min_carrying_nan(math.inf, 2.0, -0.5) == -0.5
