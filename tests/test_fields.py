import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypext import families as fam
from hypext import fields as mf
from hypext.errors import DomainError

S1 = mf.CIRCLE_ATLAS
S2 = mf.SPHERE_ATLAS


# ---------------------------------------------------------------------------
# atlas geometry
# ---------------------------------------------------------------------------

def test_circle_atlas_covers_with_margin():
    angles = np.linspace(-math.pi, math.pi, 5000)
    xe = S1.coords_of("east", angles)
    xw = S1.coords_of("west", angles)
    assert np.all(np.abs(xe) <= math.pi) and np.all(np.abs(xw) <= math.pi)
    # every point sits inside some chart interior, at distance >= margin
    # from that chart's boundary
    best = np.minimum(np.abs(xe), np.abs(xw))
    assert np.all(best <= S1.half_width - S1.margin + 1e-12)
    assert S1.interior_half_width == pytest.approx(S1.half_width - S1.margin)


def _fresh_angle_coords(angles):
    # a new atlas keeps no earlier result
    return mf.CircleAtlas().angle_coords(angles)


def test_angle_coords_memo_gives_fresh_results():
    atlas = mf.CircleAtlas()
    a = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    b = a + 0.3
    for angles in (a, b, a, a.copy(), b):
        x = atlas.angle_coords(angles)
        assert x.tobytes() == _fresh_angle_coords(angles).tobytes()
        assert x.tobytes() == S1.coords_of("east", angles).tobytes()
    # a grid of another shape with the same leading bytes is not a hit
    x = atlas.angle_coords(a[:24])
    assert x.shape == (24,)
    assert x.tobytes() == _fresh_angle_coords(a[:24]).tobytes()


def test_angle_coords_memo_recomputes_after_in_place_change():
    atlas = mf.CircleAtlas()
    a = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    before = atlas.angle_coords(a)
    a[5] = 3.0
    a[40] = -0.0
    x = atlas.angle_coords(a)
    assert x.tobytes() == _fresh_angle_coords(a).tobytes()
    assert x.tobytes() != before.tobytes()


def test_angle_coords_are_read_only():
    atlas = mf.CircleAtlas()
    a = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    for x in (atlas.angle_coords(a), atlas.angle_coords(a)):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1.0


def test_circle_transition_round_trip():
    x = np.linspace(-0.7 * math.pi, 0.7 * math.pi, 101)
    y = S1.transition("east", "west", x)
    back = S1.transition("west", "east", y)
    assert np.allclose(mf._wrap_angle(back - x), 0.0, atol=1e-12)
    assert np.all(S1.transition_jacobian("east", "west", x) == 1.0)


def test_sphere_atlas_point_round_trip():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.4, 1.4, size=(500, 2))
    w = w[np.linalg.norm(w, axis=1) < 1.45]
    p = S2.to_point("north", w)
    assert np.allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)
    assert np.allclose(S2.coords_of("north", p), w, atol=1e-12)
    p2 = S2.to_point("south", w)
    assert np.allclose(S2.coords_of("south", p2), w, atol=1e-12)


def test_sphere_transition_is_consistent_involution():
    rng = np.random.default_rng(4)
    w = rng.uniform(-1.4, 1.4, size=(300, 2))
    w = w[(np.linalg.norm(w, axis=1) > 0.7) & (np.linalg.norm(w, axis=1) < 1.4)]
    # same sphere point in the other chart
    p = S2.to_point("north", w)
    expected = S2.coords_of("south", p)
    got = S2.transition("north", "south", w)
    assert np.allclose(got, expected, atol=1e-12)
    # involution
    assert np.allclose(S2.transition("south", "north", got), w, atol=1e-12)


def test_sphere_transition_jacobian_matches_fd():
    w = np.array([[0.9, 0.4], [1.1, -0.6], [-0.8, 0.9]])
    J = S2.transition_jacobian("north", "south", w)
    h = 1e-6
    for k, wk in enumerate(w):
        for col, e in enumerate(np.eye(2)):
            fd = (S2.transition("north", "south", wk + h * e)
                  - S2.transition("north", "south", wk - h * e)) / (2 * h)
            assert np.allclose(J[k][:, col], fd, atol=1e-8)
    # conformal: singular values equal, condition number 1
    for k in range(len(w)):
        sv = np.linalg.svd(J[k], compute_uv=False)
        assert sv[0] / sv[1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# chart covariance of closed-form fields
# ---------------------------------------------------------------------------

def chart_covariance_defect(field, src, dst, coords):
    """|J^T G(dst) J - G(src)| at coords of chart src, on the overlap."""
    gs = field.components(src, coords)
    wd = field.atlas.transition(src, dst, coords)
    gd = field.components(dst, wd)
    J = field.atlas.transition_jacobian(src, dst, coords)
    trans = np.einsum("...ki,...kl,...lj->...ij", J, gd, J)
    return np.max(np.abs(trans - gs))


def test_round_sphere_chart_covariance():
    sigma = mf.round_metric(S2)
    rng = np.random.default_rng(5)
    w = rng.uniform(-1.3, 1.3, size=(400, 2))
    w = w[(np.linalg.norm(w, axis=1) > 0.68) & (np.linalg.norm(w, axis=1) < 1.3)]
    assert chart_covariance_defect(sigma, "north", "south", w) < 1e-8


def test_round_circle_chart_covariance():
    sigma = mf.round_metric(S1)
    x = np.linspace(0.3, 0.7 * math.pi, 50)
    assert chart_covariance_defect(sigma, "east", "west", x) < 1e-12


def test_nonround_field_chart_covariance():
    # T = cos^2(angle) dpsi^2 on the circle, expressed per chart
    def comp(chart, x):
        ang = S1.angle_of(chart, x)
        return (np.cos(ang) ** 2)[..., None, None]
    T = mf.SphereMetricField.from_function(S1, comp, name="cos2",
                                           is_metric=False)
    x = np.linspace(0.3, 0.7 * math.pi, 50)
    assert chart_covariance_defect(T, "east", "west", x) < 1e-12


# ---------------------------------------------------------------------------
# evaluation at circle angles
# ---------------------------------------------------------------------------

def both_chart_at_angles(field, angles):
    """Reference: the both-chart route ``at_angles`` took before it used the
    periodic angle coordinate.  Each angle goes to the chart where it is
    most interior; both charts' formulas are evaluated at that coordinate
    and one is picked per angle."""
    a = np.asarray(angles, dtype=float)
    xe = field.atlas.coords_of("east", a)
    xw = field.atlas.coords_of("west", a)
    use_west = np.abs(xw) < np.abs(xe)
    x = np.where(use_west, xw, xe)
    east = field.components("east", x)
    west = field.components("west", x)
    return np.where(use_west[..., None, None], west, east)


def _angle_fields():
    """(name, field, bound on |d component / d angle|) of the circle fields
    the pipeline evaluates at angles, plus one with period 2 pi only, which
    tells the two charts apart (cos^2 cannot: its period is pi)."""
    family = fam.FamilySpec(kind="bump", direction="cos2").build()
    amp = fam.FamilySpec().amplitude
    cut = family.cut(5.0, 5.0)              # bump profile at its peak, 1
    warped = mf.sinh_warped_radial(S1, cut)
    def two_plus_cos(chart, x):
        return (2.0 + np.cos(S1.angle_of(chart, x)))[..., None, None]
    period_2pi = mf.SphereMetricField.from_function(S1, two_plus_cos,
                                                    name="2+cos")
    return [
        ("round", mf.round_metric(S1), 0.0),
        ("T-cos2", fam.direction_field(S1, "cos2"), 1.0),
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
    # each route wraps the angle with its own roundings, which differ by at
    # most a few ulp of max(|angle|, 2 pi); a component moves by at most
    # its angular slope times that, on top of 4 ulp of its own value
    slack = 4.0 * np.spacing(np.maximum(np.abs(a), 2.0 * math.pi))
    for name, field, slope in ANGLE_FIELDS:
        got = field.at_angles(a)
        want = both_chart_at_angles(field, a)
        assert got.shape == want.shape == a.shape + (1, 1), name
        got, want = got[:, 0, 0], want[:, 0, 0]
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        if slope:
            assert np.all(np.isnan(got[nan])), name
        tol = 4.0 * EPS * np.abs(want) + slope * slack
        assert np.all(np.abs(got - want)[~nan] <= tol[~nan]), name


def test_at_angles_needs_a_closed_form_circle_field():
    with pytest.raises(DomainError, match="S\\^1"):
        mf.round_metric(S2).at_angles(np.zeros(3))
    with pytest.raises(DomainError, match="closed-form"):
        mf.round_metric(S1).sampled(64).at_angles(np.zeros(3))


# ---------------------------------------------------------------------------
# cuts of radial metrics
# ---------------------------------------------------------------------------

def test_euclidean_warped_cut():
    g = mf.euclidean_radial(S1)
    cut = mf.warped_cut(g, 2.5)
    x = S1.interior_grid(16)
    assert np.allclose(cut.components("east", x), 2.5 ** 2, rtol=1e-15)


def test_hyperbolic_cuts():
    g = mf.hyperbolic_radial(S1)
    for r0 in (0.5, 1.0, 3.0):
        w = mf.warped_cut(g, r0)
        x = S1.interior_grid(8)
        assert np.allclose(w.components("east", x), math.sinh(r0) ** 2,
                           rtol=1e-15)
        u = mf.unwarped_cut(g, r0)
        assert np.allclose(u.components("east", x), 1.0, rtol=1e-14)


def test_euclidean_unwarped_cut():
    g = mf.euclidean_radial(S1)
    r0 = 1.7
    u = mf.unwarped_cut(g, r0)
    x = np.array([0.1])
    expect = r0 ** 2 / math.sinh(r0) ** 2
    assert np.allclose(u.components("east", x), expect, rtol=1e-14)


def test_sinh_warped_unwarped_cut_constant_in_radius():
    def comp(chart, x):
        ang = S1.angle_of(chart, x)
        return (1.0 + 0.2 * np.cos(ang) ** 2)[..., None, None]
    gprime = mf.SphereMetricField.from_function(S1, comp, name="gprime")
    g = mf.sinh_warped_radial(S1, gprime)
    x = S1.interior_grid(64)
    ref = gprime.components("east", x)
    for r0 in (0.3, 1.0, 2.0, 4.0, 9.0):
        u = mf.unwarped_cut(g, r0)
        got = u.components("east", x)
        assert np.max(np.abs(got - ref) / ref) < 1e-12


def test_cut_domain_errors():
    g = mf.hyperbolic_radial(S1)
    with pytest.raises(DomainError):
        mf.warped_cut(g, -1.0)
    with pytest.raises(DomainError):
        mf.unwarped_cut(g, 0.0)


def test_scale_properties():
    sigma = mf.round_metric(S1)
    x = np.array([0.2, -0.4])
    assert np.allclose(mf.scale(sigma, 1.0).components("east", x),
                       sigma.components("east", x))
    twice_half = mf.scale(mf.scale(sigma, 2.0), 0.5)
    assert np.allclose(twice_half.components("east", x),
                       sigma.components("east", x))
    g = mf.hyperbolic_radial(S1)
    direct = mf.warped_cut(g, 3.0).components("east", x)
    scaled = mf.scale(sigma, math.sinh(3.0) ** 2).components("east", x)
    assert np.allclose(direct, scaled, rtol=1e-15)
    with pytest.raises(DomainError):
        mf.scale(sigma, 0.0)
    with pytest.raises(DomainError):
        mf.scale(sigma, -2.0)


# ---------------------------------------------------------------------------
# the grid C^2 kernel against the roll-based reference
# ---------------------------------------------------------------------------

def roll_c2_sups(delta, steps, periodic=None, mask=None):
    """Reference kernel: every stencil built with np.roll and every sup
    taken through a boolean mask.  Results of ``mf.c2_sups`` must equal
    it bit for bit on finite input."""
    delta = np.asarray(delta, dtype=float)
    n_axes = len(steps)
    periodic = periodic or (False,) * n_axes
    if mask is None:
        mask = np.ones(delta.shape[:n_axes], dtype=bool)

    comp_axes = tuple(range(n_axes, delta.ndim))

    def sup(arr, m):
        if not np.any(m):
            return 0.0
        vals = np.max(np.abs(arr), axis=comp_axes) if comp_axes else np.abs(arr)
        return float(np.max(vals[m]))

    c0 = sup(delta, mask)

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
            d1 = (fwd - bwd) / (2.0 * h)
            d2 = (fwd - 2.0 * delta + bwd) / (h * h)
            c1 = max(c1, sup(d1, mask))
            c2 = max(c2, sup(d2, mask))
        else:
            inner = ax_slice(ax, slice(1, -1))
            fwd = delta[ax_slice(ax, slice(2, None))]
            bwd = delta[ax_slice(ax, slice(None, -2))]
            mid = delta[inner]
            m_in = mask[ax_slice(ax, slice(1, -1))[:n_axes]]
            d1 = (fwd - bwd) / (2.0 * h)
            d2 = (fwd - 2.0 * mid + bwd) / (h * h)
            c1 = max(c1, sup(d1, m_in))
            c2 = max(c2, sup(d2, m_in))

    if n_axes == 2:
        h0, h1 = steps
        if all(periodic):
            pp = np.roll(np.roll(delta, -1, 0), -1, 1)
            pm = np.roll(np.roll(delta, -1, 0), 1, 1)
            mp = np.roll(np.roll(delta, 1, 0), -1, 1)
            mm = np.roll(np.roll(delta, 1, 0), 1, 1)
            dxy = (pp - pm - mp + mm) / (4.0 * h0 * h1)
            c2 = max(c2, sup(dxy, mask))
        elif not any(periodic):
            pp = delta[2:, 2:]
            pm = delta[2:, :-2]
            mp = delta[:-2, 2:]
            mm = delta[:-2, :-2]
            dxy = (pp - pm - mp + mm) / (4.0 * h0 * h1)
            c2 = max(c2, sup(dxy, mask[1:-1, 1:-1]))
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
            c2 = max(c2, sup(dxy, mask[ax_slice(b, slice(1, -1))[:n_axes]]))

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
    mask = None
    if draw(st.booleans()):
        bits = draw(st.lists(st.booleans(), min_size=int(np.prod(grid)),
                             max_size=int(np.prod(grid))))
        mask = np.array(bits, dtype=bool).reshape(grid)
    return delta, steps, periodic, mask


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_c2_sups_matches_roll_reference(case):
    delta, steps, periodic, mask = case
    want = roll_c2_sups(delta, steps, periodic=periodic, mask=mask)
    got = mf.c2_sups(delta, steps, periodic=periodic, mask=mask)
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
@pytest.mark.parametrize("with_mask", [False, True])
def test_c2_sups_single_entry_on_edges_and_corners_2d(periodic, comps,
                                                      with_mask):
    # one nonzero entry at the grid's rim: a wrong wrap shows at once
    shape = (5, 6)
    steps = (0.3, 0.07)
    mask = None
    if with_mask:
        mask = np.ones(shape, dtype=bool)
        mask[1, 2] = mask[4, 0] = False
    for idx in _corners_and_edges(shape):
        delta = np.zeros(shape + comps)
        delta[idx] = 1.25
        want = roll_c2_sups(delta, steps, periodic=periodic, mask=mask)
        got = mf.c2_sups(delta, steps, periodic=periodic, mask=mask)
        assert_bit_identical(got, want)


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
@pytest.mark.parametrize("with_mask", [False, True])
def test_c2_sups_all_zero_is_zero(periodic, with_mask):
    shape = (6,) * len(periodic)
    steps = (0.1,) * len(periodic)
    mask = np.ones(shape, dtype=bool) if with_mask else None
    for delta in (np.zeros(shape + (2, 2)), -np.zeros(shape)):
        got = mf.c2_sups(delta, steps, periodic=periodic, mask=mask)
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
    # the mask keeps the NaN out of the phi stencils but not the beta ones,
    # so a finite sup comes first and the NaN after it
    delta = np.zeros((5, 5))
    delta[0, 2] = math.nan
    mask = np.zeros((5, 5), dtype=bool)
    mask[0] = True
    c0, c1, c2 = mf.c2_sups(delta, (0.1, 0.1), mask=mask)
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
    sigma = mf.round_metric(S1)
    d = mf.c2_distance(sigma, sigma, resolution=64)
    assert (d.c0, d.c1, d.c2) == (0.0, 0.0, 0.0)
    sigma2 = mf.round_metric(S2)
    d2 = mf.c2_distance(sigma2, sigma2, resolution=32)
    assert (d2.c0, d2.c1, d2.c2) == (0.0, 0.0, 0.0)


def test_c2_distance_pure_scaling():
    eps = 1e-3
    sigma = mf.round_metric(S1)
    d = mf.c2_distance(sigma, mf.scale(sigma, 1.0 + eps), resolution=64)
    # round circle components are identically 1, so c0 = eps exactly and
    # the difference is constant
    assert d.c0 == pytest.approx(eps, rel=1e-12)
    assert d.c1 < 1e-15 and d.c2 < 1e-10


def test_c2_distance_scaling_on_sphere():
    eps = 1e-3
    sigma = mf.round_metric(S2)
    # odd resolution so the grid contains w = 0, where the round metric's
    # largest component (4) is attained
    d = mf.c2_distance(sigma, mf.scale(sigma, 1.0 + eps), resolution=49)
    assert d.c0 == pytest.approx(4.0 * eps, rel=1e-10)


def test_c2_distance_symmetry_and_triangle():
    def mk(a_amp, b_amp):
        def comp(chart, x):
            ang = S1.angle_of(chart, x)
            return (1.0 + a_amp * np.cos(ang) + b_amp * np.sin(2 * ang))[..., None, None]
        return mf.SphereMetricField.from_function(S1, comp)
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
    # the round metric vs its expression transported through the other
    # chart: evaluates the same tensor two ways, must agree to 1e-8
    sigma = mf.round_metric(S2)

    def transported(chart, w):
        other = "south" if chart == "north" else "north"
        wd = S2.transition(chart, other, w)
        gd = sigma.components(other, wd)
        J = S2.transition_jacobian(chart, other, w)
        return np.einsum("...ki,...kl,...lj->...ij", J, gd, J)

    moved = mf.SphereMetricField.from_function(S2, transported)
    d = mf.c2_distance(sigma, moved, resolution=48)
    assert d.max() < 1e-8


def test_c2_distance_errors():
    s1 = mf.round_metric(S1)
    s2 = mf.round_metric(S2)
    with pytest.raises(DomainError):
        mf.c2_distance(s1, s2)
    with pytest.raises(DomainError):
        mf.c2_distance(s1, s1, resolution=64, step=1.0)  # incompatible step
    with pytest.raises(DomainError):
        mf.c2_distance(s1, s1, resolution=4)  # spacing exceeds margin


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

def test_positivity_round():
    ok, lo = mf.positivity_check(mf.round_metric(S1), 64)
    assert ok and lo == pytest.approx(1.0)
    ok2, lo2 = mf.positivity_check(mf.round_metric(S2), 48)
    assert ok2
    # min over the grid of 4/(1+|w|^2)^2 is attained at the interior rim
    rim = 4.0 / (1.0 + 2 * S2.interior_radius ** 2) ** 2
    assert lo2 >= rim - 1e-12


def test_positivity_fails_for_zero_form():
    zero = mf.SphereMetricField.from_function(
        S1, lambda chart, x: np.zeros(np.shape(x) + (1, 1)), is_metric=False)
    ok, lo = mf.positivity_check(zero, 32)
    assert not ok and lo == 0.0


def test_positivity_detects_indefinite():
    def comp(chart, w):
        out = np.broadcast_to(np.diag([1.0, -0.5]), w.shape[:-1] + (2, 2))
        return out.copy()
    bad = mf.SphereMetricField.from_function(S2, comp, is_metric=False)
    ok, lo = mf.positivity_check(bad, 24)
    assert not ok and lo == pytest.approx(-0.5)


@pytest.mark.parametrize("nan_charts", [("east", "west"), ("west",)])
def test_positivity_fails_on_nan_circle_field(nan_charts):
    # the NaN chart comes last in ("west",): a builtin min fold drops it
    def comp(chart, x):
        fill = math.nan if chart in nan_charts else 1.0
        return np.full(np.shape(x) + (1, 1), fill)
    field = mf.SphereMetricField.from_function(S1, comp, is_metric=False)
    ok, lo = mf.positivity_check(field, 32)
    assert not ok and math.isnan(lo)


def test_positivity_fails_on_nan_sphere_field():
    def comp(chart, w):
        out = S2.round_components(w)
        if chart == "south":
            # the chart's origin, inside its interior disk
            out[w.shape[0] // 2, w.shape[1] // 2] = math.nan
        return out
    field = mf.SphereMetricField.from_function(S2, comp, is_metric=False)
    ok, lo = mf.positivity_check(field, 25)
    assert not ok and math.isnan(lo)


def test_min_carrying_nan():
    assert math.isnan(mf.min_carrying_nan(1.0, math.nan))
    assert math.isnan(mf.min_carrying_nan(math.inf, math.nan, 0.5))
    assert mf.min_carrying_nan(math.inf, 2.0, -0.5) == -0.5


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampled_field_in_c2_distance():
    sigma = mf.round_metric(S1)
    frozen = sigma.sampled(64)
    d = mf.c2_distance(sigma, frozen, resolution=64)
    assert d.max() == 0.0
    with pytest.raises(DomainError):
        mf.c2_distance(sigma, frozen, resolution=32)


def test_sampled_sphere_field_in_c2_distance():
    sigma = mf.round_metric(S2)
    frozen = sigma.sampled(32)
    d = mf.c2_distance(sigma, frozen, resolution=32)
    assert d.max() == 0.0
    eps = 1e-4
    d2 = mf.c2_distance(mf.scale(sigma, 1.0 + eps), frozen, resolution=32)
    assert d2.c0 > 0


def test_scale_on_sampled_field():
    frozen = mf.round_metric(S1).sampled(64)
    doubled = mf.scale(frozen, 2.0)
    assert doubled.kind == "sampled"
    assert np.all(doubled.grid_components("east", 64)
                  == 2.0 * frozen.grid_components("east", 64))
