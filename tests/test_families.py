import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypext import families as fam
from hypext import fields as mf
from hypext.errors import DomainError



def test_smoothstep_endpoints():
    S = fam.quintic_smoothstep
    assert S(0.0) == 0.0 and S(1.0) == 1.0
    h = 1e-5
    for edge in (0.0, 1.0):
        d1 = (S(edge + h) - S(edge - h)) / (2 * h)
        d2 = (S(edge + h) - 2 * S(edge) + S(edge - h)) / h ** 2
        assert abs(d1) < 1e-4 and abs(d2) < 1e-3


def test_bump_profile_support_is_exact():
    xs = np.array([-5.0, -1.0, 1.0, 2.0, 100.0])
    vals = fam.bump_profile(xs, -1.0, 1.0)
    assert np.all(vals == 0.0)
    assert fam.bump_profile(0.0, -1.0, 1.0) == 1.0
    inside = fam.bump_profile(np.linspace(-0.99, 0.99, 101), -1.0, 1.0)
    assert np.all(inside > 0.0) and np.all(inside <= 1.0)


def test_bump_profile_is_c2():
    # second differences across the three knots stay bounded and the
    # second derivative is continuous (no jump beyond O(h) of the third
    # derivative scale)
    h = 1e-4
    for knot in (-1.0, 0.0, 1.0):
        x = np.array([knot - 2 * h, knot - h, knot, knot + h, knot + 2 * h])
        v = fam.bump_profile(x, -1.0, 1.0)
        d2_left = (v[0] - 2 * v[1] + v[2]) / h ** 2
        d2_right = (v[2] - 2 * v[3] + v[4]) / h ** 2
        assert abs(d2_left - d2_right) < 0.01


def bump_profile_0d(x, start, end):
    """The numpy route of bump_profile for a float, taken on a 0-d array:
    the reference the float path must match bit for bit."""
    x = np.asarray(x, dtype=float)
    mid = 0.5 * (start + end)
    up = fam.quintic_smoothstep((x - start) / (mid - start))
    down = fam.quintic_smoothstep((end - x) / (end - mid))
    return float(np.where(x <= mid, up, down))


def _bits(v):
    return np.float64(v).tobytes()


def _edges(start, end):
    mid = 0.5 * (start + end)
    pts = [0.0, -0.0, math.nan, math.inf, -math.inf]
    for p in (start, mid, end):
        pts += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    return pts


_supports = st.tuples(st.floats(-5.0, 5.0),
                      st.floats(1e-3, 10.0)).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=300, deadline=None)
@given(_supports, st.floats(0.0, 1.0), st.floats(-0.5, 1.5))
def test_float_bump_profile_matches_0d_route(support, frac, spread):
    start, end = support
    x = start + spread * (end - start) if frac < 0.5 else \
        start + frac * (end - start)
    for v in [x] + _edges(start, end):
        expect = _bits(bump_profile_0d(v, start, end))
        assert _bits(fam.bump_profile(v, start, end)) == expect, v
        assert _bits(fam.bump_profile(np.float64(v), start, end)) == expect
        assert type(fam.bump_profile(v, start, end)) is float


def test_float_bump_profile_on_the_default_support():
    for v in _edges(-1.0, 1.0) + list(np.linspace(-1.5, 1.5, 3001)):
        assert _bits(fam.bump_profile(float(v), -1.0, 1.0)) == \
            _bits(bump_profile_0d(v, -1.0, 1.0)), v
    assert math.isnan(fam.bump_profile(math.nan, -1.0, 1.0))
    assert fam.bump_profile(-1.0, -1.0, 1.0) == 0.0
    assert fam.bump_profile(1.0, -1.0, 1.0) == 0.0
    assert _bits(fam.bump_profile(-0.0, -1.0, 1.0)) == _bits(1.0)


def test_direction_fields():
    T = fam.direction_field("cos2")
    x = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(T.at_angles(x), np.cos(x) ** 2)
    U = fam.direction_field("uniform")
    assert np.all(U.at_angles(x) == 1.0)
    with pytest.raises(DomainError):
        fam.direction_field("sideways")


def test_family_spec_validation():
    with pytest.raises(DomainError):
        fam.FamilySpec(kind="flat")
    with pytest.raises(DomainError):
        fam.FamilySpec(kind="bump", support_start=1.0, support_end=-1.0)
    with pytest.raises(DomainError):
        fam.FamilySpec(kind="bump", direction="nope")


def test_bump_family_cut_structure():
    family = fam.FamilySpec(kind="bump").build()
    x = np.linspace(-1.5, 1.5, 33)
    # at radius lam + b with b <= B the cut is exactly round
    for b in (-1.0, -2.0, -5.5):
        cut = family.cut(6.0, 6.0 + b)
        assert np.all(cut.at_angles(x) == 1.0)
    # inside the support the perturbation rides at offset rho - lam
    cut = family.cut(6.0, 6.0)
    expect = 1.0 + 0.05 * fam.bump_profile(0.0, -1.0, 1.0)
    assert np.allclose(cut.at_angles(x), expect)
    # diagonal stationarity: cut(lam, lam + b) independent of lam
    a = family.cut(4.0, 4.0 + 0.3).at_angles(x)
    b2 = family.cut(9.0, 9.0 + 0.3).at_angles(x)
    assert np.array_equal(a, b2)


def test_bump_family_limit_oracle_matches_diagonal():
    family = fam.FamilySpec(kind="bump", direction="cos2").build()
    x = np.linspace(-1.5, 1.5, 17)
    # dyadic offsets so that (lam + b) - lam reproduces b exactly
    for b in (-0.5, 0.0, 0.75):
        lim = family.limit(b).at_angles(x)
        diag = family.cut(11.0, 11.0 + b).at_angles(x)
        assert np.array_equal(lim, diag)


def test_amplitude_positivity_guard():
    with pytest.raises(DomainError):
        fam.FamilySpec(kind="bump", amplitude=-1.5).build()


def test_hyperbolic_family_is_round_everywhere():
    family = fam.hyperbolic_family()
    x = np.linspace(-1.0, 1.0, 5)
    for lam, rho in [(1.0, 0.5), (20.0, 35.0)]:
        assert np.all(family.cut(lam, rho).at_angles(x) == 1.0)
    assert family.interval_bound == math.inf
