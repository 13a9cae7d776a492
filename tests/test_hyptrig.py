import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypext import hyptrig as ht
from hypext.errors import DomainError, VerificationError

HALF_PI = math.pi / 2


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# frozen extended-precision fixtures
# ---------------------------------------------------------------------------

def test_fixture_table(fixture_table):
    dispatch = {
        "solve_r": ht.solve_r,
        "solve_t": ht.solve_t,
        "reparam": ht.reparam,
        "reparam_inverse": ht.reparam_inverse,
        "vartheta": ht.vartheta,
        "vartheta_shift": ht.vartheta_shift,
        "xi_embed_t": ht.solve_t,
        "xi_embed_r": ht.solve_r,
    }
    checked = 0
    for name, args, expected in fixture_table:
        if name == "beta1_threshold":
            # the row keeps the interval top c, which the threshold does
            # not read (it takes c' = c + ln sin(theta) - margin)
            B, _c, c_prime, theta, margin = args
            assert margin == ht.BETA1_MARGIN
            got = ht.beta1_threshold(theta, B, c_prime)
        else:
            got = dispatch[name](*args)
        assert rel_err(got, expected) < 1e-13, (name, args, got, expected)
        checked += 1
    assert checked >= 12


# ---------------------------------------------------------------------------
# trivial closed-form examples
# ---------------------------------------------------------------------------

def test_solve_r_endpoints():
    assert ht.solve_r(2.0, HALF_PI) == pytest.approx(2.0, rel=1e-14)
    assert ht.solve_r(7.3, 0.0) == 0.0


def test_solve_t_endpoints():
    assert abs(ht.solve_t(3.0, HALF_PI)) < 1e-15
    assert ht.solve_t(3.0, 0.0) == pytest.approx(3.0, rel=1e-14)


def test_reparam_at_right_angle_is_identity():
    for lp in (0.3, 1.0, 17.0, 250.0, 700.0):
        assert rel_err(ht.reparam(lp, HALF_PI), lp) < 1e-14
        assert rel_err(ht.reparam_inverse(lp, HALF_PI), lp) < 1e-14


def test_reparam_asymptotic_form():
    got = ht.reparam(50.0, math.pi / 3)
    assert abs(got - (50.0 + math.log(math.sin(math.pi / 3)))) < 1e-12


def test_vartheta_collapses_at_beta_theta_b0():
    for lam, theta in [(10.0, 0.9), (3.0, HALF_PI), (80.0, 0.4)]:
        assert rel_err(ht.vartheta(lam, theta, 0.0, theta), lam) < 1e-13


def test_vartheta_asymptotic_cross_check():
    got = ht.vartheta(40.0, 0.6, -1.0, math.pi / 3)
    expect = 40.0 - 1.0 + math.log(math.sin(0.6) / math.sin(math.pi / 3))
    assert abs(got - expect) < 1e-10


def test_vartheta_shift_trivials():
    assert ht.vartheta_shift(0.7, 1.3, 0.7) == pytest.approx(1.3, abs=1e-15)
    assert ht.vartheta_shift(HALF_PI, 0.0, HALF_PI) == 0.0


# ---------------------------------------------------------------------------
# domain errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn,args", [
    (ht.solve_r, (-1.0, 0.3)),
    (ht.solve_r, (0.0, 0.3)),
    (ht.solve_r, (1.0, -0.1)),
    (ht.solve_r, (1.0, HALF_PI + 0.1)),
    (ht.solve_t, (0.0, 0.3)),
    (ht.solve_t, (-1.0, 0.3)),
    (ht.solve_t, (1.0, HALF_PI + 0.1)),
    (ht.solve_t, (1.0, -0.1)),
    (ht.reparam_inverse, (0.0, 1.0)),
    (ht.reparam, (-3.0, 1.0)),
    (ht.reparam, (3.0, 0.0)),
    (ht.reparam, (3.0, HALF_PI + 1e-6)),
    (ht.reparam_inverse, (3.0, 2.0)),
    (ht.vartheta_shift, (0.0, 1.0, 1.0)),
    (ht.log_sinh, (0.0,)),
    # a NaN angle is refused, not carried into a NaN index or shift
    (ht.reparam, (8.0, math.nan)),
    (ht.reparam_inverse, (8.0, math.nan)),
    (ht.vartheta_shift, (0.5, 0.0, math.nan)),
    (ht.reparam, (np.array([8.0, 9.0]), np.array([0.5, math.nan]))),
    # a NaN or too large beta is refused by the composed map and the shift
    (ht.vartheta_shift, (math.nan, 0.0, 1.0)),
    (ht.vartheta, (5.0, math.nan, 0.0, 1.0)),
    (ht.vartheta_shift, (np.array([0.5, math.nan]), 0.0, 1.0)),
    (ht.vartheta, (5.0, np.array([0.5, math.nan]), 0.0, 1.0)),
    (ht.vartheta, (5.0, HALF_PI + 0.1, 0.0, 1.0)),
    # signed zeros, infinities and the edges of the angle range
    (ht.reparam, (0.0, 1.0)), (ht.reparam, (-0.0, 1.0)),
    (ht.reparam, (-1.0, 1.0)), (ht.reparam, (-math.inf, 1.0)),
    (ht.reparam, (3.0, -0.0)), (ht.reparam, (3.0, -1e-300)),
    (ht.reparam, (3.0, math.nextafter(HALF_PI, math.inf))),
    (ht.reparam, (3.0, math.inf)), (ht.reparam, (3.0, -math.inf)),
    (ht.reparam, (3.0, math.nan)), (ht.reparam, (math.nan, math.nan)),
    (ht.coth_sq_minus_one, (0.0,)), (ht.coth_sq_minus_one, (-0.0,)),
    (ht.coth_sq_minus_one, (-1.0,)),
    (ht.coth_sq_minus_one, (-math.inf,)),
    # a zero angle at one point of an array is refused for the whole call
    (ht.reparam, (np.array([3.0, 4.0]), np.array([0.5, 0.0]))),
])
def test_domain_errors(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_vartheta_rejects_nonpositive_radius():
    # lambda'(lambda) + b <= 0
    with pytest.raises(DomainError):
        ht.vartheta(1.0, 0.5, -5.0, HALF_PI)


def test_array_domain_error_reports_any_bad_point():
    with pytest.raises(DomainError):
        ht.solve_r(np.array([1.0, -2.0]), np.array([0.3, 0.4]))


# ---------------------------------------------------------------------------
# invariants on grids and under hypothesis
# ---------------------------------------------------------------------------

def test_triangle_identity_random_grid():
    rng = np.random.default_rng(1234)
    s = rng.uniform(0.1, 30.0, size=(100, 100))
    beta = rng.uniform(0.01, HALF_PI - 0.01, size=(100, 100))
    r = ht.solve_r(s, beta)
    t = ht.solve_t(s, beta)
    lhs = np.sinh(r)
    rhs = np.sin(beta) * np.sinh(s)
    assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)) < 1e-12
    lhs = np.cosh(r) * np.sinh(t)
    rhs = np.sinh(s) * np.cos(beta)
    assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)) < 1e-12
    lhs = np.cosh(r) * np.cosh(t)
    rhs = np.cosh(s)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_solve_t_two_forms_agree():
    rng = np.random.default_rng(99)
    s = rng.uniform(0.1, 30.0, size=4000)
    beta = rng.uniform(0.01, HALF_PI - 0.01, size=4000)
    t1 = ht.solve_t(s, beta)
    t2 = np.arctanh(np.cos(beta) * np.tanh(s))
    assert np.max(np.abs(t1 - t2) / np.maximum(np.abs(t2), 1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 700.0), st.floats(0.05, HALF_PI))
def test_reparam_round_trip(lam, theta):
    back = ht.reparam(ht.reparam_inverse(lam, theta), theta)
    assert rel_err(back, lam) < 1e-12
    fwd = ht.reparam_inverse(ht.reparam(lam, theta), theta)
    assert rel_err(fwd, lam) < 1e-12


def test_solve_r_monotone_in_both_arguments():
    s = np.linspace(0.2, 25.0, 60)
    beta = np.linspace(0.05, HALF_PI - 0.05, 60)
    grid = ht.solve_r(s[:, None], beta[None, :])
    assert np.all(np.diff(grid, axis=0) > 0)
    assert np.all(np.diff(grid, axis=1) > 0)


def test_vartheta_asymptotic_law():
    # gap(lam) = |vartheta - lam - shift| should decay like exp(-2 lam);
    # fit K on moderate lam and check the fitted envelope plus the
    # machine-level gap far out.
    cases = [(0.2, -1.0, math.pi / 3), (0.4, 0.7, HALF_PI), (0.9, -0.3, 1.1)]
    lams = np.arange(5.0, 12.0)
    for beta, b, theta in cases:
        shift = ht.vartheta_shift(beta, b, theta)
        gaps = np.array([abs(ht.vartheta(l, beta, b, theta) - l - shift)
                         for l in lams])
        K = np.max(gaps * np.exp(2.0 * lams))
        assert np.all(gaps <= K * np.exp(-2.0 * lams) * (1 + 1e-9))
        # decay factor per unit step is ~e^2
        assert np.all(gaps[1:] < gaps[:-1] * np.exp(-2.0) * 1.5)
        assert abs(ht.vartheta(30.0, beta, b, theta) - 30.0 - shift) < 1e-8


# ---------------------------------------------------------------------------
# beta1 threshold
# ---------------------------------------------------------------------------

def test_beta1_example_case():
    beta1 = ht.beta1_threshold(HALF_PI, -1.0, 0.0)
    assert beta1 == pytest.approx(math.asin(math.exp(-1.5)), rel=1e-12)
    # the defining inequality on a spot grid
    grid = np.geomspace(5.0, 700.0, 50)
    assert np.all(ht.solve_r(grid + 0.0, beta1) <= ht.reparam(grid, HALF_PI) - 1.0)


def test_beta1_degenerate_returns_pi_over_4():
    assert ht.beta1_threshold(HALF_PI, 0.5, 0.2) == pytest.approx(
        math.pi / 4)


def test_beta1_absurdly_low_bound_still_passes():
    # the bound is monotone: pushing B far down just makes beta1 tiny
    beta1 = ht.beta1_threshold(HALF_PI, -9.0, 0.9)
    assert 0.0 < beta1 < 1e-4


@settings(max_examples=60, deadline=None)
@given(st.floats(-6.0, 0.5), st.floats(0.3, HALF_PI),
       st.floats(0.1, 2.0), st.floats(0.2, 3.0))
def test_beta1_threshold_property(B, theta, c_gap, cp_gap):
    # any admissible (B, c, c', theta) yields a verified angle
    c = B + c_gap
    c_prime = c + math.log(math.sin(theta)) - cp_gap
    beta1 = ht.beta1_threshold(theta, B, c_prime)
    assert 0.0 < beta1 <= math.pi / 4


def test_beta1_verification_failure_raises(monkeypatch):
    # a negative margin puts the candidate above the asymptotic bound, so
    # the inequality fails on the whole sweep
    monkeypatch.setattr(ht, "BETA1_MARGIN", -0.5)
    with pytest.raises(VerificationError):
        ht.beta1_threshold(HALF_PI, -1.0, 0.0)


@pytest.mark.parametrize("B,c_prime", [(math.nan, 0.0), (-1.0, math.nan)])
def test_beta1_threshold_fails_a_nan_bound(B, c_prime):
    # a NaN bound makes a NaN candidate or sweep: its check fails, rather
    # than returning an unchecked NaN
    with pytest.raises(VerificationError, match="fails the inequality"):
        ht.beta1_threshold(HALF_PI, B, c_prime)


def test_beta1_threshold_refuses_bad_theta_and_backward_sweep():
    for theta in (0.0, -0.3, HALF_PI + 1e-6, math.nan):
        with pytest.raises(DomainError, match="theta"):
            ht.beta1_threshold(theta, -1.0, 0.0)
    # the sweep starts at lam_lo >= 1 - c'; a start at or above the top
    # LAMBDA_PRIME_MAX = 700 would sweep backwards over radii the threshold
    # does not claim, at either angle
    for theta in (HALF_PI, math.pi / 3):
        for c_prime, start in ((-700.0, "701"), (-699.0, "700")):
            with pytest.raises(DomainError,
                               match=f"top 700 must exceed its start {start}"):
                ht.beta1_threshold(theta, -1.0, c_prime)
        assert 0.0 < ht.beta1_threshold(theta, -1.0, -698.5) < HALF_PI


# ---------------------------------------------------------------------------
# the legs against a geodesic shot in the (t, r)-plane
# ---------------------------------------------------------------------------

def _geodesic_shoot(beta, s, n_steps):
    """Unit-speed geodesic of cosh^2(v) du^2 + dv^2 from the origin at
    angle beta to the u-axis, integrated with fixed-step RK4; returns its
    end point (u, v).

    Geodesic equations: u'' = -2 tanh(v) u' v',  v'' = cosh(v) sinh(v) u'^2.
    """
    h = s / n_steps
    state = np.array([0.0, 0.0, math.cos(beta), math.sin(beta)])

    def rhs(st):
        u, v, du, dv = st
        return np.array([du, dv, -2.0 * math.tanh(v) * du * dv,
                         math.cosh(v) * math.sinh(v) * du * du])

    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u, v, du, dv = state
    assert abs(math.cosh(v) ** 2 * du * du + dv * dv - 1.0) < 1e-8
    return u, v


@pytest.mark.parametrize("s,beta", [(0.5, 0.3), (1.0, 1.2), (3.0, 0.9),
                                    (2.0, HALF_PI - 0.1), (6.0, 0.05)])
def test_geodesic_shoot_lands_at_the_legs(s, beta):
    # the geodesic of length s at angle beta ends at the far vertex of the
    # right triangle, (u, v) = (t, r), found with no triangle identity
    u, v = _geodesic_shoot(beta, s, max(1500, int(600 * s)))
    assert abs(u - ht.solve_t(s, beta)) < 1e-10
    assert abs(v - ht.solve_r(s, beta)) < 1e-10


# ---------------------------------------------------------------------------
# closed-form jacobian vs finite differences
# ---------------------------------------------------------------------------

def test_triangle_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    s = rng.uniform(0.5, 10.0, size=200)
    beta = rng.uniform(0.05, HALF_PI - 0.05, size=200)
    h = 1e-6
    dt_ds, dt_db, dr_ds, dr_db = ht.triangle_jacobian(s, beta)
    fd = lambda f, x, y, hx, hy: (f(x + hx, y + hy) - f(x - hx, y - hy)) / (2 * h)
    assert np.allclose(fd(ht.solve_t, s, beta, h, 0), dt_ds, rtol=1e-6, atol=1e-9)
    assert np.allclose(fd(ht.solve_t, s, beta, 0, h), dt_db, rtol=1e-6, atol=1e-9)
    assert np.allclose(fd(ht.solve_r, s, beta, h, 0), dr_ds, rtol=1e-6, atol=1e-9)
    assert np.allclose(fd(ht.solve_r, s, beta, 0, h), dr_db, rtol=1e-6, atol=1e-9)


def _jacobian_reference(s, beta):
    """(dt/ds, dt/dbeta, dr/ds, dr/dbeta) at 60 digits from the two floats,
    read exactly."""
    with mpmath.workdps(60):
        s, beta = mpmath.mpf(s), mpmath.mpf(beta)
        sinb, cosb = mpmath.sin(beta), mpmath.cos(beta)
        cr = mpmath.cosh(mpmath.asinh(sinb * mpmath.sinh(s)))
        return tuple(float(v) for v in (
            cosb / cr ** 2, -sinb * mpmath.sinh(s) * mpmath.cosh(s) / cr ** 2,
            sinb * mpmath.cosh(s) / cr, cosb * mpmath.sinh(s) / cr))


# s and r on either side of LOG_SWITCH, the ends of beta, and (700, 1e-200),
# where sinh(s) cosh(s) / cosh(r)^2 alone overflows but dt/dbeta is -1e200
_JACOBIAN_POINTS = [(0.5, 0.3), (25.0, 1.2), (ht.LOG_SWITCH, 0.7),
                    (40.0, 1e-10), (40.0, 0.7), (700.0, 1e-200),
                    (700.0, 0.3), (700.0, HALF_PI), (5.0, 0.0), (5.0, HALF_PI)]


def test_triangle_jacobian_matches_a_60_digit_reference():
    # within 1e-12 relative, and without a warning: exp of a log difference
    # of several hundred carries its rounding (1.6e-13 at (700, 1e-200))
    s, beta = np.array(_JACOBIAN_POINTS).T
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = ht.triangle_jacobian(s, beta)
    for i, point in enumerate(_JACOBIAN_POINTS):
        for name, g, ref in zip(("dt_ds", "dt_db", "dr_ds", "dr_db"),
                                (part[i] for part in got),
                                _jacobian_reference(*point)):
            assert abs(g - ref) <= 1e-12 * abs(ref), (point, name, g, ref)


def test_coth_sq_minus_one():
    assert ht.coth_sq_minus_one(2.0) == pytest.approx(1.0 / math.sinh(2.0) ** 2,
                                                      rel=1e-14)
    assert ht.coth_sq_minus_one(400.0) == pytest.approx(math.exp(-800.0) * 4.0,
                                                        rel=1e-12)


def test_array_functions_leave_inputs_alone_and_share_no_memory():
    # the flat arrays of _prepare may be views of the inputs, writable or
    # read-only (the join_grid axes): no function writes into one or
    # returns one, whether the input broadcasts (a copy) or not (a view)
    from hypext import extension as ext
    phi, beta = ext.join_grid(8, 6)
    s1 = np.linspace(0.5, 40.0, 6)
    s2 = np.linspace(0.5, 40.0, 48).reshape(8, 6)
    lam = np.linspace(0.5, 700.0, 6)
    b = np.linspace(-2.0, 1.0, 6)
    theta = np.linspace(0.1, HALF_PI, 6)
    calls = [
        (ht.solve_r, (s1, beta)), (ht.solve_r, (s2, beta)),
        (ht.solve_t, (s1, beta)), (ht.solve_t, (s2, beta)),
        (ht.reparam, (lam, theta)), (ht.reparam_inverse, (lam, theta)),
        (ht.reparam, (lam, HALF_PI)),
        (ht.log_sinh, (s2,)), (ht.log_sinh, (beta,)),
        (ht.log_cosh, (b,)), (ht.log_cosh, (phi,)),
        (ht.vartheta_shift, (beta, b, theta)),
        (ht.triangle_jacobian, (s1, beta)), (ht.triangle_jacobian, (s2, beta)),
        (ht.coth_sq_minus_one, (s1,)), (ht.coth_sq_minus_one, (beta,)),
    ]
    for fn, args in calls:
        before = [(a.tobytes(), a.flags.writeable) for a in args
                  if isinstance(a, np.ndarray)]
        out = fn(*args)
        outs = out if isinstance(out, tuple) else (out,)
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        assert [(a.tobytes(), a.flags.writeable) for a in arrays] == before, \
            fn.__name__
        for o in outs:
            assert isinstance(o, np.ndarray) and o.flags.writeable
            assert not any(np.shares_memory(o, a) for a in arrays), \
                fn.__name__


def test_scalar_and_array_parity():
    # the float route is plain math, the array route numpy: they agree to
    # roundoff, not bit for bit
    s = np.array([0.7, 2.0, 9.0, 45.0])
    beta = np.array([0.2, 0.9, 1.3, 1e-300])
    arr = ht.solve_r(s, beta)
    for i in range(s.size):
        got = ht.solve_r(float(s[i]), float(beta[i]))
        assert isinstance(got, float)
        assert got == pytest.approx(arr[i], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# both routes of solve_r against a 40-digit reference
# ---------------------------------------------------------------------------

def _same(a, b):
    """Equal bits, NaN included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _r_array(s, beta):
    return ht.solve_r(np.array([s]), np.array([beta]))[0]


def _r_reference(s, beta):
    """asinh(sin(beta) sinh(s)) at 40 digits from the two floats, read
    exactly."""
    with mpmath.workdps(40):
        return float(mpmath.asinh(mpmath.sin(mpmath.mpf(beta))
                                  * mpmath.sinh(mpmath.mpf(s))))


def _check_both_routes(s, beta):
    """The float and array routes of solve_r, each within 1e-12 relative
    of the reference (or one subnormal quantum absolute, where r is
    subnormal); exact where the result is exact: a NaN in gives NaN out,
    and sin(beta) == 0 gives +0.0."""
    got = ht.solve_r(s, beta)
    assert isinstance(got, float)
    routes = (got, ht.solve_r(np.float64(s), np.float64(beta)),
              _r_array(s, beta))
    if math.sin(beta) == 0.0:     # at any s, NaN included
        assert all(_same(r, 0.0) for r in routes), (s, beta, routes)
        return
    if math.isnan(s) or math.isnan(beta):
        assert all(math.isnan(r) for r in routes), (s, beta, routes)
        return
    ref = _r_reference(s, beta)
    for r in routes:
        assert abs(r - ref) <= max(1e-12 * abs(ref), 5e-324), \
            (s, beta, r, ref)


# s near LOG_SWITCH and where log_k + s crosses 300, and NaN; beta near
# both ends
_S_EDGES = [math.nextafter(ht.LOG_SWITCH, -math.inf), ht.LOG_SWITCH,
            math.nextafter(ht.LOG_SWITCH, math.inf), 299.0, 300.0, 301.0,
            800.0, 5e-324, 1e-300, math.nan]
_BETA_EDGES = [0.0, -0.0, 5e-324, 1e-300, HALF_PI,
               math.nextafter(HALF_PI, 0.0), math.nan]


def _ln_y_near_20(s, delta):
    """An angle that puts ln y = log_k + s - ln 2 + ... within delta of 20,
    the switch of the log-domain asinh (s > LOG_SWITCH)."""
    return math.asin(math.exp(20.0 + math.log(2.0) - s + delta))


_scalar_cases = st.one_of(
    st.tuples(st.floats(0.0, 800.0, exclude_min=True),
              st.floats(0.0, HALF_PI)),
    st.tuples(st.sampled_from(_S_EDGES), st.floats(0.0, HALF_PI)),
    st.tuples(st.floats(0.0, 800.0, exclude_min=True),
              st.sampled_from(_BETA_EDGES)),
    st.tuples(st.floats(0.0, 800.0, exclude_min=True),
              st.floats(1e-300, 1e-3)),
    st.floats(31.0, 60.0).flatmap(lambda s: st.tuples(
        st.just(s), st.floats(-1e-12, 1e-12).map(
            lambda d: _ln_y_near_20(s, d)))),
)


@settings(max_examples=400, deadline=None)
@given(_scalar_cases)
def test_solve_r_routes_match_a_40_digit_reference(case):
    _check_both_routes(*case)


def _t_reference(s, beta):
    """asinh(sinh(s) cos(beta) / cosh(r)), r = asinh(sin(beta) sinh(s)),
    at 120 digits from the two floats, read exactly.  The
    atanh(cos(beta) tanh(s)) form cancels: at 50 digits it reads 58.92
    where t(77.355, 5.78e-26) is 58.806."""
    with mpmath.workdps(120):
        s, beta = mpmath.mpf(s), mpmath.mpf(beta)
        r = mpmath.asinh(mpmath.sin(beta) * mpmath.sinh(s))
        return float(mpmath.asinh(mpmath.sinh(s) * mpmath.cos(beta)
                                  / mpmath.cosh(r)))


def _r_near_switch(s, delta):
    """An angle that puts r within about delta of LOG_SWITCH at
    s > LOG_SWITCH + delta: sin(beta) = sinh(r) / sinh(s) ~ e^(r - s)."""
    return math.asin(math.exp(ht.LOG_SWITCH + delta - s))


_t_cases = st.one_of(
    # s across LOG_SWITCH: the direct branch and the two log-domain ones
    st.tuples(st.floats(ht.LOG_SWITCH - 1.0, ht.LOG_SWITCH + 1.0),
              st.floats(0.0, HALF_PI)),
    # r across LOG_SWITCH at s > LOG_SWITCH: the near branch and cot
    st.floats(34.0, 700.0).flatmap(lambda s: st.tuples(
        st.just(s), st.floats(-2.0, 2.0).map(
            lambda d: _r_near_switch(s, d)))),
    # the ends of beta, at any s
    st.tuples(st.floats(0.0, 800.0, exclude_min=True),
              st.sampled_from(_BETA_EDGES)),
    st.tuples(st.sampled_from(_S_EDGES), st.sampled_from(_BETA_EDGES)),
    # subnormal sin(beta) at large s, where cot(beta) overflows
    st.tuples(st.floats(740.0, 800.0), st.floats(5e-324, 1e-306)),
    st.sampled_from([(800.0, 1e-310), (745.0, 2e-309), (775.29, 4.1e-322),
                     (800.0, 2.0 ** -1024),
                     (800.0, math.nextafter(2.0 ** -1024, 1.0))]),
    st.tuples(st.floats(0.0, 800.0, exclude_min=True),
              st.floats(0.0, HALF_PI)),
)


@settings(max_examples=400, deadline=None)
@given(_t_cases)
def test_solve_t_matches_a_120_digit_reference(case):
    # within 1e-12 relative of the reference (one subnormal quantum where t
    # is subnormal), on every branch, and without a warning; a NaN in gives
    # NaN out
    s, beta = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ht.solve_t(s, beta)
        arr = ht.solve_t(np.array([s]), np.array([beta]))[0]
    assert isinstance(got, float) and _same(got, arr)
    if math.isnan(s) or math.isnan(beta):
        assert math.isnan(got)
        return
    ref = _t_reference(s, beta)
    assert abs(got - ref) <= max(1e-12 * abs(ref), 5e-324), (s, beta, got,
                                                              ref)


def test_scalar_solve_r_matches_array_on_edges():
    # every pair of edges, and sweeps across both branch switches: s across
    # LOG_SWITCH, and an angle that puts ln y across 20 at s = 40
    lp = np.linspace(-0.5, 0.5, 401)
    cases = ([(s, beta) for s in _S_EDGES for beta in _BETA_EDGES]
             + [(ht.LOG_SWITCH + d, 0.7) for d in lp.tolist()]
             + [(40.0, _ln_y_near_20(40.0, d)) for d in lp.tolist()])
    for s, beta in cases:
        _check_both_routes(s, beta)


@pytest.mark.parametrize("s,beta", [
    (0.0, 0.3), (-0.0, 0.3), (-1.0, 0.3), (-math.inf, 0.3),
    (1.0, -1e-300), (1.0, math.nextafter(HALF_PI, math.inf)), (1.0, 4.0),
    (1.0, math.inf), (1.0, -math.inf),
    (-4.0, 0.7), (0.0, 0.7), (-0.0, 0.7), (4.0, -0.7),
    (4.0, HALF_PI + 1e-9), (4.0, math.inf),
])
def test_scalar_solve_r_raises_the_array_domain_errors(s, beta):
    # refused before anything is computed from the input, so nothing warns
    with pytest.raises(DomainError) as scalar, warnings.catch_warnings():
        warnings.simplefilter("error")
        ht.solve_r(s, beta)
    with pytest.raises(DomainError) as array:
        ht.solve_r(np.array([s]), np.array([beta]))
    assert str(scalar.value) == str(array.value)


@settings(max_examples=400, deadline=None)
@given(st.floats(), st.floats())
def test_scalar_solve_r_raises_only_domain_errors(s, beta):
    # math raises OverflowError or ValueError where numpy only warns: the
    # float route refuses every such input first, and warns on none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = ht.solve_r(s, beta)
        except DomainError:
            return
    assert isinstance(r, float)
    # a NaN leg comes only from a NaN input
    assert not math.isnan(r) or math.isnan(s) or math.isnan(beta)


def _vartheta_reference(lam, beta, b, theta):
    """solve_r(reparam_inverse(lam, theta) + b, beta) at 40 digits."""
    with mpmath.workdps(40):
        lp = mpmath.asinh(mpmath.sinh(lam) / mpmath.sin(mpmath.mpf(theta)))
        return float(mpmath.asinh(mpmath.sin(mpmath.mpf(beta))
                                  * mpmath.sinh(lp + b)))


def _shift_reference(beta, b, theta):
    with mpmath.workdps(40):
        return float(b + mpmath.log(mpmath.sin(mpmath.mpf(beta))
                                    / mpmath.sin(mpmath.mpf(theta))))


def test_vartheta_broadcast_matches_per_point_calls():
    # the identities suite takes its shift gaps in one broadcast call over
    # the (beta, b, theta) grid; the per-point calls take the float route
    # of solve_r: each agrees with the 40-digit reference to roundoff
    be, b, theta = np.meshgrid(np.linspace(0.08, 0.30, 10),
                               np.linspace(-2.0, -0.6, 5),
                               (HALF_PI, math.pi / 3, 1.0), indexing="ij")
    got = ht.vartheta(30.0, be, b, theta)
    shift = ht.vartheta_shift(be, b, theta)
    for idx in np.ndindex(be.shape):
        args = (float(be[idx]), float(b[idx]), float(theta[idx]))
        ref = _vartheta_reference(30.0, *args)
        for v in (got[idx], ht.vartheta(30.0, *args)):
            assert v == pytest.approx(ref, rel=1e-12, abs=0.0), args
        ref = _shift_reference(*args)
        for v in (shift[idx], ht.vartheta_shift(*args)):
            assert v == pytest.approx(ref, rel=1e-12, abs=1e-15), args


def test_nan_angle_gives_nan_legs():
    for s in (5.0, 40.0):
        assert math.isnan(ht.solve_r(s, math.nan))
        assert math.isnan(ht.solve_t(s, math.nan))
        assert math.isnan(ht.solve_t(math.nan, 0.3))
        r = ht.solve_r(np.array([s, s]), np.array([math.nan, 0.3]))
        t = ht.solve_t(np.array([s, s]), np.array([math.nan, 0.3]))
        assert math.isnan(r[0]) and math.isnan(t[0])
        assert r[1] == ht.solve_r(s, 0.3) and t[1] == ht.solve_t(s, 0.3)
    assert math.isnan(ht.solve_r(math.nan, 0.3))
    # only sin(beta) == 0 gives a zero leg
    assert ht.solve_r(5.0, 0.0) == 0.0 and ht.solve_r(5.0, -0.0) == 0.0
    assert np.array_equal(ht.solve_r(np.array([5.0, 5.0]),
                                     np.array([0.0, -0.0])), [0.0, 0.0])


def test_thread_parallel_grid_matches_serial():
    # pure functions of their arguments: partitioning a sweep across
    # threads must reproduce the serial result bit for bit
    from concurrent.futures import ThreadPoolExecutor
    rng = np.random.default_rng(42)
    s = rng.uniform(0.2, 40.0, size=4096)
    beta = rng.uniform(0.01, HALF_PI - 0.01, size=4096)
    serial = ht.solve_r(s, beta)
    chunks = np.array_split(np.arange(4096), 8)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parts = list(pool.map(lambda ix: ht.solve_r(s[ix], beta[ix]), chunks))
    assert np.array_equal(np.concatenate(parts), serial)


def test_scalar_solve_r_signed_zero_and_nan_beta():
    # a zero angle of either sign gives +0.0 on both routes, at any s; a
    # NaN angle gives NaN
    for s in (4.0, 45.0, math.nan):
        for beta in (0.0, -0.0):
            assert _same(ht.solve_r(s, beta), 0.0), (s, beta)
            assert _same(_r_array(s, beta), 0.0), (s, beta)
        assert math.isnan(ht.solve_r(s, math.nan))
        assert math.isnan(_r_array(s, math.nan))
