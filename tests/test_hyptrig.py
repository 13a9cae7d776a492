import dataclasses
import math

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
        "solve_alpha": ht.solve_alpha,
        "beta_of_r": ht.beta_of_r,
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
            B, c, c_prime, theta, margin = args
            params = ht.ReparamParams(theta=theta, b=0.0, B=B, c=c,
                                      c_prime=c_prime)
            got = ht.beta1_threshold(params, margin=margin)
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


def test_beta_of_r_endpoints():
    assert ht.beta_of_r(4.0, 4.0) == pytest.approx(HALF_PI, rel=1e-14)
    assert ht.beta_of_r(4.0, 0.0) == 0.0


def test_solve_alpha_euclidean_limit():
    # tiny triangles are asymptotically Euclidean: alpha -> pi/2 - beta
    for s in (1e-4, 3e-4, 1e-3):
        assert ht.solve_alpha(s, 0.7) == pytest.approx(HALF_PI - 0.7, abs=1e-6)


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
# domain errors and clamping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn,args", [
    (ht.solve_r, (-1.0, 0.3)),
    (ht.solve_r, (0.0, 0.3)),
    (ht.solve_r, (1.0, -0.1)),
    (ht.solve_r, (1.0, HALF_PI + 0.1)),
    (ht.solve_t, (0.0, 0.3)),
    (ht.solve_alpha, (1.0, 0.0)),
    (ht.solve_alpha, (1.0, HALF_PI)),
    (ht.beta_of_r, (2.0, 2.5)),
    (ht.beta_of_r, (2.0, -0.1)),
    (ht.reparam, (-3.0, 1.0)),
    (ht.reparam, (3.0, 0.0)),
    (ht.reparam, (3.0, HALF_PI + 1e-6)),
    (ht.reparam_inverse, (3.0, 2.0)),
    (ht.vartheta_shift, (0.0, 1.0, 1.0)),
    (ht.log_sinh, (0.0,)),
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


def test_clamp_budget_rejects_gross_overshoot():
    with pytest.raises(DomainError):
        ht._clamped_arc(np.arccos, np.array([1.0 + 1e-9]), "test")
    # roundoff-level overshoot is accepted
    out = ht._clamped_arc(np.arccos, np.array([1.0 + 1e-13]), "test")
    assert out[0] == 0.0


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


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 30.0), st.floats(0.01, HALF_PI - 0.01))
def test_triangle_state_consistency(s, beta):
    state = ht.TriangleState.from_hypotenuse_angle(s, beta)
    assert max(state.residuals().values()) < 1e-12
    # solver inverse pair
    assert rel_err(ht.beta_of_r(s, state.r), beta) < 1e-10


@pytest.mark.parametrize("leg", ["s", "t", "r"])
def test_triangle_state_validate_fails_on_nan(leg):
    # a NaN t leaves the law of sines finite: a builtin max fold would
    # keep that finite residual and pass
    good = ht.TriangleState.from_hypotenuse_angle(2.0, 0.7)
    bad = dataclasses.replace(good, **{leg: math.nan})
    with pytest.raises(VerificationError):
        bad.validate()


def test_triangle_state_from_nan_hypotenuse_fails():
    # refused as input or failed in validation, never a NaN state
    with pytest.raises((DomainError, VerificationError)):
        ht.TriangleState.from_hypotenuse_angle(math.nan, 0.7)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.2, 600.0), st.floats(0.1, HALF_PI - 0.1))
def test_beta_of_r_inverts_solve_r(s, beta):
    assert rel_err(ht.beta_of_r(s, ht.solve_r(s, beta)), beta) < 1e-10


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
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=-1.0, c=1.0, c_prime=0.0)
    beta1 = ht.beta1_threshold(params)
    assert beta1 == pytest.approx(math.asin(math.exp(-1.5)), rel=1e-12)
    # the defining inequality on a spot grid
    grid = np.geomspace(5.0, 700.0, 50)
    assert np.all(ht.solve_r(grid + 0.0, beta1) <= ht.reparam(grid, HALF_PI) - 1.0)


def test_beta1_degenerate_returns_pi_over_4():
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=0.5, c=1.0, c_prime=0.2)
    assert ht.beta1_threshold(params) == pytest.approx(math.pi / 4)


def test_beta1_absurdly_low_bound_still_passes():
    # the bound is monotone: pushing B far down just makes beta1 tiny
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=-9.0, c=1.0,
                              c_prime=0.9)
    beta1 = ht.beta1_threshold(params)
    assert 0.0 < beta1 < 1e-4


def test_beta1_requires_B_below_c():
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=1.0, c=1.0, c_prime=0.0)
    with pytest.raises(DomainError):
        ht.beta1_threshold(params)


@settings(max_examples=60, deadline=None)
@given(st.floats(-6.0, 0.5), st.floats(0.3, HALF_PI),
       st.floats(0.1, 2.0), st.floats(0.2, 3.0))
def test_beta1_threshold_property(B, theta, c_gap, cp_gap):
    # any admissible (B, c, c', theta) yields a verified angle
    c = B + c_gap
    c_prime = c + math.log(math.sin(theta)) - cp_gap
    params = ht.ReparamParams(theta=theta, b=0.0, B=B, c=c, c_prime=c_prime)
    beta1 = ht.beta1_threshold(params)
    assert 0.0 < beta1 <= math.pi / 4


def test_beta1_verification_failure_raises():
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=-1.0, c=1.0, c_prime=0.0)
    with pytest.raises(VerificationError):
        # sweep from tiny lambda' where the inequality cannot hold yet
        ht.beta1_threshold(params, lambda_min=1e-3)


def test_reparam_params_validation():
    with pytest.raises(DomainError):
        ht.ReparamParams(theta=0.0, b=0.0, B=-1.0, c=1.0, c_prime=0.0)
    with pytest.raises(DomainError):
        # c_prime bound: requires c' < c + ln sin(theta)
        ht.ReparamParams(theta=math.pi / 3, b=0.0, B=-1.0, c=1.0, c_prime=0.99)


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


def test_coth_sq_minus_one():
    assert ht.coth_sq_minus_one(2.0) == pytest.approx(1.0 / math.sinh(2.0) ** 2,
                                                      rel=1e-14)
    assert ht.coth_sq_minus_one(400.0) == pytest.approx(math.exp(-800.0) * 4.0,
                                                        rel=1e-12)


def test_scalar_and_array_parity():
    s = np.array([0.7, 2.0, 9.0])
    beta = np.array([0.2, 0.9, 1.3])
    arr = ht.solve_r(s, beta)
    for i in range(3):
        assert arr[i] == ht.solve_r(float(s[i]), float(beta[i]))
    assert isinstance(ht.solve_r(1.0, 0.5), float)


# ---------------------------------------------------------------------------
# the scalar path of solve_r gives the bits of the array path
# ---------------------------------------------------------------------------

def _same(a, b):
    """Equal bits, NaN included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _r_array(s, beta):
    return ht.solve_r(np.array([s]), np.array([beta]))[0]


# s near LOG_SWITCH and where log_k + s crosses 300; beta near both ends
_S_EDGES = [math.nextafter(ht.LOG_SWITCH, -math.inf), ht.LOG_SWITCH,
            math.nextafter(ht.LOG_SWITCH, math.inf), 299.0, 300.0, 301.0,
            800.0, 5e-324, 1e-300]
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
def test_scalar_solve_r_matches_array_bits(case):
    s, beta = case
    expect = _r_array(s, beta)
    assert _same(ht.solve_r(s, beta), expect)
    assert _same(ht.solve_r(np.float64(s), np.float64(beta)), expect)
    assert isinstance(ht.solve_r(s, beta), float)


def test_scalar_solve_r_matches_array_on_edges():
    s = np.array([x for x in _S_EDGES for _ in _BETA_EDGES])
    beta = np.array(_BETA_EDGES * len(_S_EDGES))
    # dense sweeps across both branch switches: the two sides of each
    # switch differ in the last bit on a share of inputs, so a switch
    # moved on one path shows here
    lp = np.linspace(-0.5, 0.5, 2001)
    s = np.concatenate([s, ht.LOG_SWITCH + lp, np.full(lp.size, 40.0)])
    beta = np.concatenate([beta, np.full(lp.size, 0.7),
                           [_ln_y_near_20(40.0, d) for d in lp]])
    arr = ht.solve_r(s, beta)
    for si, bi, ri in zip(s, beta, arr):
        assert _same(ht.solve_r(float(si), float(bi)), ri), (si, bi)


@pytest.mark.parametrize("s,beta", [
    (0.0, 0.3), (-0.0, 0.3), (-1.0, 0.3), (-math.inf, 0.3),
    (1.0, -1e-300), (1.0, math.nextafter(HALF_PI, math.inf)), (1.0, 4.0),
    (1.0, math.inf), (1.0, -math.inf),
])
def test_scalar_solve_r_raises_the_array_domain_errors(s, beta):
    with pytest.raises(DomainError) as scalar:
        ht.solve_r(s, beta)
    with pytest.raises(DomainError) as array:
        ht.solve_r(np.array([s]), np.array([beta]))
    assert str(scalar.value) == str(array.value)


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
