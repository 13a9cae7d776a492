import math
from dataclasses import replace

import numpy as np
import pytest

from hypext import extension as ext
from hypext import fields as mf
from hypext import hyptrig as ht
from hypext.errors import DomainError

HALF_PI = math.pi / 2


def hyperbolic_space():
    """The hyperbolic base, whose extension is hyperbolic 3-space."""
    return mf.hyperbolic_radial()


def perturbed_space():
    """Base with a genuinely radius-dependent unwarped cut: a Gaussian-in-r
    perturbation along cos^2 of the angle."""
    def cut(r):
        amp = 0.05 * math.exp(-((r - 2.0) ** 2))
        def comp(angles):
            return math.sinh(r) ** 2 * (1.0 + amp * np.cos(angles) ** 2)
        return mf.SphereMetricField.from_function(comp)
    return mf.RadialMetric(domain=(0.0, 350.0), name="perturbed", _cut=cut)


# ---------------------------------------------------------------------------
# closed-form cut: round-sphere recovery and scaling law
# ---------------------------------------------------------------------------

def test_round_sphere_recovery():
    base = hyperbolic_space()
    phi, beta = ext.join_grid(24, 20)
    ref_m, ref_b = ext.round_join_blocks(phi, beta)
    for s in (1.0, 3.0, 6.0):
        cut = ext.cut_via_formula(base, s, unwarped=True)
        sample = cut.sample(phi, beta)
        for sheet in range(2):
            assert np.max(np.abs(sample.block_m[sheet] - ref_m)) < 1e-10
            assert np.max(np.abs(sample.block_beta[sheet] - ref_b)) < 1e-10


def test_round_sphere_recovery_against_chart_transport():
    # independent expression of the round metric through the stereographic
    # atlas; agreement witnesses that the extension of the hyperbolic base
    # is hyperbolic space itself
    base = hyperbolic_space()
    phi, beta = ext.join_grid(24, 20)
    cut = ext.cut_via_formula(base, 3.0, unwarped=True)
    sample = cut.sample(phi, beta)
    for sheet, idx in ((1, 0), (-1, 1)):
        tm, tb, tx = ext.round_metric_in_join_coordinates(phi, beta, sheet)
        assert np.max(np.abs(sample.block_m[idx] - tm)) < 1e-10
        assert np.max(np.abs(sample.block_beta[idx] - tb)) < 1e-10
        assert np.max(np.abs(tx)) < 1e-12


def test_unwarped_is_scaled_warped():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    s = 2.5
    warped = ext.cut_via_formula(base, s, unwarped=False).sample(phi, beta)
    unwarped = ext.cut_via_formula(base, s, unwarped=True).sample(phi, beta)
    f = math.sinh(s) ** 2
    assert np.allclose(unwarped.block_m * f, warped.block_m, rtol=1e-12)
    assert np.allclose(unwarped.block_beta * f, warped.block_beta, rtol=1e-12)
    assert np.allclose(unwarped.block_h_coeff * f, warped.block_h_coeff,
                       rtol=1e-12)


# ---------------------------------------------------------------------------
# pullback oracle vs closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_space", [hyperbolic_space, perturbed_space])
@pytest.mark.parametrize("s", [1.0, 3.0])
def test_formula_vs_pullback(make_space, s):
    base = make_space()
    phi, beta = ext.join_grid(24, 18)
    formula = ext.cut_via_formula(base, s, unwarped=False).sample(phi, beta)
    oracle = ext.cut_via_pullback(base, s, phi, beta)
    rep = ext.compare_join(formula, oracle)
    assert rep["max_rel_err_block_M"] < 1e-5
    assert rep["max_rel_err_block_beta"] < 1e-5
    assert rep["max_abs_offdiag"] < 1e-6


def test_pullback_beta_block_normalizes_to_one():
    base = hyperbolic_space()
    phi, beta = ext.join_grid(8, 16)
    for s in (1.0, 6.0):
        oracle = ext.cut_via_pullback(base, s, phi, beta)
        assert np.max(np.abs(oracle.block_beta / math.sinh(s) ** 2 - 1.0)) < 1e-6


def test_pullback_margin_guard():
    base = hyperbolic_space()
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    beta = np.linspace(1e-6, HALF_PI - 1e-6, 10)
    with pytest.raises(DomainError):
        ext.cut_via_pullback(base, 1.0, phi, beta)


def test_compare_join_grid_mismatch():
    base = hyperbolic_space()
    phi, beta = ext.join_grid(8, 8)
    phi2, beta2 = ext.join_grid(8, 10)
    a = ext.cut_via_formula(base, 1.0, unwarped=False).sample(phi, beta)
    b = ext.cut_via_pullback(base, 1.0, phi2, beta2)
    with pytest.raises(DomainError):
        ext.compare_join(a, b)


def test_join_c2_distance_identity_and_symmetry():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0, unwarped=True).sample(phi, beta)
    b = ext.cut_via_formula(base, 2.5, unwarped=True).sample(phi, beta)
    zero = ext.join_c2_distance(a, a)
    assert (zero.c0, zero.c1, zero.c2) == (0.0, 0.0, 0.0)
    dab = ext.join_c2_distance(a, b)
    dba = ext.join_c2_distance(b, a)
    assert (dab.c0, dab.c1, dab.c2) == (dba.c0, dba.c1, dba.c2)
    assert dab.c0 > 0


def materialized(sample):
    """The same sample with every block copied into its own array."""
    return replace(sample, block_m=np.array(sample.block_m),
                   block_beta=np.array(sample.block_beta),
                   offdiag=np.array(sample.offdiag))


def test_join_sample_is_read_only_view_of_one_sheet():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    sample = ext.cut_via_formula(base, 2.0, unwarped=True).sample(phi, beta)
    for block in (sample.block_m, sample.block_beta, sample.offdiag):
        assert block.shape == (2, 16, 12)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0, 0] = 1.0
        assert np.array_equal(block[0], block[1])
    assert np.all(sample.offdiag == 0.0)


def test_join_sample_views_give_unchanged_results():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0, unwarped=True).sample(phi, beta)
    b = ext.cut_via_formula(base, 2.5, unwarped=True).sample(phi, beta)
    assert ext.join_c2_distance(a, b) == ext.join_c2_distance(
        materialized(a), materialized(b))
    formula = ext.cut_via_formula(base, 1.0, unwarped=False).sample(phi, beta)
    oracle = ext.cut_via_pullback(base, 1.0, phi, beta)
    assert ext.compare_join(formula, oracle) == ext.compare_join(
        materialized(formula), oracle)


def test_join_c2_distance_carries_nan():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0, unwarped=True).sample(phi, beta)
    bad = materialized(a)
    bad.block_m[1, 5, 6] = math.nan
    d = ext.join_c2_distance(bad, a)
    assert math.isnan(d.c0) and math.isnan(d.c1) and math.isnan(d.c2)
    assert math.isnan(d.max())


# ---------------------------------------------------------------------------
# the coordinate identity
# ---------------------------------------------------------------------------

def test_polar_identity_fd_grid():
    s = np.linspace(0.5, 10.0, 20)
    beta = np.linspace(0.05, HALF_PI - 0.05, 20)
    ss, bb = np.meshgrid(s, beta, indexing="ij")
    res = ext.polar_identity_residual(ss, bb, derivatives="fd")
    assert np.max(res) < 1e-6


def test_polar_identity_closed_grid():
    s = np.linspace(0.5, 10.0, 20)
    beta = np.linspace(0.05, HALF_PI - 0.05, 20)
    ss, bb = np.meshgrid(s, beta, indexing="ij")
    res = ext.polar_identity_residual(ss, bb, derivatives="closed")
    assert np.max(res) < 1e-12


def test_polar_identity_stress_near_fiber():
    # large s close to the beta = pi/2 edge of the sampling band
    res = ext.polar_identity_residual(9.5, HALF_PI - 0.05, derivatives="fd")
    assert res < 1e-6


def test_polar_identity_rejects_bad_step():
    with pytest.raises(DomainError):
        ext.polar_identity_residual(1.0, 0.5, fd_step=0.5, derivatives="fd")


# ---------------------------------------------------------------------------
# angle oracle
# ---------------------------------------------------------------------------

def test_angle_oracle_euclidean_limit():
    assert ext.angle_oracle(1e-3, 0.7) == pytest.approx(HALF_PI - 0.7, abs=1e-5)


def test_angle_oracle_validates_closed_form():
    # the acceptance point for the derived cos(alpha) = tanh(r)/tanh(s)
    got = ext.angle_oracle(2.0, 0.5)
    assert abs(got - ht.solve_alpha(2.0, 0.5)) < 1e-6


@pytest.mark.parametrize("s,beta", [(0.5, 0.3), (1.0, 1.2), (3.0, 0.9),
                                    (2.0, HALF_PI - 0.1)])
def test_angle_oracle_spot_grid(s, beta):
    assert abs(ext.angle_oracle(s, beta) - ht.solve_alpha(s, beta)) < 1e-6


def test_angle_oracle_domain():
    with pytest.raises(DomainError):
        ext.angle_oracle(-1.0, 0.5)
    with pytest.raises(DomainError):
        ext.angle_oracle(1.0, 0.0)
