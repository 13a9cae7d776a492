import dataclasses
import math

import numpy as np
import pytest

from hypext import cutlimits as cl
from hypext import extension as ext
from hypext import families as fam
from hypext import fields as mf
from hypext import hyptrig as ht
from hypext.errors import DomainError, VerificationError

HALF_PI = math.pi / 2
PI_3 = math.pi / 3


def bump():
    return fam.FamilySpec(kind="bump").build()


def hyper():
    return fam.hyperbolic_family()


def unbounded_control():
    """Negative control: a constant perturbation at every radius, so no
    collar bound exists (the bump support is unbounded below)."""
    pert = mf.SphereMetricField.from_function(
        lambda angles: 1.025 * np.ones(np.shape(angles)))

    def cut(lam, rho):
        return pert

    return cl.MetricFamily(cut=cut, lambda_min=0.5, hyperbolic_bound=-1.0,
                           limit=lambda b: pert, interval_bound=1.0,
                           family_id="unbounded-control")


# ---------------------------------------------------------------------------
# collar check
# ---------------------------------------------------------------------------

def test_hyperbolic_family_passes_any_bound():
    family = hyper()
    for B in (-3.0, 0.0, 5.0):
        lam_grid = [max(2.0, 2.0 - B), max(6.0, 6.0 - B)]
        ok, dev = cl.is_hyperbolic_around_origin(
            family, B, lam_grid, [B - 1.0, B])
        assert ok and dev < 1e-15


def test_bump_family_collar_bound_is_sharp():
    family = bump()
    ok, dev = cl.is_hyperbolic_around_origin(
        family, -1.0, [4.0, 8.0], [-2.0, -1.0])
    assert ok and dev < 1e-15
    ok2, dev2 = cl.is_hyperbolic_around_origin(
        family, -0.5, [4.0, 8.0], [-0.5])
    assert not ok2 and dev2 > 1e-4


def test_unbounded_family_fails():
    ok, dev = cl.is_hyperbolic_around_origin(
        unbounded_control(), -1.0, [4.0], [-3.0, -1.0])
    assert not ok and dev == pytest.approx(0.025, rel=1e-10)


def test_collar_check_guards():
    with pytest.raises(DomainError):
        cl.is_hyperbolic_around_origin(bump(), -1.0, [4.0], [0.0])  # b > B
    with pytest.raises(DomainError):
        cl.is_hyperbolic_around_origin(bump(), -1.0, [0.5], [-1.0])  # radius<=0


# ---------------------------------------------------------------------------
# extension family cut
# ---------------------------------------------------------------------------

def test_round_family_gives_round_join_metric():
    family = hyper()
    phi, beta = ext.join_grid(16, 12)
    ref_m, ref_b = ext.round_join_blocks(phi, beta)
    for theta in (HALF_PI, PI_3):
        for lp, b in [(4.0, 0.0), (7.0, -1.2), (10.0, 0.7)]:
            cut = cl.extension_family_cut(family, theta, lp, b)
            sample = cut.sample(phi, beta)
            assert np.max(np.abs(sample.block_m[0] - ref_m)) < 1e-12
            assert np.max(np.abs(sample.block_beta[0] - ref_b)) < 1e-12


def test_extension_family_cut_guards():
    family = bump()
    with pytest.raises(DomainError):
        cl.extension_family_cut(family, HALF_PI, 1.0, -2.0)  # radius <= 0
    with pytest.raises(DomainError):
        cl.extension_family_cut(family, PI_3, 0.4, 0.0)  # below lambda_min


def test_region_exactness():
    # wherever r(lambda'+b, beta) <= reparam(lambda') + B the measured
    # block is exactly round: an identity of the construction
    family = bump()
    theta = PI_3
    params = ht.ReparamParams(theta=theta, b=0.0, B=-1.0, c=1.0,
                              c_prime=cl.c_prime_bound(family, theta))
    beta1 = ht.beta1_threshold(params)
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    betas = np.linspace(1e-3, beta1, 7)
    for lp in (6.0, 10.0):
        for b in (params.c_prime, -1.5):
            lam = ht.reparam(lp, theta)
            cond = ht.vartheta(lam, betas, b, theta) <= lam - 1.0
            cut = cl.extension_family_cut(family, theta, lp, b)
            m = cut.block_m(phi, betas)
            exact = np.abs(m - np.sin(betas)[None, :] ** 2) == 0.0
            assert np.all(exact[:, cond])


# ---------------------------------------------------------------------------
# predicted limit
# ---------------------------------------------------------------------------

def test_predicted_limit_round_family():
    family = hyper()
    phi, beta = ext.join_grid(16, 12)
    ref_m, ref_b = ext.round_join_blocks(phi, beta)
    for theta, b in [(HALF_PI, 0.0), (PI_3, -2.0), (0.4, 5.0)]:
        assembly = cl.predicted_limit(family, theta, b)
        sample = assembly.interior.sample(phi, beta)
        assert np.max(np.abs(sample.block_m[0] - ref_m)) < 1e-12
        assert np.max(np.abs(sample.block_beta[0] - ref_b)) < 1e-12


def test_predicted_limit_beta_equals_theta_slice():
    # at beta = theta the shift collapses to b, so the interior block is
    # sin^2(theta) * limit(b)
    family = bump()
    theta, b = PI_3, 0.3
    assembly = cl.predicted_limit(family, theta, b)
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    m = assembly.interior.block_m(phi, np.array([theta]))
    expect = math.sin(theta) ** 2 * family.limit(b).at_angles(phi)
    assert np.allclose(m[:, 0], expect, rtol=1e-14)


def test_predicted_limit_refuses_b_beyond_c_prime():
    family = bump()
    cp = cl.c_prime_bound(family, PI_3)
    assert cp == pytest.approx(1.0 + math.log(math.sin(PI_3)) - 0.1)
    with pytest.raises(DomainError, match="c'"):
        cl.predicted_limit(family, PI_3, cp + 0.05)
    # hyperbolic family has no bound
    assert cl.c_prime_bound(hyper(), PI_3) == math.inf


def test_predicted_limit_requires_oracle():
    family = cl.MetricFamily(cut=hyper().cut,
                             lambda_min=0.5, hyperbolic_bound=math.inf,
                             limit=None, family_id="no-oracle")
    with pytest.raises(DomainError, match="oracle"):
        cl.predicted_limit(family, HALF_PI, 0.0)


def test_boundary_positivity():
    for family in (hyper(), bump()):
        for theta, b in [(HALF_PI, 0.5), (PI_3, -1.0)]:
            assembly = cl.predicted_limit(family, theta, b)
            ok, worst = cl.boundary_positivity(assembly)
            assert ok and worst > 0.0


def _nan_beyond(x, value=1.0):
    """A component array that is NaN where the angle |x| > 1."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) > 1.0, math.nan, value)


@pytest.mark.parametrize("slot", ["block_m", "block_beta", "equator"])
def test_boundary_positivity_fails_on_nan(slot):
    assembly = cl.predicted_limit(bump(), HALF_PI, 0.5)
    interior, eq = assembly.interior, assembly.boundary_m
    if slot == "block_m":
        interior = dataclasses.replace(
            interior, block_m=lambda phi, beta: np.sin(beta)[None, :] ** 2
            * _nan_beyond(phi)[:, None])
    elif slot == "block_beta":
        interior = dataclasses.replace(
            interior, block_beta=lambda beta: np.where(beta > 1.0, math.nan,
                                                       1.0))
    else:
        eq = cl.BoundaryForm(normal_coeff=1.0,
                             h_field=mf.SphereMetricField.from_function(
                                 _nan_beyond))
    assembly = dataclasses.replace(assembly, interior=interior, boundary_m=eq)
    ok, worst = cl.boundary_positivity(assembly)
    assert not ok and math.isnan(worst)


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def _translated(family, a):
    """Reindex by a translation: the new member at lam is the old member
    at lam - a, so the new cut limit at b equals the old one at b + a."""
    return dataclasses.replace(
        family, cut=lambda lam, rho: family.cut(lam - a, rho),
        lambda_min=family.lambda_min + a,
        hyperbolic_bound=family.hyperbolic_bound - a,
        limit=lambda b: family.limit(b + a),
        interval_bound=family.interval_bound - a,
        family_id=f"{family.family_id}~shift{a:+g}")


def test_translation_coherence_at_right_angle():
    # at theta = pi/2 the run on the translated family reproduces the run
    # on the original at b + a with the lambda' grid shifted by -a
    family = bump()
    a = 1.0
    shifted = _translated(family, a)
    b = -1.5
    rep_shifted = cl.run_convergence(shifted, HALF_PI, [b], [5.0, 7.0],
                                     n_phi=16, n_beta=32)
    rep_orig = cl.run_convergence(family, HALF_PI, [b + a], [4.0, 6.0],
                                  n_phi=16, n_beta=32)
    for rs, ro in zip(rep_shifted.records, rep_orig.records):
        for key in ("c0", "c1", "c2", "boundary_M_c0", "boundary_H_c0"):
            assert rs[key] == pytest.approx(ro[key], abs=1e-12)


# ---------------------------------------------------------------------------
# convergence runs
# ---------------------------------------------------------------------------

def test_run_convergence_round_family_is_exact():
    rep = cl.run_convergence(hyper(), PI_3, [0.0, -1.0], [4.0, 6.0],
                             n_phi=16, n_beta=32)
    for r in rep.records:
        assert max(r["c0"], r["c1"], r["c2"]) < 1e-10
        assert r["boundary_H_c0"] < 1e-12


def test_theta_consistency_for_round_family():
    reports = {}
    for theta in (HALF_PI, PI_3, math.pi / 6):
        rep = cl.run_convergence(hyper(), theta, [0.0], [4.0, 6.0],
                                 n_phi=16, n_beta=32)
        reports[theta] = [(r["c0"], r["c1"], r["c2"], r["boundary_M_c0"])
                          for r in rep.records]
    base = reports[HALF_PI]
    for theta, rows in reports.items():
        for got, want in zip(rows, base):
            assert got == pytest.approx(want, abs=1e-12)


def test_run_convergence_bump_decays():
    family = bump()
    theta = HALF_PI
    cp = cl.c_prime_bound(family, theta)
    rep = cl.run_convergence(family, theta, [-2.0, 0.0, cp],
                             [4.0, 6.0, 8.0, 10.0], n_phi=24, n_beta=48)
    failures = cl.check_convergence_assertions(rep)
    assert failures == []
    # the active-b distances really decay (sanity on magnitudes)
    by_b = {}
    for r in rep.records:
        by_b.setdefault(r["b"], []).append(max(r["c0"], r["c1"], r["c2"]))
    assert by_b[cp][0] > 1e-3
    assert by_b[cp][-1] < 1e-4
    # at b = -2 with theta = pi/2 the whole field is in the round collar:
    # distances sit at the exact-zero floor
    assert max(by_b[-2.0]) < 1e-12


def test_convergence_rate_tracks_exponential_law():
    # between successive lambda' two apart the distance to the limit must
    # shrink by ~e^4 = 54.6 (the shift-law gap scale), once the bump
    # response is in its linear regime
    family = bump()
    theta = PI_3
    cp = cl.c_prime_bound(family, theta)
    rep = cl.run_convergence(family, theta, [cp], [6.0, 8.0, 10.0],
                             n_phi=24, n_beta=48)
    dists = [max(r["c0"], r["c1"], r["c2"])
             for r in sorted(rep.records, key=lambda r: r["lambda_prime"])]
    for lo, hi in zip(dists[1:], dists[:-1]):
        assert 40.0 < hi / lo < 70.0


def test_run_convergence_with_angle_dependent_direction():
    # the cos2 direction makes block_m genuinely phi-dependent; the whole
    # pipeline must still decay to the predicted limit
    family = fam.FamilySpec(kind="bump", direction="cos2").build()
    theta = PI_3
    cp = cl.c_prime_bound(family, theta)
    rep = cl.run_convergence(family, theta, [-1.0, cp],
                             [4.0, 6.0, 8.0, 10.0], n_phi=32, n_beta=64)
    assert cl.check_convergence_assertions(rep) == []


def test_run_convergence_rejects_bad_inputs():
    family = bump()
    with pytest.raises(DomainError):
        cl.run_convergence(family, HALF_PI, [0.0], [4.0, 4.0])
    with pytest.raises(DomainError):
        cl.run_convergence(family, PI_3, [5.0], [4.0, 6.0])  # b > c'
    with pytest.raises(VerificationError, match="round-collar"):
        cl.run_convergence(unbounded_control(), HALF_PI, [0.0],
                           [4.0, 6.0], n_phi=8, n_beta=16)


def test_corrupt_limit_hook_breaks_assertions():
    family = bump()
    rep = cl.run_convergence(family, HALF_PI, [0.0], [4.0, 6.0],
                             n_phi=16, n_beta=32, corrupt_limit=1e-3)
    failures = cl.check_convergence_assertions(rep)
    assert failures != []


def _report(c2_values, boundary=1e-8):
    records = [{"theta": HALF_PI, "b": 0.0, "lambda_prime": lp,
                "c0": c2 / 10.0, "c1": c2 / 2.0, "c2": c2,
                "boundary_M_c0": boundary}
               for lp, c2 in zip((4.0, 6.0, 8.0), c2_values)]
    return cl.ConvergenceReport(family_id="synthetic", records=records,
                                n_phi=8, n_beta=8, beta_margin=0.1,
                                wall_clock_s=0.0)


def test_convergence_assertions_fail_on_nan():
    assert cl.check_convergence_assertions(_report([1e-2, 1e-3, 1e-5])) == []
    failures = cl.check_convergence_assertions(
        _report([1e-2, 1e-3, math.nan]))
    assert any("final C^2 distance" in f for f in failures)
    failures = cl.check_convergence_assertions(
        _report([1e-2, 1e-3, 1e-5], boundary=math.nan))
    assert any("boundary distance" in f for f in failures)


# ---------------------------------------------------------------------------
# small-angle claim
# ---------------------------------------------------------------------------

def test_verify_beta1_claim_defaults():
    family = bump()
    for theta in (HALF_PI, PI_3):
        cp = cl.c_prime_bound(family, theta)
        params = ht.ReparamParams(theta=theta, b=0.0, B=-1.0, c=1.0,
                                  c_prime=cp)
        params = ht.ReparamParams(theta=theta, b=0.0, B=-1.0, c=1.0,
                                  c_prime=cp,
                                  beta1=ht.beta1_threshold(params))
        report = cl.verify_beta1_claim(family, params,
                                       np.geomspace(1.0, 40.0, 40))
        assert report["lambda0"] <= 10.0
        assert report["margin_at_top"] > 0.0
        assert report["exactness_max_dev"] <= 1e-14


def test_verify_beta1_claim_stricter_c_prime_for_smaller_theta():
    family = bump()
    assert (cl.c_prime_bound(family, PI_3)
            < cl.c_prime_bound(family, HALF_PI))


def test_verify_beta1_claim_failure_modes():
    family = bump()
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=-1.0, c=1.0,
                              c_prime=0.9, beta1=1.5)
    with pytest.raises(VerificationError, match="never holds"):
        cl.verify_beta1_claim(family, params, np.geomspace(1.0, 40.0, 30))
    with pytest.raises(DomainError, match="unset"):
        cl.verify_beta1_claim(
            family,
            ht.ReparamParams(theta=HALF_PI, b=0.0, B=-1.0, c=1.0,
                             c_prime=0.9),
            np.geomspace(1.0, 40.0, 30))


def test_verify_beta1_claim_fails_on_nan_block():
    # every cut is NaN where the angle |x| > 1: the forced region is not
    # shown round, so the claim must not pass
    nan_cut = mf.SphereMetricField.from_function(_nan_beyond)
    family = cl.MetricFamily(cut=lambda lam, rho: nan_cut, lambda_min=0.5,
                             hyperbolic_bound=-1.0, interval_bound=1.0,
                             family_id="nan-beyond-1")
    cp = cl.c_prime_bound(bump(), HALF_PI)
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=-1.0, c=1.0,
                              c_prime=cp)
    params = ht.ReparamParams(theta=HALF_PI, b=0.0, B=-1.0, c=1.0,
                              c_prime=cp, beta1=ht.beta1_threshold(params))
    with pytest.raises(VerificationError, match="not exactly round"):
        cl.verify_beta1_claim(family, params, np.geomspace(1.0, 40.0, 40))


# ---------------------------------------------------------------------------
# frozen regression of one engine output
# ---------------------------------------------------------------------------

def test_extension_family_cut_regression(tmp_path):
    import pathlib
    fix = pathlib.Path(__file__).parent / "fixtures" / \
        "extension_family_cut_regression.txt"
    rows = []
    for line in fix.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        toks = line.split()
        rows.append((int(toks[0]), int(toks[1]),
                     float(toks[2]), float(toks[3])))
    family = bump()
    cut = cl.extension_family_cut(family, PI_3, 8.0, 0.0)
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    beta = np.linspace(0.1, HALF_PI - 0.1, 6)
    m = cut.block_m(phi, beta)
    bb = np.broadcast_to(cut.block_beta(beta), m.shape)
    for i, j, want_m, want_b in rows:
        assert m[i, j] == pytest.approx(want_m, rel=1e-12)
        assert bb[i, j] == pytest.approx(want_b, rel=1e-12)
