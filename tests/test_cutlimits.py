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
    return fam.bump_family("uniform")


def hyper():
    return fam.hyperbolic_family()


def unbounded_control():
    """Negative control: a constant perturbation at every radius, so no
    collar bound exists (the bump support is unbounded below)."""
    pert = mf.SphereMetricField.from_function(
        lambda angles: 1.025 * np.ones(np.shape(angles)))

    def cut(lam, rho):
        return pert

    return cl.MetricFamily(cut=cut, hyperbolic_bound=-1.0,
                           limit=lambda b: pert, interval_bound=1.0,
                           family_id="unbounded-control")


def convergence(family, theta, bs, lps, **kw):
    """run_convergence with the cut indices that cli.cmd_converge gives
    it: cut_indices at the smallest b."""
    return cl.run_convergence(family, theta, bs, lps,
                              cl.cut_indices(theta, lps, min(bs)), **kw)


# ---------------------------------------------------------------------------
# collar check
# ---------------------------------------------------------------------------

def test_hyperbolic_family_passes_any_bound():
    family = hyper()
    for B in (-3.0, 0.0, 5.0):
        ok, dev = cl.is_hyperbolic_around_origin(family, B)
        assert ok and dev < 1e-15


def test_bump_family_collar_bound_is_sharp():
    family = bump()
    ok, dev = cl.is_hyperbolic_around_origin(family, -1.0)
    assert ok and dev < 1e-15
    ok2, dev2 = cl.is_hyperbolic_around_origin(family, -0.5)
    assert not ok2 and dev2 > 1e-4


def test_unbounded_family_fails():
    ok, dev = cl.is_hyperbolic_around_origin(unbounded_control(), -1.0)
    assert not ok and dev == pytest.approx(0.025, rel=1e-10)


# ---------------------------------------------------------------------------
# extension family cut
# ---------------------------------------------------------------------------

def member_cut(family, theta, lp, b):
    """The extension cut of the theta-reparametrized member at lambda' + b."""
    (lam,) = cl.cut_indices(theta, [lp], b).tolist()
    return cl.extension_family_cut(family, lam, lp + b)


def test_round_family_gives_round_join_metric(round_join_blocks):
    family = hyper()
    phi, beta = ext.join_grid(16, 12)
    ref_m, ref_b = round_join_blocks(phi, beta)
    for theta in (HALF_PI, PI_3):
        for lp, b in [(4.0, 0.0), (7.0, -1.2), (10.0, 0.7)]:
            cut = member_cut(family, theta, lp, b)
            sample = cut.sample(phi, beta)
            assert np.max(np.abs(sample.block_m[0] - ref_m)) < 1e-12
            assert np.max(np.abs(sample.block_beta[0] - ref_b)) < 1e-12


def test_extension_family_cut_guards():
    # both refusals name the function that makes them
    with pytest.raises(DomainError, match="^cut_indices: cut radius"):
        cl.cut_indices(HALF_PI, [1.0], -2.0)  # radius <= 0
    with pytest.raises(DomainError, match="^cut_indices: .*LAMBDA_MIN"):
        cl.cut_indices(PI_3, [0.4], 0.0)  # below LAMBDA_MIN
    # a NaN angle, radius or shift is refused, not carried into the cut
    for args in ((math.nan, [8.0], 0.0), (HALF_PI, [8.0, math.nan], 0.0),
                 (HALF_PI, [8.0], math.nan)):
        with pytest.raises(DomainError):
            cl.cut_indices(*args)
    # the message names the first refused lambda'
    with pytest.raises(DomainError, match="lambda'[+]b = -1.0 must"):
        cl.cut_indices(HALF_PI, [1.0, 1.5, 4.0], -2.0)
    with pytest.raises(DomainError, match="index 0.340668 below"):
        cl.cut_indices(0.3, [1.0, 1.2, 4.0], 0.0)
    # the indices are reparam's, in one array call
    lps = np.array([4.0, 8.0, 40.0, 700.0])
    assert np.array_equal(cl.cut_indices(PI_3, lps, -1.0),
                          ht.reparam(lps, PI_3))


def test_region_exactness():
    # wherever r(lambda'+b, beta) <= reparam(lambda') + B the measured
    # block is exactly round: an identity of the construction
    family = bump()
    theta = PI_3
    B, cp = cl.claim_bounds(family, theta)
    beta1 = ht.beta1_threshold(theta, B, cp)
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    betas = np.linspace(1e-3, beta1, 7)
    for lp in (6.0, 10.0):
        for b in (cp, -1.5):
            lam = ht.reparam(lp, theta)
            cond = ht.vartheta(lam, betas, b, theta) <= lam + B
            cut = member_cut(family, theta, lp, b)
            m = cut.block_m(phi, betas)
            exact = np.abs(m - np.sin(betas)[None, :] ** 2) == 0.0
            assert np.all(exact[:, cond])


# ---------------------------------------------------------------------------
# predicted limit
# ---------------------------------------------------------------------------

def test_predicted_limit_round_family(round_join_blocks):
    family = hyper()
    phi, beta = ext.join_grid(16, 12)
    ref_m, ref_b = round_join_blocks(phi, beta)
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


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def _translated(family, a):
    """Reindex by a translation: the new member at lam is the old member
    at lam - a, so the new cut limit at b equals the old one at b + a."""
    return dataclasses.replace(
        family, cut=lambda lam, rho: family.cut(lam - a, rho),
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
    rep_shifted = convergence(shifted, HALF_PI, [b], [5.0, 7.0],
                              n_phi=16, n_beta=32)
    rep_orig = convergence(family, HALF_PI, [b + a], [4.0, 6.0],
                           n_phi=16, n_beta=32)
    for rs, ro in zip(rep_shifted.records, rep_orig.records):
        for key in ("c0", "c1", "c2", "boundary_M_c0", "boundary_H_c0"):
            assert rs[key] == pytest.approx(ro[key], abs=1e-12)


# ---------------------------------------------------------------------------
# convergence runs
# ---------------------------------------------------------------------------

def test_run_convergence_round_family_is_exact():
    rep = convergence(hyper(), PI_3, [0.0, -1.0], [4.0, 6.0],
                      n_phi=16, n_beta=32)
    for r in rep.records:
        assert max(r["c0"], r["c1"], r["c2"]) < 1e-10
        assert r["boundary_H_c0"] < 1e-12


def test_theta_consistency_for_round_family():
    reports = {}
    for theta in (HALF_PI, PI_3, math.pi / 6):
        rep = convergence(hyper(), theta, [0.0], [4.0, 6.0],
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
    rep = convergence(family, theta, [-2.0, 0.0, cp],
                      [4.0, 6.0, 8.0, 10.0], n_phi=24, n_beta=48)
    _, failures = cl.check_convergence_assertions(rep)
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
    rep = convergence(family, theta, [cp], [6.0, 8.0, 10.0],
                      n_phi=24, n_beta=48)
    dists = [max(r["c0"], r["c1"], r["c2"])
             for r in sorted(rep.records, key=lambda r: r["lambda_prime"])]
    for lo, hi in zip(dists[1:], dists[:-1]):
        assert 40.0 < hi / lo < 70.0


def test_run_convergence_with_angle_dependent_direction():
    # the cos2 direction makes block_m genuinely phi-dependent; the whole
    # pipeline must still decay to the predicted limit
    family = fam.bump_family("cos2")
    theta = PI_3
    cp = cl.c_prime_bound(family, theta)
    rep = convergence(family, theta, [-1.0, cp],
                      [4.0, 6.0, 8.0, 10.0], n_phi=32, n_beta=64)
    assert cl.check_convergence_assertions(rep)[1] == []


def test_run_convergence_rejects_bad_inputs():
    # a lambda' grid out of order and a repeated b are refused by the cli
    # parsers (tests/test_cli.py)
    family = bump()
    lams = cl.cut_indices(HALF_PI, [4.0, 6.0], 0.0)
    # an empty grid would give no record and pass every assertion
    with pytest.raises(DomainError, match="empty"):
        cl.run_convergence(family, HALF_PI, [], [4.0, 6.0], lams)
    with pytest.raises(DomainError, match="empty"):
        cl.run_convergence(family, HALF_PI, [0.0], [], lams[:0])
    with pytest.raises(DomainError):
        convergence(family, PI_3, [5.0], [4.0, 6.0])  # b > c'
    with pytest.raises(VerificationError, match="round-collar"):
        cl.run_convergence(unbounded_control(), HALF_PI, [0.0],
                           [4.0, 6.0], lams, n_phi=8, n_beta=16)


def test_run_convergence_maps_each_theta_in_one_call(monkeypatch):
    # one reparam call over the lambda' vector (the caller's cut_indices)
    # and one coth_sq_minus_one call over the (b, lambda') grid per theta,
    # whatever the grid
    calls = {"reparam": 0, "coth_sq_minus_one": 0}
    for name in calls:
        def counting(*args, _real=getattr(ht, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(ht, name, counting)
    for bs, lps in (([-1.0], [4.0, 6.0]),
                    ([-2.0, -1.5, -1.0], [4.0, 5.0, 6.0, 7.0])):
        calls.update(reparam=0, coth_sq_minus_one=0)
        rep = convergence(fam.bump_family("cos2"), PI_3, bs, lps,
                          n_phi=16, n_beta=24)
        assert len(rep.records) == len(bs) * len(lps)
        assert calls == {"reparam": 1, "coth_sq_minus_one": 1}


def test_corrupt_limit_hook_breaks_assertions():
    family = bump()
    rep = convergence(family, HALF_PI, [0.0], [4.0, 6.0],
                      n_phi=16, n_beta=32, corrupt_limit=1e-3)
    _, failures = cl.check_convergence_assertions(rep)
    assert failures != []


def _report(c2_values, boundary=1e-8):
    records = [{"theta": HALF_PI, "b": 0.0, "lambda_prime": lp,
                "c0": c2 / 10.0, "c1": c2 / 2.0, "c2": c2,
                "boundary_M_c0": boundary}
               for lp, c2 in zip((4.0, 6.0, 8.0), c2_values)]
    return cl.ConvergenceReport(records=records, wall_clock_s=0.0)


def test_convergence_assertions_fail_on_nan():
    line, failures = cl.check_convergence_assertions(
        _report([1e-2, 1e-3, 1e-5]))
    assert failures == []
    assert line == "theta=1.5708: final C2 1.000e-05, final boundary 1.000e-08"
    line, failures = cl.check_convergence_assertions(
        _report([1e-2, 1e-3, math.nan]))
    assert any("final C^2 distance" in f for f in failures)
    assert "final C2 nan" in line
    line, failures = cl.check_convergence_assertions(
        _report([1e-2, 1e-3, 1e-5], boundary=math.nan))
    assert any("boundary distance" in f for f in failures)
    assert line.endswith("final boundary nan")


def test_convergence_assertions_gate_each_b_and_the_max_over_b():
    # b = 0 decays; b = 1 grows, then stalls, above the floor, and the
    # maximum over b, which b = 1 holds from lambda' = 6 on, stalls with
    # it; b = 2 stalls only at or below the floor
    records = [{"theta": PI_3, "b": b, "lambda_prime": lp, "c0": c2,
                "c1": 0.0, "c2": c2, "boundary_M_c0": 1e-8}
               for b, c2s in ((0.0, (1e-2, 1e-3, 1e-5)),
                              (1.0, (1e-3, 2e-3, 2e-3)),
                              (2.0, (1e-9, 1e-9, 1e-9)))
               for lp, c2 in zip((4.0, 6.0, 8.0), c2s)]
    line, failures = cl.check_convergence_assertions(
        cl.ConvergenceReport(records=records, wall_clock_s=0.0))
    assert line == "theta=1.0472: final C2 2.000e-03, final boundary 1.000e-08"
    assert failures == [
        "theta=1.0472 b=1: distance not decreasing above floor "
        "(1.000e-03 -> 2.000e-03)",
        "theta=1.0472 b=1: distance not decreasing above floor "
        "(2.000e-03 -> 2.000e-03)",
        "theta=1.0472 b=1: final C^2 distance 2.000e-03 >= 1e-04",
        "theta=1.0472: max-over-b distance not strictly decreasing above "
        "floor (2.000e-03 -> 2.000e-03)"]


# ---------------------------------------------------------------------------
# small-angle claim
# ---------------------------------------------------------------------------

def test_claim_bounds_read_the_family():
    # the bump family's own collar bound and shifted edge; finite
    # stand-ins for the family that is round at every radius
    family, round_family = bump(), hyper()
    for theta in (HALF_PI, PI_3):
        assert cl.claim_bounds(family, theta) == (
            -1.0, cl.c_prime_bound(family, theta))
        assert cl.claim_bounds(round_family, theta) == (
            0.0, 1.0 + math.log(math.sin(theta)) - 0.1)


def test_verify_beta1_claim_defaults():
    family = bump()
    for theta in (HALF_PI, PI_3):
        B, cp = cl.claim_bounds(family, theta)
        beta1 = ht.beta1_threshold(theta, B, cp)
        report = cl.verify_beta1_claim(family, theta, beta1)
        assert report["lambda0"] <= 10.0
        assert report["margin_at_top"] > 0.0
        assert report["exactness_max_dev"] <= 1e-14


@pytest.mark.parametrize("make,theta", [
    (bump, 0.1), (bump, 0.14), (bump, 0.01), (bump, 1e-200), (hyper, 0.05)],
    ids=["bump-0.1", "bump-0.14", "bump-0.01", "bump-1e-200", "round-0.05"])
def test_verify_beta1_claim_skips_nonpositive_hypotenuses(make, theta):
    # below theta ~ 0.148 (0.08 for the round family) c' < -1, so the
    # claim grid [1, 700] starts where the hypotenuse lambda' + c' is not
    # positive; those points are skipped, as the threshold sweep skips them
    family = make()
    B, cp = cl.claim_bounds(family, theta)
    assert cp < -1.0
    beta1 = ht.beta1_threshold(theta, B, cp)
    report = cl.verify_beta1_claim(family, theta, beta1)
    assert report["grid_min"] + cp > 0.0
    assert report["margin_at_top"] > 0.0
    assert report["exactness_max_dev"] <= 1e-14


def test_verify_beta1_claim_stricter_c_prime_for_smaller_theta():
    family = bump()
    assert (cl.c_prime_bound(family, PI_3)
            < cl.c_prime_bound(family, HALF_PI))


def test_verify_beta1_claim_failure_modes():
    with pytest.raises(VerificationError, match="never holds"):
        cl.verify_beta1_claim(bump(), HALF_PI, 1.5)
    # a NaN angle fails at every grid point
    with pytest.raises(VerificationError, match="never holds"):
        cl.verify_beta1_claim(bump(), HALF_PI, math.nan)
    # below theta ~ 1e-304.6, c' < -700 and the whole claim grid has
    # lambda' + c' <= 0: an empty grid never holds
    assert cl.c_prime_bound(bump(), 1e-305) < -ht.LAMBDA_PRIME_MAX
    with pytest.raises(VerificationError, match="never holds"):
        cl.verify_beta1_claim(bump(), 1e-305, 0.1)


def test_claim_at_the_grid_top_evaluates_each_cut_once(monkeypatch):
    # at theta = 1e-302 the inequality holds only at the top of the claim
    # grid, so its four exactness lambda' are one: two b give two cuts
    cuts = []
    real = cl.extension_family_cut
    monkeypatch.setattr(cl, "extension_family_cut",
                        lambda *args: cuts.append(args) or real(*args))
    family, theta = bump(), 1e-302
    B, cp = cl.claim_bounds(family, theta)
    res = cl.verify_beta1_claim(family, theta,
                                ht.beta1_threshold(theta, B, cp))
    assert res["lambda0"] == ht.LAMBDA_PRIME_MAX
    assert len(cuts) == 2


def test_claim_skips_an_exactness_member_below_lambda_min(monkeypatch):
    # hyperbolic at theta = 0.1: the first exactness lambda' = 2 has the
    # index reparam(2, 0.1) = 0.355 < LAMBDA_MIN, so it is left out, not
    # refused; the other three lambda' give two cuts each
    cuts = []
    real = cl.extension_family_cut
    monkeypatch.setattr(cl, "extension_family_cut",
                        lambda *args: cuts.append(args) or real(*args))
    family, theta = hyper(), 0.1
    B, cp = cl.claim_bounds(family, theta)
    cl.verify_beta1_claim(family, theta, ht.beta1_threshold(theta, B, cp))
    assert len(cuts) == 6
    assert min(lam for _, lam, _ in cuts) >= cl.LAMBDA_MIN


def _nan_beyond(x):
    """A component array that is NaN where the angle |x| > 1."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) > 1.0, math.nan, 1.0)


def test_verify_beta1_claim_fails_on_nan_block():
    # every cut is NaN where the angle |x| > 1: the forced region is not
    # shown round, so the claim must not pass
    nan_cut = mf.SphereMetricField.from_function(_nan_beyond)
    family = cl.MetricFamily(cut=lambda lam, rho: nan_cut,
                             hyperbolic_bound=-1.0, limit=lambda b: nan_cut,
                             interval_bound=1.0, family_id="nan-beyond-1")
    B, cp = cl.claim_bounds(family, HALF_PI)
    beta1 = ht.beta1_threshold(HALF_PI, B, cp)
    with pytest.raises(VerificationError, match="not exactly round"):
        cl.verify_beta1_claim(family, HALF_PI, beta1)


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
    cut = member_cut(bump(), PI_3, 8.0, 0.0)
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    beta = np.linspace(0.1, HALF_PI - 0.1, 6)
    m = cut.block_m(phi, beta)
    bb = np.broadcast_to(cut.radial, m.shape)
    for i, j, want_m, want_b in rows:
        assert m[i, j] == pytest.approx(want_m, rel=1e-12)
        assert bb[i, j] == pytest.approx(want_b, rel=1e-12)
