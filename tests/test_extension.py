import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypext import cli
from hypext import cutlimits as cl
from hypext import extension as ext
from hypext import families as fam
from hypext import fields as mf
from hypext import hyptrig as ht
from hypext.errors import DomainError

HALF_PI = math.pi / 2


def hyperbolic_space():
    """The unwarped cut of the hyperbolic base, whose extension is
    hyperbolic 3-space: the round form at every radius."""
    sigma = mf.round_metric()
    return lambda r: sigma


def perturbed_space():
    """Base with a genuinely radius-dependent unwarped cut: a Gaussian-in-r
    perturbation along cos^2 of the angle."""
    def cut(r):
        amp = 0.05 * math.exp(-((r - 2.0) ** 2))
        return mf.SphereMetricField.from_function(
            lambda angles: 1.0 + amp * np.cos(angles) ** 2)
    return cut


# ---------------------------------------------------------------------------
# closed-form cut: round-sphere recovery
# ---------------------------------------------------------------------------

def test_round_sphere_recovery(round_join_blocks):
    # the cut of the hyperbolic base is sinh^2(s) times the round 2-sphere
    # metric
    base = hyperbolic_space()
    phi, beta = ext.join_grid(24, 20)
    ref_m, ref_b = round_join_blocks(phi, beta)
    for s in (1.0, 3.0, 6.0):
        sample = ext.cut_via_formula(base, s).sample(phi, beta)
        f = math.sinh(s) ** 2
        # the stored blocks against the full reference sheet: block_beta
        # broadcasts along phi
        assert np.max(np.abs(sample.block_m / f - ref_m)) < 1e-10
        assert np.max(np.abs(sample.block_beta / f - ref_b)) < 1e-10


def test_round_sphere_recovery_against_chart_transport(
        round_metric_in_join_coordinates):
    # independent expression of the round metric through the stereographic
    # atlas; agreement witnesses that the extension of the hyperbolic base
    # is hyperbolic space itself
    base = hyperbolic_space()
    phi, beta = ext.join_grid(24, 20)
    sample = ext.cut_via_formula(base, 3.0).sample(phi, beta)
    f = math.sinh(3.0) ** 2
    # the one stored sheet is the transported metric of every sheet
    for sheet in ext.SHEETS:
        tm, tb, tx = round_metric_in_join_coordinates(phi, beta, sheet)
        assert np.max(np.abs(sample.block_m / f - tm)) < 1e-10
        assert np.max(np.abs(sample.block_beta / f - tb)) < 1e-10
        assert np.max(np.abs(tx)) < 1e-12


def test_unwarped_is_scaled_warped():
    # the closed-form cut that the pullback oracle checks is sinh^2(s)
    # times the radial-1 join field (the kind the converge suite samples)
    # of the same column
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    s = 2.5
    warped = ext.cut_via_formula(base, s).sample(phi, beta)
    unwarped = ext.join_field(lambda b: base(ht.solve_r(s, b)),
                              1.0).sample(phi, beta)
    f = math.sinh(s) ** 2
    assert np.allclose(unwarped.block_m * f, warped.block_m, rtol=1e-12)
    assert np.allclose(unwarped.block_beta * f, warped.block_beta, rtol=1e-12)
    assert np.allclose(unwarped.block_h_coeff * f, warped.block_h_coeff,
                       rtol=1e-12)


@pytest.mark.parametrize("beta", [
    pytest.param(np.array([0.7]), id="one-beta"),
    # the pole probes of cutlimits.run_convergence
    pytest.param(np.geomspace(1e-3, ext.BETA_MARGIN, 6), id="pole-probes"),
    pytest.param(ext.join_grid(16, 12)[1], id="join-grid"),
])
def test_unwarped_block_m_is_the_per_column_product(beta):
    # a cos2 bump column whose bump is off round at every probed beta: the
    # block is C-ordered (phi, beta) and, bit for bit, sin^2(beta) times the
    # column's field in every column
    family = fam.bump_family("cos2")

    def column(b):
        return family.cut(5.0, 5.0 + math.sin(7.0 * b))

    phi = ext.join_grid(16, 12)[0]
    got = ext.join_field(column, 1.0).block_m(phi, beta)
    assert got.shape == (phi.size, beta.size)
    assert got.flags.c_contiguous
    want = np.empty_like(got)
    for j, b in enumerate(beta.tolist()):
        want[:, j] = math.sin(b) ** 2 * column(b).at_angles(phi)
    assert got.tobytes() == want.tobytes()


def test_formula_block_m_is_c_contiguous():
    phi, beta = ext.join_grid(16, 12)
    got = ext.cut_via_formula(perturbed_space(), 2.0).block_m(phi, beta)
    assert got.shape == (16, 12)
    assert got.flags.c_contiguous


def test_cut_domain_errors():
    # both routes refuse a sphere radius outside [RADIUS_MIN, RADIUS_MAX)
    base = hyperbolic_space()
    phi, beta = ext.join_grid(8, 8)
    for s in (-1.0, 0.0, 5e-324, 1e-160, math.nextafter(ext.RADIUS_MIN, 0.0),
              ext.RADIUS_MAX, 400.0, math.nan):
        with pytest.raises(DomainError, match="sphere radius"):
            ext.cut_via_formula(base, s)
        with pytest.raises(DomainError, match="sphere radius"):
            ext.cut_via_pullback(base, s, phi, beta)


# ---------------------------------------------------------------------------
# pullback oracle vs closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_space", [hyperbolic_space, perturbed_space])
@pytest.mark.parametrize("s", [1.0, 3.0, ext.RADIUS_MIN])
def test_formula_vs_pullback(make_space, s):
    base = make_space()
    phi, beta = ext.join_grid(24, 18)
    formula = ext.cut_via_formula(base, s).sample(phi, beta)
    oracle = ext.cut_via_pullback(base, s, phi, beta)
    # compare_join divides by the closed-form blocks: down to RADIUS_MIN
    # they are normal doubles, so no error is 0/0 or vacuously 0
    for block in (formula.block_m, formula.block_beta):
        assert np.min(block) >= sys.float_info.min
    rep = ext.compare_join(formula, oracle)
    assert 0.0 < rep["max_rel_err_block_M"] < 1e-5
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
    # a NaN beta fails every range comparison: it is refused, not sampled
    nan_beta = ext.join_grid(8, 10)[1].copy()
    nan_beta[4] = math.nan
    for bad in (beta, nan_beta):
        with pytest.raises(DomainError,
                           match="beta grid must be finite and stay"):
            ext.cut_via_pullback(base, 1.0, phi, bad)


def pullback_by_sheets(base, s, phi, beta):
    """Reference oracle: the pullback with each sheet w of SHEETS filled
    in full by its own pass, every tangent carrying its w."""
    h = max(1e-5, 1e-6 * float(s))
    dt_db = ext._richardson_d1(lambda bb: ht.solve_t(s, bb), beta, h)
    dr_db = ext._richardson_d1(lambda bb: ht.solve_r(s, bb), beta, h)
    dphi_db = np.zeros_like(beta)
    dphi_dphi = ext._richardson_d1(lambda pp: pp, phi, h)
    dt_dphi = np.zeros_like(phi)
    dr_dphi = np.zeros_like(phi)
    r_c = ht.solve_r(s, beta)
    f_yy = np.cosh(r_c) ** 2
    f_pp = np.empty((phi.size, beta.size))
    np.multiply(ext._column_rows(base, r_c, phi).T, np.sinh(r_c) ** 2,
                out=f_pp)
    block_m = np.empty((len(ext.SHEETS), phi.size, beta.size))
    block_beta = np.empty_like(block_m)
    offdiag = np.empty_like(block_m)
    for iw, w in enumerate(ext.SHEETS):
        v_beta = (w * dt_db, dphi_db, dr_db)
        v_phi = (w * dt_dphi, dphi_dphi, dr_dphi)
        block_beta[iw] = (f_yy * v_beta[0] ** 2)[None, :] \
            + f_pp * (v_beta[1] ** 2)[None, :] \
            + (v_beta[2] ** 2)[None, :]
        block_m[iw] = (f_yy[None, :] * (v_phi[0] ** 2)[:, None]) \
            + f_pp * (v_phi[1] ** 2)[:, None] \
            + (v_phi[2] ** 2)[:, None]
        offdiag[iw] = (f_yy[None, :] * v_phi[0][:, None]
                       * v_beta[0][None, :]) \
            + f_pp * v_phi[1][:, None] * v_beta[1][None, :] \
            + v_phi[2][:, None] * v_beta[2][None, :]
    return block_m, block_beta, offdiag


def oracle_base(direction):
    """The oracle suite's bump base: the member ORACLE_BASE_LAMBDA."""
    family = fam.bump_family(direction)
    return lambda r: family.cut(cli.ORACLE_BASE_LAMBDA, r)


ORACLE_BASES = [
    pytest.param(hyperbolic_space, id="hyperbolic"),
    pytest.param(lambda: oracle_base("uniform"), id="bump-uniform"),
    pytest.param(lambda: oracle_base("cos2"), id="bump-cos2"),
]


@pytest.mark.parametrize("make_base", ORACLE_BASES)
@pytest.mark.parametrize("s", [1.0, 3.0, 8.0])
def test_one_sheet_pullback_is_the_two_sheet_loop(make_base, s):
    # w enters every pulled-back entry as w^2, and the zero tangent
    # entries add only +0.0: each stored block, broadcast on the sheet, is
    # every sheet of the two-sheet loop bit for bit
    base = make_base()
    phi, beta = ext.join_grid(24, 18)
    got = ext.cut_via_pullback(base, s, phi, beta)
    want = pullback_by_sheets(base, s, phi, beta)
    # only what the embedding can make nonzero is computed: the circle
    # block on the sheet, the beta block as a beta vector, the
    # off-diagonal block as one zero
    shapes = ((phi.size, beta.size), (beta.size,), ())
    for block, ref, shape in zip(
            (got.block_m, got.block_beta, got.offdiag), want, shapes):
        assert block.shape == shape
        assert not block.flags.writeable
        for sheet in ref:
            assert np.broadcast_to(block, sheet.shape).tobytes() \
                == sheet.tobytes()


@pytest.mark.parametrize("make_base", ORACLE_BASES)
def test_compare_join_views_and_copies_agree(make_base):
    # the maxima over the stored blocks are those over full-sheet copies,
    # also for a block_beta scaled as the formula-beta hook scales it
    base = make_base()
    phi, beta = ext.join_grid(24, 18)
    for s in (1.0, 3.0, 8.0):
        formula = ext.cut_via_formula(base, s).sample(phi, beta)
        oracle = ext.cut_via_pullback(base, s, phi, beta)
        scaled = replace(formula, block_beta=formula.block_beta * 1.01)
        for f in (formula, scaled):
            rep = ext.compare_join(f, oracle)
            assert rep == ext.compare_join(materialized(f),
                                           materialized(oracle))
            assert rep == ext.compare_join(f, materialized(oracle))
            assert rep == ext.compare_join(materialized(f), oracle)
        assert ext.compare_join(scaled, oracle)["max_rel_err_block_beta"] \
            > 1e-3


def test_pullback_and_compare_join_peak_allocation():
    # the oracle computes one circle-block sheet and a beta vector, and no
    # off-diagonal products; compare_join works on one sheet per block:
    # about 4 sheets at the peak
    base = perturbed_space()
    phi, beta = ext.join_grid(64, 128)
    formula = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    sheet_bytes = phi.size * beta.size * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base_mem = tracemalloc.get_traced_memory()[0]
        ext.compare_join(formula, ext.cut_via_pullback(base, 2.0, phi, beta))
        peak = tracemalloc.get_traced_memory()[1] - base_mem
    finally:
        tracemalloc.stop()
    assert peak < 5 * sheet_bytes


def test_compare_join_grid_mismatch():
    base = hyperbolic_space()
    phi, beta = ext.join_grid(8, 8)
    phi2, beta2 = ext.join_grid(8, 10)
    a = ext.cut_via_formula(base, 1.0).sample(phi, beta)
    b = ext.cut_via_pullback(base, 1.0, phi2, beta2)
    with pytest.raises(DomainError):
        ext.compare_join(a, b)


def test_join_c2_distance_identity_and_symmetry():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    b = ext.cut_via_formula(base, 2.5).sample(phi, beta)
    zero = ext.join_c2_distance(a, a)
    assert (zero.c0, zero.c1, zero.c2) == (0.0, 0.0, 0.0)
    dab = ext.join_c2_distance(a, b)
    dba = ext.join_c2_distance(b, a)
    assert (dab.c0, dab.c1, dab.c2) == (dba.c0, dba.c1, dba.c2)
    assert dab.c0 > 0


def full_sheet(sample, block):
    """A block of the sample copied into its own (n_phi, n_beta) array."""
    return np.array(np.broadcast_to(block, (sample.phi.size,
                                            sample.beta.size)))


def materialized(sample):
    """The same sample with every block copied onto the full sheet."""
    return replace(sample, block_m=full_sheet(sample, sample.block_m),
                   block_beta=full_sheet(sample, sample.block_beta),
                   offdiag=full_sheet(sample, sample.offdiag))


def test_join_sample_blocks_are_read_only_at_their_own_shapes():
    # each block is stored at the shape it varies at, and nothing can
    # write into it: the converge loop reuses one limit sample
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    formula = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    oracle = ext.cut_via_pullback(base, 2.0, phi, beta)
    for sample in (formula, oracle, materialized(formula)):
        for block in (sample.block_m, sample.block_beta, sample.offdiag):
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[...] = 1.0
        assert np.all(sample.offdiag == 0.0)
    for sample in (formula, oracle):
        assert [b.shape for b in (sample.block_m, sample.block_beta,
                                  sample.offdiag)] == [(16, 12), (12,), ()]
    assert np.array_equal(formula.block_beta,
                          np.full(12, math.sinh(2.0) ** 2))


def test_join_sample_views_give_unchanged_results():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    b = ext.cut_via_formula(base, 2.5).sample(phi, beta)
    assert ext.join_c2_distance(a, b) == ext.join_c2_distance(
        materialized(a), materialized(b))
    formula = ext.cut_via_formula(base, 1.0).sample(phi, beta)
    oracle = ext.cut_via_pullback(base, 1.0, phi, beta)
    assert ext.compare_join(formula, oracle) == ext.compare_join(
        materialized(formula), oracle)


def test_join_c2_distance_broadcast_against_materialized():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    b = ext.cut_via_formula(base, 2.5).sample(phi, beta)
    full = ext.join_c2_distance(materialized(a), materialized(b))
    assert full.c0 > 0
    assert ext.join_c2_distance(materialized(a), b) == full
    assert ext.join_c2_distance(b, materialized(a)) == ext.join_c2_distance(
        materialized(b), materialized(a))


def test_join_c2_distance_sees_a_single_entry_that_alone_differs():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    for slot in ("block_m", "block_beta", "offdiag"):
        block = full_sheet(a, getattr(a, slot))
        block[5, 6] += 1e-3
        odd = replace(a, **{slot: block})
        for d in (ext.join_c2_distance(odd, a), ext.join_c2_distance(a, odd)):
            assert d.c0 == pytest.approx(1e-3, rel=1e-9)
            assert d.c2 > 0


def test_join_c2_distance_peak_allocation():
    # a formula sample is one block_m sheet, a beta vector and a zero: its
    # differences cost one sheet, not a full (2, n_phi, n_beta) array per
    # slot (11 sheets in all when every slot was subtracted in full)
    base = perturbed_space()
    phi, beta = ext.join_grid(64, 128)
    a = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    b = ext.cut_via_formula(base, 2.5).sample(phi, beta)
    sheet_bytes = phi.size * beta.size * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base_mem = tracemalloc.get_traced_memory()[0]
        ext.join_c2_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base_mem
    finally:
        tracemalloc.stop()
    assert peak < 8 * sheet_bytes


def test_join_c2_distance_and_compare_join_refuse_a_shifted_grid():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    for phi2, beta2 in ((phi + 0.3, beta), (phi, 0.5 * beta + 0.1),
                        (phi + 0.3, 0.5 * beta + 0.1)):
        b = ext.cut_via_formula(base, 2.0).sample(phi2, beta2)
        assert b.block_m.shape == a.block_m.shape
        with pytest.raises(DomainError):
            ext.join_c2_distance(a, b)
        with pytest.raises(DomainError):
            ext.join_c2_distance(b, a)
        with pytest.raises(DomainError):
            ext.compare_join(a, ext.cut_via_pullback(base, 2.0, phi2, beta2))
    # equal grids in distinct arrays are the same grid
    twin = ext.cut_via_formula(base, 2.0).sample(
        phi.copy(), beta.copy())
    assert ext.join_c2_distance(a, twin).max() == 0.0


def test_join_c2_distance_carries_nan():
    base = perturbed_space()
    phi, beta = ext.join_grid(16, 12)
    a = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    m = a.block_m.copy()
    m[5, 6] = math.nan
    d = ext.join_c2_distance(replace(a, block_m=m), a)
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
    res = ext.polar_identity_residual(np.array([9.5]),
                                      np.array([HALF_PI - 0.05]), "fd")
    assert res.shape == (1,) and res[0] < 1e-6


def test_polar_identity_rejects_bad_step(monkeypatch):
    # a stencil that leaves (0, pi/2) in beta, or s > 0, is refused, and so
    # is a NaN s or beta, which fails every range comparison
    for s, beta in (([2.0, math.nan], [0.5, 0.5]),
                    ([2.0, 2.0], [0.5, math.nan])):
        with pytest.raises(DomainError, match="must be finite and stay"):
            ext.polar_identity_residual(np.array(s), np.array(beta), "fd")
    monkeypatch.setattr(ext, "POLAR_FD_STEP", 0.5)
    with pytest.raises(DomainError, match="stay 2\\*POLAR_FD_STEP inside"):
        ext.polar_identity_residual(np.array([1.0]), np.array([0.5]), "fd")


# ---------------------------------------------------------------------------
# read-only join axes and stride-0 views
# ---------------------------------------------------------------------------

def test_join_grid_axes_can_never_be_made_writeable():
    phi, beta = ext.join_grid(16, 12)
    for axis in (phi, beta):
        assert not axis.flags.writeable
        # views of immutable bytes: not even their owner can re-enable
        # writes, so a cache keyed on the axis cannot go stale
        with pytest.raises(ValueError):
            axis.flags.writeable = True
        with pytest.raises(ValueError):
            axis[0] = 1.0
        with pytest.raises(ValueError):
            axis += 1.0
    assert np.array_equal(
        phi, np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
    assert np.array_equal(
        beta, np.linspace(ext.BETA_MARGIN, HALF_PI - ext.BETA_MARGIN, 12))


def two_sheet_c2_distance(a, b):
    """Reference: every slot difference stacked in full onto both sheets,
    c2_sups called on each sheet, the (c0, c1, c2) folded over all."""
    sups = []
    for x, y in ((a.block_m, b.block_m), (a.block_beta, b.block_beta),
                 (a.offdiag, b.offdiag)):
        da = np.stack([np.broadcast_to(np.subtract(x, y), a.block_m.shape)]
                      * len(ext.SHEETS))
        sups += [mf.c2_sups(sheet, a.steps) for sheet in da]
    return mf.C2Distance(*(mf.max_carrying_nan(*col) for col in zip(*sups)))


def join_pair(name):
    """Two samples on one grid: formula/formula, formula/pullback, or a
    converge cut against its predicted limit, plain or shifted as the
    corrupt-limit hook shifts it."""
    phi, beta = ext.join_grid(16, 12)
    base = perturbed_space()
    formula = ext.cut_via_formula(base, 2.0).sample(phi, beta)
    if name == "formula-formula":
        return formula, ext.cut_via_formula(base, 2.5).sample(phi, beta)
    if name == "formula-pullback":
        return formula, ext.cut_via_pullback(base, 2.0, phi, beta)
    family = fam.bump_family("cos2")
    (lam,) = cl.cut_indices(HALF_PI, [6.0], 0.5).tolist()
    cut = cl.extension_family_cut(family, lam, 6.5).sample(phi, beta)
    limit = cl.predicted_limit(family, HALF_PI, 0.5).interior.sample(
        phi, beta)
    if name == "cut-shifted-limit":
        limit = replace(limit, block_m=limit.block_m + 0.25)
    return cut, limit


@pytest.mark.parametrize("name", ["formula-formula", "formula-pullback",
                                  "cut-limit", "cut-shifted-limit"])
def test_join_c2_distance_is_the_two_sheet_fold(name, monkeypatch):
    a, b = join_pair(name)
    want = [two_sheet_c2_distance(a, b), two_sheet_c2_distance(b, a)]
    assert want[0].c0 > 0
    seen = []
    c2_sups = mf.c2_sups

    def spy(delta, steps):
        seen.append(delta)
        return c2_sups(delta, steps)

    monkeypatch.setattr(mf, "c2_sups", spy)
    assert [ext.join_c2_distance(a, b), ext.join_c2_distance(b, a)] == want
    # per slot one read-only view on the sheet, seen once per label of
    # SHEETS, with stride 0 along every axis where neither block varies
    n_beta = a.beta.size
    assert len(seen) == 2 * 3 * len(ext.SHEETS)
    for i, strides in enumerate([(8 * n_beta, 8), (0, 8), (0, 0)] * 2):
        views = seen[2 * i:2 * i + 2]
        assert views[0] is views[1]
        assert views[0].shape == a.block_m.shape
        assert views[0].strides == strides
        assert not views[0].flags.writeable
