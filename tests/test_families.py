import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypext import cli
from hypext import families as fam
from hypext import fields as mf
from hypext.errors import DomainError
from hypext.extension import join_grid



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
    vals = fam.bump_profile(xs)
    assert np.all(vals == 0.0)
    assert fam.bump_profile(0.0) == 1.0
    inside = fam.bump_profile(np.linspace(-0.99, 0.99, 101))
    assert np.all(inside > 0.0) and np.all(inside <= 1.0)


def test_bump_profile_is_c2():
    # second differences across the three knots stay bounded and the
    # second derivative is continuous (no jump beyond O(h) of the third
    # derivative scale)
    h = 1e-4
    for knot in (-1.0, 0.0, 1.0):
        x = np.array([knot - 2 * h, knot - h, knot, knot + h, knot + 2 * h])
        v = fam.bump_profile(x)
        d2_left = (v[0] - 2 * v[1] + v[2]) / h ** 2
        d2_right = (v[2] - 2 * v[3] + v[4]) / h ** 2
        assert abs(d2_left - d2_right) < 0.01


def bump_profile_0d(x):
    """The numpy route of bump_profile for a float, taken on a 0-d array:
    the reference the float path must match bit for bit."""
    x = np.asarray(x, dtype=float)
    start, end = fam.BUMP_SUPPORT
    mid = 0.5 * (start + end)
    up = fam.quintic_smoothstep((x - start) / (mid - start))
    down = fam.quintic_smoothstep((end - x) / (end - mid))
    return float(np.where(x <= mid, up, down))


def _bits(v):
    return np.float64(v).tobytes()


def _edges():
    start, end = fam.BUMP_SUPPORT
    mid = 0.5 * (start + end)
    pts = [0.0, -0.0, math.nan, math.inf, -math.inf]
    for p in (start, mid, end):
        pts += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    return pts


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float_bump_profile_matches_0d_route(x):
    for v in [x] + _edges():
        expect = _bits(bump_profile_0d(v))
        assert _bits(fam.bump_profile(v)) == expect, v
        assert _bits(fam.bump_profile(np.float64(v))) == expect
        assert type(fam.bump_profile(v)) is float


def test_float_bump_profile_on_the_default_support():
    assert fam.BUMP_SUPPORT == (-1.0, 1.0)
    for v in _edges() + list(np.linspace(-1.5, 1.5, 3001)):
        assert _bits(fam.bump_profile(float(v))) == \
            _bits(bump_profile_0d(v)), v
    assert math.isnan(fam.bump_profile(math.nan))
    assert fam.bump_profile(-1.0) == 0.0
    assert fam.bump_profile(1.0) == 0.0
    assert _bits(fam.bump_profile(-0.0)) == _bits(1.0)


def test_direction_fields():
    T = fam.direction_field("cos2")
    x = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(T.at_angles(x), np.cos(x) ** 2)
    U = fam.direction_field("uniform")
    assert np.all(U.at_angles(x) == 1.0)
    with pytest.raises(DomainError):
        fam.direction_field("sideways")


def _circle_fields():
    """(name, field) of the round form, the cos2 direction and bump cuts
    inside the support with either direction."""
    return [
        ("round", mf.round_metric()),
        ("cos2", fam.direction_field("cos2")),
        ("bump-cos2", fam.bump_family("cos2").cut(4.0, 4.3)),
        ("bump-uniform", fam.bump_family("uniform").cut(4.0, 4.3)),
    ]


def test_circle_fields_evaluate_a_0d_angle():
    # np.cos of a 0-d angle is a numpy scalar, which cannot be written
    # into: the in-place evaluations keep the values of the out-of-place
    # ones (1 + a * cos^2, with cos^2 taken as c * c at every shape)
    want = {"round": 1.0, "cos2": 0.9126678074548391,
            "bump-cos2": 1.0381914970707553, "bump-uniform": 1.041846}
    for name, field in _circle_fields():
        for angle in (0.3, np.float64(0.3), np.asarray(0.3)):
            for evaluate in (field.at_angles, field.components):
                got = evaluate(angle)
                assert np.ndim(got) == 0
                assert _bits(got) == _bits(want[name]), name


def test_circle_field_evaluations_are_fresh_arrays():
    # a field's evaluation belongs to the caller: writing into it leaves
    # the next evaluation unchanged (the bump cut forms 1 + a * T in the
    # array that T returns)
    x = np.linspace(-3.0, 3.0, 17)
    for name, field in _circle_fields():
        first = field.at_angles(x)
        want = first.copy()
        for evaluate in (field.at_angles, field.components):
            got = evaluate(x)
            got[...] = -7.0
            assert np.array_equal(evaluate(x), want), name
        assert np.array_equal(first, want), name
        assert np.array_equal(field.at_angles(x.reshape(1, 17)),
                              want.reshape(1, 17)), name


def test_family_spec_validation():
    with pytest.raises(DomainError):
        fam.bump_family("nope")


def test_bump_family_cut_structure():
    family = fam.bump_family("uniform")
    x = np.linspace(-1.5, 1.5, 33)
    # at radius lam + b with b <= B the cut is exactly round
    for b in (-1.0, -2.0, -5.5):
        cut = family.cut(6.0, 6.0 + b)
        assert np.all(cut.at_angles(x) == 1.0)
    # inside the support the perturbation rides at offset rho - lam
    cut = family.cut(6.0, 6.0)
    expect = 1.0 + 0.05 * fam.bump_profile(0.0)
    assert np.allclose(cut.at_angles(x), expect)
    # diagonal stationarity: cut(lam, lam + b) independent of lam
    a = family.cut(4.0, 4.0 + 0.3).at_angles(x)
    b2 = family.cut(9.0, 9.0 + 0.3).at_angles(x)
    assert np.array_equal(a, b2)


def test_bump_family_limit_oracle_matches_diagonal():
    family = fam.bump_family("cos2")
    x = np.linspace(-1.5, 1.5, 17)
    # dyadic offsets so that (lam + b) - lam reproduces b exactly
    for b in (-0.5, 0.0, 0.75):
        lim = family.limit(b).at_angles(x)
        diag = family.cut(11.0, 11.0 + b).at_angles(x)
        assert np.array_equal(lim, diag)


def test_hyperbolic_family_is_round_everywhere():
    family = fam.hyperbolic_family()
    x = np.linspace(-1.0, 1.0, 5)
    for lam, rho in [(1.0, 0.5), (20.0, 35.0)]:
        assert np.all(family.cut(lam, rho).at_angles(x) == 1.0)
    assert family.interval_bound == math.inf


# ---------------------------------------------------------------------------
# a bump cut of either direction reuses its row of T on a read-only join
# axis; the cache must never give a value that the uncached formula would not
# ---------------------------------------------------------------------------

def _uncached_cut(amount, angles, direction="cos2"):
    """1 + amount * T in the order of the uncached path: T as 1 or as
    cos^2 taken as c * c, scaled, then 1 added."""
    angles = np.asarray(angles, dtype=float)
    if direction == "uniform":
        return np.ones(angles.shape) * amount + 1.0
    c = np.cos(angles)
    return c * c * amount + 1.0


def _check_fresh(got, want, held):
    """got has want's bits and is a fresh, writeable array that shares no
    memory with any earlier evaluation in ``held``."""
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if np.ndim(got) == 0:
        return
    assert got.flags.writeable and got.flags.owndata
    assert not any(np.shares_memory(got, h) for h in held)
    held.append(got)


@pytest.mark.parametrize("direction", fam.DIRECTION_TAGS)
def test_bump_cut_on_join_axes_gives_the_uncached_bits(direction):
    family = fam.bump_family(direction)
    lam, rho = 4.0, 4.3
    amount = fam.BUMP_AMPLITUDE * fam.bump_profile(rho - lam)
    cut = family.cut(lam, rho)
    want = lambda x: _uncached_cut(amount, x, direction)
    axis, _ = join_grid(24, 8)
    other, _ = join_grid(40, 8)
    held = []
    for _ in range(2):
        _check_fresh(cut.at_angles(axis), want(axis), held)
    # an equal writeable copy, which may change after it is evaluated
    copy = axis.copy()
    _check_fresh(cut.at_angles(copy), want(axis), held)
    copy += 0.25
    _check_fresh(cut.at_angles(copy), want(copy), held)
    # a read-only view of a writeable array can change through its base
    base = axis.copy()
    view = base[:]
    view.flags.writeable = False
    _check_fresh(cut.at_angles(view), want(base), held)
    base += 0.5
    _check_fresh(cut.at_angles(view), want(base), held)
    # a read-only array that owns its data can be made writeable again by
    # its owner and changed: it is not a join axis, so it is not cached
    owned = axis.copy()
    owned.flags.writeable = False
    _check_fresh(cut.at_angles(owned), want(axis), held)
    owned.flags.writeable = True
    owned += 0.5
    owned.flags.writeable = False
    _check_fresh(cut.at_angles(owned), want(owned), held)
    # a second read-only axis, then the first again
    for x in (other, axis, other):
        _check_fresh(cut.at_angles(x), want(x), held)
    # a 0-d angle and a 2-d block of the axis
    _check_fresh(cut.at_angles(0.3), want(0.3), held)
    block = np.stack([axis, axis])
    _check_fresh(cut.at_angles(block), want(block), held)
    # writing into an evaluation leaves the next one unchanged
    first = cut.at_angles(axis)
    first[...] = -7.0
    _check_fresh(cut.at_angles(axis), want(axis), held)


def test_bump_families_keep_their_caches_apart():
    # a uniform family evaluated on an axis that a cos2 family has cached
    # is 1 + a, and a second cos2 family gives the first one's bits
    axis, _ = join_grid(24, 8)
    cos2 = fam.bump_family("cos2").cut(4.0, 4.3)
    uniform = fam.bump_family("uniform").cut(4.0, 4.3)
    amount = fam.BUMP_AMPLITUDE * fam.bump_profile(0.3)
    want = _uncached_cut(amount, axis)
    assert cos2.at_angles(axis).tobytes() == want.tobytes()
    assert np.array_equal(uniform.at_angles(axis),
                          np.full(axis.size, 1.0 + amount))
    again = fam.bump_family("cos2").cut(4.0, 4.3)
    assert again.at_angles(axis).tobytes() == want.tobytes()
    assert cos2.at_angles(axis).tobytes() == want.tobytes()


def test_converge_runs_in_one_process_match_fresh_processes(tmp_path):
    # cos2, then uniform, then cos2 again in one process, against each
    # direction run in a fresh process: no cache carries a value from one
    # run into the next
    cfg = {}
    for direction in ("cos2", "uniform"):
        cfg[direction] = tmp_path / f"{direction}.cfg"
        cfg[direction].write_text(
            f"schema_version = 1\nbump_direction = {direction}\n")

    def argv(direction, out):
        return ["converge", "--grid", "24", "--config", str(cfg[direction]),
                "--out", str(out)]

    fresh = {}
    env = dict(os.environ, PYTHONPATH=str(Path(fam.__file__).parents[1]))
    for direction in ("cos2", "uniform"):
        out = tmp_path / f"fresh-{direction}"
        subprocess.run([sys.executable, "-m", "hypext.cli",
                        *argv(direction, out)], env=env, check=True,
                       capture_output=True)
        fresh[direction] = (out / "report.jsonl").read_bytes()
    for i, direction in enumerate(("cos2", "uniform", "cos2")):
        out = tmp_path / f"run-{i}"
        assert cli.main(argv(direction, out)) == 0
        assert (out / "report.jsonl").read_bytes() == fresh[direction]
