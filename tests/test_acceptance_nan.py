"""A NaN that reaches an acceptance criterion's input fails that criterion.

Each row wraps one function that a criterion of ``test_acceptance.py``
reads, so that one of its results carries a NaN, and runs the criterion:
its ``report`` line must say FAIL.  A builtin ``max``/``min`` fold drops a
NaN that does not come first, and would let the criterion pass.
"""

import math

import numpy as np
import pytest

import test_acceptance as acc
from hypext import cutlimits as cl
from hypext import extension as ext
from hypext import hyptrig as ht


def poison(monkeypatch, module, name, when, spoil):
    """Replace ``module.name`` by a wrapper that passes the result of its
    n-th call (from 1), made with ``args``, through ``spoil`` wherever
    ``when(n, args)`` holds."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(args)
        return spoil(out) if when(len(calls), args) else out

    monkeypatch.setattr(module, name, wrapper)


def nan_in_middle(a):
    """A copy of the array ``a`` with a NaN at its middle entry."""
    a = np.array(a, dtype=float)
    a.flat[a.size // 2] = math.nan
    return a


def nan_at(key):
    return lambda rep: {**rep, key: math.nan}


def nan_in_last_record(key):
    def spoil(report):
        report.records[-1][key] = math.nan
        return report
    return spoil


def always(n, args):
    return True


def second(n, args):
    return n == 2


def at_lambda(lam):
    # from the 14th (beta, b, theta) point of the shift grid on (three
    # calls a point), so that the NaN is not the first value folded
    return lambda n, args: args[0] == lam and n > 40


def identity_suite(monkeypatch, round_metric):
    poison(monkeypatch, ht, "solve_t", always, nan_in_middle)
    acc.test_triangle_identity_suite()


def polar_identity(monkeypatch, round_metric):
    poison(monkeypatch, ext, "polar_identity_residual", second,
           nan_in_middle)
    acc.test_polar_identity()


def formula_vs_oracle(key):
    def row(monkeypatch, round_metric):
        poison(monkeypatch, ext, "compare_join", second, nan_at(key))
        acc.test_formula_vs_pullback_oracle()
    return row


def round_sphere(monkeypatch, round_metric):
    calls = []

    def spoiled(phi, beta, sheet):
        calls.append(sheet)
        tm, tb, tx = round_metric(phi, beta, sheet)
        if len(calls) == 2:
            tx = nan_in_middle(tx)
        return tm, tb, tx

    acc.test_round_sphere_recovery(spoiled)


def shift(lam):
    def row(monkeypatch, round_metric):
        poison(monkeypatch, ht, "vartheta", at_lambda(lam),
               lambda v: math.nan)
        acc.test_shift_asymptotics()
    return row


def cut_limit(key):
    def row(monkeypatch, round_metric):
        poison(monkeypatch, cl, "run_convergence", second,
               nan_in_last_record(key))
        acc.test_cut_limit_convergence()
    return row


def small_angle(key):
    def row(monkeypatch, round_metric):
        poison(monkeypatch, cl, "verify_beta1_claim", second, nan_at(key))
        acc.test_small_angle_claim()
    return row


ROWS = [
    pytest.param("identity-suite", identity_suite, id="identity-solve_t"),
    pytest.param("polar-identity", polar_identity, id="polar-residual"),
    *(pytest.param("formula-vs-oracle", formula_vs_oracle(key),
                   id=f"oracle-{key}")
      for key in ("max_rel_err_block_M", "max_rel_err_block_beta",
                  "max_abs_offdiag")),
    pytest.param("round-sphere-recovery", round_sphere, id="round-offdiag"),
    pytest.param("shift-asymptotics", shift(30.0), id="shift-gap-at-30"),
    pytest.param("shift-asymptotics", shift(17.0), id="shift-decay-ratio"),
    *(pytest.param("cut-limit-convergence", cut_limit(key),
                   id=f"converge-{key}")
      for key in ("c1", "boundary_M_c0", "boundary_H_c0")),
    *(pytest.param("small-angle-claim", small_angle(key), id=f"claim-{key}")
      for key in ("lambda0", "exactness_max_dev")),
]


@pytest.mark.parametrize("name,row", ROWS)
def test_a_nan_input_fails_the_criterion(monkeypatch, capsys,
                                         round_metric_in_join_coordinates,
                                         name, row):
    with pytest.raises(AssertionError) as failed:
        row(monkeypatch, round_metric_in_join_coordinates)
    # the criterion's own report failed, and printed that it did
    assert str(failed.value).startswith(f"ACCEPTANCE {name}: FAIL")
    assert f"ACCEPTANCE {name}: FAIL" in capsys.readouterr().out
