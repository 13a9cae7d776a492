"""A 40-digit reference for the converge suite's C^2 distances.

The bump family's cut depends only on rho - lam, so at the join point
(phi, beta) its extension cut minus the predicted limit is

    sin^2(beta) * eps * T(phi) * [p(r - lam) - p(b + ln(sin beta / sin theta))]

with r = asinh(sin(beta) sinh(lambda' + b)), lam = asinh(sinh(lambda')
sin(theta)), p the C^2 quintic bump on [-1, 1], eps = 0.05 and T = 1
(uniform) or cos^2(phi) (cos2).  The reference evaluates this field at 40
digits from these formulas alone, on the float grid points of
``converge --grid 24`` (16 x 24), and applies the stencils of
``fields.c2_sups`` to it: periodic in phi, interior in beta, and the cross
stencil.  Nothing of ``hypext`` enters the reference.

The pipeline's (c0, c1, c2) must lie within K * 2^-52 * F / h^k of the
reference's, for the order k = 0, 1, 2, where F is the largest block_m of
the limit and h the beta step: the roundoff of O(1) fields, differenced
k times.  The radius-shift and asymptotic-index defects of
``test_defects.py``, which every suite still passes, must fail it.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from hypext import cutlimits as cl
from hypext import families as fam
from test_defects import asymptotic_index, radius_shift

HALF_PI = math.pi / 2

# the join grid of converge --grid 24
N_PHI, N_BETA = 16, 24
PHI = np.linspace(0.0, 2.0 * math.pi, N_PHI, endpoint=False)
BETA = np.linspace(0.05, HALF_PI - 0.05, N_BETA)

LAMBDA_PRIMES = [4.0, 6.0, 8.0, 10.0]
B_VALUES = [-0.5, 0.4]
FAMILIES = [(direction, theta) for direction in ("uniform", "cos2")
            for theta in (HALF_PI, math.pi / 3)]

# the correct code reads at most 0.94 of these units on FAMILIES (0.65 at
# theta = pi/3); the two defects read more than 1e10 at theta = pi/3
K = 4.0


def bump(x):
    """The quintic smoothstep 10u^3 - 15u^4 + 6u^5 of u = 1 - |x|: 1 at
    x = 0, 0 outside (-1, 1), C^2 everywhere."""
    u = 1 - abs(x)
    return u ** 3 * (10 - 15 * u + 6 * u ** 2) if u > 0 else mpmath.mpf(0)


def stencil_sups(field, hphi, hbeta):
    """(c0, c1, c2) of a (phi, beta) field given as nested lists: sups of
    the field, of its central first and second differences (periodic in
    phi, interior in beta) and of the cross stencil."""
    n, m = len(field), len(field[0])
    f = lambda i, j: field[i % n][j]
    every = [(i, j) for i in range(n) for j in range(m)]
    inner = [(i, j) for i in range(n) for j in range(1, m - 1)]
    c0 = max(abs(f(i, j)) for i, j in every)
    c1 = max(max(abs(f(i + 1, j) - f(i - 1, j)) for i, j in every)
             / (2 * hphi),
             max(abs(f(i, j + 1) - f(i, j - 1)) for i, j in inner)
             / (2 * hbeta))
    c2 = max(max(abs(f(i + 1, j) - 2 * f(i, j) + f(i - 1, j))
                 for i, j in every) / hphi ** 2,
             max(abs(f(i, j + 1) - 2 * f(i, j) + f(i, j - 1))
                 for i, j in inner) / hbeta ** 2,
             max(abs(f(i + 1, j + 1) - f(i - 1, j + 1) - f(i + 1, j - 1)
                     + f(i - 1, j - 1)) for i, j in inner)
             / (4 * hphi * hbeta))
    return c0, c1, c2


@functools.lru_cache(maxsize=None)
def reference(direction, theta, b, lambda_prime):
    """The reference (c0, c1, c2) of one cut, and the largest block_m of
    its limit, as floats."""
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        eps, theta, b, lp = mpf(0.05), mpf(theta), mpf(b), mpf(lambda_prime)
        lam = mpmath.asinh(mpmath.sinh(lp) * mpmath.sin(theta))
        column, limit = [], []
        for beta in map(mpf, BETA):
            r = mpmath.asinh(mpmath.sin(beta) * mpmath.sinh(lp + b))
            x_inf = b + mpmath.log(mpmath.sin(beta) / mpmath.sin(theta))
            sin_sq = mpmath.sin(beta) ** 2
            column.append(sin_sq * eps * (bump(r - lam) - bump(x_inf)))
            limit.append(sin_sq * (1 + eps * bump(x_inf)))
        T = [mpf(1) if direction == "uniform" else mpmath.cos(phi) ** 2
             for phi in map(mpf, PHI)]
        sups = stencil_sups([[t * c for c in column] for t in T],
                            mpf(PHI[1] - PHI[0]), mpf(BETA[1] - BETA[0]))
        return tuple(float(v) for v in sups), float(max(limit))


def pipeline(direction, theta):
    """run_convergence's (c0, c1, c2) per (b, lambda') on the same grid."""
    family = fam.bump_family(direction)
    lams = cl.cut_indices(theta, LAMBDA_PRIMES, min(B_VALUES))
    rep = cl.run_convergence(family, theta, B_VALUES, LAMBDA_PRIMES, lams,
                             n_phi=N_PHI, n_beta=N_BETA)
    return {(r["b"], r["lambda_prime"]): (r["c0"], r["c1"], r["c2"])
            for r in rep.records}


def worst_excess(direction, theta):
    """The largest |pipeline - reference| over every cut and order, in
    units of 2^-52 * F / h^k; NaN if the pipeline gave a NaN."""
    h = float(BETA[1] - BETA[0])
    excess = []
    for (b, lp), got in pipeline(direction, theta).items():
        want, F = reference(direction, theta, b, lp)
        excess += [abs(g - w) / (2.0 ** -52 * F / h ** k)
                   for k, (g, w) in enumerate(zip(got, want))]
    return float(np.max(excess))


@pytest.mark.parametrize("direction,theta", FAMILIES)
def test_converge_distances_match_the_reference(direction, theta):
    # no row is exactly round, so the check is not vacuous
    for b in B_VALUES:
        for lp in LAMBDA_PRIMES:
            assert min(reference(direction, theta, b, lp)[0]) > 0.0
    assert worst_excess(direction, theta) <= K


@pytest.mark.parametrize("defect", [radius_shift, asymptotic_index])
def test_escaped_defects_fail_the_reference(monkeypatch, defect):
    hits = []
    defect(monkeypatch, hits)
    assert max(worst_excess(*fam_theta) for fam_theta in FAMILIES) > K
    assert hits
