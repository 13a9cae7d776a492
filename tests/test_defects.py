"""A catalogue of known defects and the exit code each gives today.

Each row breaks one production function or constant with a monkeypatch
(or sets one of the negative-control flags) and runs one suite at grid
24-96.  A caught defect exits 1.  An escaped defect exits 0 and names the
ROADMAP item whose gate will catch it: when that gate lands, its row fails
here and moves to the caught rows.  The escaped rows record known gaps;
they loosen no check.
"""

import dataclasses
import math

import numpy as np
import pytest

from hypext import cli
from hypext import cutlimits as cl
from hypext import extension as ext

HALF_PI = math.pi / 2

# stands for the path of a config file that selects the cos2 direction
COS2 = "<cos2.cfg>"


def radius_shift(monkeypatch, hits):
    """The extension cut at sphere radius s0 + 0.5 e^{-s0}."""
    real = cl.extension_family_cut

    def cut(family, lam, s0):
        hits.append(s0)
        return real(family, lam, s0 + 0.5 * math.exp(-s0))

    monkeypatch.setattr(cl, "extension_family_cut", cut)


def asymptotic_index(monkeypatch, hits):
    """The family index lambda' + ln sin(theta) in place of reparam."""
    real = cl.cut_indices

    def cut_indices(theta, lambda_primes, b_min):
        hits.append(theta)
        real(theta, lambda_primes, b_min)
        return np.asarray(lambda_primes, dtype=float) + math.log(
            math.sin(theta))

    monkeypatch.setattr(cl, "cut_indices", cut_indices)


def polar_fd_step(monkeypatch, hits):
    """The polar identity's finite-difference step 0.02, far too coarse
    for the identities suite's tolerance."""
    real = ext.polar_identity_residual

    def residual(s, beta, derivatives):
        hits.append(derivatives)
        return real(s, beta, derivatives)

    monkeypatch.setattr(ext, "POLAR_FD_STEP", 0.02)
    monkeypatch.setattr(ext, "polar_identity_residual", residual)


def phi_step(monkeypatch, hits):
    """The phi step of every join distance times 1e3."""
    real = ext.JoinSample.steps.fget

    def steps(sample):
        hits.append(sample)
        hphi, hbeta = real(sample)
        return 1e3 * hphi, hbeta

    monkeypatch.setattr(ext.JoinSample, "steps", property(steps))


def block_m_scaled(where):
    """The extension cut's block_m times 1.5 where(beta)."""
    def defect(monkeypatch, hits):
        real = cl.extension_family_cut

        def cut(family, lam, s0):
            field = real(family, lam, s0)

            def block_m(phi, beta):
                hits.append(beta)
                m = field.block_m(phi, beta)
                return np.where(where(np.asarray(beta)), 1.5 * m, m)

            return dataclasses.replace(field, block_m=block_m)

        monkeypatch.setattr(cl, "extension_family_cut", cut)
    return defect


# name, defect, suite argv, expected exit code, the item that will catch
# an escaped defect
DEFECTS = [
    ("limit-shift", None,
     ["converge", "--grid", "24", "--corrupt", "limit-shift"], 1, None),
    ("formula-beta", None,
     ["oracle", "--grid", "24", "--corrupt", "formula-beta"], 1, None),
    ("beta1-large", None, ["claim", "--corrupt", "beta1-large"], 1, None),
    ("fd-step", polar_fd_step, ["identities"], 1, None),
    ("radius-shift", radius_shift, ["converge", "--grid", "96"], 0,
     "item 10"),
    ("asymptotic-index", asymptotic_index, ["converge", "--grid", "96"], 0,
     "item 10"),
    ("phi-step", phi_step,
     ["converge", "--grid", "96", "--config", COS2], 0, "item 15"),
    ("block-m-equator", block_m_scaled(lambda b: b > HALF_PI - 0.045),
     ["converge", "--grid", "96"], 0, "item 7"),
    ("block-m-pole", block_m_scaled(lambda b: b < 0.045),
     ["converge", "--grid", "96"], 0, "item 7"),
]


@pytest.mark.parametrize("defect,argv,code,catcher",
                         [row[1:] for row in DEFECTS],
                         ids=[row[0] for row in DEFECTS])
def test_defect_gives_its_recorded_exit_code(tmp_path, monkeypatch, defect,
                                             argv, code, catcher):
    # a row exits 0 exactly when it names the item that will catch it
    assert (code == 0) == (catcher is not None)
    cos2 = tmp_path / "cos2.cfg"
    cos2.write_text("schema_version = 1\nbump_direction = cos2\n")
    hits = []
    if defect is not None:
        defect(monkeypatch, hits)
    argv = [str(cos2) if a == COS2 else a for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == code
    # the patched seam is on the suite's path
    assert defect is None or hits
