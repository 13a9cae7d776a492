"""Regenerate the frozen high-precision fixture table.

Run from the repository root:

    python tests/gen_fixtures.py

Values are computed with mpmath at 50 significant digits and written to
tests/fixtures/hyptrig_fixtures.txt with 30 significant digits.  Arguments
are exact double-precision numbers (written with repr) so the table can be
replayed bit-for-bit against the float64 implementation.
"""

import math
from pathlib import Path

from mpmath import mp, mpf, sinh, cosh, asinh, sin, cos, asin, log, exp

mp.dps = 50

OUT = Path(__file__).parent / "fixtures" / "hyptrig_fixtures.txt"


def solve_r(s, beta):
    return asinh(sin(beta) * sinh(s))


def solve_t(s, beta):
    r = solve_r(s, beta)
    return asinh(sinh(s) * cos(beta) / cosh(r))


def reparam(lp, theta):
    return asinh(sinh(lp) * sin(theta))


def reparam_inverse(lam, theta):
    return asinh(sinh(lam) / sin(theta))


def vartheta(lam, beta, b, theta):
    return solve_r(reparam_inverse(lam, theta) + b, beta)


def main():
    rows = []

    def add(name, args, value):
        args_txt = " ".join(repr(float(a)) for a in args)
        rows.append(f"{name} {args_txt} = {mp.nstr(value, 30)}")

    pi = mp.pi

    s, beta = mpf(2.0), mpf(0.3)
    add("solve_r", (2.0, 0.3), solve_r(s, beta))

    add("solve_t", (3.0, 1.0), solve_t(mpf(3.0), mpf(1.0)))

    add("reparam", (1.0, 0.4), reparam(mpf(1.0), mpf(0.4)))

    add("reparam_inverse", (3.0, 0.9), reparam_inverse(mpf(3.0), mpf(0.9)))

    th_half = float(math.pi / 2)
    add("vartheta", (10.0, float(math.pi / 4), 0.5, th_half),
        vartheta(mpf(10.0), mpf(math.pi / 4), mpf(0.5), mpf(th_half)))

    th_third = float(math.pi / 3)
    add("vartheta", (40.0, 0.6, -1.0, th_third),
        vartheta(mpf(40.0), mpf(0.6), mpf(-1.0), mpf(th_third)))

    add("vartheta_shift", (0.3, 1.2, th_third),
        mpf(1.2) + log(sin(mpf(0.3)) / sin(mpf(th_third))))

    # beta1 candidate for (B=-2, c=0.5, c'=-0.2, theta=pi/3), margin 0.5
    expo = mpf(-2.0) - mpf(-0.2) + log(sin(mpf(th_third))) - mpf(0.5)
    add("beta1_threshold", (-2.0, 0.5, -0.2, th_third, 0.5), asin(exp(expo)))

    add("xi_embed_t", (3.0, 0.8), solve_t(mpf(3.0), mpf(0.8)))
    add("xi_embed_r", (3.0, 0.8), solve_r(mpf(3.0), mpf(0.8)))

    # large-argument stress: pins the log-domain branches
    add("solve_r", (700.0, 0.3), solve_r(mpf(700.0), mpf(0.3)))
    add("solve_t", (500.0, 1e-8), solve_t(mpf(500.0), mpf(1e-8)))
    add("solve_t", (40.0, 1e-6), solve_t(mpf(40.0), mpf(1e-6)))
    add("solve_t", (40.0, 1.5), solve_t(mpf(40.0), mpf(1.5)))
    add("reparam", (650.0, 0.1), reparam(mpf(650.0), mpf(0.1)))
    add("reparam_inverse", (650.0, 0.1), reparam_inverse(mpf(650.0), mpf(0.1)))
    add("vartheta", (600.0, 0.4, -1.0, th_third),
        vartheta(mpf(600.0), mpf(0.4), mpf(-1.0), mpf(th_third)))

    header = [
        "# hyptrig oracle fixtures, version 1",
        "# generated by tests/gen_fixtures.py (mpmath, 50 significant digits)",
        "# format: <name> <arg0> <arg1> ... = <value to 30 significant digits>",
    ]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(header + rows) + "\n")
    print(f"wrote {len(rows)} fixtures to {OUT}")


if __name__ == "__main__":
    main()
