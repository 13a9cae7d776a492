"""Freeze one engine output as a regression fixture.

Run from the repository root after any intentional change to the engine:

    python tests/gen_regression.py

Stores the join-coordinate blocks of the bump family's reparametrized
extension cut at theta = pi/3, lambda' = 8, b = 0 on a small grid, with
17 significant digits.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from hypext import cutlimits as cl
from hypext import families as fam

OUT = Path(__file__).parent / "fixtures" / "extension_family_cut_regression.txt"


def main():
    family = fam.FamilySpec(kind="bump").build()
    cut = cl.extension_family_cut(family, math.pi / 3, 8.0, 0.0)
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    beta = np.linspace(0.1, math.pi / 2 - 0.1, 6)
    m = cut.block_m(phi, beta)
    bb = np.broadcast_to(cut.block_beta(beta), m.shape)
    lines = [
        "# regression fixture: extension_family_cut(bump, theta=pi/3, "
        "lambda'=8, b=0)",
        "# generated by tests/gen_regression.py from a stored run",
        "# columns: i_phi j_beta block_m block_beta",
    ]
    for i in range(phi.size):
        for j in range(beta.size):
            lines.append(f"{i} {j} {m[i, j]:.16e} {bb[i, j]:.16e}")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {phi.size * beta.size} rows to {OUT}")


if __name__ == "__main__":
    main()
