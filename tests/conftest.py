import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture_table():
    """Parse the frozen high-precision table into a list of
    (name, args tuple, value) records."""
    rows = []
    for line in (FIXTURES / "hyptrig_fixtures.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lhs, value = line.split(" = ")
        toks = lhs.split()
        rows.append((toks[0], tuple(float(t) for t in toks[1:]), float(value)))
    return rows


@pytest.fixture(scope="session")
def fixture_table():
    return load_fixture_table()


@pytest.fixture(scope="session")
def round_join_blocks():
    """The round 2-sphere metric written directly in join coordinates, as
    a reference: (phi, beta) -> (block_m = sin^2(beta), block_beta = 1),
    each of shape (n_phi, n_beta)."""
    def blocks(phi, beta):
        phi = np.asarray(phi, dtype=float)
        beta = np.asarray(beta, dtype=float)
        m = np.broadcast_to(np.sin(beta)[None, :] ** 2,
                            (phi.size, beta.size))
        return m.copy(), np.ones((phi.size, beta.size))
    return blocks
