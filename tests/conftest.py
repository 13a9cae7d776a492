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


class StereographicAtlas:
    """The two stereographic charts of the unit 2-sphere.

    Chart "north" projects from the south pole: w = (x, y) / (1 + z).
    Chart "south" projects from the north pole with the second coordinate
    flipped: w = (x, -y) / (1 - z).  The round metric has components
    4 I / (1 + |w|^2)^2 in either chart.
    """

    def coords_of(self, chart, p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        if chart == "north":
            denom = 1.0 + z
            return np.stack([x / denom, y / denom], axis=-1)
        denom = 1.0 - z
        return np.stack([x / denom, -y / denom], axis=-1)

    def coords_jacobian(self, chart, p):
        """d(chart coords)/d(x, y, z), of shape (..., 2, 3)."""
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        out = np.zeros(p.shape[:-1] + (2, 3))
        sign, denom = (1.0, 1.0 + z) if chart == "north" else (-1.0, 1.0 - z)
        out[..., 0, 0] = 1.0 / denom
        out[..., 0, 2] = -sign * x / denom ** 2
        out[..., 1, 1] = sign / denom
        out[..., 1, 2] = -y / denom ** 2
        return out

    def round_components(self, w):
        w = np.asarray(w, dtype=float)
        q = np.sum(w * w, axis=-1)
        factor = 4.0 / (1.0 + q) ** 2
        return np.multiply.outer(factor, np.eye(2))


@pytest.fixture(scope="session")
def sphere_atlas():
    return StereographicAtlas()


@pytest.fixture(scope="session")
def round_metric_in_join_coordinates(sphere_atlas):
    """The round 2-sphere metric transported into join coordinates through
    a stereographic chart, fully analytically: an independent expression
    of the round reference.

    The join point is (sin b cos p, sin b sin p, w cos b); its chart image
    and both Jacobian factors are closed-form, so the pullback
    J^T G_chart J is an independent expression of the same tensor.
    ``transport(phi, beta, sheet)`` returns (block_m, block_beta, offdiag)
    arrays of shape (n_phi, n_beta).
    """
    def transport(phi, beta, sheet):
        pp, bb = np.meshgrid(np.asarray(phi, dtype=float),
                             np.asarray(beta, dtype=float), indexing="ij")
        w = float(sheet)
        pts = np.stack([np.sin(bb) * np.cos(pp), np.sin(bb) * np.sin(pp),
                        w * np.cos(bb)], axis=-1)
        # d(point)/d(phi, beta): (..., 3, 2)
        dp = np.zeros(pp.shape + (3, 2))
        dp[..., 0, 0] = -np.sin(bb) * np.sin(pp)
        dp[..., 1, 0] = np.sin(bb) * np.cos(pp)
        dp[..., 0, 1] = np.cos(bb) * np.cos(pp)
        dp[..., 1, 1] = np.cos(bb) * np.sin(pp)
        dp[..., 2, 1] = -w * np.sin(bb)
        chart = "north" if sheet == 1 else "south"
        J = np.einsum("...ij,...jk->...ik",
                      sphere_atlas.coords_jacobian(chart, pts), dp)
        G = sphere_atlas.round_components(sphere_atlas.coords_of(chart, pts))
        pulled = np.einsum("...ki,...kl,...lj->...ij", J, G, J)
        return pulled[..., 0, 0], pulled[..., 1, 1], pulled[..., 0, 1]
    return transport
