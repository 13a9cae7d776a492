"""Freeze engine outputs as regression fixtures.

Run from the repository root after any intentional change to the engine:

    python tests/gen_regression.py

Writes two fixtures:

* ``extension_family_cut_regression.txt``: the join-coordinate blocks of
  the bump family's reparametrized extension cut at theta = pi/3,
  lambda' = 8, b = 0 on a small grid, with 17 significant digits;
* ``report_regression.json``: the report.jsonl records of every suite run
  through ``hypext.cli.main`` on small grids (``REPORT_CASES``), each with
  the argv and config text that produced it.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from hypext import cli
from hypext import cutlimits as cl
from hypext import families as fam

FIXTURES = Path(__file__).parent / "fixtures"
OUT = FIXTURES / "extension_family_cut_regression.txt"
REPORTS_OUT = FIXTURES / "report_regression.json"

COS2 = "schema_version = 1\nbump_direction = cos2\n"

# (name, argv without --out, config file text or None)
REPORT_CASES = [
    ("identities", ["identities", "--seed", "0"], None),
    ("oracle-bump", ["oracle", "--family", "bump", "--grid", "24"], None),
    ("oracle-hyperbolic",
     ["oracle", "--family", "hyperbolic", "--grid", "24"], None),
    ("converge-hyperbolic",
     ["converge", "--family", "hyperbolic", "--grid", "24"], None),
    ("converge-bump-uniform",
     ["converge", "--family", "bump", "--grid", "24"], None),
    ("converge-bump-cos2",
     ["converge", "--family", "bump", "--grid", "24"], COS2),
    ("claim-bump", ["claim", "--family", "bump"], None),
    ("claim-hyperbolic", ["claim", "--family", "hyperbolic"], None),
]


def freeze_cut():
    family = fam.bump_family("uniform")
    (lam,) = cl.cut_indices(math.pi / 3, [8.0], 0.0).tolist()
    cut = cl.extension_family_cut(family, lam, 8.0)
    phi = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    beta = np.linspace(0.1, math.pi / 2 - 0.1, 6)
    m = cut.block_m(phi, beta)
    bb = np.broadcast_to(cut.radial, m.shape)
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


def freeze_reports():
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, config in REPORT_CASES:
            out = Path(tmp) / name
            extra = ["--out", str(out)]
            if config is not None:
                cfg = Path(tmp) / f"{name}.cfg"
                cfg.write_text(config)
                extra += ["--config", str(cfg)]
            rc = cli.main(argv + extra)
            if rc != 0:
                raise SystemExit(f"{name}: exit {rc}; not freezing a failure")
            records = [json.loads(line) for line in
                       (out / "report.jsonl").read_text().splitlines()]
            cases.append({"name": name, "argv": argv, "config": config,
                          "records": records})
    REPORTS_OUT.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} report cases to {REPORTS_OUT}")


if __name__ == "__main__":
    freeze_cut()
    freeze_reports()
