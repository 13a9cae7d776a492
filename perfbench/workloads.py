"""Workload definitions for the hypext benchmark.

A workload is a list of suite invocations of ``hypext.cli.main``; one pass
runs them back to back, and the next pass starts only when the last one has
finished (a closed loop with one caller).  Every suite reads the shared
config file ``CONFIG_TEXT``: ``bump_direction = cos2`` makes the bump cut
vary in phi, so the per-phi evaluation is not a constant.

The workload seed reaches the program only as ``identities --seed``.

This module imports nothing from hypext or numpy: the point counts and the
expected trace counts below are derived from the workload arguments alone,
so they are an independent check of what the traced run observes.
"""

from __future__ import annotations

CONFIG_TEXT = "schema_version = 1\nbump_direction = cos2\n"

# the program's default seed; reports of seed-dependent suites are compared
# with the frozen reference only at this seed
DEFAULT_SEED = 0

SEED = "{seed}"

WORKLOADS = {
    # 40 cuts on a 192x384x2-sheet grid: the work per grid point (the
    # per-beta column loop, c2_sups over large arrays) dominates
    "converge-fine": {
        "suites": [["converge", "--family", "bump", "--grid", "384"]],
    },
    # 216 cuts on a 24x24 grid: the same layers as many small calls, so
    # costs per cut and per call dominate
    "converge-sweep": {
        "suites": [["converge", "--family", "bump", "--grid", "24",
                    "--theta", "pi/2,pi/3,pi/4,pi/6",
                    "--b=-2,-1.75,-1.5,-1.25,-1,-0.75",
                    "--lambda-prime", "4,5,6,7,8,9,10,11,12"]],
    },
    # the oracle and identity path: formula and pullback cuts, the array
    # solvers and beta1_threshold; a converge-only change shows no change
    "verify-gates": {
        "suites": [["identities", "--seed", SEED],
                   ["oracle", "--family", "bump", "--grid", "384",
                    "--s-values", "1,2,3,4,6,8"],
                   ["oracle", "--family", "hyperbolic", "--grid", "384",
                    "--s-values", "1,2,3,4,6,8"],
                   ["claim"]],
    },
}

# which suite each corruption hook of the program applies to
CORRUPTIONS = {"limit-shift": "converge", "formula-beta": "oracle",
               "beta1-large": "claim"}

# program defaults the workloads rely on (hypext.cli.DEFAULTS)
_DEFAULT_THETAS = 2          # "pi/2,pi/3"
_DEFAULT_LAMBDA_PRIMES = 4   # "4,6,8,10"
_AUTO_B_COUNT = 5            # b auto: linspace(-2, c', 5)
_DEFAULT_GRID = 96
_DEFAULT_FAMILY = "bump"
_DEFAULT_S_VALUES = 3        # "1,3,6"

# fixed sizes inside the program that the expected counts depend on
_POLE_PROBE_BETAS = 6        # run_convergence: probe_beta = geomspace(.., 6)
_COLLAR_CHECKS = 4           # run_convergence: 2 lambdas x 2 b values
_BOUNDARY_RESOLUTION = 128   # run_convergence and the collar check
_SHEETS = 2
_JOIN_SLOTS = 3              # block_m, block_beta, offdiag
_CIRCLE_CHARTS = 2
_PULLBACK_SOLVES = 5         # four Richardson evaluations and the centre


def suite_argvs(templates, seed, corrupt=None):
    """The argv lists of one pass (without --config and --out) from the
    suite templates of a workload."""
    out = []
    for argv in templates:
        argv = [a.replace(SEED, str(seed)) for a in argv]
        if corrupt and CORRUPTIONS[corrupt] == argv[0]:
            argv += ["--corrupt", corrupt]
        out.append(argv)
    return out


def _opts(argv):
    """Flag values of one suite argv, '--b=-2,-1' form included."""
    opts = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if "=" in flag:
            key, val = flag.split("=", 1)
            i += 1
        else:
            key, val = flag, argv[i + 1]
            i += 2
        opts[key.lstrip("-").replace("-", "_")] = val
    return opts


def _count(opts, key, default):
    return len(opts[key].split(",")) if key in opts else default


def _converge_shape(argv):
    opts = _opts(argv)
    grid = int(opts.get("grid", _DEFAULT_GRID))
    thetas = _count(opts, "theta", _DEFAULT_THETAS)
    b = opts.get("b", "auto")
    bs = _AUTO_B_COUNT if b == "auto" else len(b.split(","))
    return {"grid": grid, "n_beta": grid, "n_phi": max(16, grid // 2),
            "thetas": thetas, "b_total": thetas * bs,
            "lambda_primes": _count(opts, "lambda_prime",
                                    _DEFAULT_LAMBDA_PRIMES)}


def _oracle_shape(argv):
    opts = _opts(argv)
    grid = int(opts.get("grid", _DEFAULT_GRID))
    return {"n_phi": max(16, grid // 3), "n_beta": max(12, grid // 4),
            "s_values": _count(opts, "s_values", _DEFAULT_S_VALUES),
            "family": opts.get("family", _DEFAULT_FAMILY)}


def points_per_pass(suites):
    """Join-grid points verified by one pass: for converge, every cut's
    (sheet, phi, beta) grid compared with the limit; for the oracle, every
    s value's grid compared with the pullback.  identities and claim work
    on no join grid and add none."""
    total = 0
    for argv in suites:
        if argv[0] == "converge":
            c = _converge_shape(argv)
            total += (c["b_total"] * c["lambda_primes"]
                      * c["n_phi"] * c["n_beta"] * _SHEETS)
        elif argv[0] == "oracle":
            o = _oracle_shape(argv)
            total += o["s_values"] * o["n_phi"] * o["n_beta"] * _SHEETS
    return total


def expected_counts(suites):
    """Trace counts of one pass that follow from the arguments alone.

    The converge and oracle suites are modelled completely.  The identity
    and claim suites are modelled only for their entry points: how often
    their inner loops call the solvers, fields and family cuts depends on
    computed values (the claim's lambda0, for one), so every count under
    the prefixes they leave open is dropped.  The traced run still
    requires each count to repeat exactly from pass to pass.
    """
    exp = {}
    open_prefixes = set()

    def add(key, n):
        exp[key] = exp.get(key, 0) + n

    for argv in suites:
        add("cli.main.calls", 1)
        add("cli.write_reports.calls", 1)
        if argv[0] == "converge":
            c = _converge_shape(argv)
            cuts = c["b_total"] * c["lambda_primes"]
            b_total, n_beta, t = c["b_total"], c["n_beta"], c["thetas"]
            columns = cuts * (n_beta + _POLE_PROBE_BETAS)
            joins = cuts + b_total * (c["lambda_primes"] - 1)
            c2d = cuts + _COLLAR_CHECKS * t
            add("cutlimits.run_convergence.calls", t)
            add("cutlimits.is_hyperbolic_around_origin.calls", t)
            add("cutlimits.extension_family_cut.calls", cuts)
            add("cutlimits.ext_cut.block_m.calls", 2 * cuts)
            add("cutlimits.ext_cut.block_m.columns", columns)
            add("cutlimits.predicted_limit.calls", b_total)
            add("cutlimits.limit.block_m.calls", b_total)
            add("cutlimits.limit.block_m.columns", b_total * n_beta)
            add("hyptrig.solve_r.calls", columns)
            add("hyptrig.solve_r.points", columns)
            add("fields.at_angles.calls", columns + b_total * n_beta)
            add("families.cut.calls",
                columns + cuts + _COLLAR_CHECKS * t)
            add("families.limit.calls", b_total * (n_beta + 1))
            add("extension.sample.calls", cuts + b_total)
            add("extension.join_c2_distance.calls", joins)
            add("fields.c2_distance.calls", c2d)
            add("fields.c2_sups.calls",
                _JOIN_SLOTS * _SHEETS * joins + _CIRCLE_CHARTS * c2d)
            add("fields.c2_sups.points",
                _JOIN_SLOTS * _SHEETS * joins * c["n_phi"] * n_beta
                + _CIRCLE_CHARTS * c2d * _BOUNDARY_RESOLUTION)
        elif argv[0] == "oracle":
            o = _oracle_shape(argv)
            s, n_beta = o["s_values"], o["n_beta"]
            add("extension.cut_via_formula.calls", s)
            add("extension.cut_via_formula.block_m.calls", s)
            add("extension.cut_via_formula.block_m.columns", s * n_beta)
            add("extension.sample.calls", s)
            add("extension.cut_via_pullback.calls", s)
            add("extension.compare_join.calls", s)
            # one scalar solve per formula column, array solves in the
            # pullback; one field per column in each route
            add("hyptrig.solve_r.calls", s * (n_beta + _PULLBACK_SOLVES))
            add("hyptrig.solve_r.points",
                s * (n_beta + _PULLBACK_SOLVES * n_beta))
            add("fields.at_angles.calls", 2 * s * n_beta)
            # the bump base evaluates one family member per field
            add("families.cut.calls",
                2 * s * n_beta if o["family"] == "bump" else 0)
        elif argv[0] == "identities":
            add("extension.polar_identity_residual.calls", 2)
            open_prefixes.add("hyptrig.")
        elif argv[0] == "claim":
            t = _count(_opts(argv), "theta", _DEFAULT_THETAS)
            add("hyptrig.beta1_threshold.calls", t)
            add("cutlimits.verify_beta1_claim.calls", t)
            open_prefixes.update(("hyptrig.solve_r.", "fields.", "families.",
                                  "cutlimits.ext_cut.",
                                  "cutlimits.extension_family_cut."))
    return {k: v for k, v in exp.items()
            if not k.startswith(tuple(open_prefixes))}
