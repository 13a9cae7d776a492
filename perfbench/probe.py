"""Host-speed probe for the end-to-end timings.

The machines this benchmark runs on are shared: the same pass can take
twice as long a minute later (measured on a 2-vCPU VM: converge-sweep
passes from 0.9 to 1.8 s within one process).  So each workload process
has a probe process time a fixed kernel after set-up and after every
pass, for about a twentieth of the time it measured, while the workload
process waits; the runner rescales every end-to-end time halfway (in log
scale) towards the speed at which one rep of the kernel takes
``REFERENCE_REP_S``, as ``PROBE_WEIGHT`` explains.  The kernel never
touches hypext, so no change to the program changes it, and it runs in its
own process, so it adds nothing to the workload's peak RSS.

Usage as the probe process: python3 probe.py, then one line per request
with the seconds to spend; each answer is a JSON list of rep durations.

One rep is a loop of Python calls and dict updates, then central
differences of a (2, 192, 384) array, the size of one converge-fine join
sample.  Interpreter-bound and memory-bound work slow down by different
amounts when the host is busy, and the passes mix both: over several
minutes of converge-fine and verify-gates passes, this mix brought the
spread of 30-second medians (quartile distance over median) from 0.28 and
0.25 in wall seconds to 0.09 and 0.08; a probe of scalar numpy calls alone
left converge-fine at 0.21.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

# sets the scale only; the median rep of a run ranged from 3.4 to 5.3 ms on
# the 2-vCPU Xeon VM the baseline was measured on (Python 3.11, numpy 2.4)
REFERENCE_REP_S = 4.0e-3

# share of each measured interval spent on the probe right after it
PROBE_SHARE = 0.05

# exponent of the rescaling factor.  The probe tracks the host only in part:
# over 30 converge-fine passes in one process its median rep correlated 0.55
# with the pass time, and in some runs it was 20% slow while the passes were
# not.  So it is used as a control variate with coefficient one half.  Over
# ten runs of 40 s per workload (2-vCPU Xeon VM), the worst spread (quartile
# distance over median) of run_s and first_run_s was 0.162 in wall seconds,
# 0.172 with the full factor and 0.146 with its square root.
PROBE_WEIGHT = 0.5


def _call(a, b, k=1.0):
    return {"x": a * b + k, "y": [a, b]}


def run_reps(seconds):
    """Durations of probe reps run back to back for ``seconds`` (at least
    one rep)."""
    import numpy as np
    sheets = np.linspace(0.0, 1.0, 2 * 192 * 384).reshape(2, 192, 384)
    reps = []
    while not reps or sum(reps) < seconds:
        t = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(3000):
            r = _call(i * 0.5, 1.5, k=i)
            table[i % 64] = r["x"] + len(r["y"])
            acc += table[i % 64]
        for _ in range(2):
            d = np.roll(sheets, -1, axis=1) - 2.0 * sheets \
                + np.roll(sheets, 1, axis=1)
            acc += float(np.max(np.abs(d)))
        reps.append(time.perf_counter() - t)
    return reps


def to_reference(rep_times):
    """Factor that turns seconds measured alongside these reps into
    seconds rescaled towards the reference speed."""
    return (REFERENCE_REP_S / statistics.median(rep_times)) ** PROBE_WEIGHT


class Probe:
    """A probe process that runs reps on request; use it as a context
    manager so the process is always stopped and waited for."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, seconds):
        self._proc.stdin.write(f"{seconds!r}\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run_reps(float(line))), flush=True)
