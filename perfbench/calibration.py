"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and the speed
of one core changes by up to about 1.7x within minutes as their load comes
and goes.  The same cshlab case then takes 3.8 s in one minute and 6.8 s in
the next.  No statistic over a run of tens of seconds removes a change that
lasts minutes, so the benchmark also times this kernel between cases and
uses it as a control variate: a case that took ``t`` seconds while the
kernel took ``k`` is reported as ``t * (REF_S / k) ** EXPONENT``.

The exponent is below 1 because code does not slow by the kernel's factor.
Regressing log case time on log kernel time over 217 adjacent pairs gave
slopes of 0.64 to 0.75, and a long case can change speed between the samples
on either side of it.  Over two sets of ten runs and one of five, 0.5 gave
the smallest worst case for the run-to-run spread of the workload sums: 0.04
to 0.14 over the workloads, against 0.07 to 0.28 raw and 0.07 to 0.23 with
exponent 1.  The raw seconds stay in the record.

The kernel has the mix of a cshlab enumeration: elementwise numpy on a
stack of points, stacked small ``numpy.linalg.solve`` calls and a pure-Python
dedup loop.  It does not import cshlab, so a change to the program cannot
change it; it must not change either, or calibrated times stop being
comparable across commits.
"""

from __future__ import annotations

import statistics
import time

# Seconds one kernel run takes at the reference speed: about the median
# (0.064 s) of 50 samples taken between cases on the shared 2-core machine the
# benchmark was defined on (Python 3.11, numpy 2.4).  It is only a unit:
# calibrated times read "seconds on a machine where the kernel takes REF_S".
REF_S = 0.06
EXPONENT = 0.5
REPEATS = 3
_POINTS = 2048
_STEPS = 60


def kernel() -> float:
    """One fixed, deterministic unit of work; returns a checksum."""
    import numpy as np  # here, so that importing this module stays out of set-up time

    x = np.random.default_rng(20250419).uniform(-1.0, 1.0, (_POINTS, 3))
    eye = 3.0 * np.eye(3)
    total = 0.0
    for _ in range(_STEPS):
        e = np.exp(x)
        r = e * (e - 0.5) - x
        jac = np.einsum("ij,ik->ijk", e, e) + eye
        x = np.clip(x - 0.1 * np.linalg.solve(jac, r[..., None])[..., 0], -2.0, 2.0)
        seen: dict[tuple, int] = {}
        for row in np.round(x[:256], 2).tolist():
            seen.setdefault(tuple(row), len(seen))
        total += len(seen) + float(np.abs(r).max())
    return total


def sample(clock=time.perf_counter) -> float:
    """Median seconds of ``REPEATS`` back-to-back kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = clock()
        kernel()
        times.append(clock() - start)
    return statistics.median(times)
