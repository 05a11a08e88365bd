"""The calls the benchmark makes into cshlab, run under its own tracer.

``perfbench/run.py``'s warm-up enumerates a scalar and a system model with
an explicit ``grid_n``, and ``perfbench/tracing.py`` patches cshlab call
sites by name.  Renaming or removing any of them breaks the benchmark; this
test makes it break tier-1 too.
"""

import sys
from pathlib import Path

import numpy as np

import cshlab

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402


def test_warm_up_reaches_the_traced_kernels():
    with tracing.installed(tracing.Tracer()) as tracer:
        run.warm_up(cshlab, np)
    assert [s.name for s in tracer.spans].count("enumerate_report") == 2
    for name in ("scalar.residual", "scalar.jacobian", "system.residual_pair",
                 "system.jacobian_system", "solve.linalg_solve"):
        assert tracer.counters[name].calls > 0, name
