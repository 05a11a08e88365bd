"""The calls the benchmark makes into cshlab, run under its own tracer.

``perfbench/run.py``'s warm-up enumerates a scalar and a system model with
an explicit ``grid_n``, and ``perfbench/tracing.py`` patches cshlab call
sites by name.  Renaming or removing any of them breaks the benchmark; this
test makes it break tier-1 too.  So does a change that leaves a layer the
traced run (``--trace 1``) guards with a zero counter.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import cshlab

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_warm_up_reaches_the_traced_kernels():
    # the warm-up's system box (-3, 3) is smaller than that system's a priori
    # ball (radius 3,044), so it earns the small-box warning
    with tracing.installed(tracing.Tracer()) as tracer:
        with pytest.warns(UserWarning, match=r"a priori radius 3\.04e\+03"):
            run.warm_up(cshlab, np)
    assert [s.name for s in tracer.spans].count("enumerate_report") == 2
    for name in ("scalar.residual", "scalar.jacobian", "system.residual_pair",
                 "system.jacobian_system", "solve.linalg_solve"):
        assert tracer.counters[name].calls > 0, name


# one case per workload, the cheapest that reaches every guarded counter:
# K2 at lam = +10, f = -1; the sigma = 0.25 slice; the strict_min_neg bisection
GUARD_CASES = {"degree_table": 0, "system_homotopy": 1, "thresholds": 1}


@pytest.mark.parametrize("workload", sorted(run.EXPECT_NONZERO))
def test_traced_case_reaches_every_guarded_counter(workload):
    case = workloads.build(workload, 0, workloads.load_reference())[GUARD_CASES[workload]]
    with tracing.installed(tracing.Tracer()) as tracer:
        answer = case.run()
    assert case.check(answer) == []
    metrics = tracing.layer_metrics(tracer)
    assert [k for k in run.EXPECT_NONZERO[workload] if not metrics[k]] == []
    if workload == "system_homotopy":
        # the line search's cost: trial residual rows per Jacobian row (the
        # quadratic backtracking reads 2.80 here, halving t each round 7.28)
        assert metrics["system.residual_pair.rows"] <= 4 * metrics["system.jacobian_system.rows"]
        # and in calls: each line search starts its rows at their first trial
        # inside the exp guard (6.7 calls per Jacobian call here; walking
        # the guard's 0.1 t ladder in lock-step rounds read 10.1)
        assert metrics["system.residual_pair.calls"] <= 8 * metrics["system.jacobian_system.calls"]
