"""Tests of the benchmark's own code (not of cshlab).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(1, 41)]  # 1..40, shuffled below
    rng = np.random.default_rng(0)
    value, pct = run.tail_percentile(list(rng.permutation(samples)))
    assert value == 30.0
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0


def test_tail_percentile_needs_more_than_ten_samples():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(x) for x in range(11)]) == (0.0, 100.0 / 11)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_spans_and_counters():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    kernel = tr.counter("kernel", lambda x: clock.tick(0.5), rows=lambda x: len(x))
    inner = tr.span("inner", lambda: (clock.tick(1.0), kernel([1, 2, 3]), clock.tick(0.25)))
    outer = tr.span("outer", lambda: (clock.tick(2.0), inner(), kernel([4]), inner()))
    outer()
    out, in1, in2 = tr.spans
    assert [s.name for s in tr.spans] == ["outer", "inner", "inner"]
    assert in1.parent == 0 and in2.parent == 0 and out.parent is None
    assert in1.duration == pytest.approx(1.75)
    assert in1.self_s == pytest.approx(1.25)
    assert out.duration == pytest.approx(2.0 + 1.75 + 0.5 + 1.75)
    assert out.self_s == pytest.approx(2.0)
    k = tr.counters["kernel"]
    assert (k.calls, k.rows, k.seconds) == (3, 7, pytest.approx(1.5))


def test_counter_counts_a_call_that_raises():
    tr = tracing.Tracer(FakeClock())

    def boom(x):
        raise ValueError("singular")

    wrapped = tr.counter("solve", boom, rows=lambda x: 2)
    with pytest.raises(ValueError):
        wrapped(None)
    assert (tr.counters["solve"].calls, tr.counters["solve"].errors) == (1, 1)


def test_failed_frac_counts_wrong_and_raising_cases():
    def raises():
        raise RuntimeError("forced failure")

    cases = [
        workloads.Case("good", run=lambda: 1, check=lambda a: []),
        workloads.Case("wrong", run=lambda: 2, check=lambda a: ["answer is wrong"]),
        workloads.Case("raises", run=raises, check=lambda a: []),
        workloads.Case("good2", run=lambda: 3, check=lambda a: []),
    ]
    results = run.run_pass(cases)
    assert [r.failed for r in results] == [False, True, True, False]
    assert "forced failure" in results[2].problems[0]
    assert run.failed_frac(results) == 0.5


def test_end_to_end_sums_and_takes_the_median_of_case_medians():
    def result(name, t, cal=None):
        return run.CaseResult(name, t, cal_s=cal)

    ref = run.calibration.REF_S
    one = [result("a", 1.0), result("b", 2.0), result("c", 9.0)]
    e2e = run.end_to_end(one, [0.5])
    assert e2e["wall_s"] == 12.0 and e2e["case_p50_s"] == 2.0
    assert "wall_ref_s" not in e2e
    # a partial second round: "a" has two samples, the others one
    more = [result("a", 1.0, ref), result("b", 2.0, 2 * ref), result("c", 9.0, ref),
            result("a", 1.2, ref)]
    e2e = run.end_to_end(more, [0.5, 0.7])
    assert e2e["wall_s"] == pytest.approx(1.1 + 2.0 + 9.0)
    assert e2e["setup_s"] == pytest.approx(0.6)
    # "b" ran while the kernel took twice its reference time
    slow = 2.0 * 0.5 ** run.calibration.EXPONENT
    assert e2e["wall_ref_s"] == pytest.approx(1.1 + slow + 9.0)


def test_rounds_run_every_case_and_bracket_it_with_calibration():
    samples = iter([1.0, 3.0, 5.0, 7.0])
    cases = [workloads.Case(n, run=lambda: None, check=lambda a: []) for n in "xyz"]
    out = run.run_rounds(cases, 0.0, calibrate=lambda: next(samples))
    assert [r.name for r in out] == ["x", "y", "z"]
    assert [r.cal_s for r in out] == [2.0, 4.0, 6.0]
    assert len(run.run_rounds(cases, 0.05)) > 3


def test_strict_max_neg_oracle_at_c_minus_one():
    assert workloads.threshold_oracle("strict_max_neg", -1.0) == pytest.approx(-16.0 / 3.0,
                                                                              abs=1e-15)
    t = (Fraction(-1) - 2) / (2 * Fraction(-1) - 2)
    assert t == Fraction(3, 4) and Fraction(1) / (t * (t - 1)) == Fraction(-16, 3)


def test_strict_min_oracles_are_four_c():
    assert workloads.threshold_oracle("strict_min_pos", 1.2) == pytest.approx(4.8)
    assert workloads.threshold_oracle("strict_min_neg", -0.9) == pytest.approx(-3.6)


def test_seed_zero_is_the_acceptance_input_and_jitter_keeps_the_mean():
    ref = workloads.load_reference()
    base = workloads.build("degree_table", 0, ref)
    assert len(base) == 7
    g = workloads.complete_graph(5)
    f = np.full(5, 1.0) + workloads._jitter(workloads._case_rng(3, 6), g, 1.0)
    assert abs(f.mean() - 1.0) < 1e-15 and np.ptp(f) > 0.0
    assert workloads.threshold_scale(0, 1.0) == 1.0
    for seed in range(1, 50):
        up, down = workloads.threshold_scale(seed, 1.0), workloads.threshold_scale(seed, -1.0)
        assert 0.95 <= up <= 1.05 and up + down == pytest.approx(2.0)


def test_root_matching_ignores_order_but_not_position():
    class Root:
        def __init__(self, point, index):
            self.point, self.morse_index, self.nondegenerate = np.array(point), index, True

    roots = [Root([0.0, 1.0], 1), Root([1.0, 0.0], 1)]
    ref = workloads.reference_roots(roots[::-1])
    assert workloads.match_roots(roots, ref, 1e-7) == []
    moved = [Root([0.0, 1.0 + 1e-6], 1), roots[1]]
    assert workloads.match_roots(moved, ref, 1e-7)
