import numpy as np
import pytest

import cshlab.continuation as continuation
from cshlab import (
    ScalarModel,
    SolveOptions,
    SolverError,
    estimate_threshold,
    sigma_homotopy,
    sup_norm,
    sweep_lambda,
)
from conftest import manufactured_system


def test_sweep_zero_source_keeps_trivial_root(k2):
    records = sweep_lambda(k2, np.zeros(2), (-2.0, 2.0), steps=5, box=(-4.0, 3.0))
    assert all(rec.parameter != 0.0 for rec in records)
    for rec in records:
        assert any(sup_norm(r.point) <= 1e-10 for r in rec.roots)


def test_sweep_detects_constant_branch_birth(k2):
    # constant roots of the f = -1 model exist exactly for lam <= 4*mean(f) = -4
    records = sweep_lambda(k2, np.full(2, -1.0), (-3.0, -5.0), steps=3, box=(-6.0, 2.0))
    params = [rec.parameter for rec in records]
    assert params == sorted(params, reverse=True)  # sweep order preserved
    for rec in records:
        if rec.parameter > -4.0:
            assert len(rec.roots) == 0
        elif rec.parameter < -4.0:
            assert rec.counts["strict_min"] >= 1
    events = [e for rec in records for e in rec.events]
    assert any("strict_min appeared" in e for e in events)
    # the midpoint refinement halves the localization interval
    assert any(abs(p - (-4.5)) < 1e-12 or abs(p - (-3.5)) < 1e-12 for p in params)


def test_sweep_warm_start_reverifies(k2):
    records = sweep_lambda(k2, np.full(2, -1.0), (-5.0, -7.0), steps=3, box=(-6.0, 2.0))
    for rec in records:
        for r in rec.roots:
            assert r.residual_norm <= 1e-12


def test_threshold_negative_min_contains_4fbar(k2):
    est = estimate_threshold(k2, np.full(2, -1.0), "strict_min_neg",
                             bracket=(-5.0, -3.0), tol=1e-3)
    assert est.hi - est.lo <= 1e-3
    assert est.lo <= -4.0 <= est.hi
    assert est.consistent
    assert est.certificate_kind == "strict"


def test_threshold_ordering_negative(k2):
    f = np.full(2, -1.0)
    est_min = estimate_threshold(k2, f, "strict_min_neg", bracket=(-5.0, -3.0), tol=1e-3)
    est_max = estimate_threshold(k2, f, "strict_max_neg", bracket=(-6.0, -4.5), tol=1e-3)
    # the strict-max threshold sits at or below the strict-min threshold
    assert est_max.lo <= est_min.hi + 1e-3
    # hand value for the constant branch: lam * t^2 = -3 at the transition
    assert est_max.lo <= -16.0 / 3.0 <= est_max.hi


def test_threshold_positive_min(k2):
    est = estimate_threshold(k2, np.ones(2), "strict_min_pos", bracket=(3.0, 5.0), tol=1e-3)
    assert est.hi >= 4.0 - 1e-3
    assert est.consistent


def test_threshold_intervals_nest_under_refinement(k2):
    f = np.full(2, -1.0)
    coarse = estimate_threshold(k2, f, "strict_min_neg", bracket=(-5.0, -3.0), tol=1e-1)
    fine = estimate_threshold(k2, f, "strict_min_neg", bracket=(-5.0, -3.0), tol=1e-4)
    assert fine.hi - fine.lo <= coarse.hi - coarse.lo
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_threshold_bad_bracket(k2):
    with pytest.raises(SolverError, match="straddle"):
        estimate_threshold(k2, np.full(2, -1.0), "strict_min_neg",
                           bracket=(-6.0, -5.0), tol=1e-2)
    with pytest.raises(ValueError, match="one of"):
        estimate_threshold(k2, np.ones(2), "nope", bracket=(3.0, 5.0), tol=1e-2)


def test_sigma_homotopy_tracks_log_sigma(k2):
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    path = [10.0 ** (-k) for k in range(0, 5)]
    records = sigma_homotopy(k2, m, path, box=(-4.0, 3.0))
    for rec in records:
        target = np.log(rec.parameter)
        assert any(np.abs(r.point - target).max() <= 1e-8 for r in rec.roots)
    rates = [e for rec in records for e in rec.events if "growing" in e]
    assert rates  # blow-up is flagged


def test_sigma_homotopy_polish_uses_caller_options(k2, monkeypatch):
    seen = []
    real = continuation.solve_scalar

    def spy(g, m, seed, opts=None):
        seen.append(opts)
        return real(g, m, seed, opts)

    monkeypatch.setattr(continuation, "solve_scalar", spy)
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    opts = SolveOptions(tol_residual=1e-10, max_iter=50)
    records = sigma_homotopy(k2, m, [1.0, 0.5, 0.25], opts=opts, seeds=[np.zeros(2)])
    # one polish for the seed, then one per tracked root and slice
    assert len(seen) == 3
    assert all(o is opts for o in seen)
    assert [len(rec.roots) for rec in records] == [1, 1, 1]


def test_sigma_homotopy_system_branch_dies_at_zero(k2):
    s, u0, v0 = manufactured_system(k2)
    seeds = [np.concatenate([u0, v0])]
    records = sigma_homotopy(k2, s, [1.0, 0.5, 0.0], seeds=seeds,
                             opts=SolveOptions(max_iter=80))
    assert len(records[0].roots) == 1
    assert len(records[-1].roots) == 0
    assert any("branch lost" in e for rec in records for e in rec.events)
