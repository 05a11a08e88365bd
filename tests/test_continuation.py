import dataclasses
import warnings

import numpy as np
import pytest

import cshlab.continuation as continuation
from cshlab import (
    OverflowGuardError,
    ScalarModel,
    SolveOptions,
    SolverError,
    apriori_radius,
    enumerate_report,
    estimate_threshold,
    sigma_homotopy,
    sup_norm,
    sweep_lambda,
)
from cshlab.solve import _dedup_points, _make_problem, _solve_one, _sort_roots
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
    # a zero, negative or NaN tol used to run all 200 bisection steps
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            estimate_threshold(k2, np.full(2, -1.0), "strict_min_neg",
                               bracket=(-5.0, -3.0), tol=tol)


def test_threshold_tol_floor_is_the_float_spacing(k2):
    # below the spacing of the bracket's floats no bisection gets that narrow
    with pytest.raises(ValueError, match="below the float spacing"):
        estimate_threshold(k2, np.ones(2), "strict_min_pos", bracket=(3.0, 5.0), tol=1e-20)
    tol = np.spacing(5.0)
    est = estimate_threshold(k2, np.ones(2), "strict_min_pos", bracket=(3.0, 5.0), tol=tol)
    assert 0.0 < est.hi - est.lo <= tol


def test_sweep_rejects_steps_that_are_no_positive_integer(k2):
    # a non-finite count is no positive integer either
    for steps in (float("inf"), float("nan"), 11.7, 0, -2, True):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            sweep_lambda(k2, np.ones(2), (-3.0, -4.0), steps, box=(-6.0, 2.0))


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
    real = continuation._newton_seeds

    def spy(problem, seeds, opts):
        seen.append(opts)
        return real(problem, seeds, opts)

    monkeypatch.setattr(continuation, "_newton_seeds", spy)
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    opts = SolveOptions(tol_residual=1e-10, max_iter=50)
    records = sigma_homotopy(k2, m, [1.0, 0.5, 0.25], opts=opts, seeds=[np.zeros(2)])
    # one batched polish per slice
    assert len(seen) == 3
    assert all(o is opts for o in seen)
    assert [len(rec.roots) for rec in records] == [1, 1, 1]


def _solve_each(g, model, points, opts):
    """One single-seed solve per point; a failed one as None."""
    problem = _make_problem(g, model)
    sols = []
    for x in points:
        try:
            sols.append(_solve_one(problem, np.asarray(x, dtype=float), opts))
        except SolverError:
            sols.append(None)
    return sols


def _distinct(sols, n, tol):
    sols = [s for s in sols if s is not None]
    points = np.array([s.point for s in sols]).reshape(len(sols), n)
    kept = [sols[i] for i in _dedup_points(points, np.array([s.residual_norm for s in sols]), tol)]
    _sort_roots(kept, tol)
    return kept


def _sigma_homotopy_per_root(g, model, sigma_path, opts, seeds=None, box=None):
    """Reference tracker: a single-seed solve per root and slice, then dedup.

    Returns (sigma, roots, events) per slice.
    """
    n = _make_problem(g, model).n
    first = dataclasses.replace(model, sigma=sigma_path[0])
    if seeds is not None:
        tracked = _distinct(_solve_each(g, first, seeds, opts), n, opts.dedup_tol)
    else:
        tracked = enumerate_report(g, first, box, opts=opts).roots
    records = [(sigma_path[0], tracked, [])]
    for prev_sigma, sigma in zip(sigma_path, sigma_path[1:]):
        prev = records[-1][1]
        m = dataclasses.replace(model, sigma=sigma)
        sols = _solve_each(g, m, [r.point for r in prev], opts)
        events = []
        for r, sol in zip(prev, sols):
            if sol is None:
                events.append(f"branch lost at sigma={sigma:.6g} (from {prev_sigma:.6g})")
            elif 0.0 < sigma < prev_sigma:
                rate = (sup_norm(sol.point) - sup_norm(r.point)) / np.log(prev_sigma / sigma)
                if rate > 0.1:
                    events.append(f"sup norm growing at rate {rate:.3f} per unit ln(1/sigma)")
        records.append((sigma, _distinct(sols, n, opts.dedup_tol), events))
    return records


def _sigma_paths(k2, c4):
    """(graph, model, path, options, seeds, box, root counts) of the equivalence cases."""
    s, u0, v0 = manufactured_system(k2)
    return [
        (k2, ScalarModel(lam=1.0, f=np.zeros(2)), [10.0 ** (-k) for k in range(5)],
         SolveOptions(), None, (-4.0, 3.0), [1] * 5),
        (k2, s, [1.0, 0.5, 0.0], SolveOptions(max_iter=80), [np.concatenate([u0, v0])], None,
         [1, 0, 0]),
        (c4, ScalarModel(lam=-10.0, f=np.ones(4)), [1.0, 0.8, 0.6, 0.4, 0.2, 0.05],
         SolveOptions(), None, (-8.0, 3.0), [15, 15, 15, 11, 9, 5]),
    ]


def test_sigma_homotopy_matches_per_root_solves(k2, c4):
    # one batched polish per slice finds what a solve per tracked root found;
    # points differ at most in the last bits of the batched residual
    for g, model, path, opts, seeds, box, counts in _sigma_paths(k2, c4):
        with warnings.catch_warnings():  # C4's box (-8, 3) lies inside its a priori ball
            warnings.filterwarnings("ignore", "box is smaller", UserWarning)
            got = sigma_homotopy(g, model, path, opts=opts, seeds=seeds, box=box)
            want = _sigma_homotopy_per_root(g, model, path, opts, seeds=seeds, box=box)
        assert [len(rec.roots) for rec in got] == counts
        n = len(got[0].roots[0].point)
        for rec, (sigma, roots, events) in zip(got, want, strict=True):
            assert rec.parameter == sigma
            assert rec.events == events
            assert rec.counts == continuation._count_types(roots, n)
            assert len(rec.roots) == len(roots)
            for a, b in zip(rec.roots, roots):
                assert (a.morse_index, a.sign_det, a.nondegenerate) == \
                    (b.morse_index, b.sign_det, b.nondegenerate)
                assert np.abs(a.point - b.point).max() <= 1e-12


def test_sigma_homotopy_system_branch_dies_at_zero(k2):
    s, u0, v0 = manufactured_system(k2)
    seeds = [np.concatenate([u0, v0])]
    records = sigma_homotopy(k2, s, [1.0, 0.5, 0.0], seeds=seeds,
                             opts=SolveOptions(max_iter=80))
    assert len(records[0].roots) == 1
    assert len(records[-1].roots) == 0
    assert any("branch lost" in e for rec in records for e in rec.events)


def test_sigma_homotopy_seed_list_shapes(k2):
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    # an empty seed list tracks no branch, as an empty (0, n) array does
    for seeds in ([], np.empty((0, 2))):
        records = sigma_homotopy(k2, m, [1.0, 0.5], seeds=seeds)
        assert [len(rec.roots) for rec in records] == [0, 0]
    # one seed or a list of seeds of length n; any other length is named
    for seeds in (np.zeros(2), [np.zeros(2)]):
        assert len(sigma_homotopy(k2, m, [1.0], seeds=seeds)[0].roots) == 1
    for seeds in ([np.zeros(3)], np.zeros(4), 0.0):
        with pytest.raises(ValueError, match="each seed must have length 2"):
            sigma_homotopy(k2, m, [1.0], seeds=seeds)
    # seeds are checked as a single-seed solve checks them
    with pytest.raises(ValueError, match="seed must be finite"):
        sigma_homotopy(k2, m, [1.0], seeds=[np.zeros(2), [np.nan, 0.0]])
    with pytest.raises(OverflowGuardError):
        sigma_homotopy(k2, m, [1.0], seeds=[np.zeros(2), [701.0, 0.0]])


def test_sigma_homotopy_merges_seeds_of_one_basin(k2):
    # both seeds polish to the root u = 0 on the first slice: one branch
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    records = sigma_homotopy(k2, m, [1.0, 0.5], seeds=[np.zeros(2), np.full(2, 0.01)])
    assert records[0].counts["strict_min"] == 1
    assert [len(rec.roots) for rec in records] == [1, 1]
    assert np.all(records[0].roots[0].point == 0.0)


def test_default_box_is_the_apriori_ball(k2):
    # continuation passes box=None through: enumerate_report's a priori ball,
    # with roots bitwise equal to an explicit run over that ball
    f = np.ones(2)
    m = ScalarModel(lam=-10.0, f=f)
    r = apriori_radius(k2, m).radius
    assert enumerate_report(k2, m).box[1].tolist() == [r, r]
    runs = [(sweep_lambda(k2, f, (-10.0, -10.0), 1, box=box)[0].roots,
             sigma_homotopy(k2, m, [1.0], box=box)[0].roots) for box in (None, (-r, r))]
    for default, explicit in zip(*runs):
        assert len(default) == len(explicit) == 3
        assert [x.point.tobytes() for x in default] == [x.point.tobytes() for x in explicit]


def test_model_without_apriori_bound_needs_a_box(k2):
    # lam * mean(f) = 0, a sigma < 1 slice and the system model have no
    # a priori bound: no fallback window is searched in their place
    f0 = np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="pass box"):
        sweep_lambda(k2, f0, (-10.0, -9.0), 2)
    with pytest.raises(ValueError, match="pass box"):
        estimate_threshold(k2, f0, "strict_min_neg", bracket=(-5.0, -3.0), tol=1e-2)
    for model, path in ((ScalarModel(lam=1.0, f=np.ones(2)), [0.5, 0.25]),
                        (manufactured_system(k2)[0], [1.0])):
        with pytest.raises(ValueError, match="pass box"):
            sigma_homotopy(k2, model, path)
