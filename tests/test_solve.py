import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from cshlab import (
    OverflowGuardError,
    ScalarModel,
    SolveOptions,
    SolverError,
    SystemModel,
    apriori_radius,
    box_extremize,
    complete_graph,
    constant_solutions,
    cycle_graph,
    enumerate_report,
    enumerate_solutions,
    extremize_scalar_in_box,
    jacobian,
    morse_data,
    newton,
    residual,
    solve_scalar,
    solve_system,
    subsolution_bounds,
    sup_norm,
)
import cshlab.solve as solve_mod
from cshlab.checks import check_solver
from cshlab.continuation import _dedup_solutions
from cshlab.scalar import EXP_GUARD
from cshlab.solve import (
    ClassifiedSolution,
    _dedup_points,
    _newton_batch,
    _newton_steps,
    _norms,
    _Problem,
    _residual_rows,
    _sort_roots,
)


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolveOptions(damping=1.0)
    # values under which an enumeration returned a wrong degree without an error
    bad = [("max_iter", 0), ("max_iter", -3), ("max_refinements", -1), ("polish_steps", -1),
           ("armijo", 0.0), ("armijo", 1.0), ("armijo", 2.0), ("armijo", float("nan")),
           ("seed_cap", 0), ("core_window", (4.0, 4.0)), ("core_window", (4.0, -12.0))]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: value})
    SolveOptions(max_iter=1, max_refinements=0, polish_steps=0, armijo=0.5, seed_cap=1,
                 core_window=(-1.0, 1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SolveOptions(dedup_tol=1e-12)
    assert any("dedup" in str(w.message) for w in caught)


def test_morse_data_examples(k2):
    neg_lap = k2.neg_laplacian_matrix()
    md = morse_data(neg_lap, k2.mu)
    assert md.morse_index == 0 and not md.nondegenerate and md.sign_det == 0
    assert md.critical_group_ranks is None

    md = morse_data(np.eye(3))
    assert (md.morse_index, md.sign_det, md.nondegenerate) == (0, 1, True)
    assert md.critical_group_ranks == (1, 0, 0, 0)

    # Hessian at the constant root of lam=-10, f=1: diagonal shift -12.916...
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    u = constant_solutions(m)[0]
    H = jacobian(k2, m, np.full(2, u))
    md = morse_data(H, k2.mu)
    assert (md.morse_index, md.sign_det) == (2, 1)
    shift = -10.0 * (2.0 * np.exp(2 * u) - np.exp(u))
    assert shift == pytest.approx(-12.9161, abs=1e-3)
    ev = np.linalg.eigvalsh(H)  # mu = 1: already symmetric
    assert np.allclose(ev, [shift, shift + 2.0], atol=1e-12)


def test_morse_data_rejects_asymmetric(k2):
    with pytest.raises(ValueError, match="symmetric"):
        morse_data(np.array([[0.0, 1.0], [0.0, 0.0]]), k2.mu)


def test_newton_converges_at_exact_root(k2):
    m = ScalarModel(lam=3.0, f=np.zeros(2))
    sol = newton(
        lambda u: residual(k2, m, u),
        lambda u: jacobian(k2, m, u),
        np.zeros(2),
        mu=k2.mu,
    )
    assert sol.iterations <= 2
    assert sup_norm(sol.point) <= 1e-14


def test_newton_finds_both_constant_roots(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    lo, hi = constant_solutions(m)
    s1 = solve_scalar(k2, m, -2.0)
    s2 = solve_scalar(k2, m, 0.0)
    assert np.allclose(s1.point, lo, atol=1e-10)
    assert np.allclose(s2.point, hi, atol=1e-10)


def test_newton_accepts_single_point_callbacks(k2, monkeypatch):
    # callbacks that take one point at a time are called once per row the
    # batched Newton driver evaluates, and never with a stack
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    ndims = {"residual": [], "jacobian": []}

    def res(u):
        ndims["residual"].append(np.ndim(u))
        return residual(k2, m, u)

    def jac(u):
        ndims["jacobian"].append(np.ndim(u))
        return jacobian(k2, m, u)

    rows = {"residual": 0, "jacobian": 0}
    real_batch = solve_mod._newton_batch

    def counting_batch(problem, seeds, opts):
        def counted(name, fn):
            def wrapped(X):
                rows[name] += len(X)
                return fn(X)
            return wrapped

        problem = dataclasses.replace(problem, residual=counted("residual", problem.residual),
                                      jacobian=counted("jacobian", problem.jacobian))
        return real_batch(problem, seeds, opts)

    monkeypatch.setattr(solve_mod, "_newton_batch", counting_batch)
    sol = newton(res, jac, np.array([-2.1, -2.2]), mu=k2.mu,
                 hessian=lambda u: jacobian(k2, m, u))
    assert np.allclose(sol.point, constant_solutions(m)[0], atol=1e-10)
    assert sol.morse_index == 0
    for name in ("residual", "jacobian"):
        assert ndims[name] and set(ndims[name]) == {1}, name
        assert len(ndims[name]) == rows[name], name


def test_box_extremize_default_fd_hessian():
    # no hessian callback: certificate comes from finite differences
    target = np.array([0.3, -0.2, 0.1])
    energy = lambda x: float(np.sum((x - target) ** 2))
    grad = lambda x: 2.0 * (x - target)
    out = box_extremize(energy, grad, -np.ones(3), np.ones(3), mode="min")
    assert out.interior and out.certificate == "strict-min"
    assert np.allclose(out.point, target, atol=1e-10)


def test_gauged_energy_max_route_yields_solution(k2):
    # strongly negative coupling: the gauged energy has an interior strict
    # maximizer over the shifted box, and shifting back solves the model
    import cshlab

    f = np.array([0.7, -0.3])
    m = ScalarModel(lam=-30.0, f=f)
    gauge = cshlab.gauge_transform(k2, m)
    energy = lambda v: cshlab.gauged_energy(k2, m, gauge, v)
    grad = lambda v: residual(k2, m, v + gauge.phi) * k2.mu
    out = box_extremize(energy, grad, -gauge.phi + np.log(0.5), -gauge.phi + 4.0, mode="max")
    assert out.interior and out.certificate == "strict-max"
    u = out.point + gauge.phi
    assert sup_norm(residual(k2, m, u)) <= 1e-10


def test_enumerate_per_axis_box(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    roots = enumerate_solutions(k2, m, box=([-8.0, -7.5], [3.0, 2.5]), grid_n=21,
                                check_box=False)
    assert len(roots) >= 2


def test_enumerate_five_vertex_graph():
    from cshlab import path_graph

    g = path_graph(5)
    m = ScalarModel(lam=-10.0, f=np.ones(5))
    from cshlab import degree_by_enumeration

    rep = degree_by_enumeration(g, m)
    assert rep.computed_degree == rep.expected_degree == -1
    assert rep.grid_stable


def test_newton_pseudo_inverse_path(k2):
    # lam = 0 with a mean-zero source: the Jacobian is exactly the singular
    # -Laplacian, so steps fall back to least squares and the flag is raised
    m = ScalarModel(lam=0.0, f=np.array([1.0, -1.0]))
    sol = solve_scalar(k2, m, 0.0)
    assert sol.pseudo_inverse_used
    assert sup_norm(residual(k2, m, sol.point)) <= 1e-12
    assert not sol.nondegenerate  # the root family is genuinely degenerate


def test_newton_failure_raises(k2):
    # lam = 0 with nonzero-mean source: no root exists anywhere
    m = ScalarModel(lam=0.0, f=np.ones(2))
    with pytest.raises(SolverError, match="line search stalled"):
        solve_scalar(k2, m, 0.0, SolveOptions(max_iter=40))


def test_solver_failures_name_their_reason(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    with pytest.raises(SolverError, match="max_iter = 2 exceeded"):
        solve_scalar(k2, m, 0.0, SolveOptions(max_iter=2))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    with pytest.raises(SolverError, match="max_iter = 3 exceeded"):
        solve_system(k2, s, 0.0, 0.0, SolveOptions(max_iter=3))
    # positive source means: the system has no root to converge to
    with pytest.raises(SolverError, match="line search stalled"):
        solve_system(k2, s, 0.0, 0.0)
    # e^u (e^u - 1) overflows at the seed itself
    with pytest.raises(SolverError, match="left the admissible range"):
        solve_scalar(k2, ScalarModel(lam=1.0, f=np.zeros(2)), 699.0)


@pytest.mark.parametrize("entry", ["newton", "solve_scalar", "solve_system"])
def test_out_of_range_seed_rejected_by_every_entry_point(k2, entry):
    seed = np.array([1.0, EXP_GUARD + 1.0])
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    calls = {
        "newton": lambda: newton(lambda u: residual(k2, m, u), lambda u: jacobian(k2, m, u),
                                 seed, mu=k2.mu),
        "solve_scalar": lambda: solve_scalar(k2, m, seed),
        "solve_system": lambda: solve_system(k2, s, np.zeros(2), seed),
    }
    with pytest.raises(OverflowGuardError):
        calls[entry]()


@pytest.mark.parametrize("entry", ["newton", "solve_scalar", "solve_system"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_seed_rejected_by_every_entry_point(k2, entry, bad):
    seed = np.array([bad, 0.0])
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    calls = {
        "newton": lambda: newton(lambda u: residual(k2, m, u), lambda u: jacobian(k2, m, u),
                                 seed, mu=k2.mu),
        "solve_scalar": lambda: solve_scalar(k2, m, seed),
        "solve_system": lambda: solve_system(k2, s, np.zeros(2), seed),
    }
    with pytest.raises(ValueError, match="seed must be finite") as info:
        calls[entry]()
    assert type(info.value) is ValueError


def test_newton_callback_check(k2):
    m = ScalarModel(lam=2.0, f=np.zeros(2))
    with pytest.raises(ValueError, match="finite differences"):
        newton(
            lambda u: residual(k2, m, u),
            lambda u: np.eye(2),
            np.array([0.3, -0.2]),
            SolveOptions(check_callbacks=True),
            mu=k2.mu,
        )


def test_enumerate_unique_root(k2):
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    roots = enumerate_solutions(k2, m, box=(-3.0, 3.0), grid_n=61)
    assert len(roots) == 1
    assert sup_norm(roots[0].point) <= 1e-12


def test_enumerate_k2_multiplicity(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    with pytest.warns(UserWarning, match="a priori"):
        roots = enumerate_solutions(k2, m, box=(-8.0, 3.0), grid_n=21)
    consts = constant_solutions(m)
    assert len(roots) >= 2
    for c in consts:
        assert any(np.abs(r.point - c).max() <= 1e-9 for r in roots)
    # classification self-consistency
    for r in roots:
        assert r.residual_norm <= 1e-12
        if r.nondegenerate:
            assert r.sign_det == (-1) ** r.morse_index
            assert r.critical_group_ranks[r.morse_index] == 1
            assert sum(r.critical_group_ranks) == 1


def test_enumerate_deeper_negative_coupling(k2):
    # three-plus distinct roots appear for strongly negative coupling
    m = ScalarModel(lam=-60.0, f=np.full(2, -1.0))
    with pytest.warns(UserWarning, match="a priori"):
        roots = enumerate_solutions(k2, m, box=(-9.0, 3.0), grid_n=31)
    assert len(roots) >= 3
    for a in roots:
        for b in roots:
            if a is not b:
                assert np.abs(a.point - b.point).max() > 1e-6


def test_enumerate_refinement_superset(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    opts = SolveOptions(max_refinements=0)
    with pytest.warns(UserWarning, match="a priori"):
        coarse = enumerate_solutions(k2, m, box=(-8.0, 3.0), grid_n=11, opts=opts)
        fine = enumerate_solutions(k2, m, box=(-8.0, 3.0), grid_n=21, opts=opts)
    for r in coarse:
        assert any(np.abs(r.point - s.point).max() <= 1e-6 for s in fine)


def test_enumeration_report_metadata(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    with pytest.warns(UserWarning, match="a priori"):
        rep = enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=11)
    assert rep.grid_levels == [11, 21]
    assert rep.stable
    assert rep.seeds_used > 0
    pts = [tuple(r.point) for r in rep.roots]
    assert pts == sorted(pts)


def test_enumerate_box_warning_only_for_a_small_box(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    opts = SolveOptions(max_refinements=0)
    radius = solve_mod._apriori_radius_or_none(k2, m)
    with pytest.warns(UserWarning, match="a priori") as caught:
        enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=5, opts=opts)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=5, opts=opts, check_box=False)
        enumerate_report(k2, m, box=(-radius, radius + 1.0), grid_n=5, opts=opts)
        rep = enumerate_report(k2, m, grid_n=5, opts=opts)
    assert rep.box[1].tolist() == [radius, radius]


def test_enumerate_without_a_priori_bound_needs_a_box(k2):
    with pytest.raises(ValueError, match="pass box"):
        enumerate_report(k2, ScalarModel(lam=-10.0, f=np.array([1.0, -1.0])))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    with pytest.raises(ValueError, match="pass box"):
        enumerate_report(k2, s)


def test_enumerate_seed_cap(k2):
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    with pytest.raises(SolverError, match="seed budget"):
        enumerate_solutions(k2, m, box=(-3.0, 3.0), grid_n=200,
                            opts=SolveOptions(seed_cap=1000))


def test_enumerate_seed_cap_checked_before_allocation(k2):
    # a 3000 x 3000 grid would take ~144 MB as float64 seeds; the cap must
    # fire before any of it is built
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match="seed budget"):
            enumerate_report(k2, m, box=(-3.0, 3.0), grid_n=3000,
                             opts=SolveOptions(seed_cap=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _stack_problem(J: np.ndarray) -> _Problem:
    n = J.shape[-1]
    return _Problem(n=n, mu=np.ones(n), residual=None, jacobian=lambda X: J,
                    hessian=None, anchors=lambda: [])


def test_newton_steps_mixed_stack_matches_row_by_row(k2):
    # regular rows, exactly singular rows (lam = 0, mean-zero source: the
    # Jacobian is the singular -Laplacian) and non-finite rows in one stack
    rng = np.random.default_rng(7)
    sing = jacobian(k2, ScalarModel(lam=0.0, f=np.array([1.0, -1.0])), np.zeros(2))
    assert np.linalg.matrix_rank(sing) == 1
    kinds = ["regular", "singular", "regular", "nonfinite", "singular",
             "regular", "nonfinite", "regular"]
    J = np.empty((len(kinds), 2, 2))
    for k, kind in enumerate(kinds):
        if kind == "regular":
            J[k] = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        elif kind == "singular":
            # power-of-two scale: LU still meets an exactly zero pivot
            J[k] = sing * 2.0 ** rng.integers(-2, 3)
        else:
            J[k] = np.array([[np.nan, 1.0], [0.0, np.inf]])
    F = rng.normal(size=(len(kinds), 2))
    pseudo = np.zeros(len(kinds), dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        steps, bad = _newton_steps(_stack_problem(J), np.zeros_like(F), F, pseudo)

    kinds = np.array(kinds)
    np.testing.assert_array_equal(pseudo, kinds == "singular")
    np.testing.assert_array_equal(bad, kinds == "nonfinite")
    for k, kind in enumerate(kinds):
        if kind == "regular":
            expected = np.linalg.solve(J[k], -F[k])
        elif kind == "singular":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(J[k], -F[k])
            expected = np.linalg.lstsq(J[k], -F[k], rcond=None)[0]
        else:
            expected = np.zeros(2)
        assert steps[k].tobytes() == expected.tobytes(), (k, kind)


def test_newton_steps_all_singular_stack(k2):
    sing = jacobian(k2, ScalarModel(lam=0.0, f=np.array([1.0, -1.0])), np.zeros(2))
    J = np.stack([sing, 2.0 * sing, 0.5 * sing])
    F = np.array([[1.0, -1.0], [0.5, 2.0], [-3.0, 0.25]])
    pseudo = np.zeros(3, dtype=bool)
    steps, bad = _newton_steps(_stack_problem(J), np.zeros_like(F), F, pseudo)
    assert pseudo.all() and not bad.any()
    for k in range(3):
        assert steps[k].tobytes() == np.linalg.lstsq(J[k], -F[k], rcond=None)[0].tobytes()


def test_newton_steps_one_lstsq_call_per_distinct_singular_matrix(monkeypatch):
    # P3's -Laplacian: copies of it, of twice it, and of a copy whose zero
    # corner is -0.0 (equal values, other bytes), among regular and
    # non-finite rows
    negL = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    signed_zero = negL.copy()
    signed_zero[0, 2] = -0.0
    mats = {"negL": negL, "twice": 2.0 * negL, "signed_zero": signed_zero,
            "nonfinite": np.array([[np.nan, 1.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]])}
    kinds = ["negL", "regular", "twice", "negL", "nonfinite", "signed_zero", "negL",
             "regular", "twice", "signed_zero", "negL", "nonfinite", "regular"]
    rng = np.random.default_rng(11)
    J = np.stack([mats[k] if k in mats else rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
                  for k in kinds])
    F = rng.normal(size=(len(kinds), 3)) * 10.0 ** rng.integers(-8, 4, size=(len(kinds), 1))

    real_lstsq = np.linalg.lstsq
    calls = []

    def spy(a, b, rcond=None):
        calls.append((np.array(a), np.array(b)))
        return real_lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    pseudo = np.zeros(len(kinds), dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        steps, bad = _newton_steps(_stack_problem(J), np.zeros_like(F), F, pseudo)

    kinds = np.array(kinds)
    singular = np.isin(kinds, ["negL", "twice", "signed_zero"])
    np.testing.assert_array_equal(pseudo, singular)
    np.testing.assert_array_equal(bad, kinds == "nonfinite")
    # one call per distinct matrix, its columns the right-hand sides of its rows
    assert sorted(a.tobytes() for a, _ in calls) == sorted(
        mats[k].tobytes() for k in ("negL", "twice", "signed_zero"))
    for a, b in calls:
        rows = [k for k in range(len(kinds)) if singular[k] and J[k].tobytes() == a.tobytes()]
        assert b.shape == (3, len(rows))
    for k, kind in enumerate(kinds):
        if kind == "regular":
            expected = np.linalg.solve(J[k], -F[k])
        elif kind == "nonfinite":
            expected = np.zeros(3)
        else:
            expected = real_lstsq(J[k], -F[k], rcond=None)[0]
        assert steps[k].tobytes() == expected.tobytes(), (k, kind)


def _seed_sets_of(g, m, monkeypatch):
    """The stacks handed to the seed dedup at the base and first refinement level."""
    stacks = []
    real = solve_mod._equal_row_runs

    def record(A):
        stacks.append(A.copy())
        return real(A)

    monkeypatch.setattr(solve_mod, "_equal_row_runs", record)
    problem = solve_mod._make_problem(g, m)
    radius = apriori_radius(g, m).radius
    lo, hi = np.full(g.ell, -radius), np.full(g.ell, radius)
    opts = SolveOptions()
    level = solve_mod.default_grid_n(g.ell)
    outs = [solve_mod._seed_set(problem, lo, hi, level, opts, [])]
    known = outs[0][:: max(1, len(outs[0]) // 40)]  # stands in for the known roots
    outs.append(solve_mod._seed_set(problem, lo, hi, 2 * level - 1, opts, [known],
                                    include_box_net=False))
    return stacks, outs


@pytest.mark.parametrize("graph", ["C4", "K5"])
def test_seed_dedup_matches_np_unique(graph, monkeypatch):
    g = cycle_graph(4) if graph == "C4" else complete_graph(5)
    m = ScalarModel(lam=-10.0, f=np.ones(g.ell))
    stacks, outs = _seed_sets_of(g, m, monkeypatch)
    assert len(stacks) == 2
    for stack, out in zip(stacks, outs):
        assert len(out) < len(stack)  # the diagonal and known rows repeat grid rows
        expected = np.unique(stack, axis=0)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


def test_seed_dedup_matches_np_unique_on_repeated_rows():
    rng = np.random.default_rng(5)
    rows = rng.integers(-3, 4, size=(400, 3)) * 0.5
    rows = np.vstack([rows, rows[::7], rng.normal(size=(50, 3)), rows[:3]])
    order, starts = solve_mod._equal_row_runs(rows)
    out = rows[order[starts[:-1]]]
    expected = np.unique(rows, axis=0)
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
    # each run holds equal rows, in input order
    for a, b in zip(starts[:-1], starts[1:]):
        run = order[a:b]
        assert np.all(np.diff(run) > 0)
        assert np.all(rows[run] == rows[run[0]])


def _dedup_points_loop(points, norms, tol):
    # the original per-row greedy loop, kept as the reference
    order = np.argsort(norms, kind="stable")
    kept = []
    for i in order:
        p = points[i]
        if all(np.abs(points[j] - p).max() > tol for j in kept):
            kept.append(int(i))
    return kept


@pytest.mark.parametrize("seed", range(6))
def test_dedup_points_matches_loop_on_clustered_clouds(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-6
    n = int(rng.integers(1, 5))
    centers = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 12)), n))
    labels = rng.integers(0, len(centers), size=400)
    points = centers[labels] + rng.uniform(-1.5 * tol, 1.5 * tol, size=(400, n))
    # residual norms on a coarse lattice, so many of them tie
    norms = rng.integers(0, 5, size=400) * 1e-14
    kept = _dedup_points(points, norms, tol)
    assert kept == _dedup_points_loop(points, norms, tol)
    assert all(isinstance(i, int) for i in kept)


def test_dedup_points_chain_and_ties():
    tol = 1e-6
    # a chain of points, each 0.8 tol from the next: which links survive
    # depends on the order the greedy takes them in
    chain = (0.8 * tol * np.arange(9))[:, None] * np.ones((1, 2))
    for norms in (np.zeros(9), np.arange(9.0), np.arange(9.0)[::-1].copy(),
                  np.array([3.0, 1.0, 1.0, 0.0, 2.0, 0.0, 1.0, 3.0, 2.0])):
        assert _dedup_points(chain, norms, tol) == _dedup_points_loop(chain, norms, tol)
    assert _dedup_points(chain, np.zeros(9), tol) == [0, 2, 4, 6, 8]
    # an exact distance of tol is a duplicate (kept rows are strictly farther)
    pair = np.array([[0.0], [0.5]])
    assert _dedup_points(pair, np.zeros(2), 0.5) == [0]
    assert _dedup_points(np.empty((0, 3)), np.empty(0), tol) == []


def _merge_levels_loop(levels, lo, hi, tol):
    # the root-by-root merge enumerate_report used before, kept as the
    # reference: each level's converged rows inside the box are deduplicated
    # among themselves, then merged one by one into parallel known lists
    known, known_norm, known_pseudo, known_iters = [], [], [], []
    stable = False
    for refinement, (X, nF, status, pseudo, iters) in enumerate(levels):
        sel = ((status == solve_mod._CONVERGED) & np.all(X >= lo - tol, axis=1)
               & np.all(X <= hi + tol, axis=1))
        pts, pn, pp, pi = X[sel], nF[sel], pseudo[sel], iters[sel]
        new_found = False
        if len(pts):
            for i in _dedup_points(pts, pn, tol):
                p = pts[i]
                dists = [np.abs(p - q).max() for q in known]
                if known and min(dists) <= tol:
                    j = int(np.argmin(dists))
                    if pn[i] < known_norm[j]:
                        known[j], known_norm[j] = p, float(pn[i])
                        known_pseudo[j], known_iters[j] = bool(pp[i]), int(pi[i])
                else:
                    known.append(p)
                    known_norm.append(float(pn[i]))
                    known_pseudo.append(bool(pp[i]))
                    known_iters.append(int(pi[i]))
                    if refinement > 0:
                        new_found = True
        if refinement > 0 and not new_found:
            stable = True
            break
    return list(zip(known, known_norm, known_pseudo, known_iters)), stable, refinement + 1


@pytest.mark.parametrize("seed", range(6))
def test_enumerate_merge_matches_root_by_root_loop(k2, monkeypatch, seed):
    # enumerate_report sees scripted Newton outcomes per grid level: clusters
    # of converged rows (each within 0.8 tol of its centre's other rows),
    # re-found at later levels with a strictly lower residual, an exactly tied
    # one or a higher one, plus stalled rows and converged rows outside the box
    rng = np.random.default_rng(seed)
    tol = SolveOptions().dedup_tol
    lo, hi = -8.0, 3.0
    grid = np.stack(np.meshgrid(np.arange(-6.0, 2.0), np.arange(-6.0, 2.0)), axis=-1)
    centers = rng.permutation(grid.reshape(-1, 2))[:6]

    def cluster(c, k):
        return centers[c] + rng.uniform(-0.4 * tol, 0.4 * tol, size=(k, 2))

    def level(parts, status=None):
        X = np.vstack([p for p, _ in parts])
        nF = np.concatenate([nf for _, nf in parts])
        N = len(X)
        st = np.full(N, solve_mod._CONVERGED, dtype=np.int8) if status is None else status
        return X, nF, st, rng.random(N) < 0.3, rng.integers(1, 60, N).astype(np.int32)

    def lattice(k, a, b):  # residual norms on a coarse lattice, so many tie
        return rng.integers(a, b, k) * 1e-14

    base = [(cluster(c, 5), lattice(5, 1, 4)) for c in range(4)]
    outside = (np.array([[hi + 1.0, 0.0], [0.0, lo - 1.0]]), np.zeros(2))
    stalled = (cluster(5, 3), np.zeros(3))
    status0 = np.full(25, solve_mod._CONVERGED, dtype=np.int8)
    status0[22:] = solve_mod._STALLED
    level0 = level(base + [outside, stalled], status0)
    tie_point = cluster(1, 1)
    refound = [
        (cluster(0, 1), np.zeros(1)),                     # strictly lower: replaces
        (tie_point, np.array([base[1][1].min()])),        # exact tie: known stays
        (cluster(2, 3), lattice(3, 5, 8)),                # higher: known stays
        (cluster(3, 4), lattice(4, 0, 8)),
    ]
    grows = seed % 2 == 0
    if grows:
        refound.append((cluster(4, 2), lattice(2, 0, 3)))
    # the last level re-finds cluster 1 only above its known residual, so the
    # tie decided at level 1 shows in the result
    levels = [level0, level(refound),
              level([(cluster(c, 2), lattice(2, 4 if c == 1 else 0, 8)) for c in range(5)])]
    expected, stable, used = _merge_levels_loop(levels, lo, hi, tol)
    assert stable and used == (3 if grows else 2)

    scripted = iter(levels)
    monkeypatch.setattr(solve_mod, "_newton_batch", lambda problem, seeds, opts: next(scripted))
    rep = enumerate_report(k2, ScalarModel(lam=-10.0, f=np.full(2, -1.0)), box=(lo, hi),
                           grid_n=5, opts=SolveOptions(max_refinements=2), check_box=False)
    assert rep.stable and len(rep.grid_levels) == used
    expected.sort(key=lambda row: (tuple(np.rint(row[0] / tol).tolist()), tuple(row[0])))
    assert len(rep.roots) == len(expected) == (5 if grows else 4)
    for r, (p, norm, pseudo, iters) in zip(rep.roots, expected):
        assert r.point.tobytes() == p.tobytes()
        assert (r.residual_norm, r.pseudo_inverse_used, r.iterations) == (norm, pseudo, iters)
    points = [r.point.tobytes() for r in rep.roots]
    assert refound[0][0][0].tobytes() in points
    assert tie_point[0].tobytes() not in points


def test_critical_group_ranks_follow_morse_data(k2):
    # lam = -4 carries a degenerate root (ranks unknown), lam = -10 does not
    seen = set()
    for lam in (-10.0, -4.0):
        m = ScalarModel(lam=lam, f=np.full(2, -1.0))
        for r in enumerate_solutions(k2, m, box=(-8.0, 3.0), grid_n=11, check_box=False):
            md = morse_data(jacobian(k2, m, r.point), k2.mu)
            assert r.critical_group_ranks == md.critical_group_ranks
            seen.add(md.critical_group_ranks is None)
    assert seen == {True, False}


def _newton_batch_sequential(problem, seeds, opts, stats):
    # the Newton driver with the original one-step-per-round line search,
    # kept as the reference; ``stats`` records what the line search met
    X = np.array(seeds, dtype=float)
    N = len(X)
    F = _residual_rows(problem, X)
    nF = _norms(F)
    status = np.full(N, solve_mod._RUNNING, dtype=np.int8)
    status[~np.isfinite(nF)] = solve_mod._DIVERGED
    pseudo = np.zeros(N, dtype=bool)
    iters = np.zeros(N, dtype=np.int32)
    tmin = 1e-12
    check_every, check_norm = 8, nF.copy()
    running_code, conv_code = solve_mod._RUNNING, solve_mod._CONVERGED
    for it in range(opts.max_iter):
        if it and it % check_every == 0:
            running = status == running_code
            plateau = running & (nF > 0.5 * check_norm) & (nF > 1e3 * opts.tol_residual)
            status[plateau] = solve_mod._STALLED
            check_norm[running] = nF[running]
        status[(status == running_code) & (nF <= opts.tol_residual)] = conv_code
        act = np.nonzero(status == running_code)[0]
        if act.size == 0:
            break
        iters[act] += 1
        psub = pseudo[act].copy()
        steps, bad = _newton_steps(problem, X[act], F[act], psub)
        pseudo[act] = psub
        status[act[bad]] = solve_mod._DIVERGED
        live = act[~bad]
        if live.size == 0:
            continue
        steps = steps[~bad]
        t = np.ones(live.size)
        pending = np.ones(live.size, dtype=bool)
        base = X[live]
        base_norm = nF[live]
        while pending.any():
            rows = np.nonzero(pending)[0]
            trial = base[rows] + t[rows, None] * steps[rows]
            stats["guard_exits"] += int((np.abs(trial).max(axis=-1) > EXP_GUARD).sum())
            Ft = _residual_rows(problem, trial)
            nFt = _norms(Ft)
            ok = nFt <= (1.0 - opts.armijo * t[rows]) * base_norm[rows]
            good = rows[ok]
            stats["accepted_t"].update(t[good].tolist())
            gi = live[good]
            X[gi] = trial[ok]
            F[gi] = Ft[ok]
            nF[gi] = nFt[ok]
            pending[good] = False
            shrink = rows[~ok]
            t[shrink] *= opts.damping
            dead = shrink[t[shrink] < tmin]
            stats["ladder_stalls"] += dead.size
            status[live[dead]] = solve_mod._STALLED
            pending[dead] = False
    status[(status == running_code) & (nF <= opts.tol_residual)] = conv_code
    status[status == running_code] = solve_mod._EXHAUSTED
    conv = np.nonzero(status == conv_code)[0]
    for _ in range(opts.polish_steps):
        if conv.size == 0:
            break
        psub = pseudo[conv].copy()
        steps, bad = _newton_steps(problem, X[conv], F[conv], psub)
        pseudo[conv] = psub
        trial = X[conv] + steps
        Ft = _residual_rows(problem, trial)
        nFt = _norms(Ft)
        better = ~bad & (nFt < nF[conv])
        gi = conv[better]
        X[gi] = trial[better]
        F[gi] = Ft[better]
        nF[gi] = nFt[better]
        conv = gi
    return X, nF, status, pseudo, iters


def _squash_problem():
    # F(x) = x / (1 + |x|) on each coordinate: only correctly rounded
    # arithmetic, so a row's residual bits do not depend on its batch.  Full
    # Newton steps overshoot far from 0 (depth grows with |x|, and long
    # steps leave the exp guard).  Rows with 40 < x1 < 41 get the Jacobian's
    # sign flipped: their step is an ascent direction and no step length of
    # the ladder passes the Armijo test.  Rows at x1 = 0.5 get a Jacobian
    # 1.5e-12 times too small: only the last step length, 2**-39, passes;
    # at x1 = -0.5 the factor is 0.75e-12 and only 2**-40, past the ladder's
    # end, would pass.
    def res(X):
        return X / (1.0 + np.abs(X))

    def jac(X):
        d = 1.0 / ((1.0 + np.abs(X)) * (1.0 + np.abs(X)))
        flip = (X[:, 1] > 40.0) & (X[:, 1] < 41.0)
        d[flip] = -d[flip]
        d[X[:, 1] == 0.5] *= 1.5e-12
        d[X[:, 1] == -0.5] *= 0.75e-12
        J = np.zeros(X.shape + (2,))
        J[:, 0, 0], J[:, 1, 1] = d[:, 0], d[:, 1]
        return J

    return _Problem(n=2, mu=np.ones(2), residual=res, jacobian=jac,
                    hessian=None, anchors=lambda: [])


def test_blocked_line_search_matches_sequential_ladder(monkeypatch):
    rng = np.random.default_rng(11)
    near = rng.uniform(-1.0, 1.0, size=(60, 2))
    far = rng.choice([-1.0, 1.0], size=(60, 2)) * 10.0 ** rng.uniform(0.3, 2.7, size=(60, 2))
    ascent = np.column_stack([rng.uniform(-0.5, 0.5, 12), np.full(12, 40.5)])
    last_rung = np.array([[0.1, 0.5], [-0.2, 0.5], [0.1, -0.5]])
    seeds = np.vstack([near, far, ascent, last_rung, np.zeros((3, 2))])
    seeds = seeds[rng.permutation(len(seeds))]
    problem, opts = _squash_problem(), SolveOptions()

    stats = {"accepted_t": set(), "ladder_stalls": 0, "guard_exits": 0}
    expected = _newton_batch_sequential(problem, seeds, opts, stats)
    # the inputs reach every branch of the line search
    assert 1.0 in stats["accepted_t"] and len(stats["accepted_t"]) >= 6
    assert min(stats["accepted_t"]) == 0.5 ** 39
    assert stats["ladder_stalls"] >= 13 and stats["guard_exits"] > 0

    # record each residual batch; a Newton step opens with its full-step
    # round, and no later block of that step may hold more rows
    calls = []
    real_rows, real_steps = solve_mod._residual_rows, solve_mod._newton_steps

    def rows_spy(problem, X):
        calls.append(("rows", len(X)))
        return real_rows(problem, X)

    def steps_spy(problem, X, F, pseudo):
        calls.append(("step", len(X)))
        return real_steps(problem, X, F, pseudo)

    monkeypatch.setattr(solve_mod, "_residual_rows", rows_spy)
    monkeypatch.setattr(solve_mod, "_newton_steps", steps_spy)
    got = _newton_batch(problem, seeds, opts)
    for name, a, b in zip(("X", "nF", "status", "pseudo", "iters"), got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    full_round = None
    for kind, size in calls:
        if kind == "step":
            full_round = None
        elif full_round is None:
            full_round = size
        else:
            assert size <= full_round


def test_root_order_ignores_rounding_level_ties():
    # two roots tie to 1e-15 in their first coordinate; whichever carries the
    # noise and whatever the input order, the second coordinate decides
    tol = SolveOptions().dedup_tol

    def root(point):
        return ClassifiedSolution(point=np.array(point), residual_norm=0.0, sign_det=1,
                                  morse_index=0, nondegenerate=True)

    orders = set()
    for noise_a, noise_b in ((0.0, 1e-15), (1e-15, 0.0)):
        a, b = root([0.3 + noise_a, 2.0]), root([0.3 + noise_b, -1.0])
        assert a.point[0] != b.point[0]
        for given in ([a, b], [b, a]):
            out = list(given)
            _sort_roots(out, tol)
            orders.add(tuple(r.point[1] for r in out))
            orders.add(tuple(r.point[1] for r in _dedup_solutions(list(given), tol)))
    assert orders == {(-1.0, 2.0)}


def test_box_extremize_interior_min(k2):
    m = ScalarModel(lam=5.0, f=np.zeros(2))
    out = extremize_scalar_in_box(k2, m, np.log(0.5), 2.0, mode="min")
    assert out.interior
    assert out.certificate == "strict-min"
    assert sup_norm(out.point) <= 1e-10
    assert out.solution.morse_index == 0


def test_box_extremize_boundary_report(k2):
    m = ScalarModel(lam=5.0, f=np.zeros(2))
    out = extremize_scalar_in_box(k2, m, -1.0, 1.0, mode="max")
    assert not out.interior
    assert out.touching
    assert out.solution is None


def test_box_extremize_degenerate_box(k2):
    m = ScalarModel(lam=5.0, f=np.zeros(2))
    with pytest.raises(ValueError, match="degenerate box"):
        extremize_scalar_in_box(k2, m, 1.0, 1.0, mode="min")


def test_box_extremize_rejects_bad_mode(k2):
    m = ScalarModel(lam=5.0, f=np.zeros(2))
    with pytest.raises(ValueError, match="mode"):
        box_extremize(lambda x: 0.0, lambda x: np.zeros(2),
                      np.zeros(2), np.ones(2), mode="saddle")


def test_subsolution_bounds_zero_source(k2):
    sb = subsolution_bounds(k2, np.zeros(2), 1.0)
    assert np.allclose(sb.u0, 0.0)
    assert sb.kappa1 == pytest.approx(0.5)
    assert np.allclose(sb.lower, np.log(0.5))
    assert sb.A >= 1.0
    out = extremize_scalar_in_box(k2, ScalarModel(lam=1.0, f=np.zeros(2)),
                                  sb.lower, sb.upper, mode="min")
    assert out.interior and sup_norm(out.point) <= 1e-10


def test_subsolution_bounds_unavailable(k2):
    assert subsolution_bounds(k2, np.ones(2), 1.0) is None
    with pytest.raises(ValueError):
        subsolution_bounds(k2, np.zeros(2), -1.0)


def test_subsolution_route_matches_enumeration(k2):
    f = np.array([1.0, -1.0])
    lam = 2.0
    sb = subsolution_bounds(k2, f, lam)
    m = ScalarModel(lam=lam, f=f)
    out = extremize_scalar_in_box(k2, m, sb.lower, sb.upper, mode="min")
    assert out.interior
    roots = enumerate_solutions(k2, m, box=(-6.0, 3.0), grid_n=21)
    assert any(np.abs(out.point - r.point).max() <= 1e-8 for r in roots)


def test_solver_invariant_suite():
    assert check_solver(seed=0) == []
