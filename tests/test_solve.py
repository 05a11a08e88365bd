import tracemalloc
import warnings

import numpy as np
import pytest

from cshlab import (
    ScalarModel,
    SolveOptions,
    SolverError,
    box_extremize,
    constant_solutions,
    enumerate_report,
    enumerate_solutions,
    extremize_scalar_in_box,
    jacobian,
    morse_data,
    newton,
    residual,
    solve_scalar,
    subsolution_bounds,
    sup_norm,
)
from cshlab.checks import check_solver
from cshlab.solve import _dedup_points, _newton_steps, _Problem


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolveOptions(damping=1.0)
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


def test_newton_accepts_single_point_callbacks(k2):
    # callbacks that only handle one point at a time are batch-wrapped
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))

    def res(u):
        assert np.ndim(u) == 1
        return residual(k2, m, u)

    def jac(u):
        assert np.ndim(u) == 1
        return jacobian(k2, m, u)

    sol = newton(res, jac, np.array([-2.1, -2.2]), mu=k2.mu)
    assert np.allclose(sol.point, constant_solutions(m)[0], atol=1e-10)
    assert sol.morse_index == 0


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
    with pytest.raises(SolverError):
        solve_scalar(k2, m, 0.0, SolveOptions(max_iter=40))


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
    roots = enumerate_solutions(k2, m, box=(-9.0, 3.0), grid_n=31)
    assert len(roots) >= 3
    for a in roots:
        for b in roots:
            if a is not b:
                assert np.abs(a.point - b.point).max() > 1e-6


def test_enumerate_refinement_superset(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    opts = SolveOptions(max_refinements=0)
    coarse = enumerate_solutions(k2, m, box=(-8.0, 3.0), grid_n=11, opts=opts)
    fine = enumerate_solutions(k2, m, box=(-8.0, 3.0), grid_n=21, opts=opts)
    for r in coarse:
        assert any(np.abs(r.point - s.point).max() <= 1e-6 for s in fine)


def test_enumeration_report_metadata(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    rep = enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=11)
    assert rep.grid_levels == [11, 21]
    assert rep.stable
    assert rep.seeds_used > 0
    pts = [tuple(r.point) for r in rep.roots]
    assert pts == sorted(pts)


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
