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
    apriori_bound_system,
    apriori_radius,
    build_graph,
    complete_graph,
    constant_solutions,
    cycle_graph,
    enumerate_report,
    jacobian,
    morse_data,
    path_graph,
    residual,
    solve_scalar,
    solve_system,
    subsolution_bounds,
    sup_norm,
)
import cshlab.solve as solve_mod
from cshlab.checks import check_solver
from cshlab.scalar import EXP_GUARD
from cshlab.solve import (
    ClassifiedSolution,
    _dedup_points,
    _newton_batch,
    _newton_steps,
    _norms,
    _Problem,
    _residual_rows,
    _roots,
    _sort_roots,
)


@pytest.mark.parametrize("n", [1, 3])
def test_source_of_the_wrong_length_is_named(k2, n):
    # a length-1 source used to act as a constant: 3 roots in (-69, 69) and a
    # converged solve; the kernel reads it too, since a run over a box that
    # the kernel excludes whole never calls the residual
    m = ScalarModel(lam=-10.0, f=np.ones(n))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(n), g=np.ones(2))
    calls = [lambda: enumerate_report(k2, m, box=(-69.0, 69.0)),
             lambda: enumerate_report(k2, m, box=(5.0, 6.0), check_box=False),
             lambda: enumerate_report(k2, s, box=(-3.0, 3.0), check_box=False),
             lambda: solve_scalar(k2, m, 0.0),
             lambda: residual(k2, m, np.zeros(2))]
    for call in calls:
        with pytest.raises(ValueError, match=f"vertex function has length {n}, graph has 2"):
            call()


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol_residual=0.0)
    # values under which an enumeration returned a wrong degree without an error
    bad = [("max_iter", 0), ("max_iter", -3), ("seed_cap", 0),
           ("tol_residual", float("nan")), ("tol_residual", float("inf")),
           ("dedup_tol", 0.0), ("dedup_tol", -1.0), ("dedup_tol", float("nan")),
           ("dedup_tol", float("inf"))]
    # values of the wrong type, which used to pass and fail later (2.5 in
    # range(), "no" read as true)
    bad += [("max_iter", 2.5), ("max_iter", 3.0), ("max_iter", True), ("max_iter", "3"),
            ("seed_cap", 1e6), ("seed_cap", None), ("rng_seed", 1.5), ("rng_seed", False),
            ("tol_residual", "1e-12"), ("dedup_tol", True)]
    # numpy's generators take no negative seed
    bad += [("rng_seed", -1)]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: value})
    SolveOptions(max_iter=1, seed_cap=1, rng_seed=np.int64(3))
    SolveOptions(max_iter=np.int32(5), tol_residual=1e-10)
    # the grid's window and refinement count are module constants, not
    # options, and the Jacobian check runs in `cshlab check`, not per solve
    for field in ("core_window", "max_refinements", "check_callbacks"):
        with pytest.raises(TypeError, match=field):
            SolveOptions(**{field: 0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SolveOptions(dedup_tol=1e-12)
    assert any("dedup" in str(w.message) for w in caught)


def test_only_enumerate_report_takes_a_grid():
    import inspect

    import cshlab

    modules = [getattr(cshlab, name) for name in
               ("checks", "continuation", "degree", "graphs", "scalar", "solve", "system")]
    public = {name: getattr(mod, name) for mod in modules for name in mod.__all__}
    public.update((name, getattr(cshlab, name)) for name in dir(cshlab)
                  if not name.startswith("_"))
    with_grid = sorted(name for name, obj in public.items() if callable(obj)
                       and not inspect.isclass(obj)
                       and "grid_n" in inspect.signature(obj).parameters)
    assert with_grid == ["enumerate_report"]


def _modules_loaded_by(code: str, package: str) -> list[str]:
    """Modules of ``package`` in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({package!r} + '.'))))")
    src = str(Path(solve_mod.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    return json.loads(out)


def test_import_does_not_load_scipy():
    assert _modules_loaded_by("import cshlab", "scipy") == []


def test_solver_suite_does_not_load_scipy_optimize():
    # the bracket route runs on certified enumeration, not on scipy.optimize
    code = "from cshlab import checks\nassert checks.check_solver(0) == []"
    assert _modules_loaded_by(code, "scipy.optimize") == []


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
    sol = solve_scalar(k2, m, np.zeros(2))
    assert sup_norm(sol.point) <= 1e-14


def test_newton_finds_both_constant_roots(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    lo, hi = constant_solutions(m)
    s1 = solve_scalar(k2, m, -2.0)
    s2 = solve_scalar(k2, m, 0.0)
    assert np.allclose(s1.point, lo, atol=1e-10)
    assert np.allclose(s2.point, hi, atol=1e-10)


def test_gauged_energy_max_route_yields_solution(k2):
    # strongly negative coupling: the box u in [ln 1/2, 4]^2 holds one root,
    # a strict maximizer (index n) of the gauged energy over the shifted box
    import cshlab

    f = np.array([0.7, -0.3])
    m = ScalarModel(lam=-30.0, f=f)
    (root,) = _bracket_roots(k2, m, np.log(0.5), 4.0)
    assert root.morse_index == k2.ell and root.nondegenerate
    assert sup_norm(residual(k2, m, root.point)) <= 1e-10
    gauge = cshlab.gauge_transform(k2, m)
    energy = lambda u: cshlab.gauged_energy(k2, m, gauge, u - gauge.phi)
    others = np.random.default_rng(0).uniform(np.log(0.5), 4.0, (200, k2.ell))
    assert all(energy(root.point) > energy(u) for u in others)


def test_enumerate_per_axis_box(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    roots = enumerate_report(k2, m, box=([-8.0, -7.5], [3.0, 2.5]), grid_n=21,
                             check_box=False).roots
    assert len(roots) >= 2


def test_enumerate_five_vertex_graph():
    g = path_graph(5)
    m = ScalarModel(lam=-10.0, f=np.ones(5))
    from cshlab import degree_by_enumeration

    rep = degree_by_enumeration(g, m)
    assert rep.computed_degree == rep.expected_degree == -1
    assert rep.enumeration.stable


def test_newton_pseudo_inverse_path(k2, monkeypatch):
    # lam = 0 with a mean-zero source: the Jacobian is exactly the singular
    # -Laplacian, so steps fall back to least squares
    m = ScalarModel(lam=0.0, f=np.array([1.0, -1.0]))
    real_lstsq = np.linalg.lstsq
    calls = []

    def spy(a, b, rcond=None):
        calls.append(a)
        return real_lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(solve_mod.np.linalg, "lstsq", spy)
    sol = solve_scalar(k2, m, 0.0)
    assert calls
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


@pytest.mark.parametrize("entry", ["solve_scalar", "solve_system"])
def test_out_of_range_seed_rejected_by_every_entry_point(k2, entry):
    seed = np.array([1.0, EXP_GUARD + 1.0])
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    calls = {
        "solve_scalar": lambda: solve_scalar(k2, m, seed),
        "solve_system": lambda: solve_system(k2, s, np.zeros(2), seed),
    }
    with pytest.raises(OverflowGuardError):
        calls[entry]()


@pytest.mark.parametrize("entry", ["solve_scalar", "solve_system"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_seed_rejected_by_every_entry_point(k2, entry, bad):
    seed = np.array([bad, 0.0])
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    calls = {
        "solve_scalar": lambda: solve_scalar(k2, m, seed),
        "solve_system": lambda: solve_system(k2, s, np.zeros(2), seed),
    }
    with pytest.raises(ValueError, match="seed must be finite") as info:
        calls[entry]()
    assert type(info.value) is ValueError


def test_misshapen_seed_is_named(k2):
    # a stack of seeds, or a seed of another length, raises ValueError naming
    # the length Newton needs, not an IndexError from inside it
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    for call, n in ((lambda: solve_scalar(k2, m, [[0.0, 0.0], [1.0, 1.0]]), 2),
                    (lambda: solve_scalar(k2, m, np.zeros(3)), 2),
                    (lambda: solve_system(k2, s, np.zeros(2), np.zeros(3)), 4)):
        with pytest.raises(ValueError, match=f"each seed must have length {n}"):
            call()


def test_enumerate_unique_root(k2):
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    roots = enumerate_report(k2, m, box=(-3.0, 3.0), grid_n=61).roots
    assert len(roots) == 1
    assert sup_norm(roots[0].point) <= 1e-12


def test_enumerate_k2_multiplicity(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    with pytest.warns(UserWarning, match="a priori"):
        roots = enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=21).roots
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
        roots = enumerate_report(k2, m, box=(-9.0, 3.0), grid_n=31).roots
    assert len(roots) >= 3
    for a in roots:
        for b in roots:
            if a is not b:
                assert np.abs(a.point - b.point).max() > 1e-6


def test_enumerate_refinement_superset(k2, monkeypatch):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)
    with pytest.warns(UserWarning, match="a priori"):
        coarse = enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=11).roots
        fine = enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=21).roots
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


def test_enumerate_box_warning_only_for_a_small_box(k2, monkeypatch):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)
    radius = apriori_radius(k2, m).radius
    with pytest.warns(UserWarning, match="a priori") as caught:
        enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=5)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=5, check_box=False)
        enumerate_report(k2, m, box=(-radius, radius + 1.0), grid_n=5)
        rep = enumerate_report(k2, m, grid_n=5)
    assert rep.box[1].tolist() == [radius, radius]


def test_enumerate_without_a_priori_bound_needs_a_box(k2):
    with pytest.raises(ValueError, match="pass box"):
        enumerate_report(k2, ScalarModel(lam=-10.0, f=np.array([1.0, -1.0])))
    # a system bound needs positive source means, and a finite value
    for f in (-np.ones(2), np.array([1000.0, 1.0])):
        s = SystemModel(p=0.5, q=0.5, f=f, g=np.ones(2))
        with pytest.raises(ValueError, match="pass box"):
            enumerate_report(k2, s)


def test_enumerate_system_without_a_box_searches_its_a_priori_ball(k2, monkeypatch):
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)  # one grid level is enough here
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    radius = apriori_bound_system(k2, s).bound
    rep = enumerate_report(k2, s)
    assert rep.box[0].tolist() == [-radius] * 4 and rep.box[1].tolist() == [radius] * 4
    assert rep.roots == []


def _c4_random_weights(rng):
    mu, w = rng.uniform(0.2, 3.0, 4), rng.uniform(0.2, 3.0, 4)
    return build_graph([(f"x{i + 1}", float(mu[i])) for i in range(4)],
                       [(f"x{i + 1}", f"x{(i + 1) % 4 + 1}", float(w[i])) for i in range(4)])


def _newton_calls(monkeypatch):
    """A spy on ``solve._newton_batch``: the list of the seed counts it was called with."""
    calls, run = [], solve_mod._newton_batch

    def spy(problem, seeds, opts):
        calls.append(len(seeds))
        return run(problem, seeds, opts)

    monkeypatch.setattr(solve_mod, "_newton_batch", spy)
    return calls


def _sigma_zero_cases():
    """Systems at sigma = 0 with positive source means, and the box to search."""
    rng = np.random.default_rng(7)
    ones = np.ones(3)
    c4 = _c4_random_weights(rng)
    # the float column sums of -L are not 0 here: the integral test must carry them
    assert np.any(c4.mu @ c4.neg_laplacian_matrix() != 0.0)
    return [
        (complete_graph(2), SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2), sigma=0.0), None),
        (path_graph(3, mu=(1.0, 2.0, 1.0)), SystemModel(p=0.5, q=0.5, f=ones, g=ones, sigma=0.0),
         None),
        # its a priori ball (radius 2.8e132) is far too wide for the column sums,
        # so it is searched over a box
        (c4, SystemModel(p=1.5, q=0.5, f=rng.uniform(0.5, 2.0, 4), g=rng.uniform(-1.0, 2.0, 4),
                         sigma=0.0), (-40.0, 40.0)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_sigma_zero_system_is_proved_rootless_in_one_box(monkeypatch, case):
    # at sigma = 0 both nonlinearities are positive, so sum_x mu(x) R1(x) >
    # int f dmu + sum_y c_y u_y, which is >= 0 over the whole box: no seed,
    # no Newton, and seed_cap does not apply
    g, s, box = _sigma_zero_cases()[case]
    calls = _newton_calls(monkeypatch)
    rep = enumerate_report(g, s, box=box, opts=SolveOptions(seed_cap=1), check_box=False)
    assert calls == []
    assert (rep.roots, rep.certified, rep.boxes, rep.unresolved) == ([], True, 1, 0)
    assert (rep.seeds_used, rep.grid_levels, rep.stable) == (0, [], True)
    if box is None:
        radius = apriori_bound_system(g, s).bound
        assert rep.box[1].tolist() == [radius] * (2 * g.ell)


def test_sigma_zero_proof_leaves_the_other_systems_to_the_grid(k2, monkeypatch):
    # none of these is proved rootless, though none has a root: each is searched
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)
    ones = np.ones(2)
    cases = [
        (SystemModel(p=0.5, q=0.5, f=ones, g=ones, sigma=5e-324), (-3.0, 3.0)),  # sigma > 0
        (SystemModel(p=0.5, q=0.5, f=-ones, g=-2.0 * ones, sigma=0.0), (-3.0, 3.0)),
        (SystemModel(p=0.5, q=0.5, f=ones, g=ones, sigma=0.0), (-np.inf, 3.0)),
        # int f dmu is exactly 0 in floats, and proves nothing
        (SystemModel(p=0.5, q=0.5, f=[1.0, -1.0], g=[1.0, -1.0], sigma=0.0), (-3.0, 3.0)),
    ]
    for s, box in cases:
        rep = enumerate_report(k2, s, box=box, check_box=False)
        assert rep.grid_levels == [7] and rep.seeds_used > 0, s
        assert not rep.certified and rep.boxes == 0 and rep.roots == [], s


def test_sigma_zero_proof_carries_the_column_sums(monkeypatch):
    # the random C4's float column sums of -L, times its a priori radius
    # 2.8e132, outweigh int f dmu: the slice is searched, not proved
    g, s, _ = _sigma_zero_cases()[2]

    class Searched(Exception):
        pass

    def newton(problem, seeds, opts):
        raise Searched

    monkeypatch.setattr(solve_mod, "_newton_batch", newton)
    with pytest.raises(Searched):
        enumerate_report(g, s)
    # a source mean of 1e-9 proves nothing over (-1e8, 1e8) either
    tiny = dataclasses.replace(s, f=np.full(4, 1e-9 / g.volume), g=np.full(4, 1e-9 / g.volume))
    with pytest.raises(Searched):
        enumerate_report(g, tiny, box=(-1e8, 1e8), check_box=False)
    assert enumerate_report(g, tiny, box=(-1.0, 1.0), check_box=False).certified


def test_enumerate_seed_cap(k2):
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    with pytest.raises(SolverError, match="seed budget"):
        enumerate_report(k2, m, box=(-3.0, 3.0), grid_n=200, opts=SolveOptions(seed_cap=1000))


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


def _masked_residual_rows(problem, X):
    # _residual_rows without its shortcut for stacks wholly in range, kept as
    # the reference: every row through the guard mask
    out = np.full(X.shape, np.inf)
    inb = sup_norm(X) <= EXP_GUARD
    if inb.any():
        out[inb] = problem.residual(X[inb])
    return out


def test_residual_rows_shortcut_matches_the_masked_path():
    g = cycle_graph(4)
    problems = (solve_mod._scalar_problem(g, ScalarModel(lam=-10.0, f=np.ones(4), p=2)),
                solve_mod._system_problem(g, SystemModel(p=0.5, q=0.5, f=np.ones(4),
                                                         g=np.ones(4))))
    rng = np.random.default_rng(5)
    for problem in problems:
        X = rng.uniform(-40.0, 4.0, (300, problem.n))
        assert _residual_rows(problem, X).tobytes() == _masked_residual_rows(problem, X).tobytes()
        X[17, 1] = 701.0  # one row past the exp guard
        F = _residual_rows(problem, X)
        assert F.tobytes() == _masked_residual_rows(problem, X).tobytes()
        assert np.isinf(F[17]).all() and np.isfinite(np.delete(F, 17, axis=0)).all()
        assert _residual_rows(problem, X[:0]).shape == (0, problem.n)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        steps, bad = _newton_steps(_stack_problem(J), np.zeros_like(F), F)

    kinds = np.array(kinds)
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
    steps, bad = _newton_steps(_stack_problem(J), np.zeros_like(F), F)
    assert not bad.any()
    for k in range(3):
        assert steps[k].tobytes() == np.linalg.lstsq(J[k], -F[k], rcond=None)[0].tobytes()


def test_newton_steps_one_lstsq_call_per_singular_row(monkeypatch):
    # P3's -Laplacian: copies of it, of twice it, and of a copy whose zero
    # corner is -0.0, among regular and non-finite rows
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        steps, bad = _newton_steps(_stack_problem(J), np.zeros_like(F), F)

    kinds = np.array(kinds)
    singular = np.flatnonzero(np.isin(kinds, ["negL", "twice", "signed_zero"]))
    np.testing.assert_array_equal(bad, kinds == "nonfinite")
    # one call per singular row, in row order, with that row's 1-D right-hand side
    assert len(calls) == singular.size
    for (a, b), k in zip(calls, singular):
        assert a.tobytes() == J[k].tobytes()
        assert b.shape == (3,) and b.tobytes() == (-F[k]).tobytes()
    for k, kind in enumerate(kinds):
        if kind == "regular":
            expected = np.linalg.solve(J[k], -F[k])
        elif kind == "nonfinite":
            expected = np.zeros(3)
        else:
            expected = real_lstsq(J[k], -F[k], rcond=None)[0]
        assert steps[k].tobytes() == expected.tobytes(), (k, kind)


def test_newton_steps_singular_row_ignores_rows_sharing_its_jacobian():
    # a 10x10 matrix with a zero last row, so LU meets an exactly zero pivot,
    # shared by six rows: each row's least-squares step is that of its own
    # one-row lstsq, whatever other rows hold the same Jacobian
    rng = np.random.default_rng(2)
    A = rng.normal(size=(10, 10))
    A[-1] = 0.0
    J = np.stack([A] * 6)
    F = rng.normal(size=(6, 10))
    steps, bad = _newton_steps(_stack_problem(J), np.zeros_like(F), F)
    assert not bad.any()
    for k in range(6):
        assert steps[k].tobytes() == np.linalg.lstsq(A, -F[k], rcond=None)[0].tobytes(), k


@pytest.mark.parametrize("f", [1.0, -1.0])
def test_seeds_used_is_the_sum_of_the_seed_families(k2, f):
    # the box net and the core grid at the base level, the refined core grid
    # after it, and the in-box constant roots at both levels: nothing else
    # (a scalar run takes the grid path only when asked for a grid_n)
    m = ScalarModel(lam=-10.0, f=np.full(2, f))
    grid_n = solve_mod.default_grid_n(2)
    rep = enumerate_report(k2, m, grid_n=grid_n)
    radius = apriori_radius(k2, m).radius
    anchors = sum(abs(c) <= radius for c in constant_solutions(m))
    assert anchors == (1 if f > 0 else 2)
    assert rep.grid_levels == [grid_n, 2 * grid_n - 1]
    base = grid_n ** 2 + grid_n ** 2 + anchors
    refined = (2 * grid_n - 1) ** 2 + anchors
    assert rep.seeds_used == base + refined


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
    known, known_norm = [], []
    stable = False
    for refinement, (X, nF, status) in enumerate(levels):
        sel = ((status == solve_mod._CONVERGED) & np.all(X >= lo - tol, axis=1)
               & np.all(X <= hi + tol, axis=1))
        pts, pn = X[sel], nF[sel]
        new_found = False
        if len(pts):
            for i in _dedup_points(pts, pn, tol):
                p = pts[i]
                dists = [np.abs(p - q).max() for q in known]
                if known and min(dists) <= tol:
                    j = int(np.argmin(dists))
                    if pn[i] < known_norm[j]:
                        known[j], known_norm[j] = p, float(pn[i])
                else:
                    known.append(p)
                    known_norm.append(float(pn[i]))
                    if refinement > 0:
                        new_found = True
        if refinement > 0 and not new_found:
            stable = True
            break
    return list(zip(known, known_norm)), stable, refinement + 1


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
        return X, nF, st

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
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 2)
    rep = enumerate_report(k2, ScalarModel(lam=-10.0, f=np.full(2, -1.0)), box=(lo, hi),
                           grid_n=5, check_box=False)
    assert rep.stable and len(rep.grid_levels) == used
    expected.sort(key=lambda row: (tuple(np.rint(row[0] / tol).tolist()), tuple(row[0])))
    assert len(rep.roots) == len(expected) == (5 if grows else 4)
    for r, (p, norm) in zip(rep.roots, expected):
        assert r.point.tobytes() == p.tobytes()
        assert r.residual_norm == norm
    points = [r.point.tobytes() for r in rep.roots]
    assert refound[0][0][0].tobytes() in points
    assert tie_point[0].tobytes() not in points


def test_critical_group_ranks_follow_morse_data(k2):
    # lam = -4 carries a degenerate root (ranks unknown), lam = -10 does not
    seen = set()
    for lam in (-10.0, -4.0):
        m = ScalarModel(lam=lam, f=np.full(2, -1.0))
        for r in enumerate_report(k2, m, box=(-8.0, 3.0), grid_n=11, check_box=False).roots:
            md = morse_data(jacobian(k2, m, r.point), k2.mu)
            assert r.critical_group_ranks == md.critical_group_ranks
            seen.add(md.critical_group_ranks is None)
    assert seen == {True, False}


def _newton_batch_sequential(problem, seeds, opts, stats):
    # the Newton driver with the line search run one row at a time in plain
    # floats, kept as the reference for the batched quadratic backtracking;
    # ``stats`` records what the line search met.  Residuals go through
    # ``solve_mod._residual_rows``, which hands ``problem.residual`` only the
    # points inside the exp guard.
    X = np.array(seeds, dtype=float)
    N = len(X)
    F = solve_mod._residual_rows(problem, X)
    nF = _norms(F)
    status = np.full(N, solve_mod._RUNNING, dtype=np.int8)
    status[~np.isfinite(nF)] = solve_mod._DIVERGED
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
        steps, bad = _newton_steps(problem, X[act], F[act])
        status[act[bad]] = solve_mod._DIVERGED
        live = act[~bad]
        steps = steps[~bad]
        for row, step in zip(live, steps):
            base, phi0, t = X[row].copy(), float(nF[row]), 1.0
            while True:
                trial = base + t * step
                stats["guard_exits"] += int(np.abs(trial).max() > EXP_GUARD)
                Ft = solve_mod._residual_rows(problem, trial[None])[0]
                phi = float(_norms(Ft[None])[0])
                if phi <= (1.0 - 1e-4 * t) * phi0:
                    stats["accepted_t"].add(t)
                    X[row], F[row], nF[row] = trial, Ft, phi
                    break
                # minimizer of the quadratic through phi0, slope -phi0 and phi
                tq = 0.5 * phi0 * t * t / (phi - phi0 + phi0 * t)
                t = min(max(tq, 0.1 * t), 0.5 * t)
                if t < 1e-12:
                    stats["stalls"] += 1
                    status[row] = solve_mod._STALLED
                    break
    status[(status == running_code) & (nF <= opts.tol_residual)] = conv_code
    status[status == running_code] = solve_mod._EXHAUSTED
    conv = np.nonzero(status == conv_code)[0]
    for _ in range(solve_mod._POLISH_STEPS):
        if conv.size == 0:
            break
        steps, bad = _newton_steps(problem, X[conv], F[conv])
        trial = X[conv] + steps
        Ft = solve_mod._residual_rows(problem, trial)
        nFt = _norms(Ft)
        better = ~bad & (nFt < nF[conv])
        gi = conv[better]
        X[gi] = trial[better]
        F[gi] = Ft[better]
        nF[gi] = nFt[better]
        conv = gi
    return X, nF, status


def _squash_problem():
    # F(x) = x / (1 + |x|) on each coordinate: only correctly rounded
    # arithmetic, so a row's residual bits do not depend on its batch.  Full
    # Newton steps overshoot far from 0 (depth grows with |x|, and long
    # steps leave the exp guard).  Rows with 40 < x1 < 41 get the Jacobian's
    # sign flipped: their step is an ascent direction and no step length
    # passes the Armijo test.  Rows at x1 = 0.5 get a Jacobian 1.5e-11 times
    # too small: only step lengths up to 2e-11 pass, and backtracking reaches
    # one near 1e-11; at x1 = -0.5 the factor is 0.75e-12 and only lengths
    # up to 1e-12, below the stall floor, would pass.
    def res(X):
        return X / (1.0 + np.abs(X))

    def jac(X):
        d = 1.0 / ((1.0 + np.abs(X)) * (1.0 + np.abs(X)))
        flip = (X[:, 1] > 40.0) & (X[:, 1] < 41.0)
        d[flip] = -d[flip]
        d[X[:, 1] == 0.5] *= 1.5e-11
        d[X[:, 1] == -0.5] *= 0.75e-12
        J = np.zeros(X.shape + (2,))
        J[:, 0, 0], J[:, 1, 1] = d[:, 0], d[:, 1]
        return J

    return _Problem(n=2, mu=np.ones(2), residual=res, jacobian=jac,
                    hessian=None, anchors=lambda: [])


def _squash_seeds(seed):
    # 138 rows that reach every branch of the line search on _squash_problem;
    # a near row with 1 < |x| < 2 fails its full step by little, so the
    # quadratic's minimizer lies near 0.5 t and the upper clip acts
    rng = np.random.default_rng(seed)
    near = rng.uniform(-2.0, 2.0, size=(60, 2))
    far = rng.choice([-1.0, 1.0], size=(60, 2)) * 10.0 ** rng.uniform(0.3, 2.7, size=(60, 2))
    ascent = np.column_stack([rng.uniform(-0.5, 0.5, 12), np.full(12, 40.5)])
    last_rung = np.array([[0.1, 0.5], [-0.2, 0.5], [0.1, -0.5]])
    seeds = np.vstack([near, far, ascent, last_rung, np.zeros((3, 2))])
    return seeds[rng.permutation(len(seeds))]


def _residual_spy(problem):
    # ``problem`` with a residual that records each batch's size, every point
    # it evaluates and how many of them lie outside the exp guard
    seen = {"calls": [], "points": [], "outside": 0}

    def res(X):
        seen["calls"].append(("rows", len(X)))
        seen["points"].extend(row.tobytes() for row in X)
        seen["outside"] += int(np.count_nonzero(~(sup_norm(X) <= EXP_GUARD)))
        return problem.residual(X)

    return dataclasses.replace(problem, residual=res), seen


def test_batched_line_search_matches_row_by_row_backtracking(monkeypatch):
    # record each residual batch and every point it evaluates; a Newton step
    # opens with one round that holds every row not stalled at once (each at
    # its first trial inside the exp guard), and no later round of that step
    # may hold more rows
    real_steps = solve_mod._newton_steps
    problem, seen = _residual_spy(_squash_problem())
    calls = seen["calls"]

    def steps_spy(problem, X, F):
        calls.append(("step", len(X)))
        return real_steps(problem, X, F)

    monkeypatch.setattr(solve_mod, "_newton_steps", steps_spy)
    seeds = _squash_seeds(11)
    opts = SolveOptions()

    stats = {"accepted_t": set(), "stalls": 0, "guard_exits": 0}
    expected = _newton_batch_sequential(problem, seeds, opts, stats)
    # the inputs reach every branch of the line search, and no accepted step
    # length lies below the stall floor
    assert 1.0 in stats["accepted_t"] and len(stats["accepted_t"]) >= 6
    assert 1e-12 <= min(stats["accepted_t"]) < 1e-9
    assert stats["stalls"] >= 13 and stats["guard_exits"] > 0
    expected_points = sorted(seen["points"])

    calls.clear()
    seen["points"].clear()
    got = _newton_batch(problem, seeds, opts)
    assert len(got) == len(expected) == 3
    for name, a, b in zip(("X", "nF", "status"), got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # every evaluated trial is the reference's: the trials outside the exp
    # guard, which the reference masks, are skipped, and no round hands the
    # residual a row outside the guard
    assert sorted(seen["points"]) == expected_points
    assert seen["outside"] == 0

    full_round = None
    for kind, size in calls:
        if kind == "step":
            full_round = None
        elif full_round is None:
            full_round = size
        else:
            assert size <= full_round


def _ladder_problem():
    # _squash_problem with the x0 column of the Jacobian scaled by 10**-k on
    # rows marked x1 = 1 + k / 32, k = 2..16: there x0 = 0.5 steps by about
    # -0.75 * 10**k, and its first trial inside the exp guard is the rung
    # 10**-(k - 2) of the line search's ladder 1, 0.1, ..., 1e-12; at k = 15
    # and 16 the step exceeds 700 / 1e-12 and no rung is inside
    base = _squash_problem()

    def jac(X):
        J = base.jacobian(X)
        k = 32.0 * (X[:, 1] - 1.0)
        mark = (k == np.rint(k)) & (k >= 2.0) & (k <= 16.0)
        J[mark, 0, 0] *= 10.0 ** -k[mark]
        return J

    return dataclasses.replace(base, jacobian=jac)


def test_line_search_starts_at_the_first_rung_inside_the_guard():
    # each rung of the ladder is some row's first trial inside the guard,
    # and some rows have none; the batched run, which starts each row there,
    # is bit for bit the row-by-row reference that walks every rung
    problem, seen = _residual_spy(_ladder_problem())
    rng = np.random.default_rng(5)
    k = np.repeat(np.arange(2, 17), 2)
    marked = np.column_stack([0.5 + rng.uniform(0.0, 0.05, k.size), 1.0 + k / 32.0])
    seeds = np.vstack([marked, _squash_seeds(12)])
    seeds = seeds[rng.permutation(len(seeds))]

    steps, bad = _newton_steps(problem, seeds, problem.residual(seeds))
    assert not bad.any()
    first = set()
    for x, d in zip(seeds, steps):
        t, rung = 1.0, 0
        while t >= 1e-12 and np.abs(x + t * d).max() > EXP_GUARD:
            t, rung = 0.1 * t, rung + 1
        first.add(rung)
    assert first == set(range(14))

    opts = SolveOptions()
    stats = {"accepted_t": set(), "stalls": 0, "guard_exits": 0}
    seen["points"].clear()
    expected = _newton_batch_sequential(problem, seeds, opts, stats)
    assert stats["guard_exits"] > 100
    expected_points = sorted(seen["points"])
    seen["points"].clear()
    got = _newton_batch(problem, seeds, opts)
    for name, a, b in zip(("X", "nF", "status"), got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert sorted(seen["points"]) == expected_points
    assert seen["outside"] == 0


def _c4_seeds():
    """C4's base-level enumeration seeds (lam = -10, f = 1) and its problem."""
    g = cycle_graph(4)
    m = ScalarModel(lam=-10.0, f=np.ones(4))
    problem = solve_mod._make_problem(g, m)
    radius = apriori_radius(g, m).radius
    seeds = solve_mod._seed_set(problem, np.full(4, -radius), np.full(4, radius),
                                solve_mod.default_grid_n(4))
    return problem, seeds


def test_newton_batch_chunk_sizes(monkeypatch):
    # the module budget gives the documented rows per chunk, split evenly
    sizes = []

    def stub(problem, X, opts):
        sizes.append(len(X))
        n = len(X)
        return X, np.zeros(n), np.zeros(n, np.int8)

    monkeypatch.setattr(solve_mod, "_newton_chunk", stub)
    for n, rows in ((2, 65_536), (4, 16_384), (5, 10_485), (8, 4_096)):
        sizes.clear()
        _newton_batch(None, np.zeros((rows, n)), SolveOptions())
        assert sizes == [rows]
        sizes.clear()
        _newton_batch(None, np.zeros((2 * rows + 1, n)), SolveOptions())
        assert len(sizes) == 3 and sum(sizes) == 2 * rows + 1
        assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1


def test_newton_batch_chunks_match_one_stack(monkeypatch):
    # 276 rows in chunks of at most 60 run as five near-equal chunks; on a
    # residual whose rows do not interact, every output is bit for bit that
    # of one unchunked stack, in seed order, and the caller's seeds are kept
    sizes = []
    real_chunk = solve_mod._newton_chunk

    def chunk_spy(problem, X, opts):
        sizes.append(len(X))
        return real_chunk(problem, X, opts)

    problem, opts = _squash_problem(), SolveOptions()
    seeds = np.vstack([_squash_seeds(11), _squash_seeds(12)])
    given = seeds.copy()
    expected = real_chunk(problem, seeds.copy(), opts)
    monkeypatch.setattr(solve_mod, "_newton_chunk", chunk_spy)
    monkeypatch.setattr(solve_mod, "_CHUNK_ENTRIES", 60 * 2 * 2)
    got = _newton_batch(problem, seeds, opts)
    assert sizes == [56, 55, 55, 55, 55]
    assert seeds.tobytes() == given.tobytes()
    assert len(got) == len(expected) == 3
    for name, a, b in zip(("X", "nF", "status"), got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    # real C4 seeds in chunks of at most 500 rows: the same statuses, and the
    # same converged roots up to the residual matmul's last bits
    problem, seeds = _c4_seeds()
    seeds = seeds[::7]
    opts = SolveOptions()
    expected = real_chunk(problem, seeds.copy(), opts)
    monkeypatch.setattr(solve_mod, "_CHUNK_ENTRIES", 500 * 4 * 4)
    sizes.clear()
    got = _newton_batch(problem, seeds, opts)
    assert len(sizes) >= 3 and max(sizes) <= 500 and sum(sizes) == len(seeds)
    np.testing.assert_array_equal(got[2], expected[2])
    conv = expected[2] == solve_mod._CONVERGED
    assert conv.sum() > len(seeds) // 2
    np.testing.assert_allclose(got[0][conv], expected[0][conv], rtol=0.0, atol=1e-12)


def test_newton_batch_memory_is_one_chunk_plus_row_arrays(monkeypatch):
    # eight chunks of C4 seeds may add their O(N n) arrays to one chunk's
    # peak (the working copy of the seeds, the per-chunk outputs and their
    # concatenation: 82 bytes a row at n = 4, under 3 N n float64), but
    # never eight chunks' Jacobian stacks
    monkeypatch.setattr(solve_mod, "_CHUNK_ENTRIES", 2 ** 14)
    rows = 2 ** 14 // 16
    problem, seeds = _c4_seeds()
    seeds = seeds[np.random.default_rng(2).permutation(len(seeds))[:8 * rows]]
    opts = SolveOptions(max_iter=10)  # the peak comes while every row is active

    def peak(X):
        tracemalloc.start()
        try:
            _newton_batch(problem, X, opts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = max(peak(seeds[k:k + rows]) for k in range(0, len(seeds), rows))
    assert peak(seeds) < one_chunk + 3 * seeds.nbytes


def test_root_order_ignores_rounding_level_ties(k2):
    # two roots tie to 1e-15 in their first coordinate; whichever carries the
    # noise and whatever the input order, the second coordinate decides
    tol = SolveOptions().dedup_tol
    problem = solve_mod._scalar_problem(k2, ScalarModel(lam=-10.0, f=np.ones(2)))

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
            X = np.array([r.point for r in given])
            orders.add(tuple(r.point[1] for r in _roots(problem, X, np.zeros(2), tol)))
    assert orders == {(-1.0, 2.0)}


def _bracket_roots(g, m, lower, upper):
    """Roots of the certified enumeration of the box [lower, upper]."""
    rep = enumerate_report(g, m, box=(lower, upper), check_box=False)
    assert rep.certified
    return rep.roots


def test_box_extremize_interior_min(k2):
    # the box [ln 1/2, 2]^2 holds one root, the strict minimum u = 0
    m = ScalarModel(lam=5.0, f=np.zeros(2))
    roots = _bracket_roots(k2, m, np.log(0.5), 2.0)
    assert len(roots) == 1
    assert sup_norm(roots[0].point) <= 1e-10
    assert roots[0].morse_index == 0
    with pytest.raises(ValueError, match="must exceed lower bounds"):
        enumerate_report(k2, m, box=(1.0, 1.0), check_box=False)


def test_subsolution_bounds_zero_source(k2):
    sb = subsolution_bounds(k2, np.zeros(2), 1.0)
    assert np.allclose(sb.u0, 0.0)
    assert sb.kappa1 == pytest.approx(0.5)
    assert np.allclose(sb.lower, np.log(0.5))
    assert sb.A >= 1.0
    roots = _bracket_roots(k2, ScalarModel(lam=1.0, f=np.zeros(2)), sb.lower, sb.upper)
    assert len(roots) == 1
    assert sup_norm(roots[0].point) <= 1e-10 and roots[0].morse_index == 0


def test_subsolution_bounds_unavailable(k2):
    assert subsolution_bounds(k2, np.ones(2), 1.0) is None
    with pytest.raises(ValueError, match="lam > 0"):
        subsolution_bounds(k2, np.zeros(2), -1.0)
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lam must be finite"):
            subsolution_bounds(k2, np.zeros(2), lam)


def test_subsolution_route_matches_enumeration(k2):
    f = np.array([1.0, -1.0])
    lam = 2.0
    sb = subsolution_bounds(k2, f, lam)
    m = ScalarModel(lam=lam, f=f)
    (root,) = _bracket_roots(k2, m, sb.lower, sb.upper)
    assert root.morse_index == 0
    rep = enumerate_report(k2, m, box=(-6.0, 3.0))
    assert rep.certified
    assert any(np.abs(root.point - r.point).max() <= 1e-8 for r in rep.roots)


def test_solver_invariant_suite():
    assert check_solver(seed=0) == []
