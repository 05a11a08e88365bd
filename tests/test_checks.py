import dataclasses

import numpy as np
import pytest

from cshlab import checks, scalar, system


@pytest.mark.parametrize(
    "suite",
    [
        lambda: checks.check_graph_calculus(seed=0, n_graphs=10, n_funcs=30),
        lambda: checks.check_elliptic_estimate(seed=0, n_graphs=10, n_funcs=300),
        lambda: checks.check_scalar_consistency(seed=0, trials=50),
        # energies up to 2.3e5: a central difference of the energy missed
        # the residual by more than 1e-6 relative on these two seeds; the
        # complex step does not subtract and holds to 1e-12
        lambda: checks.check_scalar_consistency(seed=2),
        lambda: checks.check_scalar_consistency(seed=6),
        lambda: checks.check_gauge_identity(seed=0, trials=50),
        lambda: checks.check_solution_identity(seed=0, cases=4),
        lambda: checks.check_system_consistency(seed=0, trials=30),
        lambda: checks.check_solver(seed=0),
    ],
    ids=[
        "graph_calculus",
        "elliptic_estimate",
        "scalar_consistency",
        "scalar_consistency_seed2",
        "scalar_consistency_seed6",
        "gauge_identity",
        "solution_identity",
        "system_consistency",
        "solver",
    ],
)
def test_invariant_suites_clean(suite):
    assert suite() == []


def test_run_all_shape():
    results = checks.run_all(seed=1)
    assert set(results) == {
        "graph_calculus",
        "elliptic_estimate",
        "scalar_consistency",
        "gauge_identity",
        "solution_identity",
        "system_consistency",
        "solver",
    }
    assert all(v == [] for v in results.values())


def test_derivative_suites_clean_at_seeds_0_to_30():
    for seed in range(31):
        assert checks.check_scalar_consistency(seed) == [], seed
        assert checks.check_system_consistency(seed) == [], seed


def _scaled_lam(g, m, u):
    return scalar.jacobian(g, dataclasses.replace(m, lam=m.lam * (1.0 + 1e-9)), u)


def _scaled_n1(g, s, u, v):
    r1, r2 = system.residual_pair(g, s, u, v)
    # N1 = r1 + L u - f, the nonlinear term of the first equation
    n1 = r1 - np.asarray(u) @ g.neg_laplacian_matrix().T - s.f
    return r1 + 1e-9 * n1, r2


def _scaled_d12(g, s, u, v):
    J = system.jacobian_system(g, s, u, v)
    idx = np.arange(g.ell)
    J[..., idx, g.ell + idx] *= 1.0 + 1e-9
    return J


@pytest.mark.parametrize("name, mutant, suite", [
    ("jacobian", _scaled_lam, checks.check_scalar_consistency),
    ("residual_pair", _scaled_n1, checks.check_system_consistency),
    ("jacobian_system", _scaled_d12, checks.check_system_consistency),
], ids=["scalar_jacobian_lam", "system_pairing_n1", "system_jacobian_d12"])
def test_derivative_suites_see_a_relative_error_of_1e9(monkeypatch, name, mutant, suite):
    # one formula off by 1e-9 relative, patched where the suites look it up;
    # a central difference at a 1e-6 bound reports none of the three
    monkeypatch.setattr(checks, name, mutant)
    assert suite(seed=0) != []
