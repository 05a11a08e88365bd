import pytest

from cshlab import checks


@pytest.mark.parametrize(
    "suite",
    [
        lambda: checks.check_graph_calculus(seed=0, n_graphs=10, n_funcs=30),
        lambda: checks.check_elliptic_estimate(seed=0, n_graphs=10, n_funcs=300),
        lambda: checks.check_scalar_consistency(seed=0, trials=50),
        # energies up to 2.3e5: a central difference of the energy missed
        # the residual by more than 1e-6 relative on these two seeds
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
