import numpy as np
import pytest

from cshlab import (
    OverflowGuardError,
    ScalarModel,
    apriori_radius,
    constant_solutions,
    energy,
    gauge_transform,
    gauged_energy,
    grad_norm_sq,
    integrate,
    jacobian,
    random_connected_graph,
    residual,
    sup_norm,
)
from cshlab.checks import check_gauge_identity, check_scalar_consistency
from cshlab.scalar import _ipow


def test_model_validation(k2):
    with pytest.raises(ValueError, match="positive integer"):
        ScalarModel(lam=1.0, f=np.zeros(2), p=0)
    with pytest.raises(ValueError, match="sigma"):
        ScalarModel(lam=1.0, f=np.zeros(2), sigma=1.5)
    with pytest.raises(ValueError, match="finite"):
        ScalarModel(lam=1.0, f=np.array([np.inf, 0.0]))
    # a NaN coupling used to run enumeration to the box budget, an infinite
    # one to return an uncertified report
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lam must be finite"):
            ScalarModel(lam=lam, f=np.ones(2))


def test_residual_zero_at_origin(k2):
    for lam in (-7.0, 0.0, 3.0):
        m = ScalarModel(lam=lam, f=np.zeros(2))
        assert sup_norm(residual(k2, m, np.zeros(2))) == 0.0


def test_residual_sigma_root(k2):
    # u = ln(sigma) is an exact root of the deformed model with zero source
    for p in (1, 2, 3):
        for sigma in (1.0, 0.5, 1e-3):
            m = ScalarModel(lam=-4.0, f=np.zeros(2), p=p, sigma=sigma)
            u = np.full(2, np.log(sigma))
            assert sup_norm(residual(k2, m, u)) <= 1e-12


def test_residual_hand_value(k2):
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    r = residual(k2, m, np.array([0.0, 1.0]))
    assert r[0] == pytest.approx(0.0, abs=1e-14)
    assert r[1] == pytest.approx(2.0 - 10.0 * np.e * (np.e - 1.0), rel=1e-14)


def test_residual_overflow_guard(k2):
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    with pytest.raises(OverflowGuardError):
        residual(k2, m, np.array([0.0, 701.0]))
    with pytest.raises(OverflowGuardError):
        energy(k2, m, np.array([-701.0, 0.0]))
    with pytest.raises(OverflowGuardError):
        jacobian(k2, m, np.array([0.0, -701.0]))


def test_residual_and_jacobian_of_an_empty_stack(k2):
    # the range guard reduces over the stack, which has no rows here
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    assert residual(k2, m, np.empty((0, 2))).shape == (0, 2)
    assert jacobian(k2, m, np.empty((0, 2))).shape == (0, 2, 2)


def _ipow_loop(x, k):
    # the original product, started from ones; kept as the reference
    out = np.ones_like(x)
    for _ in range(k):
        out = out * x
    return out


def test_ipow_matches_loop_from_ones_bitwise():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, -1.0, -0.5, 1e-300, -1e200, 2.0, -3.0]
    negative = -np.abs(rng.normal(size=20)) * 10.0 ** rng.integers(-3, 4, 20)
    x = np.concatenate([special, negative, rng.normal(size=20)])
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(6):
            for arg in (x, x.reshape(-1, 2)):
                got, expected = _ipow(arg, k), _ipow_loop(arg, k)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), k


def test_energy_values(k2):
    m0 = ScalarModel(lam=3.0, f=np.zeros(2))
    assert energy(k2, m0, np.zeros(2)) == 0.0
    m1 = ScalarModel(lam=3.0, f=np.array([0.4, -1.1]))
    assert energy(k2, m1, np.zeros(2)) == 0.0
    m2 = ScalarModel(lam=2.0, f=np.zeros(2))
    expected = 0.5 + (np.e - 1.0) ** 2
    assert energy(k2, m2, np.array([0.0, 1.0])) == pytest.approx(expected, rel=1e-14)


def test_jacobian_values(k2, rng):
    m = ScalarModel(lam=0.0, f=np.zeros(2))
    assert np.allclose(jacobian(k2, m, np.zeros(2)), [[1.0, -1.0], [-1.0, 1.0]])
    lam = 5.0
    m = ScalarModel(lam=lam, f=np.zeros(2))
    J = jacobian(k2, m, np.zeros(2))
    assert np.allclose(np.diag(J), 1.0 + lam)  # -Delta diagonal plus lam*(2-1)
    g = random_connected_graph(rng)
    m = ScalarModel(lam=-3.0, f=rng.uniform(-1, 1, g.ell), p=2, sigma=0.7)
    J = jacobian(g, m, rng.uniform(-2, 2, g.ell))
    W = g.mu[:, None] * J
    assert np.allclose(W, W.T)


def test_gradient_and_jacobian_consistency():
    assert check_scalar_consistency(seed=7, trials=40) == []


def test_gauge_constant_source(k2):
    m = ScalarModel(lam=-4.0, f=np.full(2, 1.3))
    gauge = gauge_transform(k2, m)
    assert np.allclose(gauge.phi, 0.0)
    assert np.allclose(gauge.beta, -4.0)
    assert gauge.fbar == pytest.approx(1.3)
    v = np.array([0.2, -0.7])
    assert gauged_energy(k2, m, gauge, v) == pytest.approx(energy(k2, m, v), rel=1e-12)


def test_gauge_beta_sign_and_q_at_minus_phi(rng):
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=5)
        lam = float(rng.uniform(0.5, 8.0) * rng.choice([-1, 1]))
        m = ScalarModel(lam=lam, f=rng.uniform(-2, 2, g.ell))
        gauge = gauge_transform(g, m)
        assert np.all(np.sign(gauge.beta) == np.sign(lam))
        q = gauged_energy(g, m, gauge, -gauge.phi)
        expected = 0.5 * integrate(g, grad_norm_sq(g, gauge.phi))
        assert q == pytest.approx(expected, rel=1e-10, abs=1e-13)


def test_gauge_identity_fuzz():
    assert check_gauge_identity(seed=3, trials=50) == []


def test_gauge_requires_physical_model(k2):
    with pytest.raises(ValueError):
        gauge_transform(k2, ScalarModel(lam=1.0, f=np.zeros(2), p=2))


def test_constant_solutions_two_roots(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    roots = constant_solutions(m)
    t = (1.0 + np.array([-1.0, 1.0]) * np.sqrt(0.6)) / 2.0
    assert np.allclose(roots, np.log(t), atol=1e-12)


def test_constant_solutions_double_root(k2):
    m = ScalarModel(lam=-4.0, f=np.full(2, -1.0))  # lam = 4c: discriminant zero
    roots = constant_solutions(m)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(np.log(0.5), abs=1e-6)


def test_constant_solutions_positivity_filter(k2):
    m = ScalarModel(lam=-10.0, f=np.full(2, 1.0))
    roots = constant_solutions(m)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(np.log((1.0 + np.sqrt(1.4)) / 2.0), abs=1e-12)


def test_constant_solutions_lambda_zero(k2):
    assert constant_solutions(ScalarModel(lam=0.0, f=np.ones(2))) == []
    with pytest.raises(ValueError, match="every constant"):
        constant_solutions(ScalarModel(lam=0.0, f=np.zeros(2)))


def test_constant_solutions_requires_constant_source(k2):
    with pytest.raises(ValueError, match="constant"):
        constant_solutions(ScalarModel(lam=1.0, f=np.array([0.0, 1.0])))


def test_constant_solutions_are_residual_roots(k2, rng):
    for _ in range(15):
        lam = float(rng.uniform(0.5, 30.0) * rng.choice([-1, 1]))
        c = float(rng.uniform(0.05, 2.0) * rng.choice([-1, 1]))
        p = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.1, 1.0))
        m = ScalarModel(lam=lam, f=np.full(2, c), p=p, sigma=sigma)
        for u in constant_solutions(m):
            assert sup_norm(residual(k2, m, np.full(2, u))) <= 1e-9 * (1.0 + abs(c))


def test_apriori_radius_values(k2):
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    data = apriori_radius(k2, m)
    assert data.a1 == pytest.approx(2.2)
    s = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * 2.2))
    assert data.upper == pytest.approx(np.log(s))
    assert data.b1 == pytest.approx(10.0 * (s * s + s) + 1.0)
    assert data.c0 == pytest.approx(data.b1)  # elliptic constant is 1 on K2
    assert data.c1 == pytest.approx(0.2)
    assert data.A1 == pytest.approx(-np.log(0.2 / 8.0))
    assert data.lower == pytest.approx(-data.A1 - data.c0)
    assert data.lower <= data.upper
    assert data.radius == pytest.approx(max(abs(data.upper), abs(data.lower)) + 1.0)


def test_apriori_radius_requires_nonzero_product(k2):
    with pytest.raises(ValueError, match="unbounded"):
        apriori_radius(k2, ScalarModel(lam=0.0, f=np.ones(2)))
    with pytest.raises(ValueError, match="unbounded"):
        apriori_radius(k2, ScalarModel(lam=2.0, f=np.array([1.0, -1.0])))
    with pytest.raises(ValueError, match="p=1"):
        apriori_radius(k2, ScalarModel(lam=2.0, f=np.ones(2), p=2))
