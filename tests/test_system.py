import numpy as np
import pytest

from conftest import manufactured_system

from cshlab import (
    SystemModel,
    apriori_bound_system,
    functional_G,
    hessian_system,
    jacobian_system,
    random_connected_graph,
    residual_pair,
    sup_norm,
)
from cshlab.checks import check_system_consistency


def test_model_validation(k2):
    z = np.zeros(2)
    with pytest.raises(ValueError, match="half-integer"):
        SystemModel(p=1.0, q=0.5, f=z, g=z)
    with pytest.raises(ValueError, match="half-integer"):
        SystemModel(p=0.5, q=-0.5, f=z, g=z)
    with pytest.raises(ValueError, match="sigma"):
        SystemModel(p=0.5, q=0.5, f=z, g=z, sigma=-0.1)
    # a non-finite power is a ValueError naming it, not an OverflowError,
    # and a string is no power
    for value in (np.inf, -np.inf, np.nan, "0.5"):
        with pytest.raises(ValueError, match="p must be a finite number"):
            SystemModel(p=value, q=0.5, f=z, g=z)
        with pytest.raises(ValueError, match="q must be a finite number"):
            SystemModel(p=0.5, q=value, f=z, g=z)
    # a bool is no power or deformation: p = True was refused only because
    # 2 * True is even, sigma = True was taken as 1
    for name in ("p", "q", "sigma"):
        for value in (True, np.True_):
            fields = {"p": 0.5, "q": 0.5, "f": z, "g": z, name: value}
            with pytest.raises(ValueError, match=f"{name} must be a number, got "):
                SystemModel(**fields)
    # nor a source entry: f = [True, False] was built as the source [1, 0]
    for name in ("f", "g"):
        for value in ([True, False], np.array([True, False]), [1.0, np.True_], True):
            fields = {"p": 0.5, "q": 0.5, "f": z, "g": z, name: value}
            with pytest.raises(ValueError, match=f"source {name} must hold numbers, got "):
                SystemModel(**fields)
    s = SystemModel(p=1.5, q=2.5, f=z, g=z)
    assert (s.two_p, s.two_q) == (3, 5)
    # a source of the wrong length is named where it is read, not broadcast
    for n in (1, 3):
        for name in ("f", "g"):
            s = SystemModel(**{"p": 0.5, "q": 0.5, "f": z, "g": z, name: np.ones(n)})
            for fn in (residual_pair, functional_G):
                with pytest.raises(ValueError, match=f"vertex function has length {n}, graph has 2"):
                    fn(k2, s, z, z)


def test_residual_zero_pair_at_origin(k2):
    z = np.zeros(2)
    for p, q in [(0.5, 0.5), (1.5, 0.5), (2.5, 1.5)]:
        s = SystemModel(p=p, q=q, f=z, g=z)
        r1, r2 = residual_pair(k2, s, z, z)
        assert sup_norm(r1) == 0.0 and sup_norm(r2) == 0.0


def test_residual_hand_value(k2):
    # p = q = 1/2, sigma = 1, f = g = 1 at the constant pair u = v = ln 2
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    u = np.full(2, np.log(2.0))
    r1, r2 = residual_pair(k2, s, u, u)
    assert np.allclose(r1, 3.0) and np.allclose(r2, 3.0)


def test_sigma_zero_reduction(k2, rng):
    # at sigma = 0 with p = q = 1/2 both residuals become -Lap + e^(u+v) + source
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.full(2, 2.0), sigma=0.0)
    u = rng.uniform(-1, 1, 2)
    v = rng.uniform(-1, 1, 2)
    r1, r2 = residual_pair(k2, s, u, v)
    m0 = k2.neg_laplacian_matrix()
    assert np.allclose(r1, m0 @ u + np.exp(u + v) + 1.0)
    assert np.allclose(r2, m0 @ v + np.exp(u + v) + 2.0)


def test_functional_value_and_symmetry(k2, rng):
    z = np.zeros(2)
    s = SystemModel(p=0.5, q=0.5, f=z, g=z)
    assert functional_G(k2, s, z, z) == 0.0
    u = np.array([0.0, 1.0])
    v = np.array([1.0, 0.0])
    assert functional_G(k2, s, u, v) == pytest.approx(-1.0, rel=1e-14)
    assert type(functional_G(k2, s, u, v)) is float
    # swapping the pair is a symmetry when p = q and f = g
    f = rng.uniform(-1, 1, 2)
    s2 = SystemModel(p=1.5, q=1.5, f=f, g=f)
    a = rng.uniform(-1, 1, 2)
    b = rng.uniform(-1, 1, 2)
    assert functional_G(k2, s2, a, b) == pytest.approx(functional_G(k2, s2, b, a), rel=1e-12)


def test_functional_requires_sigma_one(k2):
    z = np.zeros(2)
    s = SystemModel(p=0.5, q=0.5, f=z, g=z, sigma=0.5)
    with pytest.raises(ValueError, match="sigma=1"):
        functional_G(k2, s, z, z)


def test_jacobian_cross_blocks_vanish_at_origin(k2):
    # every cross-derivative keeps a vanishing (e^0 - 1) factor when sigma = 1
    z = np.zeros(2)
    m0 = k2.neg_laplacian_matrix()
    for p, q in [(0.5, 0.5), (1.5, 0.5), (1.5, 2.5)]:
        s = SystemModel(p=p, q=q, f=z, g=z)
        J = jacobian_system(k2, s, z, z)
        assert np.allclose(J[:2, 2:], 0.0)
        assert np.allclose(J[2:, :2], 0.0)
        assert np.allclose(J[:2, :2] - m0, np.diag(np.diag(J[:2, :2] - m0)))


def test_system_consistency_fuzz():
    assert check_system_consistency(seed=11, trials=30) == []


def test_hessian_is_block_row_swap(k2, rng):
    s = SystemModel(p=1.5, q=0.5, f=rng.uniform(-1, 1, 2), g=rng.uniform(-1, 1, 2))
    u = rng.uniform(-1, 1, 2)
    v = rng.uniform(-1, 1, 2)
    J = jacobian_system(k2, s, u, v)
    H = hessian_system(k2, s, u, v)
    assert np.allclose(H[:2], J[2:])
    assert np.allclose(H[2:], J[:2])


def test_apriori_bound_example_values(k2):
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    bound = apriori_bound_system(k2, s, Lambda1=2.0, Lambda2=1.0)
    assert bound.Lambda3 == pytest.approx(1.0)
    assert bound.Ctilde == pytest.approx(1.0)
    big = np.exp(4.0)
    assert bound.b == pytest.approx(big * (big + 1.0) + 1.0 + 2.0, rel=1e-12)
    assert bound.c == pytest.approx(bound.b, rel=1e-12)
    # C1 solves 1/(2q|V|Lambda1) = (e^4+1) e^M with C1 = -M
    m_expected = np.log(0.25 / (big + 1.0))
    assert bound.C1 == pytest.approx(-m_expected, abs=1e-9)
    assert bound.C2 == pytest.approx(bound.C1, abs=1e-9)
    assert bound.bound == pytest.approx(max(8.0, bound.C1 + bound.c, bound.C2 + bound.c))
    assert bound.bound >= 4 * bound.Ctilde * (bound.Lambda2 + bound.Lambda3)


def test_apriori_bound_rejects_bad_inputs(k2):
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    with pytest.raises(ValueError, match="Lambda1"):
        apriori_bound_system(k2, s, Lambda1=0.1, Lambda2=1.0)  # |int f| = 2 > 0.1
    with pytest.raises(ValueError, match="Lambda2"):
        apriori_bound_system(k2, s, Lambda1=2.0, Lambda2=0.5)
    neg = SystemModel(p=0.5, q=0.5, f=-np.ones(2), g=np.ones(2))
    with pytest.raises(ValueError, match="mean"):
        apriori_bound_system(k2, neg, Lambda1=2.0, Lambda2=1.0)
    # exp(2 Ct (Lambda2 + Lambda3)) overflows: an error, not an infinite ball,
    # and no warning, since the a priori box rule evaluates the bound for
    # every system enumeration
    with pytest.raises(ValueError, match="the system bound overflows"):
        apriori_bound_system(k2, s, Lambda1=2.0, Lambda2=1000.0)
    big = SystemModel(p=0.5, q=0.5, f=np.array([1000.0, 1.0]), g=np.ones(2))
    with pytest.raises(ValueError, match="the system bound overflows"):
        apriori_bound_system(k2, big)


def test_apriori_bound_reads_the_least_constants_off_the_sources(k2):
    # on K2 with f = g = 1: |int f| = 2 and ||f||_inf = 1, the constants of c02
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    derived = apriori_bound_system(k2, s)
    assert derived == apriori_bound_system(k2, s, Lambda1=2.0, Lambda2=1.0)
    assert derived.bound == pytest.approx(3043.96, abs=0.01)
    # either constant alone is read off the sources too
    assert apriori_bound_system(k2, s, Lambda1=2.0) == derived
    assert apriori_bound_system(k2, s, Lambda2=1.0) == derived


def test_apriori_bound_grows_with_the_constants(rng):
    # the derived constants are the least admissible ones, and no admissible
    # larger constant gives a smaller ball
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=4)
        s = SystemModel(p=rng.choice([0.5, 1.5]), q=rng.choice([0.5, 1.5]),
                        f=rng.uniform(0.05, 1.0, g.ell), g=rng.uniform(0.05, 1.0, g.ell))
        least = apriori_bound_system(g, s)
        for scale1, scale2 in ((1.0, 1.0), (1.5, 1.0), (1.0, 1.5), (1.2, 1.3)):
            bigger = apriori_bound_system(g, s, least.Lambda1 * scale1, least.Lambda2 * scale2)
            assert bigger.bound >= least.bound


def test_apriori_bound_rounds_lambda1_up_to_an_admissible_value(k2):
    # |int f| = a < 1: Lambda1 = fl(1 / a) may round so that the bound's own
    # check 1 / Lambda1 <= |int f| fails (8.7 % of a in (0.01, 1)); this a does
    a = 0.026362359173243803
    assert 1.0 / (1.0 / a) > a
    s = SystemModel(p=0.5, q=0.5, f=np.full(2, a / 2.0), g=np.ones(2))
    bound = apriori_bound_system(k2, s)
    assert bound.Lambda1 == np.nextafter(1.0 / a, np.inf)
    assert apriori_bound_system(k2, s, Lambda1=bound.Lambda1) == bound
    with pytest.raises(ValueError, match="sources violate Lambda1"):
        apriori_bound_system(k2, s, Lambda1=1.0 / a)


def test_manufactured_root_is_exact(k2):
    s, u0, v0 = manufactured_system(k2)
    r1, r2 = residual_pair(k2, s, u0, v0)
    assert sup_norm(r1) <= 1e-12 and sup_norm(r2) <= 1e-12


def test_system_signs_cancel_on_weighted_graph():
    # non-uniform measure exercises the mu-weighted Hessian classification;
    # with positive source means the orientation signs must sum to zero
    from cshlab import build_graph, enumerate_report

    g = build_graph([("a", 1.0), ("b", 2.0)], [("a", "b", 0.7)])
    u0 = np.array([-1.0, -0.5])
    v0 = np.array([0.3, -0.4])
    m0 = g.neg_laplacian_matrix()
    eu, ev = np.exp(u0), np.exp(v0)
    f = -(m0 @ u0) - ev * (eu - 1.0)
    gg = -(m0 @ v0) - eu * (ev - 1.0)
    s = SystemModel(p=0.5, q=0.5, f=f, g=gg)
    from cshlab import average

    assert average(g, f) > 0.0 and average(g, gg) > 0.0
    with pytest.warns(UserWarning, match=r"a priori radius 6\.95e\+08"):
        roots = enumerate_report(g, s, box=(-9.0, 3.0), grid_n=9).roots
    assert len(roots) >= 2
    assert any(np.abs(r.point - np.concatenate([u0, v0])).max() <= 1e-9 for r in roots)
    assert sum(r.sign_det for r in roots) == 0
    assert all(r.nondegenerate for r in roots)


def test_maximum_principle_split_bounds(k2):
    # with positive source means, the gauge split of any root obeys
    # w <= -min(phi) and z <= -min(psi) pointwise
    from cshlab import average, enumerate_report, solve_poisson

    s, u0, v0 = manufactured_system(k2)
    assert average(k2, s.f) > 0.0 and average(k2, s.g) > 0.0
    phi = solve_poisson(k2, s.f - average(k2, s.f))
    psi = solve_poisson(k2, s.g - average(k2, s.g))
    with pytest.warns(UserWarning, match=r"a priori radius 3\.47e\+14"):
        roots = enumerate_report(k2, s, box=(-9.0, 3.0)).roots
    assert roots, "control system must have roots"
    for r in roots:
        u, v = r.point[:2], r.point[2:]
        assert np.all(u - phi <= -phi.min() + 1e-9)
        assert np.all(v - psi <= -psi.min() + 1e-9)
