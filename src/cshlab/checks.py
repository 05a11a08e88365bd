"""Randomized invariant suites for the calculus, the models and the solver.

Each ``check_*`` function draws its own inputs from a seeded generator and
returns a list of violation messages (empty means the invariant held on the
whole corpus).  The suites run from the command line through ``cshlab check``
and double as the property tests of the package.
"""

from __future__ import annotations

import numpy as np

from .graphs import (
    WeightedGraph,
    average,
    complete_graph,
    cycle_graph,
    dirichlet_energy_constant,
    grad_form,
    grad_norm_sq,
    integrate,
    laplacian,
    path_graph,
    random_connected_graph,
    spectral_gap,
    sup_norm,
)
from .scalar import (
    ScalarModel,
    energy,
    gauge_transform,
    gauged_energy,
    jacobian,
    residual,
)
from .solve import SolveOptions, enumerate_report, subsolution_bounds
from .system import SystemModel, functional_G, hessian_system, jacobian_system, residual_pair

__all__ = [
    "check_graph_calculus",
    "check_elliptic_estimate",
    "check_scalar_consistency",
    "check_gauge_identity",
    "check_solution_identity",
    "check_system_consistency",
    "check_solver",
    "run_all",
]


def _complex_step(fn, x: np.ndarray, d: np.ndarray):
    """Derivative of ``fn`` at ``x`` along ``d`` (or each row of it), ``Im fn(x + i h d) / h``
    with h = 1e-30: the complex step subtracts nothing, so it holds to rounding level."""
    h = 1e-30
    return np.imag(fn(x + 1j * h * d)) / h


def _mismatch(exact, approx) -> np.ndarray:
    """Where ``approx`` misses ``exact`` by more than 1e-12 * max(1, |exact|)."""
    return np.abs(approx - exact) > 1e-12 * np.maximum(1.0, np.abs(exact))


def _mu_symmetric(mu: np.ndarray, M: np.ndarray) -> bool:
    """``mu[:, None] * M`` is symmetric within 1e-9 of its largest entry."""
    w = mu[:, None] * M
    return np.abs(w - w.T).max() <= 1e-9 * (1.0 + np.abs(w).max())


def check_graph_calculus(seed: int = 0, n_graphs: int = 20, n_funcs: int = 50) -> list[str]:
    """Divergence theorem, integration by parts, gradient-form algebra,
    Dirichlet energy bound and maximum-principle witnesses on random graphs."""
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    for gi in range(n_graphs):
        g = random_connected_graph(rng)
        cd = dirichlet_energy_constant(g)
        for fi in range(n_funcs):
            u = rng.uniform(-5.0, 5.0, g.ell)
            v = rng.uniform(-5.0, 5.0, g.ell)
            lap = laplacian(g, u)
            scale = 1.0 + abs(integrate(g, np.abs(lap)))
            if abs(integrate(g, lap)) > 1e-12 * scale:
                bad.append(f"graph {gi}, fn {fi}: divergence theorem violated")
            lhs = integrate(g, grad_norm_sq(g, u))
            rhs = -integrate(g, u * lap)
            if abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs)):
                bad.append(f"graph {gi}, fn {fi}: integration by parts violated")
            if lhs > cd * sup_norm(u) ** 2 * (1.0 + 1e-9):
                bad.append(f"graph {gi}, fn {fi}: Dirichlet energy bound violated")
            gamma_uv = grad_form(g, u, v)
            if np.abs(gamma_uv - grad_form(g, v, u)).max() > 1e-12 * (1 + np.abs(gamma_uv).max()):
                bad.append(f"graph {gi}, fn {fi}: gradient form not symmetric")
            if np.any(grad_norm_sq(g, u) < 0.0):
                bad.append(f"graph {gi}, fn {fi}: negative squared gradient")
            a, b = rng.uniform(-2, 2, 2)
            lin = grad_form(g, a * u + b * v, v) - (a * grad_form(g, u, v) + b * grad_form(g, v, v))
            if np.abs(lin).max() > 1e-10 * (1.0 + np.abs(gamma_uv).max()):
                bad.append(f"graph {gi}, fn {fi}: gradient form not bilinear")
            if np.ptp(u) > 0.0:
                i_max = int(np.argmax(u))
                i_min = int(np.argmin(u))
                tol = 1e-12 * (1.0 + np.abs(lap).max())
                if -lap[i_max] < -tol:
                    bad.append(f"graph {gi}, fn {fi}: max-principle witness failed at argmax")
                if -lap[i_min] > tol:
                    bad.append(f"graph {gi}, fn {fi}: max-principle witness failed at argmin")
    return bad


def check_elliptic_estimate(seed: int = 0, n_graphs: int = 20, n_funcs: int = 1000) -> list[str]:
    """``max u - min u <= C ||L u||_inf`` with the spectral constant C."""
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    for gi in range(n_graphs):
        g = random_connected_graph(rng, max_vertices=8)
        c = spectral_gap(g).elliptic_constant
        u = rng.uniform(-10.0, 10.0, size=(n_funcs, g.ell))
        osc = u.max(axis=1) - u.min(axis=1)
        lap_norm = np.abs(laplacian(g, u)).max(axis=1)
        viol = osc > c * lap_norm * (1.0 + 1e-9) + 1e-12
        for fi in np.nonzero(viol)[0]:
            bad.append(
                f"graph {gi}, fn {fi}: oscillation {osc[fi]:.6g} exceeds "
                f"C*||lap u|| = {c * lap_norm[fi]:.6g}"
            )
    return bad


def _rand_scalar_model(rng: np.random.Generator, g: WeightedGraph) -> ScalarModel:
    lam = float(rng.uniform(0.5, 10.0) * rng.choice([-1.0, 1.0]))
    p = int(rng.integers(1, 4))
    sigma = float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.5 else 1.0
    f = rng.uniform(-2.0, 2.0, g.ell)
    return ScalarModel(lam=lam, f=f, p=p, sigma=sigma)


def check_scalar_consistency(seed: int = 0, trials: int = 100) -> list[str]:
    """Residual = energy gradient and Jacobian = residual derivative, both by the
    complex step to 1e-12 relative; mu-weighted symmetry of J."""
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    for k in range(trials):
        g = random_connected_graph(rng, max_vertices=5)
        m = _rand_scalar_model(rng, g)
        u = rng.uniform(-2.0, 2.0, g.ell)
        res = residual(g, m, u)
        # row i of eye / mu is the delta at vertex i, 1 / mu(i) there
        grad = _complex_step(lambda x: energy(g, m, x), u, np.eye(g.ell) / g.mu)
        for i in np.flatnonzero(_mismatch(res, grad)):
            bad.append(f"trial {k}: energy gradient mismatch at vertex {i}")
        J = jacobian(g, m, u)
        # the derivative along e_i is row i of the stack and column i of J
        if _mismatch(J, _complex_step(lambda x: residual(g, m, x), u, np.eye(g.ell)).T).any():
            bad.append(f"trial {k}: Jacobian does not match the complex step")
        if not _mu_symmetric(g.mu, J):
            bad.append(f"trial {k}: Jacobian not mu-symmetric")
    return bad


def check_gauge_identity(seed: int = 0, trials: int = 100) -> list[str]:
    """Exact relation between the plain and gauged energies of random data."""
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    for k in range(trials):
        g = random_connected_graph(rng, max_vertices=4)
        lam = float(rng.uniform(0.5, 10.0) * rng.choice([-1.0, 1.0]))
        f = rng.uniform(-2.0, 2.0, g.ell)
        m = ScalarModel(lam=lam, f=f)
        gauge = gauge_transform(g, m)
        v = rng.uniform(-2.0, 2.0, g.ell)
        lhs = energy(g, m, v + gauge.phi)
        rhs = gauged_energy(g, m, gauge, v) - 0.5 * integrate(g, grad_norm_sq(g, gauge.phi))
        if abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs)):
            bad.append(f"trial {k}: gauge identity off by {abs(lhs - rhs):.3e}")
    return bad


def check_solution_identity(seed: int = 0, cases: int = 6) -> list[str]:
    """Every accepted root balances the nonlinear integral against the source:
    ``int e^u (e^u - 1)^(2p-1) dmu = -(1/lam) int f dmu``."""
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    opts = SolveOptions()
    g = complete_graph(2)
    for k in range(cases):
        lam = float(rng.uniform(1.0, 30.0) * rng.choice([-1.0, 1.0]))
        p = int(rng.integers(1, 3))
        c = float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
        m = ScalarModel(lam=lam, f=np.full(g.ell, c), p=p)
        roots = enumerate_report(g, m, (-9.0, 3.0), opts=opts, check_box=False).roots
        for r in roots:
            e = np.exp(r.point)
            lhs = integrate(g, e * (e - 1.0) ** (2 * p - 1))
            rhs = -integrate(g, m.f) / lam
            if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
                bad.append(f"case {k}: integral identity off by {abs(lhs - rhs):.3e}")
    # the deformation family has the exact constant root ln(sigma) when f = 0
    for sigma in (1.0, 0.5, 0.01):
        for p in (1, 2):
            m = ScalarModel(lam=3.0, f=np.zeros(g.ell), p=p, sigma=sigma)
            r = residual(g, m, np.full(g.ell, np.log(sigma)))
            if sup_norm(r) > 1e-12:
                bad.append(f"sigma={sigma}, p={p}: ln(sigma) is not an exact root")
    return bad


def _rand_system_model(rng: np.random.Generator, g: WeightedGraph) -> SystemModel:
    p = rng.choice([0.5, 1.5, 2.5])
    q = rng.choice([0.5, 1.5])
    f = rng.uniform(-2.0, 2.0, g.ell)
    fg = rng.uniform(-2.0, 2.0, g.ell)
    return SystemModel(p=float(p), q=float(q), f=f, g=fg)


def check_system_consistency(seed: int = 0, trials: int = 60) -> list[str]:
    """Pairing of the functional derivative with the swapped residuals and the
    Jacobian, both against the complex step to 1e-12 relative; the Jacobian's
    block structure."""
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    for k in range(trials):
        g = random_connected_graph(rng, max_vertices=4)
        ell = g.ell
        s = _rand_system_model(rng, g)
        u = rng.uniform(-1.5, 1.5, ell)
        v = rng.uniform(-1.5, 1.5, ell)
        phi = rng.uniform(-1.0, 1.0, ell)
        psi = rng.uniform(-1.0, 1.0, ell)
        x = np.concatenate([u, v])
        r1, r2 = residual_pair(g, s, u, v)
        pairing = integrate(g, r2 * phi + r1 * psi)
        if _mismatch(pairing, _complex_step(lambda y: functional_G(g, s, y[:ell], y[ell:]), x,
                                            np.concatenate([phi, psi]))):
            bad.append(f"trial {k}: functional derivative pairing mismatch")

        J = jacobian_system(g, s, u, v)
        cs = _complex_step(
            lambda y: np.concatenate(residual_pair(g, s, y[:, :ell], y[:, ell:]), axis=1),
            x, np.eye(2 * ell)).T
        if _mismatch(J, cs).any():
            bad.append(f"trial {k}: system Jacobian does not match the complex step")

        for blk in (J[:ell, ell:], J[ell:, :ell]):
            if np.abs(blk - np.diag(np.diag(blk))).max() > 0.0:
                bad.append(f"trial {k}: cross block is not diagonal")
        for blk in (J[:ell, :ell], J[ell:, ell:]):
            if not _mu_symmetric(g.mu, blk):
                bad.append(f"trial {k}: diagonal block not mu-symmetric")
        if not _mu_symmetric(np.concatenate([g.mu, g.mu]), hessian_system(g, s, u, v)):
            bad.append(f"trial {k}: functional Hessian not mu-symmetric")
    return bad


def check_solver(seed: int = 0) -> list[str]:
    """Classified-solution re-verification, box independence (K2, lam = -10,
    f = 1: the roots found in (-9, 3) are the a priori ball's roots in it) and
    the bracketing route: for lam in {1, 4} and a random mean-zero f on K2, P3,
    C4, C6 and K5, certified enumeration of the sub/super-solution bracket
    finds exactly one root, strictly inside it, of Morse index 0 (the float
    index of ``morse_data``)."""
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    opts = SolveOptions()
    g = complete_graph(2)
    m = ScalarModel(lam=-10.0, f=np.ones(g.ell))
    inner = enumerate_report(g, m, (-9.0, 3.0), opts=opts, check_box=False).roots
    ball = [r for r in enumerate_report(g, m, opts=opts).roots
            if np.all((r.point > -9.0) & (r.point < 3.0))]
    for r in inner:
        if r.residual_norm > opts.tol_residual:
            bad.append("enumerated root exceeds residual tolerance")
        if r.nondegenerate and r.sign_det != (-1) ** r.morse_index:
            bad.append("sign_det inconsistent with Morse index")
    for found, other, what in ((inner, ball, "the a priori ball"), (ball, inner, "the box")):
        for r in found:
            if not any(np.abs(r.point - s.point).max() <= opts.dedup_tol for s in other):
                bad.append(f"a root in (-9, 3) is missing from the run over {what}")

    for name, gg in (("K2", g), ("P3", path_graph(3)), ("C4", cycle_graph(4)),
                     ("C6", cycle_graph(6)), ("K5", complete_graph(5))):
        for lam in (1.0, 4.0):
            f = rng.uniform(-1.0, 1.0, gg.ell)
            f -= average(gg, f)
            bounds = subsolution_bounds(gg, f, lam)
            if bounds is None:
                bad.append("subsolution bracket unavailable for mean-zero source")
                continue
            # the float mean of f may be nonzero at rounding level, which makes
            # the a priori radius meaningless here: skip the box check
            rep = enumerate_report(gg, ScalarModel(lam=lam, f=f),
                                   box=(bounds.lower, bounds.upper), opts=opts, check_box=False)
            where = f"{name} at lam={lam}"
            if not rep.certified:
                bad.append(f"bracket enumeration is not certified on {where}")
            if len(rep.roots) != 1:
                bad.append(f"bracket holds {len(rep.roots)} roots, not one, on {where}")
            for r in rep.roots:
                if r.morse_index != 0:
                    bad.append(f"bracketed root has Morse index {r.morse_index} on {where}")
                if not (np.all(r.point > bounds.lower) and np.all(r.point < bounds.upper)):
                    bad.append(f"bracketed root is not interior on {where}")
    return bad


def run_all(seed: int = 0) -> dict[str, list[str]]:
    """Run every suite in order; the one registry behind ``cshlab check``."""
    return {
        "graph_calculus": check_graph_calculus(seed),
        "elliptic_estimate": check_elliptic_estimate(seed, n_funcs=200),
        "scalar_consistency": check_scalar_consistency(seed),
        "gauge_identity": check_gauge_identity(seed),
        "solution_identity": check_solution_identity(seed),
        "system_consistency": check_system_consistency(seed),
        "solver": check_solver(seed),
    }
