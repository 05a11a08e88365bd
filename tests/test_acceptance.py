"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every expected value here is either a closed-form table entry, an exact
identity, or a quantity recomputed by an independent oracle (polynomial root
isolation, finite differences, brute-force enumeration); tolerances are fixed
below and never loosened at run time.
"""

import json

import numpy as np

import cshlab
from cshlab import (
    ScalarModel,
    SystemModel,
    apriori_bound_system,
    apriori_radius,
    complete_graph,
    constant_solutions,
    cycle_graph,
    degree_by_enumeration,
    enumerate_report,
    estimate_threshold,
    expected_degree_scalar,
    homotopy_audit,
    integrate,
    laplacian,
    path_graph,
    residual,
    sigma_homotopy,
    solve_poisson,
    solve_scalar,
    spectral_gap,
    sup_norm,
)
from cshlab.checks import (
    check_elliptic_estimate,
    check_gauge_identity,
    check_scalar_consistency,
    check_system_consistency,
)
from cshlab.cli import main as cli_main

from conftest import manufactured_system

PARAM_TABLE = [(10.0, -1.0, 1), (-10.0, 1.0, -1), (-10.0, -1.0, 0), (10.0, 1.0, 0)]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_degree_table():
    mismatches = []
    for g in (complete_graph(2), path_graph(3), cycle_graph(4)):
        for lam, fbar, expected in PARAM_TABLE:
            m = ScalarModel(lam=lam, f=np.full(g.ell, fbar))
            rep = degree_by_enumeration(g, m)
            assert expected_degree_scalar(lam, fbar) == expected
            if rep.computed_degree != expected:
                mismatches.append((g.ell, lam, fbar, rep.computed_degree, expected))
    _report(1, "degree table on K2/P3/C4", not mismatches, f"mismatches={mismatches}")


def test_c02_system_degree_zero():
    g = complete_graph(2)
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    bound = apriori_bound_system(g, s, Lambda1=2.0, Lambda2=1.0)
    rep = degree_by_enumeration(g, s, radius=bound.bound)
    import dataclasses

    s0 = dataclasses.replace(s, sigma=0.0)
    roots0 = enumerate_report(g, s0, box=(-bound.bound, bound.bound)).roots
    ok = rep.computed_degree == 0 and len(roots0) == 0
    _report(2, "system degree zero", ok,
            f"degree={rep.computed_degree}, sigma0_roots={len(roots0)}")


def test_c03_homotopy_invariance():
    g = complete_graph(2)
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    bound = apriori_bound_system(g, s, Lambda1=2.0, Lambda2=1.0)
    audit = homotopy_audit(g, s, [0.0, 0.25, 0.5, 0.75, 1.0], bound.bound)
    margins_ok = all(sl.min_margin is None or sl.min_margin > 0.0 for sl in audit.slices)
    ok = audit.degree_constant and not audit.bound_violation and margins_ok
    _report(3, "homotopy invariance across sigma grid", ok,
            f"degrees={[sl.degree for sl in audit.slices]}")


def test_c04_multiplicity_three_even():
    g = complete_graph(2)
    f = np.full(2, -1.0)
    hit = None
    lam = -10.0
    while lam >= -200.0:
        m = ScalarModel(lam=lam, f=f)
        roots = enumerate_report(g, m).roots
        seps = all(
            np.abs(a.point - b.point).max() > 1e-6
            for i, a in enumerate(roots) for b in roots[i + 1:]
        )
        has_max = any(r.nondegenerate and r.morse_index == 2 for r in roots)
        has_min = any(r.nondegenerate and r.morse_index == 0 for r in roots)
        if len(roots) >= 3 and seps and has_max and has_min:
            hit = (lam, len(roots))
            break
        lam *= 2.0
    _report(4, "three solutions for strongly negative coupling", hit is not None,
            f"lam={hit[0] if hit else None}, roots={hit[1] if hit else 0}")


def test_c05_multiplicity_two_even():
    g = complete_graph(2)
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    roots = enumerate_report(g, m).roots
    sign_sum = sum(r.sign_det for r in roots)
    ok = len(roots) >= 2 and sign_sum == -1
    _report(5, "two solutions, sign sum -1", ok, f"roots={len(roots)}, sum={sign_sum}")


def test_c06_constant_root_oracle():
    g = complete_graph(2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for _ in range(50):
        lam = float(rng.uniform(0.5, 20.0) * rng.choice([-1.0, 1.0]))
        c = float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))
        p = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.1, 1.0))
        m = ScalarModel(lam=lam, f=np.full(2, c), p=p, sigma=sigma)
        for u in constant_solutions(m):
            sol = solve_scalar(g, m, u + 1e-7)
            err = float(np.abs(sol.point - u).max())
            worst = max(worst, err)
            checked += 1
    ok = checked > 0 and worst <= 1e-10
    _report(6, "Newton reproduces constant-solution oracle", ok,
            f"{checked} roots, worst error {worst:.2e}")


def test_c07_elliptic_estimate():
    violations = check_elliptic_estimate(seed=0, n_graphs=20, n_funcs=1000)
    g = complete_graph(2)
    u = np.array([0.0, 1.0])
    c = spectral_gap(g).elliptic_constant
    osc = float(u.max() - u.min())
    bound = c * sup_norm(laplacian(g, u))
    tight = abs(osc - bound) <= 1e-9 and osc <= bound * (1.0 + 1e-9)
    _report(7, "elliptic sup-norm estimate", not violations and tight,
            f"violations={len(violations)}, K2 tightness gap={abs(osc - bound):.1e}")


def test_c08_gradient_hessian_checks():
    bad_scalar = check_scalar_consistency(seed=5, trials=100)
    bad_system = check_system_consistency(seed=5, trials=100)
    _report(8, "finite-difference gradient/Jacobian checks",
            not bad_scalar and not bad_system,
            f"scalar={len(bad_scalar)}, system={len(bad_system)}")


def test_c09_gauge_identity():
    violations = check_gauge_identity(seed=9, trials=100)
    _report(9, "gauge energy identity", not violations, f"violations={len(violations)}")


def test_c10_sigma_blowup():
    g = complete_graph(2)
    m = ScalarModel(lam=1.0, f=np.zeros(2))
    path = [10.0 ** (-k) for k in range(0, 7)]
    records = sigma_homotopy(g, m, path, box=(-4.0, 3.0))
    ok = True
    detail = []
    for k, rec in zip(range(0, 7), records):
        target = np.log(rec.parameter)
        err = min((np.abs(r.point - target).max() for r in rec.roots), default=np.inf)
        norm_ok = any(
            abs(sup_norm(r.point) - k * np.log(10.0)) <= 1e-8 for r in rec.roots
        )
        ok = ok and err <= 1e-8 and norm_ok
        detail.append(f"{err:.1e}")
    _report(10, "deformation root tracks ln(sigma)", ok, "errs=" + ",".join(detail))


def test_c11_solution_identity():
    cases = [
        (complete_graph(2), ScalarModel(lam=10.0, f=np.full(2, -1.0))),
        (complete_graph(2), ScalarModel(lam=-10.0, f=np.full(2, 1.0))),
        (complete_graph(2), ScalarModel(lam=-10.0, f=np.full(2, -1.0))),
        (complete_graph(2), ScalarModel(lam=10.0, f=np.full(2, 1.0))),
        (complete_graph(2), ScalarModel(lam=-12.0, f=np.full(2, -0.8), p=2)),
        (path_graph(3), ScalarModel(lam=-10.0, f=np.ones(3))),
    ]
    worst = 0.0
    count = 0
    for g, m in cases:
        for r in enumerate_report(g, m, box=(-9.0, 3.0), check_box=False).roots:
            e = np.exp(r.point)
            lhs = integrate(g, e * (e - 1.0) ** (2 * m.p - 1))
            rhs = -integrate(g, m.f) / m.lam
            rel = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst = max(worst, rel)
            count += 1
    ok = count > 0 and worst <= 1e-8
    _report(11, "integral identity at every accepted root", ok,
            f"{count} roots, worst rel {worst:.2e}")


def test_c12_lambda_zero_cases(tmp_path, capsys):
    g = complete_graph(2)
    graph_path = tmp_path / "k2.json"
    cshlab.save_graph(g, graph_path)

    cfg1 = tmp_path / "c1.json"
    cfg1.write_text(json.dumps({
        "model": "scalar", "parameters": {"lambda": 0.0},
        "source": {"f": {"constant": 1.0}},
    }))
    code = cli_main(["solve", "--graph", str(graph_path), "--config", str(cfg1)])
    out1 = json.loads(capsys.readouterr().out.strip())
    insolvable_ok = code == 0 and out1["status"] == "insolvable"

    f = np.array([1.0, -1.0])
    m = ScalarModel(lam=0.0, f=f)
    phi = solve_poisson(g, f)
    family_ok = all(
        sup_norm(residual(g, m, phi + c)) <= 1e-10 for c in (-5.0, 0.0, 5.0)
    )
    _report(12, "zero-coupling cases", insolvable_ok and family_ok,
            f"insolvable={insolvable_ok}, family={family_ok}")


def test_c13_threshold_bounds():
    g = complete_graph(2)
    est_pos = estimate_threshold(g, np.ones(2), "strict_min_pos",
                                 bracket=(3.0, 5.0), tol=1e-4)
    est_neg = estimate_threshold(g, np.full(2, -1.0), "strict_min_neg",
                                 bracket=(-5.0, -3.0), tol=1e-4)
    est_max = estimate_threshold(g, np.full(2, -1.0), "strict_max_neg",
                                 bracket=(-6.0, -4.5), tol=1e-4)
    pos_ok = est_pos.consistent and est_pos.hi >= 4.0 - 1e-4
    neg_ok = (est_neg.consistent and est_neg.lo <= -4.0 <= est_neg.hi
              and est_neg.hi - est_neg.lo <= 1e-3)
    order_ok = est_max.hi <= est_neg.hi + 1e-3
    _report(13, "threshold bracketing facts", pos_ok and neg_ok and order_ok,
            f"pos=[{est_pos.lo:.5f},{est_pos.hi:.5f}], "
            f"neg=[{est_neg.lo:.5f},{est_neg.hi:.5f}], "
            f"max=[{est_max.lo:.5f},{est_max.hi:.5f}]")


def test_c14_apriori_containment():
    rng = np.random.default_rng(14)
    violations = []
    scalar_cases = [(g, lam, fbar) for g in (complete_graph(2), path_graph(3), cycle_graph(4))
                    for lam, fbar, _ in PARAM_TABLE]
    for _ in range(8):
        lam = float(rng.uniform(2.0, 20.0) * rng.choice([-1.0, 1.0]))
        fbar = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
        scalar_cases.append((complete_graph(2), lam, fbar))
    total = 0
    for g, lam, fbar in scalar_cases:
        f = np.full(g.ell, fbar)
        m = ScalarModel(lam=lam, f=f)
        radius = apriori_radius(g, m).radius
        for r in enumerate_report(g, m, box=(-radius, radius)).roots:
            total += 1
            if sup_norm(r.point) >= radius:
                violations.append(("scalar", g.ell, lam, fbar))

    g = complete_graph(2)
    s, _, _ = manufactured_system(g)
    bound = apriori_bound_system(g, s, Lambda1=15.0, Lambda2=1.5)
    import dataclasses

    for sigma in (0.0, 0.5, 1.0):
        s_sig = dataclasses.replace(s, sigma=sigma)
        for r in enumerate_report(g, s_sig, box=(-9.0, 3.0)).roots:
            total += 1
            if sup_norm(r.point[:2]) + sup_norm(r.point[2:]) >= bound.bound:
                violations.append(("system", sigma))
    _report(14, "a priori containment of every root", not violations,
            f"{total} roots checked, violations={violations}")
