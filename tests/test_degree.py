import re

import numpy as np
import pytest

import cshlab.solve as solve_mod
from cshlab import (
    ScalarModel,
    SystemModel,
    apriori_bound_system,
    build_graph,
    cycle_graph,
    degree_by_enumeration,
    dirac_source,
    enumerate_report,
    expected_degree_scalar,
    homotopy_audit,
    multiplicity_audit,
)
from conftest import manufactured_system

SIGN_TABLE = [(10.0, -1.0, 1), (-10.0, 1.0, -1), (-10.0, -1.0, 0), (10.0, 1.0, 0)]
# the manufactured system's a priori ball (its constants read off its sources)
MANUFACTURED_BALL = r"a priori radius 3\.47e\+14"


@pytest.mark.parametrize(
    "lam, fbar, expected",
    [
        (5.0, -1.0, 1),
        (-10.0, 1.0, -1),
        (-10.0, -1.0, 0),
        (10.0, 1.0, 0),
        (0.0, 1.0, None),
        (3.0, 0.0, None),
    ],
)
def test_expected_degree_table(lam, fbar, expected):
    assert expected_degree_scalar(lam, fbar) == expected


def test_expected_degree_locally_constant(rng):
    for _ in range(200):
        lam = float(rng.uniform(0.1, 20.0) * rng.choice([-1, 1]))
        fbar = float(rng.uniform(0.1, 5.0) * rng.choice([-1, 1]))
        base = expected_degree_scalar(lam, fbar)
        wig = 1.0 + 1e-6 * rng.uniform(-1, 1)
        assert expected_degree_scalar(lam * wig, fbar / wig) == base


def test_degree_k2_decomposition(k2):
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    rep = degree_by_enumeration(k2, m)
    assert rep.computed_degree == -1
    assert rep.expected_degree == -1
    assert rep.consistent is True
    assert rep.degenerate_roots == 0
    assert rep.morse_sum == rep.computed_degree
    # one constant root contributing +1, nonconstant roots summing to -2
    consts = [r for r in rep.roots if np.ptp(r.point) < 1e-9]
    assert len(consts) == 1 and consts[0].sign_det == 1
    others = [r for r in rep.roots if np.ptp(r.point) >= 1e-9]
    assert sum(r.sign_det for r in others) == -2


def test_degree_radius_enlargement_invariance(k2):
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    r1 = degree_by_enumeration(k2, m)
    r2 = degree_by_enumeration(k2, m, radius=2.0 * r1.radius_used)
    assert r1.computed_degree == r2.computed_degree
    assert len(r1.roots) == len(r2.roots)


def test_degree_small_radius_warns(k2):
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    with pytest.warns(UserWarning, match="a priori") as caught:
        rep = degree_by_enumeration(k2, m, radius=5.0)
    assert len(caught) == 1 and rep.perturbed is None


def test_degree_small_radius_warns_once_with_perturbed_rerun(k2):
    # lam = -4, f = -1 has a degenerate root, so the perturbed rerun runs too
    m = ScalarModel(lam=-4.0, f=np.full(2, -1.0))
    with pytest.warns(UserWarning, match="a priori") as caught:
        rep = degree_by_enumeration(k2, m, radius=8.0)
    assert len(caught) == 1 and rep.perturbed is not None


def test_degree_table_on_weighted_graph():
    # non-uniform measure and weights exercise the mu-weighted classification
    g = build_graph([("a", 1.0), ("b", 2.0), ("c", 0.5)],
                    [("a", "b", 1.0), ("b", "c", 0.4)])
    for lam, fbar, expected in SIGN_TABLE:
        rep = degree_by_enumeration(g, ScalarModel(lam=lam, f=np.full(3, fbar)))
        assert rep.computed_degree == expected, (lam, fbar)
        assert rep.enumeration.stable


def test_degree_with_dirac_source(k2):
    # point-mass source 4*pi*delta at one vertex: mean 2*pi > 0, lam < 0
    f = dirac_source(k2, ["x1"], 4.0 * np.pi)
    rep = degree_by_enumeration(k2, ScalarModel(lam=-10.0, f=f))
    assert rep.expected_degree == -1
    assert rep.computed_degree == -1
    assert len(rep.roots) >= 2


def test_degree_dirac_rich_root_set():
    # two point masses on the cycle at strong positive coupling: dozens of
    # roots whose orientation signs must cancel exactly
    g = cycle_graph(4)
    f = dirac_source(g, ["x1", "x3"], 4.0 * np.pi)
    rep = degree_by_enumeration(g, ScalarModel(lam=100.0, f=f))
    assert rep.expected_degree == 0
    assert rep.computed_degree == 0
    assert len(rep.roots) >= 10
    assert any(r.nondegenerate and r.morse_index == 0 for r in rep.roots)
    assert rep.morse_sum == 0


def test_degree_table_generalized_power(k2):
    # the p = 2 model shows the same sign-pattern table (empirical check)
    for lam, fbar, expected in SIGN_TABLE:
        m = ScalarModel(lam=lam, f=np.full(2, fbar), p=2)
        rep = degree_by_enumeration(k2, m, radius=40.0)
        assert rep.computed_degree == expected, (lam, fbar)


def test_degree_degenerate_root_triggers_perturbed_rerun(k2):
    # at lam = 4*mean(f) the two constant roots merge into a degenerate one;
    # the sign sum is then unreliable, so a perturbed rerun is attached; the
    # perturbation preserves mean(f), hence the expected degree, and the
    # computed degree is stable across both runs
    m = ScalarModel(lam=-4.0, f=np.full(2, -1.0))
    rep = degree_by_enumeration(k2, m)
    assert rep.degenerate_roots >= 1
    assert rep.perturbed is not None
    assert rep.perturbed.expected_degree == rep.expected_degree == 0
    assert rep.perturbed.computed_degree == rep.computed_degree == 0


def test_multiplicity_audit_forced_even(k2):
    # expected degree -1, lone strict max would give +1: mismatch forces more
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    audit = multiplicity_audit(k2, m)
    assert audit.parity == "even"
    assert audit.expected_degree == -1
    assert audit.strict_max_count == 1
    assert audit.extremal_morse_sum == 1
    assert audit.forced
    assert audit.predicted_min_solutions >= 2
    assert audit.observed_count >= audit.predicted_min_solutions


def test_multiplicity_audit_forced_three(k2):
    # expected 0, strict max + strict min sum to 2: at least three solutions
    m = ScalarModel(lam=-10.0, f=np.full(2, -1.0))
    audit = multiplicity_audit(k2, m)
    assert audit.expected_degree == 0
    assert audit.strict_min_count >= 1 and audit.strict_max_count >= 1
    assert audit.extremal_morse_sum == 2
    assert audit.forced
    assert audit.predicted_min_solutions >= 3
    assert audit.observed_count >= 3


def test_multiplicity_audit_odd_not_forced(p3):
    # on an odd graph the strict max contributes -1 and matches the degree
    m = ScalarModel(lam=-10.0, f=np.ones(3))
    audit = multiplicity_audit(p3, m)
    assert audit.parity == "odd"
    assert audit.expected_degree == -1
    assert audit.strict_max_count == 1
    assert audit.strict_min_count == 0
    assert audit.extremal_morse_sum == -1
    assert not audit.forced


def test_multiplicity_audit_requires_defined_degree(k2):
    with pytest.raises(ValueError):
        multiplicity_audit(k2, ScalarModel(lam=0.0, f=np.ones(2)))


def test_multiplicity_audit_rejects_a_system_model(k2):
    # the audit is defined for the scalar model only, like the expected degree
    s, _, _ = manufactured_system(k2)
    with pytest.raises(TypeError, match="scalar model, got SystemModel"):
        multiplicity_audit(k2, s)


def test_reports_hold_their_enumeration(k2, monkeypatch):
    m = ScalarModel(lam=-4.0, f=np.full(2, -1.0))  # degenerate root: a perturbed rerun
    rep = degree_by_enumeration(k2, m)
    assert rep.enumeration.box[1].tolist() == [rep.radius_used] * 2
    assert {r.point.tobytes() for r in rep.roots} <= {
        r.point.tobytes() for r in rep.enumeration.roots}
    assert rep.perturbed.enumeration is not rep.enumeration
    assert not rep.enumeration.certified and rep.enumeration.unresolved > 0
    s, _, _ = manufactured_system(k2)
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)
    with pytest.warns(UserWarning, match=MANUFACTURED_BALL):
        audit = homotopy_audit(k2, s, [0.0, 1.0], radius=12.0)
    for sl in audit.slices:
        assert sl.enumeration.box[1][0] == 12.0
        assert len(sl.roots) <= len(sl.enumeration.roots)
    # both source means are positive: sigma = 0 is proved rootless in one box
    proved, searched = (sl.enumeration for sl in audit.slices)
    assert proved.certified and proved.boxes == 1 and proved.grid_levels == []
    assert searched.grid_levels == [7] and not searched.certified


def test_manufactured_system_degree_cancels(k2):
    s, u0, v0 = manufactured_system(k2)
    with pytest.warns(UserWarning, match=MANUFACTURED_BALL):
        rep = degree_by_enumeration(k2, s, radius=12.0)
    assert rep.expected_degree == 0
    assert rep.computed_degree == 0
    assert len(rep.roots) >= 2
    assert any(np.abs(r.point - np.concatenate([u0, v0])).max() < 1e-8 for r in rep.roots)


def test_homotopy_audit_flags_small_ball(k2, monkeypatch):
    # shrinking the ball below the root norms must raise the violation flag
    s, u0, v0 = manufactured_system(k2)
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)
    with pytest.warns(UserWarning, match=MANUFACTURED_BALL):
        audit = homotopy_audit(k2, s, [1.0], radius=1.05)
    assert audit.bound_violation


def test_homotopy_audit_requires_positive_means(k2):
    import dataclasses

    s, _, _ = manufactured_system(k2)
    neg = dataclasses.replace(s, f=-s.f)
    with pytest.raises(ValueError, match="mean"):
        homotopy_audit(k2, neg, [1.0], radius=1.0)


def test_homotopy_audit_rejects_an_empty_sigma_grid(k2):
    # zero slices would claim a constant degree
    s, _, _ = manufactured_system(k2)
    with pytest.raises(ValueError, match="at least one sigma"):
        homotopy_audit(k2, s, [], radius=12.0)


def test_small_system_box_warns_once(k2, monkeypatch):
    # the system's ball holds for every sigma: an enumeration, a degree and a
    # whole audit over a smaller box each warn once
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)  # one grid level is enough here
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    radius = apriori_bound_system(k2, s).bound
    # a box given per coordinate has the system's length 2 ell
    box = (np.full(4, -12.0), np.full(4, 12.0))
    for call in (lambda: enumerate_report(k2, s, box=box),
                 lambda: degree_by_enumeration(k2, s, radius=12.0),
                 lambda: homotopy_audit(k2, s, [0.0, 0.5, 1.0], radius=12.0)):
        with pytest.warns(UserWarning, match=re.escape(f"a priori radius {radius:.3g};")) as caught:
            call()
        assert len(caught) == 1
    # the whole ball warns not at all (tier-1 turns a warning into an error)
    assert homotopy_audit(k2, s, [0.0], radius=radius).sigma_zero_empty
