"""Brouwer degree by enumeration, expected-degree tables and audits.

The degree of the residual map over a ball that contains every root is the
sum of orientation signs over the roots; with all roots nondegenerate that
sum equals the alternating Morse count ``sum (-1)^(morse index)``.  The
expected values are known in closed form for the scalar model (a three-case
table in the sign pattern of ``lam`` and ``mean f``) and the system with
positive source means (degree zero).  The audits replay the bookkeeping that
turns a degree mismatch into a lower bound on the number of solutions.
Degree reports and homotopy slices hold the enumeration report they rest on.

Ball membership follows the sup norm: ``||u||_inf < R`` for the scalar model
and ``||u||_inf + ||v||_inf < R`` for the system.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph, average, sup_norm
from .scalar import ScalarModel
from .solve import (
    ClassifiedSolution,
    EnumerationReport,
    SolveOptions,
    enumerate_report,
)
from .system import SystemModel

__all__ = [
    "DegreeReport",
    "MultiplicityAudit",
    "HomotopySlice",
    "HomotopyAudit",
    "expected_degree_scalar",
    "degree_by_enumeration",
    "multiplicity_audit",
    "homotopy_audit",
]

PERTURBATION_EPS = 1e-6


def expected_degree_scalar(lam: float, fbar: float) -> int | None:
    """Closed-form degree of the scalar residual map over large balls.

    Returns 1 for ``lam > 0, fbar < 0``; 0 for ``lam * fbar > 0``; -1 for
    ``lam < 0, fbar > 0``; None when ``lam * fbar = 0`` (the degree need not
    be well defined: the root family of the sigma-deformation escapes every
    ball).
    """
    if lam * fbar == 0.0:
        return None
    if lam > 0.0 and fbar < 0.0:
        return 1
    if lam < 0.0 and fbar > 0.0:
        return -1
    return 0


def _ball_norm(model, point: np.ndarray) -> float:
    if isinstance(model, SystemModel):
        half = len(point) // 2
        return float(sup_norm(point[:half]) + sup_norm(point[half:]))
    return float(sup_norm(point))


@dataclass
class DegreeReport:
    """Computed vs expected degree with the evidence behind the computation.

    ``enumeration`` is the run the signs were summed over (the perturbed
    rerun keeps its own).  When it is certified (see
    :class:`~cshlab.solve.EnumerationReport`) every root lies in a box on
    which the sign of det J is proved constant.
    """

    computed_degree: int
    expected_degree: int | None
    consistent: bool | None
    radius_used: float
    roots: list[ClassifiedSolution]
    morse_sum: int
    degenerate_roots: int
    enumeration: EnumerationReport
    perturbed: "DegreeReport | None" = None


def _report_from_enumeration(
    model, radius: float, enum: EnumerationReport, expected: int | None
) -> DegreeReport:
    roots = [r for r in enum.roots if _ball_norm(model, r.point) < radius]
    computed = int(sum(r.sign_det for r in roots))
    morse_sum = int(sum((-1) ** r.morse_index for r in roots if r.nondegenerate))
    degenerate = sum(1 for r in roots if not r.nondegenerate)
    return DegreeReport(
        computed_degree=computed,
        expected_degree=expected,
        consistent=(computed == expected) if expected is not None else None,
        radius_used=float(radius),
        roots=roots,
        morse_sum=morse_sum,
        degenerate_roots=degenerate,
        enumeration=enum,
    )


def degree_by_enumeration(
    g: WeightedGraph,
    model,
    radius: float | None = None,
    opts: SolveOptions | None = None,
) -> DegreeReport:
    """Sum of root orientation signs over the ball of the given radius.

    The ball is searched as the box ``(-radius, radius)`` by
    :func:`~cshlab.solve.enumerate_report` with its default enumerator
    (certified for a scalar model); without a radius it picks the box (the
    a priori ball, else ``ValueError``: system models need the radius from
    :func:`~cshlab.system.apriori_bound_system`).  A radius smaller than the
    a priori bound only earns its warning, since shrinking the ball is how
    one probes localization.  If degenerate roots poison the sign sum, the
    source is perturbed by a tiny mean-preserving random direction and the
    run is repeated once over the same ball; both reports are returned
    (degree is stable under small perturbations, Morse data is not).
    """
    opts = opts or SolveOptions()
    expected: int | None = None
    if isinstance(model, ScalarModel):
        expected = expected_degree_scalar(model.lam, average(g, model.f))
    elif isinstance(model, SystemModel):
        if average(g, model.f) > 0.0 and average(g, model.g) > 0.0:
            expected = 0
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    box = None if radius is None else (-radius, radius)
    enum = enumerate_report(g, model, box=box, opts=opts)
    radius = float(enum.box[1][0])
    report = _report_from_enumeration(model, radius, enum, expected)

    if report.degenerate_roots and isinstance(model, ScalarModel):
        rng = np.random.default_rng(opts.rng_seed)
        direction = rng.standard_normal(g.ell)
        direction -= average(g, direction)  # keep mean(f), hence the expected degree
        f2 = model.f + PERTURBATION_EPS * direction
        model2 = dataclasses.replace(model, f=f2)
        enum2 = enumerate_report(g, model2, box=(-radius, radius), opts=opts, check_box=False)
        report.perturbed = _report_from_enumeration(model2, radius, enum2, expected)
    return report


@dataclass
class MultiplicityAudit:
    """Replay of the argument forcing extra solutions from a degree mismatch.

    Strict local minima contribute +1 to the alternating Morse count; strict
    local maxima contribute (-1)**n.  If the strict extrema found were the
    only critical points, that count would have to equal the degree; when it
    does not, at least one further solution is forced.
    """

    ell: int
    parity: str
    expected_degree: int
    strict_min_count: int
    strict_max_count: int
    extremal_morse_sum: int
    forced: bool
    predicted_min_solutions: int
    observed_count: int
    roots: list[ClassifiedSolution]


def multiplicity_audit(
    g: WeightedGraph,
    model: ScalarModel,
    radius: float | None = None,
    opts: SolveOptions | None = None,
) -> MultiplicityAudit:
    """Audit the forced-multiplicity arithmetic for a scalar model (else ``TypeError``)."""
    if not isinstance(model, ScalarModel):
        raise TypeError(f"multiplicity audit needs a scalar model, got {type(model).__name__}")
    fbar = average(g, model.f)
    expected = expected_degree_scalar(model.lam, fbar)
    if expected is None:
        raise ValueError("multiplicity audit requires lam * mean(f) != 0")
    report = degree_by_enumeration(g, model, radius=radius, opts=opts)
    n = g.ell
    mins = [r for r in report.roots if r.nondegenerate and r.morse_index == 0]
    maxs = [r for r in report.roots if r.nondegenerate and r.morse_index == n]
    extremal_sum = len(mins) + (-1) ** n * len(maxs)
    forced = extremal_sum != expected
    predicted = len(mins) + len(maxs) + (1 if forced else 0)
    return MultiplicityAudit(
        ell=n,
        parity="even" if n % 2 == 0 else "odd",
        expected_degree=expected,
        strict_min_count=len(mins),
        strict_max_count=len(maxs),
        extremal_morse_sum=extremal_sum,
        forced=forced,
        predicted_min_solutions=predicted,
        observed_count=len(report.roots),
        roots=report.roots,
    )


@dataclass
class HomotopySlice:
    sigma: float
    degree: int
    roots: list[ClassifiedSolution]
    min_margin: float | None   # min over roots of radius - (||u|| + ||v||)
    enumeration: EnumerationReport   # the slice's run over the box (-radius, radius)


@dataclass
class HomotopyAudit:
    """Degree along the sigma-deformation of the system.

    With positive source means no root may touch the boundary of the bound
    ball for any sigma in [0, 1], the sigma = 0 slice is rootless, and the
    degree is constant along the deformation (hence zero).
    """

    radius: float
    slices: list[HomotopySlice]
    degree_constant: bool
    sigma_zero_empty: bool | None
    bound_violation: bool


def homotopy_audit(
    g: WeightedGraph,
    model: SystemModel,
    sigma_grid,
    radius: float,
    opts: SolveOptions | None = None,
) -> HomotopyAudit:
    """Enumerate each sigma slice and check the homotopy-invariance facts."""
    if average(g, model.f) <= 0.0 or average(g, model.g) <= 0.0:
        raise ValueError("homotopy audit requires mean(f) > 0 and mean(g) > 0")
    opts = opts or SolveOptions()
    slices = []
    violation = False
    for sigma in sigma_grid:
        m = dataclasses.replace(model, sigma=float(sigma))
        enum = enumerate_report(g, m, box=(-radius, radius), opts=opts)
        inside = [r for r in enum.roots if _ball_norm(m, r.point) < radius]
        if len(inside) != len(enum.roots):
            violation = True
        margin = None
        if inside:
            margin = float(min(radius - _ball_norm(m, r.point) for r in inside))
            if margin <= 0.0:
                violation = True
        slices.append(
            HomotopySlice(
                sigma=float(sigma),
                degree=int(sum(r.sign_det for r in inside)),
                roots=inside,
                min_margin=margin,
                enumeration=enum,
            )
        )
    degrees = {s.degree for s in slices}
    zero_slices = [s for s in slices if s.sigma == 0.0]
    return HomotopyAudit(
        radius=float(radius),
        slices=slices,
        degree_constant=len(degrees) <= 1,
        sigma_zero_empty=(not zero_slices[0].roots) if zero_slices else None,
        bound_violation=violation,
    )
