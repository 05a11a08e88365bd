"""Parameter sweeps in the coupling and the deformation parameter.

``sweep_lambda`` tracks the classified root set along a grid of couplings
with warm-started enumeration and records branch events (a Morse type
appearing or vanishing between steps, refined once by a midpoint sample).
``estimate_threshold`` brackets and bisects the empirical critical couplings
at which a strict-minimum or strict-maximum certificate appears, and checks
the bracketing inequalities that the thresholds must satisfy against the sign
of the source mean.  ``sigma_homotopy`` follows roots down a deformation
path, reporting sup-norm growth and branch loss.

Empirical thresholds are exactly that: certificate changes observed by the
solver; no tightness is claimed beyond the reported interval.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .graphs import WeightedGraph, average, sup_norm
from .scalar import ScalarModel, apriori_radius
from .solve import (
    ClassifiedSolution,
    SolveOptions,
    _dedup_points,
    _sort_roots,
    enumerate_solutions,
    solve_scalar,
    solve_system,
)
from .system import SystemModel

__all__ = [
    "BranchRecord",
    "ThresholdEstimate",
    "sweep_lambda",
    "estimate_threshold",
    "sigma_homotopy",
    "THRESHOLD_KINDS",
]

# Certificates defining the three empirical thresholds: the coupling
# boundaries for existence of a strict local minimum at positive coupling,
# a strict local minimum at negative coupling, and a strict local maximum
# at negative coupling.
THRESHOLD_KINDS = ("strict_min_pos", "strict_min_neg", "strict_max_neg")


@dataclass
class BranchRecord:
    parameter: float
    roots: list[ClassifiedSolution]
    counts: dict[str, int]
    events: list[str]


def _morse_label(root: ClassifiedSolution, n: int) -> str:
    if not root.nondegenerate:
        return "degenerate"
    if root.morse_index == 0:
        return "strict_min"
    if root.morse_index == n:
        return "strict_max"
    return "saddle"


def _count_types(roots: list[ClassifiedSolution], n: int) -> dict[str, int]:
    counts = {"strict_min": 0, "strict_max": 0, "saddle": 0, "degenerate": 0}
    for r in roots:
        counts[_morse_label(r, n)] += 1
    return counts


def _scalar_box(g: WeightedGraph, m: ScalarModel, box, opts: SolveOptions):
    if box is not None:
        return box
    try:
        r = apriori_radius(g, m).radius
        return (-r, r)
    except ValueError:
        return opts.core_window


def _enumerate_at(g, model, box, grid_n, opts, warm):
    return enumerate_solutions(
        g, model, box=box, grid_n=grid_n, opts=opts,
        extra_seeds=[r.point for r in warm] if warm else None,
        check_box=False,
    )


def sweep_lambda(
    g: WeightedGraph,
    f: np.ndarray,
    lambda_range: tuple[float, float],
    steps: int,
    opts: SolveOptions | None = None,
    p: int = 1,
    sigma: float = 1.0,
    box=None,
    grid_n: int | None = None,
) -> list[BranchRecord]:
    """Enumerate roots along a coupling grid with warm starts.

    The grid never contains 0 (no residual map is defined there for degree
    purposes); a range straddling 0 is simply sampled on both sides with the
    zero sample dropped.  Events mark Morse-type counts changing between
    consecutive grid points, and one midpoint sample is inserted next to each
    event to halve the localization interval.
    """
    opts = opts or SolveOptions()
    values = [lam for lam in np.linspace(lambda_range[0], lambda_range[1], steps) if lam != 0.0]
    records: list[BranchRecord] = []
    warm: list[ClassifiedSolution] = []
    for lam in values:
        m = ScalarModel(lam=float(lam), f=f, p=p, sigma=sigma)
        roots = _enumerate_at(g, m, _scalar_box(g, m, box, opts), grid_n, opts, warm)
        records.append(BranchRecord(float(lam), roots, _count_types(roots, g.ell), []))
        warm = roots

    refined = list(records)
    for a, b in zip(records, records[1:]):
        if a.counts != b.counts and np.sign(a.parameter) == np.sign(b.parameter):
            lam = 0.5 * (a.parameter + b.parameter)
            m = ScalarModel(lam=float(lam), f=f, p=p, sigma=sigma)
            roots = _enumerate_at(g, m, _scalar_box(g, m, box, opts), grid_n, opts, a.roots + b.roots)
            refined.append(BranchRecord(float(lam), roots, _count_types(roots, g.ell), []))
    # keep the caller's sweep direction so events read in sweep order
    refined.sort(key=lambda r: r.parameter, reverse=lambda_range[1] < lambda_range[0])
    for a, b in zip(refined, refined[1:]):
        for label in a.counts:
            if (a.counts[label] == 0) != (b.counts[label] == 0):
                verb = "appeared" if a.counts[label] == 0 else "vanished"
                b.events.append(f"{label} {verb} in ({a.parameter:.6g}, {b.parameter:.6g}]")
    return refined


@dataclass
class ThresholdEstimate:
    """Bisection interval for an empirical critical coupling.

    ``certificate_kind`` records what witnessed the certificate on the
    certified side: "strict" for a nondegenerate extremum of the right index,
    "weak" when only a degenerate candidate of that index was seen.
    """

    which: str
    lo: float
    hi: float
    certificate_lo: bool
    certificate_hi: bool
    certificate_kind: str
    consistent: bool
    notes: list[str]


def _certificate(g, f, lam: float, which: str, box, grid_n, opts) -> tuple[bool, str]:
    m = ScalarModel(lam=float(lam), f=f)
    roots = enumerate_solutions(g, m, box=_scalar_box(g, m, box, opts), grid_n=grid_n,
                                opts=opts, check_box=False)
    want_index = 0 if which in ("strict_min_pos", "strict_min_neg") else g.ell
    strict = any(r.nondegenerate and r.morse_index == want_index for r in roots)
    if strict:
        return True, "strict"
    weak = any(not r.nondegenerate and r.morse_index == want_index for r in roots)
    if weak:
        return True, "weak"
    return False, "none"


def estimate_threshold(
    g: WeightedGraph,
    f: np.ndarray,
    which: str,
    bracket: tuple[float, float],
    tol: float,
    opts: SolveOptions | None = None,
    box=None,
    grid_n: int | None = None,
) -> ThresholdEstimate:
    """Bisect the coupling at which the certificate for ``which`` changes.

    The bracket endpoints must straddle the change (certificate present at
    exactly one end).  The result is checked against the bracketing facts
    dictated by the sign of mean(f): the positive-minimum threshold is at
    least ``4 mean(f)`` when the mean is positive, and the negative-minimum
    threshold is at most ``4 mean(f)`` when the mean is negative; a violated
    check flags the run as inconsistent (a solver bug, not a math failure).
    """
    if which not in THRESHOLD_KINDS:
        raise ValueError(f"which must be one of {THRESHOLD_KINDS}")
    opts = opts or SolveOptions()
    a, b = float(bracket[0]), float(bracket[1])
    if a >= b:
        raise ValueError("bracket must be increasing")
    cert_a, kind_a = _certificate(g, f, a, which, box, grid_n, opts)
    cert_b, kind_b = _certificate(g, f, b, which, box, grid_n, opts)
    if cert_a == cert_b:
        raise SolverError(
            "bracket endpoints do not straddle the certificate change "
            f"(certificate at both ends: {cert_a})"
        )
    kinds = {kind_a, kind_b} - {"none"}
    lo, hi = a, b
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        cert_mid, kind_mid = _certificate(g, f, mid, which, box, grid_n, opts)
        if kind_mid != "none":
            kinds.add(kind_mid)
        if cert_mid == cert_a:
            lo = mid
        else:
            hi = mid

    notes: list[str] = []
    fbar = average(g, f)
    consistent = True
    if which == "strict_min_pos" and fbar > 0.0 and hi < 4.0 * fbar:
        consistent = False
        notes.append(f"interval [{lo:.6g}, {hi:.6g}] lies below 4*mean(f) = {4 * fbar:.6g}")
    if which == "strict_min_neg" and fbar < 0.0 and lo > 4.0 * fbar:
        consistent = False
        notes.append(f"interval [{lo:.6g}, {hi:.6g}] lies above 4*mean(f) = {4 * fbar:.6g}")
    return ThresholdEstimate(
        which=which,
        lo=float(lo),
        hi=float(hi),
        certificate_lo=cert_a,
        certificate_hi=cert_b,
        certificate_kind="strict" if "strict" in kinds else ("weak" if "weak" in kinds else "none"),
        consistent=consistent,
        notes=notes,
    )


def sigma_homotopy(
    g: WeightedGraph,
    model,
    sigma_path,
    opts: SolveOptions | None = None,
    seeds=None,
    box=None,
    grid_n: int | None = None,
) -> list[BranchRecord]:
    """Track roots along a deformation path in sigma.

    The first slice is seeded by enumeration (or by the caller's seeds); each
    later slice polishes the previous slice's roots.  Events record lost
    branches and the sup-norm growth rate per unit ``ln(1/sigma)`` when the
    path descends; roots of the undeformed scalar model with zero source sit
    at ``ln(sigma)``, so that rate approaching 1 is the expected blow-up.
    """
    opts = opts or SolveOptions()
    sigma_path = [float(s) for s in sigma_path]
    if not sigma_path:
        return []
    is_system = isinstance(model, SystemModel)
    n = 2 * g.ell if is_system else g.ell

    records: list[BranchRecord] = []
    first = dataclasses.replace(model, sigma=sigma_path[0])
    if seeds is not None:
        tracked = []
        for s in np.atleast_2d(np.asarray(seeds, dtype=float)):
            tracked.append(_polish(g, first, s, opts))
        tracked = [t for t in tracked if t is not None]
    else:
        use_box = box
        if use_box is None:
            use_box = _scalar_box(g, first, None, opts) if not is_system else opts.core_window
        tracked = enumerate_solutions(g, first, box=use_box, grid_n=grid_n, opts=opts)
    records.append(BranchRecord(sigma_path[0], list(tracked), _count_types(tracked, n), []))

    for prev_sigma, sigma in zip(sigma_path, sigma_path[1:]):
        m = dataclasses.replace(model, sigma=sigma)
        kept: list[ClassifiedSolution] = []
        events: list[str] = []
        for r in records[-1].roots:
            sol = _polish(g, m, r.point, opts)
            if sol is None:
                events.append(f"branch lost at sigma={sigma:.6g} (from {prev_sigma:.6g})")
                continue
            kept.append(sol)
            if 0.0 < sigma < prev_sigma:
                dlog = np.log(prev_sigma / sigma)
                rate = (sup_norm(sol.point) - sup_norm(r.point)) / dlog
                if rate > 0.1:
                    events.append(f"sup norm growing at rate {rate:.3f} per unit ln(1/sigma)")
        kept = _dedup_solutions(kept, opts.dedup_tol)
        records.append(BranchRecord(sigma, kept, _count_types(kept, n), events))
    return records


def _dedup_solutions(sols: list[ClassifiedSolution], tol: float) -> list[ClassifiedSolution]:
    points = np.array([s.point for s in sols])
    norms = np.array([s.residual_norm for s in sols])
    kept = [sols[i] for i in _dedup_points(points, norms, tol)]
    _sort_roots(kept, tol)
    return kept


def _polish(g, model, point, opts: SolveOptions) -> ClassifiedSolution | None:
    point = np.asarray(point, dtype=float)
    try:
        if isinstance(model, SystemModel):
            half = len(point) // 2
            return solve_system(g, model, point[:half], point[half:], opts)
        return solve_scalar(g, model, point, opts)
    except SolverError:
        return None
