"""Parameter sweeps in the coupling and the deformation parameter.

``sweep_lambda`` tracks the classified root set along a grid of couplings,
enumerating each coupling afresh by certified branch and prune, and records
branch events (a Morse type appearing or vanishing between steps, refined
once by a midpoint sample).
``estimate_threshold`` brackets and bisects the empirical critical couplings
at which a strict-minimum or strict-maximum certificate appears, and checks
the bracketing inequalities that the thresholds must satisfy against the sign
of the source mean.  ``sigma_homotopy`` follows roots down a deformation
path, reporting sup-norm growth and branch loss; each slice polishes all
its roots in one batched Newton call.  A ``box`` of None is
passed through: :func:`~cshlab.solve.enumerate_report` picks the box.

Empirical thresholds are exactly that: certificate changes observed by the
solver; no tightness is claimed beyond the reported interval.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .graphs import WeightedGraph, average, sup_norm
from .scalar import ScalarModel
from . import solve  # solve.enumerate_report per call: perfbench's tracer wraps it there
from .solve import (
    _CONVERGED,
    ClassifiedSolution,
    SolveOptions,
    _is_real,
    _make_problem,
    _newton_seeds,
    _roots,
)

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


def sweep_lambda(
    g: WeightedGraph,
    f: np.ndarray,
    lambda_range: tuple[float, float],
    steps: int,
    opts: SolveOptions | None = None,
    p: int = 1,
    sigma: float = 1.0,
    box=None,
) -> list[BranchRecord]:
    """Enumerate roots along a coupling grid, each coupling on its own.

    Every coupling is enumerated by certified branch and prune over ``box``
    (by default its a priori ball; a model without one needs ``box``).  The
    grid never contains 0 (no residual map is defined there for degree
    purposes); a range straddling 0 is simply sampled on both sides with the
    zero sample dropped.  Events mark Morse-type counts changing between
    consecutive grid points, and one midpoint sample is inserted next to each
    event to halve the localization interval.  ``steps`` must be a positive
    integer (``ValueError`` otherwise; 11.7 is not rounded down).
    """
    if not (_is_real(steps) and float(steps).is_integer() and steps >= 1):
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    opts = opts or SolveOptions()
    values = [lam for lam in np.linspace(lambda_range[0], lambda_range[1], int(steps))
              if lam != 0.0]

    def record(lam: float) -> BranchRecord:
        m = ScalarModel(lam=float(lam), f=f, p=p, sigma=sigma)
        roots = solve.enumerate_report(g, m, box, opts=opts, check_box=False).roots
        return BranchRecord(float(lam), roots, _count_types(roots, g.ell), [])

    records = [record(lam) for lam in values]
    refined = records + [record(0.5 * (a.parameter + b.parameter))
                         for a, b in zip(records, records[1:])
                         if a.counts != b.counts and np.sign(a.parameter) == np.sign(b.parameter)]
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


def _certificate(g, f, lam: float, which: str, box, opts) -> tuple[bool, str]:
    m = ScalarModel(lam=float(lam), f=f)
    roots = solve.enumerate_report(g, m, box, opts=opts, check_box=False).roots
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
) -> ThresholdEstimate:
    """Bisect the coupling at which the certificate for ``which`` changes.

    The bracket endpoints must straddle the change (certificate present at
    exactly one end).  The result is checked against the bracketing facts
    dictated by the sign of mean(f): the positive-minimum threshold is at
    least ``4 mean(f)`` when the mean is positive, and the negative-minimum
    threshold is at most ``4 mean(f)`` when the mean is negative; a violated
    check flags the run as inconsistent (a solver bug, not a math failure).
    ``tol``, the width at which bisection stops, must be finite and no
    smaller than the float spacing at the larger bracket endpoint.
    """
    if which not in THRESHOLD_KINDS:
        raise ValueError(f"which must be one of {THRESHOLD_KINDS}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    opts = opts or SolveOptions()
    a, b = float(bracket[0]), float(bracket[1])
    if a >= b:
        raise ValueError("bracket must be increasing")
    spacing = np.spacing(max(abs(a), abs(b)))
    if tol < spacing:  # floats of the bracket's size may lie farther apart than tol
        raise ValueError(f"tol {tol!r} is below the float spacing {spacing:.3g} at the bracket")
    cert_a, kind_a = _certificate(g, f, a, which, box, opts)
    cert_b, kind_b = _certificate(g, f, b, which, box, opts)
    if cert_a == cert_b:
        raise SolverError(
            "bracket endpoints do not straddle the certificate change "
            f"(certificate at both ends: {cert_a})"
        )
    kinds = {kind_a, kind_b}
    lo, hi = a, b
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        cert_mid, kind_mid = _certificate(g, f, mid, which, box, opts)
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
) -> list[BranchRecord]:
    """Track roots along a deformation path in sigma.

    The first slice is seeded by enumeration over ``box`` (as in
    :func:`sweep_lambda`) or by the caller's seeds, checked as for
    ``solve_scalar``; each later slice by the previous slice's roots.  A
    slice polishes its seeds in one batched Newton call.  Events record lost
    branches and the sup-norm growth rate per unit ``ln(1/sigma)`` when the
    path descends; roots of the undeformed scalar model with zero source sit
    at ``ln(sigma)``, so that rate approaching 1 is the expected blow-up.
    """
    opts = opts or SolveOptions()
    sigma_path = [float(s) for s in sigma_path]
    if not sigma_path:
        return []
    n = _make_problem(g, model).n

    def polish(sigma: float, points: np.ndarray):
        problem = _make_problem(g, dataclasses.replace(model, sigma=sigma))
        X, nF, status = _newton_seeds(problem, points, opts)
        ok = status == _CONVERGED
        return X, ok, _roots(problem, X[ok], nF[ok], opts.dedup_tol)

    if seeds is not None:
        seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
        if seeds.size and seeds.shape[-1] != n:
            raise ValueError(f"each seed must have length {n}, got seeds of shape {seeds.shape}")
        tracked = polish(sigma_path[0], seeds.reshape(-1, n))[2]
    else:
        first = dataclasses.replace(model, sigma=sigma_path[0])
        tracked = solve.enumerate_report(g, first, box, opts=opts).roots
    records = [BranchRecord(sigma_path[0], tracked, _count_types(tracked, n), [])]

    for prev_sigma, sigma in zip(sigma_path, sigma_path[1:]):
        prev = np.reshape([r.point for r in records[-1].roots], (-1, n))
        X, ok, kept = polish(sigma, prev)
        events: list[str] = []
        for start, end, found in zip(prev, X, ok):
            if not found:
                events.append(f"branch lost at sigma={sigma:.6g} (from {prev_sigma:.6g})")
            elif 0.0 < sigma < prev_sigma:
                rate = (sup_norm(end) - sup_norm(start)) / np.log(prev_sigma / sigma)
                if rate > 0.1:
                    events.append(f"sup norm growing at rate {rate:.3f} per unit ln(1/sigma)")
        records.append(BranchRecord(sigma, kept, _count_types(kept, n), events))
    return records
