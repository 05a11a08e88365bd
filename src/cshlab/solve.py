"""Root finding, exhaustive small-graph enumeration and Morse classification.

Enumeration of the scalar model (every p >= 1 and sigma in [0, 1]) is
certified: interval branch and prune over the box excludes boxes that
provably hold no root, includes by the Krawczyk test boxes that provably
hold exactly one, and bisects the rest in a depth-first worklist handled in
chunks of at most ``_BOX_CHUNK`` boxes, so its memory is bounded by
construction.  One :class:`~cshlab.interval.ScalarKernel`, built per
enumeration, gives the outward-rounded bounds of every chunk.  Newton
then polishes the midpoint of every included box and one seed per cluster
of unresolved boxes (degenerate roots, continua).
A run is certified when no box is left unresolved and every root is
nondegenerate; ``seed_cap`` also caps the number of boxes processed, and
the box must be finite.  This is the only scalar enumeration that the
degree, continuation, check and command-line layers run.

The system model seeds Newton from grids instead, at the resolution
:func:`default_grid_n` picks for its dimension; a grid whose refinement by
doubling finds no new root is declared stable (empirical completeness).
Only :func:`enumerate_report` takes a ``grid_n`` (on a scalar model, the
reference the certified path is tested against).

The workhorse is a damped Newton iteration with Armijo backtracking that runs
on whole batches of seeds at once (a K2 system slice: 4,802 grid seeds, then
28,561).  A batch runs in near-equal chunks of at most 2**18 Jacobian
entries (2 MiB of float64) each, one chunk after the other, so memory grows
with the seed count as O(seeds n), not O(seeds n^2).
Each Newton step is one stacked linear solve per chunk; when a singular
Jacobian makes it fail, the sign of the LU determinant picks out the singular
rows, the rest are solved in one stacked call again and only the singular
rows take a least-squares step: one ``lstsq`` call per distinct singular
Jacobian, with the right-hand sides of the rows sharing it as columns.
The backtracking ladder 1, d, d^2, ... >= 1e-12 (d = 0.5, built once at
import; Armijo constant 1e-4) is tested in blocks of 1, 1, 2, 4, ...
step lengths, each block one stacked residual call over the rows still
searching; every row accepts the first step length of the ladder that passes
the Armijo test, as a one-at-a-time search would, and no block holds more
trial rows than the full-step round.  A residual call gives rows outside
the exp guard an infinite residual; a stack wholly inside it is evaluated
without the mask.  Converged rows then take up to six
full polish steps while the residual drops.  Row sup norms fold the short last axis
column by column (:func:`~cshlab.graphs.sup_norm`).  Each grid level merges
its converged rows into the known roots with one greedy sup-norm dedup pass
over both (known rows first, so a re-found root replaces a known one only
with a strictly lower residual).  Roots are classified through the eigenvalues of the energy
Hessian in the mu-weighted inner product, and reported sorted on coordinates
rounded to the dedup tolerance, so ties at rounding level cannot flip the order.

``solve_scalar``, ``solve_system`` and the sigma tracker (once per slice)
run caller seeds as one checked batch (:func:`_newton_seeds`); a failed
single seed raises :class:`~cshlab.errors.SolverError` naming its reason
(the line search stalled, the iterate left the admissible range, or max_iter
was exceeded).  Every path turns converged rows into roots by :func:`_roots`.

For lam > 0 and a mean-zero source, :func:`subsolution_bounds` gives a
finite box between a sub- and a super-solution; certified enumeration of that
box (``enumerate_report(g, m, box=(b.lower, b.upper), check_box=False)``)
proves every root in it.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import interval
from .errors import SolverError
from .graphs import WeightedGraph, solve_poisson, sup_norm
from .scalar import (
    EXP_GUARD,
    ScalarModel,
    _check_range,
    apriori_radius,
    constant_solutions,
    jacobian as scalar_jacobian,
    residual as scalar_residual,
)
from .system import SystemModel, hessian_system, jacobian_system, residual_pair

__all__ = [
    "SolveOptions",
    "ClassifiedSolution",
    "MorseData",
    "EnumerationReport",
    "SubsolutionBounds",
    "morse_data",
    "solve_scalar",
    "solve_system",
    "enumerate_report",
    "subsolution_bounds",
    "default_grid_n",
]

# Seeds are clipped to this window: below -45 the exponential terms vanish at
# double precision (the residual is numerically constant in that direction),
# and no root in the models at hand can carry a larger positive component, so
# seeding outside the window only duplicates basins already covered.
_SEED_WINDOW = 45.0
# The grid path also seeds this window, where the exponentials turn, and
# refines that core grid by doubling this many times.
_CORE_WINDOW = (-12.0, 4.0)
_REFINEMENTS = 1


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SolveOptions:
    """Tolerances and budgets shared by the solver entry points.

    Every field is checked on construction; a value of the wrong type or
    out of range raises ``ValueError`` naming the field.
    """

    tol_residual: float = 1e-12
    max_iter: int = 200
    dedup_tol: float = 1e-6
    seed_cap: int = 10_000_000
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("tol_residual", "dedup_tol"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        # numpy's generators take no negative rng_seed
        for name, least in (("max_iter", 1), ("seed_cap", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")
        if self.dedup_tol <= 10.0 * self.tol_residual:
            warnings.warn(
                "dedup_tol is within a decade of tol_residual; "
                "distinct roots may be merged",
                stacklevel=2,
            )


@dataclass
class MorseData:
    morse_index: int
    sign_det: int
    nondegenerate: bool
    critical_group_ranks: tuple[int, ...] | None


@dataclass
class ClassifiedSolution:
    """A root together with the data used for degree accounting.

    ``point`` is the vertex function, or the concatenated (u, v) pair for the
    system.  ``sign_det`` is the orientation sign of the energy Hessian at the
    root: (-1)**morse_index when nondegenerate, else 0.  For a nondegenerate
    index-m point the critical groups have rank one in dimension m and zero
    elsewhere; strict extrema are the m = 0 and m = n cases.  Every field
    is written to the command line's ``root`` record.
    """

    point: np.ndarray
    residual_norm: float
    sign_det: int
    morse_index: int
    nondegenerate: bool

    @property
    def n(self) -> int:
        return len(self.point)

    @property
    def critical_group_ranks(self) -> tuple[int, ...] | None:
        """Ranks in dimensions 0..n; None (unknown) at a degenerate point."""
        if not self.nondegenerate:
            return None
        return tuple(1 if r == self.morse_index else 0 for r in range(self.n + 1))


# Hessian eigenvalues below this fraction of the spectral radius: degenerate.
_MORSE_RTOL = 1e-8


def morse_data(matrix: np.ndarray, mu: np.ndarray | None = None) -> MorseData:
    """Classify a critical point from its energy Hessian.

    ``matrix`` must be symmetric in the mu-weighted inner product; it is
    conjugated by mu^(1/2) before the symmetric eigensolve.  The Morse index
    counts negative eigenvalues; eigenvalues below ``_MORSE_RTOL`` times the
    spectral radius mark the point degenerate, with sign 0 and unknown groups.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if mu is None:
        mu = np.ones(n)
    s = np.sqrt(np.asarray(mu, dtype=float))
    sym = matrix * (s[:, None] / s[None, :])
    if not np.allclose(sym, sym.T, rtol=1e-7, atol=1e-7 * (1.0 + np.abs(sym).max())):
        raise ValueError("matrix is not symmetric in the mu-weighted product")
    ev = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    spectral_radius = float(np.abs(ev).max()) if n else 0.0
    index = int((ev < 0.0).sum())
    nondeg = spectral_radius > 0.0 and float(np.abs(ev).min()) > _MORSE_RTOL * spectral_radius
    if nondeg:
        ranks = tuple(1 if r == index else 0 for r in range(n + 1))
        return MorseData(index, (-1) ** index, True, ranks)
    return MorseData(index, 0, False, None)


# ---------------------------------------------------------------------------
# problem adapters

@dataclass(frozen=True)
class _Problem:
    n: int
    mu: np.ndarray
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    anchors: Callable[[], list[np.ndarray]]
    pair: bool = False


def _scalar_problem(g: WeightedGraph, m: ScalarModel) -> _Problem:
    def anchors() -> list[np.ndarray]:
        try:
            return [np.full(g.ell, u) for u in constant_solutions(m)]
        except ValueError:
            return []

    return _Problem(
        n=g.ell,
        mu=np.asarray(g.mu),
        residual=lambda x: scalar_residual(g, m, x),
        jacobian=lambda x: scalar_jacobian(g, m, x),
        hessian=lambda x: scalar_jacobian(g, m, x),
        anchors=anchors,
    )


def _system_problem(g: WeightedGraph, s: SystemModel) -> _Problem:
    ell = g.ell

    def res(x: np.ndarray) -> np.ndarray:
        r1, r2 = residual_pair(g, s, x[..., :ell], x[..., ell:])
        return np.concatenate([r1, r2], axis=-1)

    return _Problem(
        n=2 * ell,
        mu=np.concatenate([g.mu, g.mu]),
        residual=res,
        jacobian=lambda x: jacobian_system(g, s, x[..., :ell], x[..., ell:]),
        hessian=lambda x: hessian_system(g, s, x[:ell], x[ell:]),
        anchors=lambda: [],
        pair=True,
    )


def _make_problem(g: WeightedGraph, model) -> _Problem:
    if isinstance(model, ScalarModel):
        return _scalar_problem(g, model)
    if isinstance(model, SystemModel):
        return _system_problem(g, model)
    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# batched damped Newton

def _residual_rows(problem: _Problem, X: np.ndarray) -> np.ndarray:
    """Residuals for rows inside the exp guard; +inf rows elsewhere."""
    inb = sup_norm(X) <= EXP_GUARD
    if inb.all():  # no mask to fill, gather and scatter back
        return problem.residual(X)
    out = np.full(X.shape, np.inf)
    if inb.any():
        out[inb] = problem.residual(X[inb])
    return out


def _norms(F: np.ndarray) -> np.ndarray:
    nF = sup_norm(F)
    return np.where(np.isfinite(nF), nF, np.inf)


def _equal_row_runs(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic row order of a 2-D array and its runs of equal rows.

    Returns ``(order, starts)``: ``A[order]`` is sorted, and its k-th run of
    equal rows is ``A[order[starts[k]:starts[k + 1]]]``; ``starts`` ends with
    ``len(A)``.  Within a run, rows keep their input order.
    """
    order = np.lexsort(A.T[::-1])
    s = A[order]
    new = np.ones(len(A), dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    return order, np.append(np.flatnonzero(new), len(A))


def _newton_steps(problem: _Problem, X: np.ndarray, F: np.ndarray):
    """Stacked solve of J step = -F, with least squares for singular rows only.

    Rows with a non-finite Jacobian or step get a zero step and come back
    flagged in ``bad``.  The finite rows go to one stacked ``np.linalg.solve``.
    If a singular row makes it raise, one batched ``slogdet`` marks the rows
    whose LU has a zero pivot (sign 0: the same ``getrf`` factorization that
    makes ``solve`` reject a row) and the other rows are solved in one stacked
    call.  The singular rows take a least-squares step: rows whose
    Jacobians are equal byte for byte (so -0.0 and 0.0 differ) share one
    ``lstsq`` call, their right-hand sides stacked as its columns.  On the
    seed-0 system_homotopy benchmark pass LU met a zero pivot 201 times, and
    76,432 singular rows took 35,827 calls: 31,169 for one row, at most 5,504.
    With OpenBLAS 0.3.31 each column equals a one-column call bit for bit for
    Jacobians up to 7x7; from 8x8 on, random right-hand sides were seen to
    differ in the last bits (below 1e-14 relative).
    """
    J = problem.jacobian(X)
    steps = np.full_like(F, np.nan)
    # a sup norm is finite exactly when every entry it covers is
    idx = np.nonzero(np.isfinite(sup_norm(sup_norm(J))))[0]
    if idx.size < len(J):
        J = J[idx]
    if idx.size:
        rhs = -F[idx][..., None]
        try:
            steps[idx] = np.linalg.solve(J, rhs)[..., 0]
        except np.linalg.LinAlgError:
            with np.errstate(divide="ignore"):
                singular = np.linalg.slogdet(J)[0] == 0.0
            regular = ~singular
            if regular.any():
                steps[idx[regular]] = np.linalg.solve(J[regular], rhs[regular])[..., 0]
            sing = np.flatnonzero(singular)
            # the int64 view groups rows on the bytes of their Jacobians
            order, starts = _equal_row_runs(J[sing].reshape(sing.size, -1).view(np.int64))
            for a, b in zip(starts[:-1], starts[1:]):
                rows = sing[order[a:b]]
                steps[idx[rows]] = np.linalg.lstsq(J[rows[0]], rhs[rows, :, 0].T, rcond=None)[0].T
    bad = ~np.isfinite(sup_norm(steps))
    steps[bad] = 0.0
    return steps, bad


# row status codes
_RUNNING, _CONVERGED, _STALLED, _DIVERGED, _EXHAUSTED = 0, 1, 2, 3, 4

# Newton line search: backtracking factor d, Armijo decrease constant and
# the step lengths 1, d, ..., d^39 = 1.8e-12, the last one >= 1e-12 (powers
# of 1/2 are exact, so each equals the one a shrink-per-round loop reaches)
_DAMPING, _ARMIJO = 0.5, 1e-4
_LADDER = _DAMPING ** np.arange(40)
# full Newton steps taken after convergence while the residual drops
_POLISH_STEPS = 6

# Jacobian entries per Newton chunk: 2**18 float64 entries are 2 MiB, e.g.
# 16,384 rows at n = 4.  Each chunk runs as many rounds as its slowest row,
# so small chunks repeat the per-round overhead.  On the seed-0 benchmark
# pass only the system audit fills chunks (a K2 slice: 4,802 seeds in one,
# then 28,561 in two); degree_table's seven enumerations polish 64 rows.
_CHUNK_ENTRIES = 2 ** 18


def _newton_batch(problem: _Problem, seeds: np.ndarray, opts: SolveOptions):
    """Damped Newton on every seed row, in stacks of a bounded size.

    Returns ``(X, res_norm, status)`` arrays in seed order;
    rows with status ``_CONVERGED`` hold polished roots with residual below
    ``tol_residual``.  The seeds run in ``ceil(N / rows)`` near-equal chunks
    of at most ``rows = _CHUNK_ENTRIES // n**2`` rows each, one after the
    other, so the (rows, n, n) Jacobian stack and its copies stay within a
    fixed budget and memory grows as O(N n), not O(N n^2).  A row's outcome
    does not depend on the other rows of its chunk, except through the last
    bits of the residual's matrix product and of a grouped ``lstsq`` call.
    """
    X = np.array(seeds, dtype=float)
    rows = max(1, _CHUNK_ENTRIES // X.shape[1] ** 2)
    chunks = np.array_split(X, max(1, -(-len(X) // rows)))
    outs = [_newton_chunk(problem, chunk, opts) for chunk in chunks]
    return tuple(np.concatenate(a) for a in zip(*outs))


def _newton_chunk(problem: _Problem, X: np.ndarray, opts: SolveOptions):
    """Damped Newton on every row of ``X`` at once, updating ``X`` in place."""
    N = len(X)
    F = _residual_rows(problem, X)
    nF = _norms(F)
    status = np.full(N, _RUNNING, dtype=np.int8)
    status[~np.isfinite(nF)] = _DIVERGED
    # plateau detection: rows that fail to halve their residual across a
    # checkpoint window are circling a positive floor (no root nearby) and
    # are retired early; converging rows reduce at least geometrically
    check_every, check_norm = 8, nF.copy()

    for it in range(opts.max_iter):
        if it and it % check_every == 0:
            running = status == _RUNNING
            plateau = running & (nF > 0.5 * check_norm) & (nF > 1e3 * opts.tol_residual)
            status[plateau] = _STALLED
            check_norm[running] = nF[running]
        status[(status == _RUNNING) & (nF <= opts.tol_residual)] = _CONVERGED
        act = np.nonzero(status == _RUNNING)[0]
        if act.size == 0:
            break
        steps, bad = _newton_steps(problem, X[act], F[act])
        status[act[bad]] = _DIVERGED
        live = act[~bad]
        if live.size == 0:
            continue
        steps = steps[~bad]

        # test the ladder in blocks of 1, 1, 2, 4, ... step lengths; a block
        # holds at most live.size trial rows, as many as the full-step round
        base = X[live]
        base_norm = nF[live]
        rows = np.arange(live.size)  # rows of live still searching
        pos = 0
        while rows.size and pos < _LADDER.size:
            width = min(max(pos, 1), live.size // rows.size, _LADDER.size - pos)
            t = _LADDER[pos:pos + width]
            trial = base[rows, None] + t[:, None] * steps[rows, None]
            Ft = _residual_rows(problem, trial.reshape(-1, X.shape[1])).reshape(trial.shape)
            nFt = _norms(Ft)
            ok = nFt <= (1.0 - _ARMIJO * t) * base_norm[rows, None]
            found = ok.any(axis=1)
            hit = np.nonzero(found)[0]
            first = ok[hit].argmax(axis=1)  # each row's first passing step
            gi = live[rows[hit]]
            X[gi] = trial[hit, first]
            F[gi] = Ft[hit, first]
            nF[gi] = nFt[hit, first]
            rows = rows[~found]
            pos += width
        status[live[rows]] = _STALLED
    status[(status == _RUNNING) & (nF <= opts.tol_residual)] = _CONVERGED
    status[status == _RUNNING] = _EXHAUSTED

    # polish converged rows with full steps while the residual still drops;
    # this pushes roots to the floating-point floor, well below tol_residual
    conv = np.nonzero(status == _CONVERGED)[0]
    for _ in range(_POLISH_STEPS):
        if conv.size == 0:
            break
        steps, bad = _newton_steps(problem, X[conv], F[conv])
        trial = X[conv] + steps
        Ft = _residual_rows(problem, trial)
        nFt = _norms(Ft)
        better = ~bad & (nFt < nF[conv])
        gi = conv[better]
        X[gi] = trial[better]
        F[gi] = Ft[better]
        nF[gi] = nFt[better]
        conv = gi
    return X, nF, status


def _classify_root(problem: _Problem, x: np.ndarray, res_norm: float) -> ClassifiedSolution:
    md = morse_data(problem.hessian(x), problem.mu)
    return ClassifiedSolution(
        point=np.asarray(x, dtype=float),
        residual_norm=float(res_norm),
        sign_det=md.sign_det,
        morse_index=md.morse_index,
        nondegenerate=md.nondegenerate,
    )


_FAILURE_REASONS = {
    _STALLED: "line search stalled (possibly singular Jacobian region)",
    _DIVERGED: "iterate left the admissible range",
    _EXHAUSTED: "max_iter = {max_iter} exceeded",
}


def _newton_seeds(problem: _Problem, seeds: np.ndarray, opts: SolveOptions):
    """:func:`_newton_batch` on a (k, n) stack of caller seeds: a stack of any
    other shape or a seed with a NaN or infinite entry raises ``ValueError``,
    a seed outside the exp guard ``OverflowGuardError``."""
    if seeds.ndim != 2 or seeds.shape[1] != problem.n:
        raise ValueError(f"each seed must have length {problem.n}, got shape {seeds.shape}")
    finite = np.isfinite(seeds).all(axis=1)
    if not finite.all():
        raise ValueError(f"seed must be finite, got {seeds[finite.argmin()]}")
    _check_range(seeds)
    return _newton_batch(problem, seeds, opts)


def _solve_one(problem: _Problem, seed: np.ndarray, opts: SolveOptions) -> ClassifiedSolution:
    """Damped Newton from one seed, the path behind every single-seed entry point.

    Seeds are checked as by :func:`_newton_seeds`.  A run that does not
    converge raises :class:`SolverError` naming why (stalled, diverged or
    max_iter exceeded).
    """
    X, nF, status = _newton_seeds(problem, seed[None, :], opts)
    if status[0] != _CONVERGED:
        reason = _FAILURE_REASONS[int(status[0])].format(max_iter=opts.max_iter)
        raise SolverError(f"Newton failed: {reason}")
    return _classify_root(problem, X[0], nF[0])


def _broadcast(x, n: int) -> np.ndarray:
    """``x`` as a float vector of length ``n``; a scalar fills it."""
    return np.full(n, float(x)) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def solve_scalar(g: WeightedGraph, m: ScalarModel, seed, opts: SolveOptions | None = None) -> ClassifiedSolution:
    """Newton for the scalar model from a seed (scalar seeds mean constants)."""
    return _solve_one(_scalar_problem(g, m), _broadcast(seed, g.ell), opts or SolveOptions())


def solve_system(
    g: WeightedGraph, s: SystemModel, useed, vseed, opts: SolveOptions | None = None
) -> ClassifiedSolution:
    """Newton for the system from a (u, v) seed pair (scalars mean constants)."""
    seed = np.concatenate([_broadcast(useed, g.ell), _broadcast(vseed, g.ell)])
    return _solve_one(_system_problem(g, s), seed, opts or SolveOptions())


# ---------------------------------------------------------------------------
# enumeration

@dataclass
class EnumerationReport:
    """Roots plus the evidence for the enumeration run, its one record
    (degree reports and homotopy slices hold it as ``enumeration``).

    A certified run (branch and prune) has ``grid_levels == []``, ``stable``
    equal to ``certified``, and counts in ``seeds_used`` the rows it polished
    by Newton; ``boxes`` counts the boxes it processed and ``unresolved`` the
    boxes it could neither exclude nor include.  ``certified`` is True only
    for a branch-and-prune run that left no box unresolved and classified
    every root as nondegenerate.  A grid run
    reports its seed levels and refinement stability, with ``certified``
    False and no boxes.
    """

    roots: list[ClassifiedSolution]
    box: tuple[np.ndarray, np.ndarray]
    grid_levels: list[int]
    stable: bool
    seeds_used: int
    certified: bool = False
    boxes: int = 0
    unresolved: int = 0


def default_grid_n(n: int, pair: bool = False) -> int:
    """Per-axis seed resolution matched to the seed budget at dimension n."""
    if n <= 2:
        return 41
    if n == 3:
        return 13
    if n == 4:
        return 7 if pair else 9
    if n <= 6:
        return 5
    return 3


def _normalize_box(box, n: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = box
    lo, hi = _broadcast(lo, n), _broadcast(hi, n)
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError(f"box bounds must be scalars or length-{n} arrays")
    # NaN compares False both ways, so the ordering test below would pass it
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ValueError("box bounds must not be NaN")
    if np.any(hi <= lo):
        raise ValueError("box upper bounds must exceed lower bounds")
    return lo, hi


def _seed_box(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    slo = np.maximum(lo, -_SEED_WINDOW)
    shi = np.minimum(hi, _SEED_WINDOW)
    bad = shi <= slo  # box entirely outside the window: seed at its near face
    slo[bad] = np.clip(lo[bad], -_SEED_WINDOW, _SEED_WINDOW - 1.0)
    shi[bad] = slo[bad] + 1.0
    return slo, shi


def _grid_seeds(lo: np.ndarray, hi: np.ndarray, grid_n: int) -> np.ndarray:
    axes = [np.linspace(lo[i], hi[i], grid_n) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _seed_set(problem: _Problem, box_lo, box_hi, grid_n: int,
              include_box_net: bool = True) -> np.ndarray:
    n = problem.n
    lo, hi = _seed_box(box_lo, box_hi)
    parts = []
    if include_box_net:
        parts.append(_grid_seeds(lo, hi, grid_n))
    core_lo = np.maximum(lo, _CORE_WINDOW[0])
    core_hi = np.minimum(hi, _CORE_WINDOW[1])
    if np.all(core_hi > core_lo) and (np.any(core_lo > lo) or np.any(core_hi < hi) or not include_box_net):
        parts.append(_grid_seeds(core_lo, core_hi, grid_n))
    # the exact constant roots stay seeded: with f = 0 at lam = -2 the root
    # u = 0 is degenerate, Newton nears it only linearly and only the exact
    # anchor recovers it (K2, box [-4, 3], grid_n = 41: without the anchors
    # the nearest root found lies 3.3e-7 from 0)
    for a in problem.anchors():
        a = np.asarray(a, dtype=float)
        if a.shape == (n,) and np.all(a >= box_lo - 1e-9) and np.all(a <= box_hi + 1e-9):
            parts.append(a[None, :])
    if not parts:
        return np.empty((0, n))
    return np.vstack(parts)


def _dedup_points(points: np.ndarray, norms: np.ndarray, tol: float) -> list[int]:
    """Greedy sup-norm dedup: indices of kept rows, lowest residual first.

    Each pass keeps the remaining row with the lowest norm (ties in input
    order) and drops every other remaining row within ``tol`` of it.
    """
    remaining = np.argsort(norms, kind="stable")
    kept: list[int] = []
    while remaining.size:
        i, remaining = remaining[0], remaining[1:]
        kept.append(int(i))
        remaining = remaining[sup_norm(points[remaining] - points[i]) > tol]
    return kept


def _sort_roots(roots: list[ClassifiedSolution], tol: float) -> None:
    """Sort roots in place on their coordinates rounded to multiples of ``tol``.

    Symmetric roots can tie in a coordinate up to rounding noise (~1e-15);
    sorting on raw coordinates would order them by that noise, which changes
    with the linear-solve path.  Deduplicated roots lie more than ``tol``
    apart, so the rounded keys differ; the raw coordinates only break the
    ties left when a rounded coordinate straddles a half-integer.
    """
    roots.sort(key=lambda s: (tuple(np.rint(s.point / tol).tolist()), tuple(s.point)))


def enumerate_report(
    g: WeightedGraph,
    model,
    box=None,
    grid_n: int | None = None,
    opts: SolveOptions | None = None,
    check_box: bool = True,
) -> EnumerationReport:
    """Enumeration of all roots in a box: certified for the scalar model.

    The one place that picks the search box, for every layer: the caller's
    ``box``, else the a priori ball (-R, R), else ``ValueError`` (no bound:
    system models, and scalar ones unless p = 1, sigma = 1, lam mean(f) != 0).
    With ``check_box`` a box smaller than the ball earns a warning.

    For a :class:`ScalarModel` without ``grid_n`` the box is searched by
    interval branch and prune (:func:`_branch_and_prune`), and every root
    comes from Newton polishing a box that provably holds one or an
    unresolved region; its box must be finite (``ValueError`` otherwise).

    With ``grid_n``, and always for the system model (resolution
    :func:`default_grid_n` without one), seeds come in three families: a
    uniform grid over the box (the box net, base level only), a grid over ``_CORE_WINDOW`` where the nonlinearity actually turns (the
    core grid) and the exact constant roots inside the box when available
    (the anchors).  The grid path clips its seeds to ``[-45, 45]``, so it
    accepts infinite bounds.  A box with a NaN bound raises ``ValueError``.
    After the base level the core grid is refined by doubling
    ``_REFINEMENTS`` times; the run is declared stable when a refinement
    produces no root farther than ``dedup_tol`` from the known set.
    """
    opts = opts or SolveOptions()
    problem = _make_problem(g, model)
    if box is None:
        radius = _apriori_radius_or_none(g, model)
        if radius is None:
            raise ValueError("no a priori bound (it needs a scalar model with p = 1, sigma = 1 "
                             "and lam * mean(f) != 0); pass box explicitly")
        box = (-radius, radius)
    elif check_box:
        _warn_small_box(g, [model], box, 2)
    lo, hi = _normalize_box(box, problem.n)
    certified = grid_n is None and isinstance(model, ScalarModel)
    if certified and not np.all(np.isfinite([lo, hi])):
        raise ValueError("certified enumeration needs a finite box")
    if certified:
        return _certified_report(g, model, problem, lo, hi, opts)

    level = grid_n if grid_n is not None else default_grid_n(problem.n, problem.pair)
    if level < 2:
        raise ValueError("grid_n must be at least 2")
    # known roots as parallel arrays: points and residual norms
    known = [np.empty((0, problem.n)), np.empty(0)]
    levels: list[int] = []
    stable = False
    seeds_used = 0

    for refinement in range(_REFINEMENTS + 1):
        # the grid alone has level**n distinct seeds: check before building it
        grid_size = int(level) ** problem.n
        if grid_size > opts.seed_cap:
            if refinement == 0:
                raise SolverError(
                    f"seed budget exceeded: {grid_size} grid seeds > cap {opts.seed_cap}"
                )
            break
        seeds = _seed_set(problem, lo, hi, level, include_box_net=(refinement == 0))
        if len(seeds) > opts.seed_cap:
            if refinement == 0:
                raise SolverError(
                    f"seed budget exceeded: {len(seeds)} seeds > cap {opts.seed_cap}"
                )
            break
        seeds_used += len(seeds)
        levels.append(level)
        X, nF, status = _newton_batch(problem, seeds, opts)
        sel = (status == _CONVERGED) & _in_box(X, lo, hi, opts.dedup_tol)
        # known rows come first, so a tie keeps the known root: a re-found
        # root replaces it only with a strictly lower residual
        merged = [np.concatenate([k, a[sel]]) for k, a in zip(known, (X, nF))]
        kept = _dedup_points(merged[0], merged[1], opts.dedup_tol)
        grew = len(kept) > len(known[0])
        known = [a[kept] for a in merged]
        if refinement > 0 and not grew:
            stable = True
            break
        level = 2 * level - 1

    return EnumerationReport(
        roots=_roots(problem, *known, opts.dedup_tol),
        box=(lo, hi),
        grid_levels=levels,
        stable=stable,
        seeds_used=seeds_used,
    )


def _in_box(X: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Rows of ``X`` inside the box [lo - tol, hi + tol]."""
    return np.all(X >= lo - tol, axis=-1) & np.all(X <= hi + tol, axis=-1)


def _roots(problem: _Problem, X: np.ndarray, nF: np.ndarray, tol: float) -> list[ClassifiedSolution]:
    """The rows ``X`` (residual norms ``nF``) deduplicated, classified and sorted."""
    roots = [_classify_root(problem, X[i], nF[i]) for i in _dedup_points(X, nF, tol)]
    _sort_roots(roots, tol)
    return roots


# Boxes handled per pass of the branch-and-prune worklist: each pass pops at
# most this many and pushes at most twice as many, so the arrays of one pass
# are bounded whatever the box count.
_BOX_CHUNK = 1024


def _branch_and_prune(g: WeightedGraph, m: ScalarModel, lo: np.ndarray, hi: np.ndarray,
                      opts: SolveOptions):
    """Interval branch and prune over the box [lo, hi] for the scalar model.

    A depth-first worklist, processed in chunks of at most ``_BOX_CHUNK``
    boxes, sends each box X to one of four fates:

    * excluded, when :meth:`~cshlab.interval.ScalarKernel.excluded` proves it
      rootless or X meets K(X~) in the empty set;
    * included, when K(X~) lies in the interior of X~, where X~ is X widened
      by a sixteenth of its width on each side (so a root on a face shared
      by two boxes is still interior to one of them) and K the Krawczyk
      operator: X~ then holds exactly one root;
    * contracted to X ∩ K(X~) (which keeps every root of X) when that at
      least halves the widest side;
    * otherwise bisected on the widest side of X ∩ K(X~).

    A box whose widest side falls below ``opts.dedup_tol`` without being
    excluded or included is unresolved (degenerate roots and continua end
    here); it is kept, never dropped.  Processing more than
    ``opts.seed_cap`` boxes raises :class:`SolverError`.  One
    :class:`~cshlab.interval.ScalarKernel`, built before the first chunk,
    bounds every chunk: its box-independent constants are computed once.

    Returns ``(included_lo, included_hi, unresolved_lo, unresolved_hi,
    boxes)``: the included boxes X~, the unresolved boxes and the number of
    boxes processed.
    """
    kernel = interval.ScalarKernel(g, m)
    stack = [np.array((lo, hi))[:, None]]  # stacks of boxes, shape (2, B, n)
    empty = np.empty((2, 0, len(lo)))
    included, unresolved = [empty], [empty]
    boxes = 0
    while stack:
        X = stack.pop()
        while stack and X.shape[1] < _BOX_CHUNK:
            X = np.concatenate([stack.pop(), X], axis=1)
        if X.shape[1] > _BOX_CHUNK:  # keep the deepest boxes, push the rest back
            stack.append(X[:, :-_BOX_CHUNK])
            X = X[:, -_BOX_CHUNK:]
        boxes += X.shape[1]
        if boxes > opts.seed_cap:
            raise SolverError(f"box budget exceeded: more than {opts.seed_cap} boxes "
                              "(seed_cap) in branch and prune")
        X = X[:, ~kernel.excluded(X)]
        if not X.shape[1]:
            continue
        pad = (X[1] - X[0]) / 16.0
        W = np.array((X[0] - pad, X[1] + pad))
        K = kernel.krawczyk(W)
        inc = ((K[0] > W[0]) & (K[1] < W[1])).all(axis=1)
        included.append(W[:, inc])
        X, K = X[:, ~inc], K[:, ~inc]
        # fmax/fmin ignore a NaN bound of K: no information, no contraction
        C = np.array((np.fmax(X[0], K[0]), np.fmin(X[1], K[1])))
        width = (C[1] - C[0]).max(axis=1)
        live = (C[0] <= C[1]).all(axis=1)
        small = live & (width < opts.dedup_tol)
        unresolved.append(C[:, small])
        shrunk = live & ~small & (width <= 0.5 * (X[1] - X[0]).max(axis=1))
        split = live & ~small & ~shrunk
        S = C[:, split]
        axis = (S[1] - S[0]).argmax(axis=1)
        rows = np.arange(len(axis))
        mid = S[0, rows, axis] + 0.5 * (S[1, rows, axis] - S[0, rows, axis])
        left, right = S.copy(), S  # halves of S: [lo, mid] and [mid, hi] on the axis
        left[1, rows, axis] = mid
        right[0, rows, axis] = mid
        stack.append(np.concatenate([C[:, shrunk], left, right], axis=1))
    return (*np.concatenate(included, axis=1), *np.concatenate(unresolved, axis=1), boxes)


def _cluster_seeds(problem: _Problem, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """One Newton seed per cluster of unresolved boxes.

    Boxes whose midpoints lie within ``2 tol`` of each other (sup norm) are
    linked, and a cluster is a connected component of those links; its seed
    is the midpoint with the lowest residual.
    """
    if not len(lo):
        return np.empty((0, problem.n))
    # imported here: only runs with unresolved boxes reach this
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    mids = lo + 0.5 * (hi - lo)
    pairs = cKDTree(mids).query_pairs(2.0 * tol, p=np.inf, output_type="ndarray")
    links = coo_array((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                      shape=(len(mids), len(mids)))
    labels = connected_components(links, directed=False)[1]
    order = np.lexsort((_norms(_residual_rows(problem, mids)), labels))
    first = np.flatnonzero(np.diff(labels[order], prepend=-1))
    return mids[order[first]]


def _certified_report(g: WeightedGraph, m: ScalarModel, problem: _Problem, lo: np.ndarray,
                      hi: np.ndarray, opts: SolveOptions) -> EnumerationReport:
    """Branch and prune over the box, then Newton polish of what it found.

    Polished rows: the midpoint of every included box, one seed per cluster
    of unresolved boxes and the constant roots inside an unresolved box;
    the converged rows inside the box become roots through :func:`_roots`.
    An included box whose polished row does not converge inside it counts as
    unresolved (an included box at the edge may hold a root just outside the
    search box; that root is found but not reported, as on the grid path).  A report is certified only when no box is unresolved and
    every root is nondegenerate: every root of the box then lies in an
    included box, on which det J keeps one sign, and that sign is the
    root's ``sign_det``.
    """
    inc_lo, inc_hi, unr_lo, unr_hi, boxes = _branch_and_prune(g, m, lo, hi, opts)
    anchors = [a for a in problem.anchors()
               if np.any(_in_box(a, unr_lo, unr_hi, opts.dedup_tol))]
    seeds = np.vstack([inc_lo + 0.5 * (inc_hi - inc_lo),
                       _cluster_seeds(problem, unr_lo, unr_hi, opts.dedup_tol),
                       np.reshape(anchors, (-1, problem.n))])
    X, nF, status = _newton_batch(problem, seeds, opts)
    converged = status == _CONVERGED
    k = len(inc_lo)
    held = converged[:k] & _in_box(X[:k], inc_lo, inc_hi)
    unresolved = len(unr_lo) + int(np.count_nonzero(~held))
    ok = converged & _in_box(X, lo, hi, opts.dedup_tol)
    roots = _roots(problem, X[ok], nF[ok], opts.dedup_tol)
    certified = unresolved == 0 and all(r.nondegenerate for r in roots)
    return EnumerationReport(
        roots=roots,
        box=(lo, hi),
        grid_levels=[],
        stable=certified,
        seeds_used=len(seeds),
        certified=certified,
        boxes=boxes,
        unresolved=unresolved,
    )


def _warn_small_box(g: WeightedGraph, models: list, box, stacklevel: int) -> None:
    """Warn when ``box`` (None: each model's own ball) misses part of the a priori
    ball of any of ``models``; ``stacklevel`` counts as for :func:`warnings.warn`."""
    radii = [_apriori_radius_or_none(g, m) for m in models] if box is not None else []
    radius = max((r for r in radii if r is not None), default=None)
    if radius is None:
        return
    lo, hi = _normalize_box(box, g.ell)
    slack = 1e-6 * (1.0 + radius)
    if np.any(lo > -radius + slack) or np.any(hi < radius - slack):
        warnings.warn(f"box is smaller than the a priori radius {radius:.3g}; "
                      "roots outside the box will be missed", stacklevel=stacklevel + 1)


def _apriori_radius_or_none(g: WeightedGraph, model) -> float | None:
    """The a priori radius of ``model``, or None where no bound applies.

    Only the scalar model with p = 1, sigma = 1 and lam * mean(f) != 0 has one
    (:func:`~cshlab.scalar.apriori_radius`); system models get None here.
    """
    if not isinstance(model, ScalarModel):
        return None
    try:
        return apriori_radius(g, model).radius
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# super/sub-solution bracketing for lam > 0, mean-zero source

@dataclass(frozen=True)
class SubsolutionBounds:
    """Bracketing box between a sub- and a super-solution (lam > 0)."""

    lower: np.ndarray
    upper: np.ndarray
    u0: np.ndarray
    kappa1: float
    A: float


def subsolution_bounds(g: WeightedGraph, f: np.ndarray, lam: float) -> SubsolutionBounds | None:
    """Componentwise bracket [u0 + ln(kappa1/lam), A] for the lam > 0 model.

    Needs the linear problem ``L u0 = f`` to be solvable, i.e. mean(f) = 0;
    returns None otherwise.  ``kappa1 = lam/2 * min(1, e^(-max u0))`` makes
    the lower function a strict sub-solution; the constant upper bound A >= 1
    is the smallest value with ``lam e^A (e^A - 1) >= ||f||_inf + 1``, hence a
    strict super-solution, so the energy's minimizer over the box is an
    interior solution.  Certified enumeration of the box
    (:func:`enumerate_report` with ``check_box=False``) proves every root in
    it; its Morse index is the float one of :func:`morse_data`.
    ``ValueError`` unless lam is finite and positive.
    """
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    if lam <= 0.0:
        raise ValueError("subsolution bracket requires lam > 0")
    f = np.asarray(f, dtype=float)
    fbar = float(f @ g.mu / g.volume)
    if abs(fbar) > 1e-10 * (1.0 + sup_norm(f)):
        return None
    u0 = solve_poisson(g, f - fbar)
    kappa1 = 0.5 * lam * min(1.0, float(np.exp(-u0.max())))
    lower = u0 + np.log(kappa1 / lam)
    s = (sup_norm(f) + 1.0) / lam
    A = max(1.0, float(np.log(0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s)))))
    return SubsolutionBounds(
        lower=lower,
        upper=np.full(g.ell, A),
        u0=u0,
        kappa1=float(kappa1),
        A=A,
    )
