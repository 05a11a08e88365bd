"""Root finding, exhaustive small-graph enumeration and Morse classification.

The workhorse is a damped Newton iteration with Armijo backtracking that runs
on whole batches of seeds at once, so grid-seeded enumeration over tiny graphs
stays fast even with 10^5..10^6 seeds.  Each Newton step is one stacked linear
solve; when a singular Jacobian makes it fail, the sign of the LU determinant
picks out the singular rows, the rest are solved in one stacked call again and
only the singular rows take a least-squares step: one ``lstsq`` call per
distinct singular Jacobian, with the right-hand sides of the rows sharing it
as columns (in the far field of the seeding box every singular Jacobian is the
same -L).  Grid seeds are deduplicated by one stable lexicographic sort.  The
backtracking ladder 1, d, d^2, ... is tested in blocks of 1, 1, 2, 4, ... step
lengths, each block one stacked residual call over the rows still searching;
every row accepts the first step length of the ladder that passes the Armijo
test, as a one-at-a-time search would, and no block holds more trial rows than
the full-step round.  Row sup norms fold the short last axis column by column
(:func:`~cshlab.graphs.sup_norm`).  Each grid level merges its converged rows
into the known roots with one greedy sup-norm dedup pass over both (known rows
first, so a re-found root replaces a known one only with a strictly lower
residual).  Roots are classified through the eigenvalues of the energy
Hessian in the mu-weighted inner product, and reported sorted on coordinates
rounded to the dedup tolerance, so ties at rounding level cannot flip the order.

``newton``, ``solve_scalar`` and ``solve_system`` share one single-seed path:
a non-finite seed or one outside the exp guard is rejected, and a failed run
raises :class:`~cshlab.errors.SolverError` naming its reason (the line search
stalled, the iterate left the admissible range, or max_iter was exceeded).

Completeness of enumeration is empirical, never certified: a grid whose
refinement by doubling produces no new roots is declared stable, and reports
carry the grid parameters used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as sciopt

from .errors import SolverError
from .graphs import WeightedGraph, solve_poisson, sup_norm
from .scalar import (
    EXP_GUARD,
    ScalarModel,
    _check_range,
    apriori_radius,
    constant_solutions,
    energy as scalar_energy,
    jacobian as scalar_jacobian,
    residual as scalar_residual,
)
from .system import SystemModel, hessian_system, jacobian_system, residual_pair

__all__ = [
    "SolveOptions",
    "ClassifiedSolution",
    "MorseData",
    "EnumerationReport",
    "BoxExtremum",
    "SubsolutionBounds",
    "morse_data",
    "newton",
    "solve_scalar",
    "solve_system",
    "enumerate_solutions",
    "enumerate_report",
    "box_extremize",
    "extremize_scalar_in_box",
    "subsolution_bounds",
    "default_grid_n",
]

# Seeds are clipped to this window: below -45 the exponential terms vanish at
# double precision (the residual is numerically constant in that direction),
# and no root in the models at hand can carry a larger positive component, so
# seeding outside the window only duplicates basins already covered.
_SEED_WINDOW = 45.0


@dataclass
class SolveOptions:
    """Tolerances and budgets shared by the solver entry points."""

    tol_residual: float = 1e-12
    max_iter: int = 200
    damping: float = 0.5
    armijo: float = 1e-4
    dedup_tol: float = 1e-6
    grid_n: int | None = None
    seed_cap: int = 10_000_000
    max_refinements: int = 1
    core_window: tuple[float, float] = (-12.0, 4.0)
    diag_seeds: int = 801
    polish_steps: int = 6
    rng_seed: int = 0
    check_callbacks: bool = False

    def __post_init__(self):
        if self.tol_residual <= 0.0:
            raise ValueError("tol_residual must be positive")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        if not 0.0 < self.armijo < 1.0:
            raise ValueError("armijo must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be non-negative")
        if self.polish_steps < 0:
            raise ValueError("polish_steps must be non-negative")
        if self.seed_cap < 1:
            raise ValueError("seed_cap must be at least 1")
        lo, hi = self.core_window
        if not lo < hi:
            raise ValueError("core_window must be (lo, hi) with lo < hi")
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
    elsewhere; strict extrema are the m = 0 and m = n cases.
    ``pseudo_inverse_used`` is set when some Newton step on the way took a
    least-squares step, which happens only where the LU factorization of the
    Jacobian met an exactly zero pivot; a near-singular Jacobian whose pivot
    rounds to a tiny nonzero value takes the ordinary solve and is not flagged.
    """

    point: np.ndarray
    residual_norm: float
    sign_det: int
    morse_index: int
    nondegenerate: bool
    pseudo_inverse_used: bool = False
    iterations: int = 0

    @property
    def n(self) -> int:
        return len(self.point)

    @property
    def critical_group_ranks(self) -> tuple[int, ...] | None:
        """Ranks in dimensions 0..n; None (unknown) at a degenerate point."""
        if not self.nondegenerate:
            return None
        return tuple(1 if r == self.morse_index else 0 for r in range(self.n + 1))


def morse_data(matrix: np.ndarray, mu: np.ndarray | None = None, rtol: float = 1e-8) -> MorseData:
    """Classify a critical point from its energy Hessian.

    ``matrix`` must be symmetric in the mu-weighted inner product; it is
    conjugated by mu^(1/2) before the symmetric eigensolve.  The Morse index
    counts negative eigenvalues; eigenvalues below ``rtol`` times the spectral
    radius mark the point degenerate, with sign 0 and unknown critical groups.
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
    nondeg = spectral_radius > 0.0 and float(np.abs(ev).min()) > rtol * spectral_radius
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
    out = np.full(X.shape, np.inf)
    inb = sup_norm(X) <= EXP_GUARD
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


def _newton_steps(problem: _Problem, X: np.ndarray, F: np.ndarray, pseudo: np.ndarray):
    """Stacked solve of J step = -F, with least squares for singular rows only.

    Rows with a non-finite Jacobian or step get a zero step and come back
    flagged in ``bad``.  The finite rows go to one stacked ``np.linalg.solve``.
    If a singular row makes it raise, one batched ``slogdet`` marks the rows
    whose LU has a zero pivot (sign 0: the same ``getrf`` factorization that
    makes ``solve`` reject a row) and the other rows are solved in one stacked
    call.  The singular rows take a least-squares step with ``pseudo`` set:
    rows whose Jacobians are equal byte for byte (so -0.0 and 0.0 differ)
    share one ``lstsq`` call, their right-hand sides stacked as its columns.
    In the far field every singular Jacobian is the same -L, so one call
    serves thousands of rows.  With OpenBLAS 0.3.31 each column equals a
    one-column call bit for bit for Jacobians up to 7x7; from 8x8 on, random
    right-hand sides were seen to differ in the last bits (below 1e-14
    relative).
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
            pseudo[idx[sing]] = True
    bad = ~np.isfinite(sup_norm(steps))
    steps[bad] = 0.0
    return steps, bad


# row status codes
_RUNNING, _CONVERGED, _STALLED, _DIVERGED, _EXHAUSTED = 0, 1, 2, 3, 4


def _newton_batch(problem: _Problem, seeds: np.ndarray, opts: SolveOptions):
    """Damped Newton on every seed row at once.

    Returns ``(X, res_norm, status, pseudo, iters)`` arrays; rows with status
    ``_CONVERGED`` hold polished roots with residual below ``tol_residual``.
    """
    X = np.array(seeds, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    N = len(X)
    F = _residual_rows(problem, X)
    nF = _norms(F)
    status = np.full(N, _RUNNING, dtype=np.int8)
    status[~np.isfinite(nF)] = _DIVERGED
    pseudo = np.zeros(N, dtype=bool)
    iters = np.zeros(N, dtype=np.int32)
    # backtracking step lengths 1, d, d^2, ... >= 1e-12, built by repeated
    # multiplication so each equals the one a shrink-per-round loop reaches
    ladder = [1.0]
    while ladder[-1] * opts.damping >= 1e-12:
        ladder.append(ladder[-1] * opts.damping)
    ladder = np.array(ladder)
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
        iters[act] += 1
        psub = pseudo[act].copy()
        steps, bad = _newton_steps(problem, X[act], F[act], psub)
        pseudo[act] = psub
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
        while rows.size and pos < ladder.size:
            width = min(max(pos, 1), live.size // rows.size, ladder.size - pos)
            t = ladder[pos:pos + width]
            trial = base[rows, None] + t[:, None] * steps[rows, None]
            Ft = _residual_rows(problem, trial.reshape(-1, X.shape[1])).reshape(trial.shape)
            nFt = _norms(Ft)
            ok = nFt <= (1.0 - opts.armijo * t) * base_norm[rows, None]
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
    for _ in range(opts.polish_steps):
        if conv.size == 0:
            break
        psub = pseudo[conv].copy()
        steps, bad = _newton_steps(problem, X[conv], F[conv], psub)
        pseudo[conv] = psub
        trial = X[conv] + steps
        Ft = _residual_rows(problem, trial)
        nFt = _norms(Ft)
        better = ~bad & (nFt < nF[conv])
        gi = conv[better]
        X[gi] = trial[better]
        F[gi] = Ft[better]
        nF[gi] = nFt[better]
        conv = gi
    return X, nF, status, pseudo, iters


def _classify_root(problem: _Problem, x: np.ndarray, res_norm: float,
                   pseudo: bool = False, iterations: int = 0) -> ClassifiedSolution:
    md = morse_data(problem.hessian(x), problem.mu)
    return ClassifiedSolution(
        point=np.asarray(x, dtype=float),
        residual_norm=float(res_norm),
        sign_det=md.sign_det,
        morse_index=md.morse_index,
        nondegenerate=md.nondegenerate,
        pseudo_inverse_used=bool(pseudo),
        iterations=int(iterations),
    )


_FAILURE_REASONS = {
    _STALLED: "line search stalled (possibly singular Jacobian region)",
    _DIVERGED: "iterate left the admissible range",
    _EXHAUSTED: "max_iter = {max_iter} exceeded",
}


def _solve_one(problem: _Problem, seed: np.ndarray, opts: SolveOptions) -> ClassifiedSolution:
    """Damped Newton from one seed, the path behind every single-seed entry point.

    A seed with a NaN or infinite entry raises ``ValueError``; a finite seed
    outside the exp guard raises ``OverflowGuardError``.  With
    ``opts.check_callbacks`` the Jacobian is first verified against central
    differences at the seed.  A run that does not converge raises
    :class:`SolverError` naming why (stalled, diverged or max_iter exceeded).
    """
    if not np.all(np.isfinite(seed)):
        raise ValueError(f"seed must be finite, got {seed}")
    _check_range(seed)
    if opts.check_callbacks:
        _verify_jacobian(lambda x: problem.residual(x[None])[0],
                         lambda x: problem.jacobian(x[None])[0], seed)
    X, nF, status, pseudo, iters = _newton_batch(problem, seed[None, :], opts)
    if status[0] != _CONVERGED:
        reason = _FAILURE_REASONS[int(status[0])].format(max_iter=opts.max_iter)
        raise SolverError(f"Newton failed: {reason}")
    return _classify_root(problem, X[0], nF[0], pseudo[0], iters[0])


def _broadcast(x, n: int) -> np.ndarray:
    """``x`` as a float vector of length ``n``; a scalar fills it."""
    return np.full(n, float(x)) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    seed: np.ndarray,
    opts: SolveOptions | None = None,
    *,
    mu: np.ndarray | None = None,
    hessian: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ClassifiedSolution:
    """Damped Newton from one seed; raises :class:`SolverError` on failure.

    ``mu`` supplies the vertex measure used to classify the root (ones when
    omitted); ``hessian`` overrides the matrix used for classification, which
    defaults to the residual Jacobian (correct for the scalar model, where the
    Jacobian is the energy Hessian).  With ``opts.check_callbacks`` the
    Jacobian is verified against central differences at the seed first.
    """
    seed = np.asarray(seed, dtype=float)
    hess = hessian or jacobian
    # the callbacks take one point; a one-seed batch evaluates one row per call
    problem = _Problem(
        n=len(seed),
        mu=np.ones(len(seed)) if mu is None else np.asarray(mu, dtype=float),
        residual=lambda X: np.asarray(residual(X[0]), dtype=float)[None],
        jacobian=lambda X: np.asarray(jacobian(X[0]), dtype=float)[None],
        hessian=lambda x: np.asarray(hess(x), dtype=float),
        anchors=lambda: [],
    )
    return _solve_one(problem, seed, opts or SolveOptions())


def _verify_jacobian(res, jac, x: np.ndarray, h: float = 1e-6, tol: float = 1e-4) -> None:
    J = np.asarray(jac(x), dtype=float)
    n = len(x)
    fd = np.empty_like(J)
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        diff = np.asarray(res(x + e), dtype=float) - np.asarray(res(x - e), dtype=float)
        fd[:, k] = diff / (2.0 * h)
    if not np.allclose(J, fd, rtol=tol, atol=tol * (1.0 + np.abs(J).max())):
        raise ValueError("jacobian callback disagrees with finite differences of residual")


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
    """Roots plus the grid-stability evidence for the enumeration run."""

    roots: list[ClassifiedSolution]
    box: tuple[np.ndarray, np.ndarray]
    grid_levels: list[int]
    stable: bool
    seeds_used: int


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


def _seed_set(problem: _Problem, box_lo, box_hi, grid_n: int, opts: SolveOptions,
              extra: list[np.ndarray], include_box_net: bool = True) -> np.ndarray:
    n = problem.n
    lo, hi = _seed_box(box_lo, box_hi)
    parts = []
    if include_box_net:
        parts.append(_grid_seeds(lo, hi, grid_n))
    core_lo = np.maximum(lo, opts.core_window[0])
    core_hi = np.minimum(hi, opts.core_window[1])
    if np.all(core_hi > core_lo) and (np.any(core_lo > lo) or np.any(core_hi < hi) or not include_box_net):
        parts.append(_grid_seeds(core_lo, core_hi, grid_n))
    # constant functions seed cheaply along the diagonal(s)
    c_lo, c_hi = float(lo.max()), float(hi.min())
    if c_hi > c_lo:
        cs = np.linspace(c_lo, c_hi, min(opts.diag_seeds, 16 * grid_n + 1))
        if problem.pair:
            half = n // 2
            m1d = min(2 * grid_n + 1, 61)
            cu, cv = np.meshgrid(
                np.linspace(c_lo, c_hi, m1d), np.linspace(c_lo, c_hi, m1d), indexing="ij"
            )
            pairs = np.concatenate(
                [np.repeat(cu.ravel()[:, None], half, axis=1),
                 np.repeat(cv.ravel()[:, None], half, axis=1)],
                axis=1,
            )
            parts.append(pairs)
        parts.append(np.repeat(cs[:, None], n, axis=1))
    for a in problem.anchors():
        a = np.asarray(a, dtype=float)
        if a.shape == (n,) and np.all(a >= box_lo - 1e-9) and np.all(a <= box_hi + 1e-9):
            parts.append(a[None, :])
    for e in extra:
        e = np.asarray(e, dtype=float).reshape(-1, n)
        parts.append(np.clip(e, box_lo, box_hi))
    if not parts:
        return np.empty((0, n))
    seeds = np.vstack(parts)
    # the rows of np.unique(seeds, axis=0), without its slow structured sort
    order, starts = _equal_row_runs(seeds)
    return seeds[order[starts[:-1]]]


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
    extra_seeds: Sequence[np.ndarray] | None = None,
    check_box: bool = True,
) -> EnumerationReport:
    """Grid-seeded enumeration of all roots in a box, with refinement probe.

    Seeds are a uniform grid over the box, a denser grid over the core window
    (where the nonlinearity actually turns), constant functions along the
    diagonal, exact constant-solution anchors when available, and any caller
    warm starts.  After the base level the grid is refined by doubling up to
    ``opts.max_refinements`` times; the run is declared stable when a
    refinement produces no root farther than ``dedup_tol`` from the known set.
    """
    opts = opts or SolveOptions()
    problem = _make_problem(g, model)
    radius = _apriori_radius_or_none(g, model) if box is None or check_box else None
    if box is None:
        if radius is None:
            raise ValueError("no a priori bound (it needs a scalar model with p = 1, sigma = 1 "
                             "and lam * mean(f) != 0); pass box explicitly")
        box = (-radius, radius)
    lo, hi = _normalize_box(box, problem.n)
    if check_box and radius is not None:
        slack = 1e-6 * (1.0 + radius)
        if np.any(lo > -radius + slack) or np.any(hi < radius - slack):
            warnings.warn(
                f"box is smaller than the a priori radius {radius:.3g}; "
                "roots outside the box will be missed",
                stacklevel=2,
            )
    level = grid_n if grid_n is not None else (opts.grid_n or default_grid_n(problem.n, problem.pair))
    if level < 2:
        raise ValueError("grid_n must be at least 2")

    extra = [np.asarray(e, dtype=float) for e in (extra_seeds or [])]
    # known roots as parallel arrays: points, residual norms, pseudo flags, iterations
    known = [np.empty((0, problem.n)), np.empty(0), np.empty(0, dtype=bool),
             np.empty(0, dtype=np.int32)]
    levels: list[int] = []
    stable = False
    seeds_used = 0

    for refinement in range(opts.max_refinements + 1):
        # the grid alone has level**n distinct seeds: check before building it
        grid_size = int(level) ** problem.n
        if grid_size > opts.seed_cap:
            if refinement == 0:
                raise SolverError(
                    f"seed budget exceeded: {grid_size} grid seeds > cap {opts.seed_cap}"
                )
            break
        seeds = _seed_set(problem, lo, hi, level, opts,
                          extra + [known[0]] if len(known[0]) else extra,
                          include_box_net=(refinement == 0))
        if len(seeds) > opts.seed_cap:
            if refinement == 0:
                raise SolverError(
                    f"seed budget exceeded: {len(seeds)} seeds > cap {opts.seed_cap}"
                )
            break
        seeds_used += len(seeds)
        levels.append(level)
        X, nF, status, pseudo, iters = _newton_batch(problem, seeds, opts)
        sel = ((status == _CONVERGED) & np.all(X >= lo - opts.dedup_tol, axis=1)
               & np.all(X <= hi + opts.dedup_tol, axis=1))
        # known rows come first, so a tie keeps the known root: a re-found
        # root replaces it only with a strictly lower residual
        merged = [np.concatenate([k, a[sel]]) for k, a in zip(known, (X, nF, pseudo, iters))]
        kept = _dedup_points(merged[0], merged[1], opts.dedup_tol)
        grew = len(kept) > len(known[0])
        known = [a[kept] for a in merged]
        if refinement > 0 and not grew:
            stable = True
            break
        level = 2 * level - 1

    roots = [_classify_root(problem, *row) for row in zip(*known)]
    _sort_roots(roots, opts.dedup_tol)
    return EnumerationReport(
        roots=roots,
        box=(lo, hi),
        grid_levels=levels,
        stable=stable,
        seeds_used=seeds_used,
    )


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


def enumerate_solutions(
    g: WeightedGraph,
    model,
    box=None,
    grid_n: int | None = None,
    opts: SolveOptions | None = None,
    extra_seeds: Sequence[np.ndarray] | None = None,
    check_box: bool = True,
) -> list[ClassifiedSolution]:
    """Deduplicated, classified roots in the box, sorted lexicographically on
    coordinates rounded to ``dedup_tol``.

    ``check_box`` controls the warning raised when the box is smaller than
    the a priori radius; callers scanning sub-windows on purpose disable it.
    """
    return enumerate_report(g, model, box, grid_n, opts, extra_seeds, check_box).roots


# ---------------------------------------------------------------------------
# box-constrained extremization

@dataclass
class BoxExtremum:
    """Outcome of extremizing an energy over a closed box.

    Interior extremizers are polished into unconstrained critical points and
    carry a strictness certificate from the Hessian; boundary contacts are
    reported with the touching coordinates instead (the shape of the argument
    used to rule them out analytically).
    """

    point: np.ndarray
    value: float
    interior: bool
    touching: tuple[tuple[int, str], ...]
    solution: ClassifiedSolution | None
    certificate: str | None


def box_extremize(
    energy: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    mode: str = "min",
    opts: SolveOptions | None = None,
    hessian: Callable[[np.ndarray], np.ndarray] | None = None,
    n_starts: int = 8,
) -> BoxExtremum:
    """Extremize ``energy`` over ``{lower <= x <= upper}`` componentwise.

    ``energy`` and ``gradient`` use plain coordinates (``gradient`` returns
    the ordinary partial derivatives).  ``mode`` is "min" or "max".  Runs
    multi-start L-BFGS-B, then either reports the boundary contact or Newton-
    polishes the interior extremizer and certifies its type.
    """
    opts = opts or SolveOptions()
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape:
        raise ValueError("box bounds have mismatched shapes")
    if np.any(upper <= lower):
        raise ValueError("degenerate box: need lower < upper componentwise")
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    sign = 1.0 if mode == "min" else -1.0
    n = len(lower)
    width = upper - lower

    rng = np.random.default_rng(opts.rng_seed)
    starts = [0.5 * (lower + upper), lower + 0.25 * width, upper - 0.25 * width]
    starts += [lower + rng.uniform(0.05, 0.95, size=n) * width for _ in range(max(0, n_starts - 3))]
    for s in starts:
        if not np.isfinite(energy(s)):
            raise SolverError("non-finite energy inside the box")

    best = None
    for s in starts:
        r = sciopt.minimize(
            lambda x: sign * float(energy(x)),
            s,
            jac=lambda x: sign * np.asarray(gradient(x), dtype=float),
            bounds=list(zip(lower, upper)),
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
        )
        if best is None or r.fun < best.fun:
            best = r
    x = np.clip(best.x, lower, upper)

    btol = 1e-7 * np.maximum(1.0, width)
    lo_touch = x - lower <= btol
    hi_touch = upper - x <= btol
    touching = tuple(
        [(int(i), "lower") for i in np.nonzero(lo_touch)[0]]
        + [(int(i), "upper") for i in np.nonzero(hi_touch)[0]]
    )
    if touching:
        return BoxExtremum(
            point=x,
            value=float(energy(x)),
            interior=False,
            touching=touching,
            solution=None,
            certificate=None,
        )

    hess = hessian or (lambda z: _fd_jacobian(gradient, z))
    x = _polish_gradient_root(gradient, hess, x, lower, upper, opts)
    H = np.asarray(hess(x), dtype=float)
    md = morse_data(0.5 * (H + H.T))
    if md.nondegenerate and md.morse_index == 0 and mode == "min":
        certificate = "strict-min"
    elif md.nondegenerate and md.morse_index == n and mode == "max":
        certificate = "strict-max"
    else:
        certificate = "degenerate"
    solution = ClassifiedSolution(
        point=x,
        residual_norm=float(sup_norm(np.asarray(gradient(x), dtype=float))),
        sign_det=md.sign_det,
        morse_index=md.morse_index,
        nondegenerate=md.nondegenerate,
    )
    return BoxExtremum(
        point=x,
        value=float(energy(x)),
        interior=True,
        touching=(),
        solution=solution,
        certificate=certificate,
    )


def _fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    n = len(x)
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        cols.append((np.asarray(fn(x + e), dtype=float) - np.asarray(fn(x - e), dtype=float)) / (2 * h))
    return np.stack(cols, axis=1)


def _polish_gradient_root(gradient, hessian, x, lower, upper, opts: SolveOptions) -> np.ndarray:
    """Newton on the gradient, constrained to stay strictly inside the box."""
    gx = np.asarray(gradient(x), dtype=float)
    for _ in range(60):
        if sup_norm(gx) <= opts.tol_residual:
            return x
        H = np.asarray(hessian(x), dtype=float)
        try:
            step = np.linalg.solve(H, -gx)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, -gx, rcond=None)[0]
        t = 1.0
        while t > 1e-12:
            xn = x + t * step
            if np.all(xn > lower) and np.all(xn < upper):
                gn = np.asarray(gradient(xn), dtype=float)
                if sup_norm(gn) < sup_norm(gx):
                    x, gx = xn, gn
                    break
            t *= opts.damping
        else:
            break
    if sup_norm(gx) > opts.tol_residual:
        raise SolverError("interior extremizer polish failed to reach gradient tolerance")
    return x


def extremize_scalar_in_box(
    g: WeightedGraph,
    m: ScalarModel,
    lower,
    upper,
    mode: str = "min",
    opts: SolveOptions | None = None,
) -> BoxExtremum:
    """Box extremization of the scalar energy with analytic callbacks."""
    return box_extremize(
        energy=lambda u: scalar_energy(g, m, u),
        gradient=lambda u: scalar_residual(g, m, u) * g.mu,
        lower=_broadcast(lower, g.ell),
        upper=_broadcast(upper, g.ell),
        mode=mode,
        opts=opts,
        hessian=lambda u: scalar_jacobian(g, m, u) * g.mu[:, None],
    )


# ---------------------------------------------------------------------------
# super/sub-solution bracketing for lam > 0, mean-zero source

@dataclass(frozen=True)
class SubsolutionBounds:
    """Bracketing box whose minimizer is an interior solution (lam > 0)."""

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
    strict super-solution.  Minimizing the energy over the box then yields an
    interior solution.
    """
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
