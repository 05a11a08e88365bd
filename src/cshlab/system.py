"""Generalized Chern-Simons Higgs system on a weighted graph.

For half-integers p, q (so 2p and 2q are odd positive integers), deformation
``sigma`` in [0, 1] and sources f, g, the system is

    L u = 2q e^v (e^u - sigma)^(2p) (e^v - sigma)^(2q-1) + f,
    L v = 2p e^u (e^u - sigma)^(2p-1) (e^v - sigma)^(2q)  + g.

Only unit coupling is implemented; a positive coupling constant can be
absorbed into the analysis without changing any conclusion.  All exponents
are evaluated as repeated integer multiplication so that signs of negative
bases are exact.

The pair functional

    G(u, v) = int grad u . grad v dmu + int (e^u-1)^(2p) (e^v-1)^(2q) dmu
              + int (f v + g u) dmu

has the sigma = 1 system as its critical-point equation; note the pairing
swap: d/dt G(u + t a, v + t b)|_0 = int [R2 * a + R1 * b] dmu where R1, R2 are
the first and second residuals.  The functional's Hessian is therefore the
block-row swap of the residual Jacobian, and that swapped matrix is the one
that is symmetric in the mu-weighted product and feeds Morse classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    WeightedGraph,
    as_vertex_function,
    average,
    integrate,
    spectral_gap,
    sup_norm,
)
from .scalar import _check_range, _ipow

__all__ = [
    "SystemModel",
    "SystemBound",
    "residual_pair",
    "functional_G",
    "jacobian_system",
    "hessian_system",
    "apriori_bound_system",
]


def _half_integer(x: float, name: str) -> float:
    k = round(2.0 * x)
    if abs(2.0 * x - k) > 1e-9 or k < 1 or k % 2 == 0:
        raise ValueError(f"{name} must be a half-integer 1/2, 3/2, 5/2, ... (got {x})")
    return k / 2.0


@dataclass(frozen=True)
class SystemModel:
    """Parameters (p, q, sigma, f, g) of the system."""

    p: float
    q: float
    f: np.ndarray
    g: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", _half_integer(self.p, "p"))
        object.__setattr__(self, "q", _half_integer(self.q, "q"))
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")
        for name in ("f", "g"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"source {name} has non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def two_p(self) -> int:
        return int(round(2 * self.p))

    @property
    def two_q(self) -> int:
        return int(round(2 * self.q))


@dataclass(frozen=True)
class SystemBound:
    """Explicit a priori bound on ||u||_inf + ||v||_inf for solutions.

    Valid whenever fbar > 0, gbar > 0 and the sources obey
    ``Lambda1^-1 <= |int f dmu| <= Lambda1`` (same for g) and
    ``||f||_inf, ||g||_inf <= Lambda2``; holds uniformly in sigma in [0, 1].
    """

    Lambda1: float
    Lambda2: float
    Lambda3: float
    Ctilde: float
    b: float
    c: float
    C1: float
    C2: float
    bound: float


def residual_pair(
    g: WeightedGraph, s: SystemModel, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of both equations; the zero pair characterizes solutions."""
    u = as_vertex_function(g, u)
    v = as_vertex_function(g, v)
    _check_range(u, v)
    neg_lap = g.neg_laplacian_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        eu, ev = np.exp(u), np.exp(v)
        au, bv = eu - s.sigma, ev - s.sigma
        r1 = u @ neg_lap.T + 2 * s.q * ev * _ipow(au, s.two_p) * _ipow(bv, s.two_q - 1) + s.f
        r2 = v @ neg_lap.T + 2 * s.p * eu * _ipow(au, s.two_p - 1) * _ipow(bv, s.two_q) + s.g
    return r1, r2


def functional_G(g: WeightedGraph, s: SystemModel, u: np.ndarray, v: np.ndarray) -> float:
    """Value of the pair functional (sigma = 1 only)."""
    if s.sigma != 1.0:
        raise ValueError("the pair functional is defined for the sigma=1 system")
    u = as_vertex_function(g, u)
    v = as_vertex_function(g, v)
    _check_range(u, v)
    neg_lap = g.neg_laplacian_matrix()
    cross = float((u @ neg_lap.T) @ (v * g.mu))   # int grad u . grad v dmu
    with np.errstate(over="ignore", invalid="ignore"):
        well = float(integrate(g, _ipow(np.exp(u) - 1.0, s.two_p) * _ipow(np.exp(v) - 1.0, s.two_q)))
    src = float(integrate(g, s.f * v + s.g * u))
    return cross + well + src


def _diagonal_blocks(s: SystemModel, u: np.ndarray, v: np.ndarray):
    """Pointwise derivatives of the two nonlinearities.

    Returns (d11, d12, d21, d22) with d11 = d(N1)/du etc.; d11 == d22.  Terms
    whose combinatorial coefficient vanishes (exponent 2q-1 = 0 or 2p-1 = 0)
    are skipped so no negative powers are ever formed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eu, ev = np.exp(u), np.exp(v)
        au, bv = eu - s.sigma, ev - s.sigma
        d11 = 4 * s.p * s.q * eu * ev * _ipow(au, s.two_p - 1) * _ipow(bv, s.two_q - 1)
        d12 = 2 * s.q * ev * _ipow(au, s.two_p) * _ipow(bv, s.two_q - 1)
        if s.two_q >= 2:
            d12 = d12 + 2 * s.q * (s.two_q - 1) * ev * ev * _ipow(au, s.two_p) * _ipow(bv, s.two_q - 2)
        d21 = 2 * s.p * eu * _ipow(au, s.two_p - 1) * _ipow(bv, s.two_q)
        if s.two_p >= 2:
            d21 = d21 + 2 * s.p * (s.two_p - 1) * eu * eu * _ipow(au, s.two_p - 2) * _ipow(bv, s.two_q)
    return d11, d12, d21, d11


def jacobian_system(
    g: WeightedGraph, s: SystemModel, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Derivative of ``residual_pair`` as a 2ell x 2ell block matrix.

    Row blocks follow the residual order (first equation, then second); cross
    blocks are diagonal matrices.
    """
    u = as_vertex_function(g, u)
    v = as_vertex_function(g, v)
    _check_range(u, v)
    d11, d12, d21, d22 = _diagonal_blocks(s, u, v)
    ell = g.ell
    neg_lap = g.neg_laplacian_matrix()
    J = np.zeros(u.shape[:-1] + (2 * ell, 2 * ell))
    idx = np.arange(ell)
    J[..., :ell, :ell] = neg_lap
    J[..., idx, idx] += d11
    J[..., idx, ell + idx] = d12
    J[..., ell + idx, idx] = d21
    J[..., ell:, ell:] += neg_lap
    J[..., ell + idx, ell + idx] += d22
    return J


def hessian_system(
    g: WeightedGraph, s: SystemModel, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Second derivative of the pair functional: block-row swap of the Jacobian.

    This matrix is symmetric in the mu-weighted product on pairs and is the
    input for Morse data at a system root.
    """
    J = jacobian_system(g, s, u, v)
    ell = g.ell
    return np.concatenate([J[..., ell:, :], J[..., :ell, :]], axis=-2)


def _bisect_increasing(fn, target: float, lo: float = -50.0, hi: float = 50.0) -> float:
    """Root of the increasing scalar map fn(M) = target on [lo, hi], clamped."""
    if fn(lo) >= target:
        return lo
    if fn(hi) <= target:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * (1.0 + abs(hi)):
            break
    return 0.5 * (lo + hi)


def apriori_bound_system(
    g: WeightedGraph, s: SystemModel, Lambda1: float, Lambda2: float
) -> SystemBound:
    """Compute the explicit sup-norm bound for the system's solutions.

    Requires fbar > 0 and gbar > 0 and checks that the supplied sources
    actually satisfy the Lambda constraints.  The constants C1, C2 solve the
    monotone relations ``Lambda1^-1 / (2q |V|) = (e^(2 Ct (L2+L3)) + 1)^(2p)
    e^M (e^M + 1)^(2q-1)`` (and the p/q-swapped analog) by bisection, which is
    exact because the right side is strictly increasing in M.  Raises
    ``ValueError`` when the bound overflows (large ``Lambda2``), rather than
    return an infinite ball.
    """
    fbar, gbar = average(g, s.f), average(g, s.g)
    if fbar <= 0.0 or gbar <= 0.0:
        raise ValueError("the bound requires mean(f) > 0 and mean(g) > 0")
    if Lambda1 <= 0.0 or Lambda2 <= 0.0:
        raise ValueError("Lambda1 and Lambda2 must be positive")
    int_f, int_g = abs(integrate(g, s.f)), abs(integrate(g, s.g))
    if not (1.0 / Lambda1 <= int_f <= Lambda1 and 1.0 / Lambda1 <= int_g <= Lambda1):
        raise ValueError("sources violate Lambda1^-1 <= |int f dmu| <= Lambda1")
    if sup_norm(s.f) > Lambda2 or sup_norm(s.g) > Lambda2:
        raise ValueError("sources violate ||f||_inf <= Lambda2")

    Lambda3 = Lambda1 / g.volume
    spec = spectral_gap(g)
    ct = spec.elliptic_constant
    big = np.exp(2.0 * ct * (Lambda2 + Lambda3))
    b = (
        2.0 * max(s.p, s.q) * big * (big + 1.0) ** (s.two_p + s.two_q - 1)
        + Lambda3
        + ct * (Lambda2 + Lambda3)
    )
    c = spec.elliptic_constant * b

    def rhs(two_a: int, two_b: int):
        # (big + 1)^(2a) e^M (e^M + 1)^(2b - 1), increasing in M
        def fn(M):
            return (big + 1.0) ** two_a * np.exp(M) * (np.exp(M) + 1.0) ** (two_b - 1)

        return fn

    C1 = -_bisect_increasing(rhs(s.two_p, s.two_q), 1.0 / (Lambda1 * 2.0 * s.q * g.volume))
    C2 = -_bisect_increasing(rhs(s.two_q, s.two_p), 1.0 / (Lambda1 * 2.0 * s.p * g.volume))
    bound = max(4.0 * ct * (Lambda2 + Lambda3), C1 + c, C2 + c)
    if not np.isfinite(bound):
        raise ValueError(f"the system bound overflows for Lambda1 = {Lambda1:g}, "
                         f"Lambda2 = {Lambda2:g}")
    return SystemBound(
        Lambda1=float(Lambda1),
        Lambda2=float(Lambda2),
        Lambda3=float(Lambda3),
        Ctilde=float(ct),
        b=float(b),
        c=float(c),
        C1=float(C1),
        C2=float(C2),
        bound=float(bound),
    )
