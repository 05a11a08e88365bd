"""Scalar Chern-Simons Higgs model on a weighted graph.

The model with coupling ``lam``, integer power ``p >= 1``, deformation
``sigma`` in [0, 1] and source ``f`` is the equation

    L u = lam * e^u (e^u - sigma)^(2p-1) + f,

whose residual map we write as ``F(u) = -L u + lam e^u (e^u - sigma)^(2p-1) + f``.
``p = 1, sigma = 1`` is the physical model.  Critical points of the energy

    J(u) = 1/2 int |grad u|^2 dmu + lam/(2p) int (e^u - sigma)^(2p) dmu + int f u dmu

are exactly the residual's zeros: the directional derivative of ``J`` at u in
direction ``delta_x`` equals ``F(u)(x)``.

Everything here is a pure function of immutable inputs; ``residual``,
``energy`` and ``jacobian`` accept batches of points shaped ``(..., ell)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import OverflowGuardError
from .graphs import (
    WeightedGraph,
    as_vertex_function,
    average,
    integrate,
    solve_poisson,
    spectral_gap,
    sup_norm,
)

__all__ = [
    "ScalarModel",
    "GaugeData",
    "AprioriData",
    "EXP_GUARD",
    "residual",
    "energy",
    "jacobian",
    "gauge_transform",
    "gauged_energy",
    "constant_solutions",
    "apriori_radius",
]

# Entries of u beyond this are rejected rather than saturated: silently
# saturating exp() corrupts the Jacobian signs that degree counting relies on.
EXP_GUARD = 700.0


@dataclass(frozen=True)
class ScalarModel:
    """Parameters (lam, p, sigma, f) of the scalar model."""

    lam: float
    f: np.ndarray
    p: int = 1
    sigma: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        if int(self.p) != self.p or self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")
        f = np.ascontiguousarray(self.f, dtype=float)
        if not np.all(np.isfinite(f)):
            raise ValueError("source f has non-finite entries")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class GaugeData:
    """Split of the source into mean plus gradient part.

    ``phi`` is the mean-zero solution of ``L phi = f - fbar``; ``beta`` is the
    transformed coupling ``lam * e^(2 phi)``, which carries the sign of lam
    everywhere.
    """

    phi: np.ndarray
    beta: np.ndarray
    fbar: float


@dataclass(frozen=True)
class AprioriData:
    """Explicit sup-norm bounds satisfied by every solution when lam*fbar != 0.

    ``a1 = |V| + |int f dmu| / |lam|`` bounds the positive-part mass of
    ``e^u (e^u - 1)``; the max of a solution is at most
    ``upper = ln((1 + sqrt(1 + 4 a1 / mu_min)) / 2)``; ``b1`` bounds
    ``||L u||_inf``; ``c0 = b1 * elliptic_constant`` bounds the oscillation
    ``max u - min u``; ``c1 = -int f dmu / lam`` is the conserved integral of
    ``e^u (e^u - 1)``, which forces ``max u > -A1``; every solution then lies
    in ``[lower, upper] = [-A1 - c0, upper]``.  ``radius`` adds +1 so open
    balls of that radius contain all solutions strictly.
    """

    a1: float
    b1: float
    c0: float
    c1: float
    A1: float
    upper: float
    lower: float
    radius: float


def _check_range(*arrays: np.ndarray) -> None:
    if any(np.abs(a).max(initial=0.0) > EXP_GUARD for a in arrays):
        raise OverflowGuardError(
            f"vertex function leaves [-{EXP_GUARD:.0f}, {EXP_GUARD:.0f}]"
        )


def _ipow(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for integer k >= 0 by repeated multiplication (sign-exact).

    For k >= 1 the product starts from ``x`` itself (``1.0 * x == x`` bit for
    bit, also for -0.0, inf and NaN); ``_ipow(x, 1)`` is ``x``, not a copy.
    """
    if k < 1:
        return np.ones_like(x)
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def residual(g: WeightedGraph, m: ScalarModel, u: np.ndarray) -> np.ndarray:
    """``F(u) = -L u + lam e^u (e^u - sigma)^(2p-1) + f``; zero iff u solves the model."""
    u = as_vertex_function(g, u)
    _check_range(u)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(u)
        nonlin = m.lam * e * _ipow(e - m.sigma, 2 * m.p - 1)
        return u @ g.neg_laplacian_matrix().T + nonlin + m.f


def energy(g: WeightedGraph, m: ScalarModel, u: np.ndarray) -> float | np.ndarray:
    """Energy whose critical points are the model's solutions."""
    u = as_vertex_function(g, u)
    _check_range(u)
    neg_lap = g.neg_laplacian_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        dirichlet = 0.5 * np.einsum("...i,...i->...", u @ neg_lap.T, u * g.mu)
        e = np.exp(u)
        pot = (m.lam / (2.0 * m.p)) * (_ipow(e - m.sigma, 2 * m.p) @ g.mu)
        src = (u * m.f) @ g.mu
    out = dirichlet + pot + src
    return float(out) if np.ndim(out) == 0 else out


def jacobian(g: WeightedGraph, m: ScalarModel, u: np.ndarray) -> np.ndarray:
    """Derivative of the residual: ``-L`` plus the diagonal nonlinearity term.

    The diagonal entry is ``lam * e^u (e^u - sigma)^(2p-2) (2p e^u - sigma)``;
    for p = 1, sigma = 1 this is ``lam (2 e^{2u} - e^u)``.
    """
    u = as_vertex_function(g, u)
    _check_range(u)
    with np.errstate(over="ignore", invalid="ignore"):
        return _jacobian_exp(g, m, np.exp(u))


def _jacobian_exp(g: WeightedGraph, m: ScalarModel, e: np.ndarray) -> np.ndarray:
    """:func:`jacobian` at the points u with ``e = e^u``, unchecked: the interval kernel's
    J(c) at box midpoints, also past the exp guard.  2p - 2 is even: ``**`` is sign-exact."""
    i = np.arange(g.ell)
    J = np.empty(e.shape + (g.ell,))
    J[...] = g.neg_laplacian_matrix()
    J[..., i, i] += m.lam * e * (e - m.sigma) ** (2 * m.p - 2) * (2 * m.p * e - m.sigma)
    return J


def gauge_transform(g: WeightedGraph, m: ScalarModel) -> GaugeData:
    """Compute the gauge data (phi, beta, fbar) for the p = 1, sigma = 1 model.

    Substituting ``u = v + phi`` replaces the rough source by its mean: v then
    solves ``L v = beta e^v (e^v - e^{-phi}) + fbar`` with ``beta = lam e^{2 phi}``.
    """
    if m.p != 1 or m.sigma != 1.0:
        raise ValueError("gauge transform is defined for the p=1, sigma=1 model")
    fbar = average(g, m.f)
    phi = solve_poisson(g, m.f - fbar)
    beta = m.lam * np.exp(2.0 * phi)
    return GaugeData(phi=phi, beta=beta, fbar=float(fbar))


def gauged_energy(g: WeightedGraph, m: ScalarModel, gauge: GaugeData, v: np.ndarray) -> float:
    """Energy of the gauged equation.

    Satisfies ``energy(v + phi) = gauged_energy(v) - 1/2 int |grad phi|^2 dmu``
    exactly, so both routes locate the same critical points.
    """
    v = as_vertex_function(g, v)
    _check_range(v)
    neg_lap = g.neg_laplacian_matrix()
    dirichlet = 0.5 * float((v @ neg_lap.T) @ (v * g.mu))
    well = 0.5 * float(integrate(g, gauge.beta * (np.exp(v) - np.exp(-gauge.phi)) ** 2))
    return dirichlet + well + gauge.fbar * float(integrate(g, v))


def constant_solutions(m: ScalarModel) -> list[float]:
    """All constant roots of the model with constant source f = c.

    Solves ``lam t (t - sigma)^(2p-1) + c = 0`` over t = e^u > 0 by polynomial
    root isolation, polishes each simple root by 1D Newton, and returns the
    sorted u = ln t values.  With lam = 0: no constant solves for c != 0, and
    every constant solves for c = 0 (raised as an error).
    """
    c = float(m.f.flat[0])
    if np.ptp(m.f) > 1e-12 * (1.0 + sup_norm(m.f)):
        raise ValueError("constant_solutions requires a constant source")
    if m.lam == 0.0:
        if c == 0.0:
            raise ValueError("lam = 0 and f = 0: every constant solves")
        return []
    coeffs = m.lam * npoly.polymul([0.0, 1.0], npoly.polypow([-m.sigma, 1.0], 2 * m.p - 1))
    coeffs = np.asarray(coeffs, dtype=float)
    coeffs[0] += c

    def val(t):
        return m.lam * t * (t - m.sigma) ** (2 * m.p - 1) + c

    def deriv(t):
        return m.lam * (t - m.sigma) ** (2 * m.p - 2) * (2 * m.p * t - m.sigma)

    ts = []
    for r in npoly.polyroots(coeffs):
        if abs(r.imag) > 1e-8 * (1.0 + abs(r)):
            continue
        t = float(r.real)
        if t <= 0.0:
            continue
        for _ in range(8):  # polish; skipped automatically near double roots
            d = deriv(t)
            if abs(d) < 1e-14 * (1.0 + abs(val(t))):
                break
            step = val(t) / d
            if t - step <= 0.0:
                break
            t -= step
        ts.append(t)
    us = sorted(np.log(t) for t in ts)
    deduped: list[float] = []
    for u in us:
        if not deduped or u - deduped[-1] > 1e-6:
            deduped.append(float(u))
    return deduped


def apriori_radius(g: WeightedGraph, m: ScalarModel) -> AprioriData:
    """Explicit solution bounds for the p = 1, sigma = 1 model with lam*fbar != 0.

    When ``lam * fbar = 0`` no bound exists (the sigma-family u = ln(sigma)
    leaves every ball as sigma -> 0), so that case is rejected.
    """
    if m.p != 1 or m.sigma != 1.0:
        raise ValueError("a priori radius is computed for the p=1, sigma=1 model")
    int_f = integrate(g, m.f)
    if m.lam == 0.0 or int_f == 0.0:
        raise ValueError("unbounded family possible: lam * mean(f) must be nonzero")
    a1 = g.volume + abs(int_f) / abs(m.lam)
    s = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * a1 / g.mu_min))
    upper = max(0.0, float(np.log(s)))
    b1 = abs(m.lam) * (s * s + s) + sup_norm(m.f)
    c0 = b1 * spectral_gap(g).elliptic_constant
    c1 = -int_f / m.lam
    A1 = -float(np.log(min(1.0, abs(c1) / (4.0 * g.volume))))
    lower = -A1 - c0
    return AprioriData(
        a1=float(a1),
        b1=float(b1),
        c0=float(c0),
        c1=float(c1),
        A1=float(A1),
        upper=upper,
        lower=float(lower),
        radius=float(max(abs(upper), abs(lower)) + 1.0),
    )
