"""Weighted finite connected graphs and their discrete calculus.

A graph carries a positive measure ``mu`` on vertices and positive symmetric
weights on undirected edges.  Vertex functions are plain float arrays ordered
like ``graph.vertices``; that ordering is canonical for every vector and
matrix produced by this package, so output is reproducible.

Conventions implemented here:

* Laplacian        ``(L u)(x) = (1/mu(x)) * sum_{y~x} w_xy (u(y) - u(x))``
* gradient form    ``G(u,v)(x) = (1/(2 mu(x))) * sum_{y~x} w_xy (u(y)-u(x)) (v(y)-v(x))``
* integral         ``int_V h dmu = sum_x mu(x) h(x)``, volume ``|V| = int_V 1 dmu``
* average          ``hbar = (int_V h dmu) / |V|``
* sup norm         ``max_x |h(x)|``

The Laplacian is negative semi-definite with kernel equal to the constants on
a connected graph; ``spectral_gap`` returns its smallest nonzero eigenvalue in
the mu-weighted inner product together with the sup-norm elliptic constant
``sqrt((ell-1) |V| / (w_min * lambda1))`` that controls ``max u - min u``
through ``||L u||_inf``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphError, SolverError

__all__ = [
    "WeightedGraph",
    "SpectralData",
    "build_graph",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
    "save_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "random_connected_graph",
    "as_vertex_function",
    "laplacian",
    "grad_form",
    "grad_norm_sq",
    "integrate",
    "average",
    "sup_norm",
    "dirichlet_energy_constant",
    "spectral_gap",
    "solve_poisson",
    "dirac_source",
]

POISSON_RESIDUAL_TOL = 1e-10
POISSON_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class SpectralData:
    """First nonzero eigenvalue of -L and the derived elliptic constant."""

    lambda1: float
    elliptic_constant: float


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph with cached derived quantities.

    All arrays are read-only; operations on graphs are pure, so instances can
    be shared freely between concurrent tasks.
    """

    vertices: tuple[str, ...]
    mu: np.ndarray
    weights: np.ndarray
    volume: float
    mu_min: float
    w_min: float
    _neg_lap: np.ndarray = field(repr=False)
    _poisson_reduced: np.ndarray = field(repr=False)

    @property
    def ell(self) -> int:
        """Number of vertices."""
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        try:
            return self.vertices.index(vertex)
        except ValueError:
            raise GraphError(f"unknown vertex id {vertex!r}") from None

    def neg_laplacian_matrix(self) -> np.ndarray:
        """Matrix of -L, acting on vertex functions as column vectors."""
        return self._neg_lap

    def edges(self) -> list[tuple[str, str, float]]:
        out = []
        for i in range(self.ell):
            for j in range(i + 1, self.ell):
                w = self.weights[i, j]
                if w > 0.0:
                    out.append((self.vertices[i], self.vertices[j], float(w)))
        return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def build_graph(
    vertices: Sequence[tuple[str, float]],
    edges: Iterable[tuple[str, str, float]],
) -> WeightedGraph:
    """Validate and assemble a :class:`WeightedGraph`.

    ``vertices`` lists ``(id, mu)`` pairs; ``edges`` lists undirected
    ``(a, b, w)`` triples, each edge at most once.  Rejects nonpositive
    measures or weights, self-loops, duplicate edges and disconnected graphs.
    """
    ids = [str(v) for v, _ in vertices]
    if len(ids) < 2:
        raise GraphError("graph needs at least 2 vertices")
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate vertex ids")
    mu = np.array([float(m) for _, m in vertices])
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
        raise GraphError("vertex measure mu must be positive and finite")

    ell = len(ids)
    pos = {v: i for i, v in enumerate(ids)}
    W = np.zeros((ell, ell))
    for a, b, w in edges:
        a, b = str(a), str(b)
        if a not in pos or b not in pos:
            raise GraphError(f"edge ({a!r}, {b!r}) references unknown vertex")
        if a == b:
            raise GraphError(f"self-loop at vertex {a!r}")
        i, j = pos[a], pos[b]
        w = float(w)
        if not np.isfinite(w) or w <= 0.0:
            raise GraphError(f"edge ({a!r}, {b!r}) has nonpositive weight {w}")
        if W[i, j] != 0.0:
            if W[i, j] != w:
                raise GraphError(f"edge ({a!r}, {b!r}) listed twice with inconsistent weights")
            raise GraphError(f"edge ({a!r}, {b!r}) listed twice")
        W[i, j] = W[j, i] = w

    if not _connected(W):
        raise GraphError("graph is not connected")

    deg = W.sum(axis=1)
    neg_lap = (np.diag(deg) - W) / mu[:, None]
    w_min = float(W[W > 0.0].min())

    # (ell-1)-dimensional restriction of L to the mu-mean-zero subspace,
    # eliminating the last coordinate through the constraint int phi dmu = 0.
    lap = -neg_lap
    reduced = lap[:-1, :-1] - np.outer(lap[:-1, -1], mu[:-1] / mu[-1])

    return WeightedGraph(
        vertices=tuple(ids),
        mu=_freeze(mu),
        weights=_freeze(W),
        volume=float(mu.sum()),
        mu_min=float(mu.min()),
        w_min=w_min,
        _neg_lap=_freeze(neg_lap),
        _poisson_reduced=_freeze(reduced),
    )


def _connected(W: np.ndarray) -> bool:
    ell = W.shape[0]
    seen = np.zeros(ell, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(W[i] > 0.0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


# ---------------------------------------------------------------------------
# wire format: {"vertices": [{"id", "mu"}...], "edges": [{"a", "b", "w"}...]}

def _wire_number(value, where: str):
    """A JSON number of the wire format; GraphError for null, a bool, a string or a list."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphError(f"{where} must be a number, got {value!r}")
    return value


def graph_from_dict(doc: dict) -> WeightedGraph:
    try:
        vertices = [(v["id"], _wire_number(v["mu"], f"vertex {str(v['id'])!r} mu"))
                    for v in doc["vertices"]]
        edges = [(e["a"], e["b"],
                  _wire_number(e["w"], f"edge ({str(e['a'])!r}, {str(e['b'])!r}) w"))
                 for e in doc["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph document: {exc!r}") from None
    return build_graph(vertices, edges)


def graph_to_dict(g: WeightedGraph) -> dict:
    return {
        "vertices": [{"id": v, "mu": float(m)} for v, m in zip(g.vertices, g.mu)],
        "edges": [{"a": a, "b": b, "w": w} for a, b, w in g.edges()],
    }


def load_graph(path: str | Path) -> WeightedGraph:
    """Load a graph from a UTF-8 JSON file in the wire format."""
    with open(path, encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


def save_graph(g: WeightedGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=1)


# ---------------------------------------------------------------------------
# standard test graphs

def complete_graph(n: int, mu: float = 1.0, w: float = 1.0) -> WeightedGraph:
    verts = [(f"x{i+1}", mu) for i in range(n)]
    edges = [(f"x{i+1}", f"x{j+1}", w) for i in range(n) for j in range(i + 1, n)]
    return build_graph(verts, edges)


def path_graph(n: int, mu: float | Sequence[float] = 1.0, w: float = 1.0) -> WeightedGraph:
    mus = [mu] * n if np.isscalar(mu) else list(mu)
    verts = [(f"x{i+1}", mus[i]) for i in range(n)]
    edges = [(f"x{i+1}", f"x{i+2}", w) for i in range(n - 1)]
    return build_graph(verts, edges)


def cycle_graph(n: int, mu: float = 1.0, w: float = 1.0) -> WeightedGraph:
    verts = [(f"x{i+1}", mu) for i in range(n)]
    edges = [(f"x{i+1}", f"x{(i+1) % n + 1}", w) for i in range(n)]
    return build_graph(verts, edges)


def random_connected_graph(
    rng: np.random.Generator,
    max_vertices: int = 8,
    min_vertices: int = 2,
) -> WeightedGraph:
    """Random spanning tree plus a few extra edges; random mu and weights."""
    n = int(rng.integers(min_vertices, max_vertices + 1))
    verts = [(f"x{i+1}", float(rng.uniform(0.2, 3.0))) for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(rng.uniform(0.2, 3.0))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((i, j), float(rng.uniform(0.2, 3.0)))
    return build_graph(verts, [(f"x{i+1}", f"x{j+1}", w) for (i, j), w in edges.items()])


# ---------------------------------------------------------------------------
# calculus

def as_vertex_function(g: WeightedGraph, values) -> np.ndarray:
    """Coerce ``values`` to a float array shaped (..., ell) with finite entries;
    a complex input stays complex, so the model functions take the complex step."""
    u = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    if np.isscalar(values) or u.ndim == 0:
        u = np.full(g.ell, u)
    if u.shape[-1] != g.ell:
        raise ValueError(f"vertex function has length {u.shape[-1]}, graph has {g.ell} vertices")
    if not np.all(np.isfinite(u)):
        raise ValueError("vertex function has non-finite entries")
    return u


def laplacian(g: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """Pointwise ``(1/mu(x)) sum_{y~x} w_xy (u(y) - u(x))``; batched over leading axes."""
    u = as_vertex_function(g, u)
    return -(u @ g._neg_lap.T)


def grad_form(g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear gradient form ``G(u, v)``, one value per vertex."""
    u = as_vertex_function(g, u)
    v = as_vertex_function(g, v)
    du = u[..., None, :] - u[..., :, None]   # du[x, y] = u(y) - u(x)
    dv = v[..., None, :] - v[..., :, None]
    return (du * dv * g.weights).sum(axis=-1) / (2.0 * g.mu)


def grad_norm_sq(g: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """Pointwise squared gradient length ``|grad u|^2 = G(u, u)``."""
    return grad_form(g, u, u)


def integrate(g: WeightedGraph, h: np.ndarray) -> float | np.ndarray:
    """``int_V h dmu``; returns a scalar, or an array for batched input."""
    h = as_vertex_function(g, h)
    out = h @ g.mu
    return out.item() if out.ndim == 0 else out


def average(g: WeightedGraph, h: np.ndarray) -> float | np.ndarray:
    out = np.asarray(integrate(g, h)) / g.volume
    return float(out) if out.ndim == 0 else out


def sup_norm(h: np.ndarray) -> float | np.ndarray:
    """``max |h|`` over the last axis: a float for one function, an array for a stack.

    The columns are folded with ``np.maximum``, which gives bitwise the result
    of ``np.abs(h).max(axis=-1)`` (NaN included) but runs several times faster
    on tall stacks of short rows, where numpy reduces the short axis slowly.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape[-1] == 0:
        raise ValueError("sup_norm of an empty vertex function")
    out = np.abs(h[..., 0], out=np.empty(h.shape[:-1]))
    for j in range(1, h.shape[-1]):
        np.maximum(out, np.abs(h[..., j]), out=out)
    return float(out) if out.ndim == 0 else out


def dirichlet_energy_constant(g: WeightedGraph) -> float:
    """Constant C with ``int |grad u|^2 dmu <= C ||u||_inf^2`` for every u.

    Since ``(u(y)-u(x))^2 <= 4 ||u||_inf^2`` on each of the ``2|E|`` directed
    edges, ``C = 2 * sum_{x} sum_{y~x} w_xy = 4 * (total edge weight)`` works;
    it is attained on a single edge with u = (-||u||, +||u||).
    """
    return float(2.0 * g.weights.sum())


def spectral_gap(g: WeightedGraph) -> SpectralData:
    """Smallest nonzero eigenvalue of -L in the mu-weighted product.

    Solves the symmetric problem obtained by the mu^(1/2) similarity
    transform; the constant multiplying ``||L u||_inf`` in the sup-norm
    estimate is ``sqrt((ell-1) |V| / (w_min * lambda1))``.
    """
    s = np.sqrt(g.mu)
    sym = g._neg_lap * (s[:, None] / s[None, :])
    sym = 0.5 * (sym + sym.T)
    try:
        ev = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigen-solve failed: {exc}") from exc
    lambda1 = float(ev[1])
    if lambda1 <= 0.0:
        raise SolverError("spectral gap is not positive; graph data is degenerate")
    const = float(np.sqrt((g.ell - 1) * g.volume / (g.w_min * lambda1)))
    return SpectralData(lambda1=lambda1, elliptic_constant=const)


def solve_poisson(g: WeightedGraph, h: np.ndarray) -> np.ndarray:
    """Solve ``L phi = h`` with ``int phi dmu = 0`` for mean-zero ``h``.

    Direct dense solve of the (ell-1)-dimensional restriction; graphs here
    are tiny, so this is exact up to rounding.  Raises ``ValueError`` when
    ``h`` has nonzero mean (the equation is unsolvable then) and
    ``SolverError`` if the residual check fails.
    """
    h = as_vertex_function(g, h)
    if h.ndim != 1:
        raise ValueError("solve_poisson expects a single vertex function")
    scale = 1.0 + sup_norm(h)
    if abs(integrate(g, h)) > POISSON_RESIDUAL_TOL * scale:
        raise ValueError("source has nonzero mean; pass h - mean(h)")
    try:
        y = np.linalg.solve(g._poisson_reduced, h[:-1])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Poisson solve failed: {exc}") from exc
    phi = np.append(y, -(g.mu[:-1] @ y) / g.mu[-1])
    if sup_norm(laplacian(g, phi) - h) > POISSON_RESIDUAL_TOL * scale:
        raise SolverError("Poisson residual exceeds tolerance")
    if abs(average(g, phi)) > POISSON_MEAN_TOL * (1.0 + sup_norm(phi)):
        raise SolverError("Poisson solution mean exceeds tolerance")
    return phi


def dirac_source(g: WeightedGraph, points: Sequence[str], coefficient: float) -> np.ndarray:
    """Sum of point sources: ``coefficient * delta_P`` for each P in ``points``.

    ``delta_P`` puts ``1/mu(P)`` at P and 0 elsewhere, so the result
    integrates to ``coefficient * len(points)``.  Repeated vertices stack.
    """
    f = np.zeros(g.ell)
    for p in points:
        f[g.index(p)] += coefficient / g.mu[g.index(p)]
    return f
