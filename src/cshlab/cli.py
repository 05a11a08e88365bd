"""Command-line front end.

Subcommands: ``solve``, ``enumerate``, ``degree``, ``sweep``, ``system`` and
``check``.  Experiments are described by a JSON config (see README for the
schema); results stream as JSON lines to stdout or ``--out``, except sweeps,
which emit a flat CSV.  Exit codes: 0 success, 2 config error, 3 solver
failure, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import checks
from .continuation import sweep_lambda
from .degree import degree_by_enumeration, homotopy_audit
from .errors import ConfigError, GraphError, SolverError
from .graphs import (
    WeightedGraph,
    average,
    dirac_source,
    graph_from_dict,
    load_graph,
    solve_poisson,
    sup_norm,
)
from .scalar import ScalarModel, residual
from .solve import ClassifiedSolution, SolveOptions, enumerate_report, solve_scalar, solve_system
from .system import SystemBound, SystemModel, apriori_bound_system

__all__ = ["main"]


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    return cfg


# Config values are checked where they are read: JSON null, strings, lists
# and booleans would otherwise surface as TypeErrors deep in the solver.

def _section(cfg: dict, name: str, default: dict | None = None) -> dict:
    """The config's ``name`` object (``default``, else empty, when absent)."""
    section = cfg.get(name, {} if default is None else default)
    if not isinstance(section, dict):
        raise ConfigError(f"config entry {name!r} must be an object, got {section!r}")
    if "grid" in section:  # refused, not ignored: no enumerator takes a config grid
        raise ConfigError(f"config entry {name!r} takes no 'grid': "
                          "the seed grid follows the dimension")
    return section


def _number(value, name: str) -> float:
    """A JSON number as a float; ConfigError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _finite(value, name: str) -> float:
    """A finite JSON number as a float: the output is strict JSON, without NaN or Infinity."""
    number = _number(value, name)
    if not np.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number!r}")
    return number


def _numbers(value, name: str) -> list[float]:
    """A JSON list of numbers as floats; ConfigError for anything else."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [_number(x, name) for x in value]


def _count(value, name: str) -> int:
    """A positive integer given as a JSON number (2 or 2.0); 2.5 is rejected."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and float(value).is_integer() and value >= 1):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _box(section: dict):
    """The section's ``box`` [lo, hi] (each a number or a list of numbers), or None."""
    if "box" not in section:
        return None
    box = section["box"]
    if not isinstance(box, list) or len(box) != 2:
        raise ConfigError(f"box must be [lo, hi], got {box!r}")
    return tuple([_finite(x, "box") for x in b] if isinstance(b, list) else _finite(b, "box")
                 for b in box)


def _load_graph_from(cfg: dict, args) -> WeightedGraph:
    src = args.graph or cfg.get("graph")
    if src is None:
        raise ConfigError("no graph given: pass --graph or a 'graph' config entry")
    try:
        if isinstance(src, dict):
            return graph_from_dict(src)
        return load_graph(src)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load graph {src}: {exc}") from exc


def _source_values(g: WeightedGraph, spec, name: str) -> np.ndarray:
    if spec is None:
        raise ConfigError(f"missing source specification for {name}")
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(
            f"source {name} must be exactly one of "
            '{"constant": c}, {"values": {...}}, {"dirac": {...}}'
        )
    kind, payload = next(iter(spec.items()))
    if kind == "constant":
        return np.full(g.ell, _finite(payload, f"source {name} constant"))
    if kind == "values":
        try:
            return np.array([_finite(payload[v], f"source {name} value at {v}") for v in g.vertices])
        except KeyError as exc:
            raise ConfigError(f"source {name} misses a value for vertex {exc}") from None
    if kind == "dirac":
        if not isinstance(payload, dict):
            raise ConfigError(f"source {name}: dirac takes an object "
                              f'{{"points": [...], "coefficient": c}}, got {payload!r}')
        points = payload.get("points", [])
        if not isinstance(points, list):  # a string would be read as its characters
            raise ConfigError(f"source {name}: dirac points must be a list, got {points!r}")
        coeff = _finite(payload.get("coefficient", 4.0 * np.pi), f"source {name} coefficient")
        try:
            return dirac_source(g, points, coeff)
        except GraphError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown source kind {kind!r} for {name}")


def _build_model(g: WeightedGraph, cfg: dict):
    kind = cfg.get("model", "scalar")
    params = _section(cfg, "parameters")
    source = _section(cfg, "source")
    try:
        if kind == "scalar":
            return ScalarModel(
                lam=_finite(params.get("lambda", 1.0), "lambda"),
                f=_source_values(g, source.get("f"), "f"),
                p=_count(params.get("p", 1), "p"),
                sigma=_finite(params.get("sigma", 1.0), "sigma"),
            )
        if kind == "system":
            return SystemModel(
                p=_number(params.get("p", 0.5), "p"),
                q=_number(params.get("q", 0.5), "q"),
                f=_source_values(g, source.get("f"), "f"),
                g=_source_values(g, source.get("g"), "g"),
                sigma=_finite(params.get("sigma", 1.0), "sigma"),
            )
    except (ValueError, TypeError) as exc:  # TypeError: a "values" source that is no object
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown model kind {kind!r}")


def _solve_options(cfg: dict, args) -> SolveOptions:
    tols = dict(_section(cfg, "tolerances"))
    if args.tol is not None:
        tols["tol_residual"] = args.tol
    if args.seed is not None:
        tols["rng_seed"] = args.seed
    try:
        return SolveOptions(**tols)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tolerances: {exc}") from None


def _point_dict(g: WeightedGraph, values: np.ndarray) -> dict:
    return {v: float(x) for v, x in zip(g.vertices, values)}


def _root_record(g: WeightedGraph, model, sol: ClassifiedSolution) -> dict:
    rec = {
        "kind": "root",
        "residual_norm": sol.residual_norm,
        "morse_index": sol.morse_index,
        "sign_det": sol.sign_det,
        "nondegenerate": sol.nondegenerate,
        "critical_group_ranks": list(sol.critical_group_ranks) if sol.critical_group_ranks else None,
    }
    if isinstance(model, SystemModel):
        rec["u"] = _point_dict(g, sol.point[: g.ell])
        rec["v"] = _point_dict(g, sol.point[g.ell:])
    else:
        rec["point"] = _point_dict(g, sol.point)
    return rec


class _Emitter:
    def __init__(self, out_path: str | None):
        self._path = out_path
        self._fh = None if out_path else sys.stdout

    def _out(self):
        if self._fh is None:  # opened on the first record: a config error leaves it as it was
            self._fh = open(self._path, "w", encoding="utf-8")
        return self._fh

    def emit(self, record: dict) -> None:
        # strict JSON: a non-finite number raises ValueError before anything is written
        self._out().write(json.dumps(record, allow_nan=False) + "\n")

    def write_text(self, text: str) -> None:
        self._out().write(text)

    def close(self) -> None:
        if self._path is not None and self._fh is not None:
            self._fh.close()


# ---------------------------------------------------------------------------
# commands

def cmd_solve(g, model, cfg, opts, emit) -> int:
    section = _section(cfg, "solve")
    if isinstance(model, ScalarModel):
        if model.lam == 0.0:
            fbar = average(g, model.f)
            if abs(fbar) > 1e-14 * (1.0 + sup_norm(model.f)):
                emit.emit({
                    "kind": "solve",
                    "status": "insolvable",
                    "reason": "mean obstruction: with lambda = 0 the integral of f must vanish",
                })
                return 0
            phi = solve_poisson(g, model.f - fbar)
            emit.emit({
                "kind": "solve",
                "status": "family",
                "point": _point_dict(g, phi),
                "note": "point + c solves for every constant c",
                "residual_norm": float(sup_norm(residual(g, model, phi))),
            })
            return 0
        seed = section.get("seed", 0.0)
        sol = solve_scalar(g, model, _seed_array(g, seed), opts)
        emit.emit({**_root_record(g, model, sol), "kind": "solve", "status": "ok"})
        return 0
    seed_u = _seed_array(g, section.get("seed_u", section.get("seed", 0.0)))
    seed_v = _seed_array(g, section.get("seed_v", section.get("seed", 0.0)))
    sol = solve_system(g, model, seed_u, seed_v, opts)
    emit.emit({**_root_record(g, model, sol), "kind": "solve", "status": "ok"})
    return 0


def _seed_array(g: WeightedGraph, seed) -> np.ndarray:
    if isinstance(seed, dict):
        return np.array([_number(seed.get(v), f"seed at vertex {v}") for v in g.vertices])
    if isinstance(seed, list):
        return np.array(_numbers(seed, "seed"))
    return np.full(g.ell, _number(seed, "seed"))


def _evidence(report) -> dict:
    """What an enumeration did, as every record that rests on one writes it."""
    return {
        "grid_levels": report.grid_levels,
        "grid_stable": report.stable,
        "seeds_used": report.seeds_used,
        "certified": report.certified,
        "boxes": report.boxes,
        "unresolved": report.unresolved,
        "box": [report.box[0].tolist(), report.box[1].tolist()],
    }


def cmd_enumerate(g, model, cfg, opts, emit) -> int:
    section = _section(cfg, "enumerate")
    report = enumerate_report(g, model, box=_box(section), opts=opts)
    for sol in report.roots:
        emit.emit(_root_record(g, model, sol))
    emit.emit({"kind": "enumeration_summary", "count": len(report.roots), **_evidence(report)})
    return 0


def cmd_degree(g, model, cfg, opts, emit) -> int:
    section = _section(cfg, "degree")
    radius = section.get("radius")
    if radius is not None:
        radius = _finite(radius, "radius")
    elif isinstance(model, SystemModel):
        radius = _system_bound(g, model, _section(cfg, "system", section)).bound
    report = degree_by_enumeration(g, model, radius=radius, opts=opts)
    emit.emit(_degree_record(g, model, report))
    return 0


def _degree_record(g, model, report) -> dict:
    rec = {
        "kind": "degree_report",
        "computed": report.computed_degree,
        "expected": report.expected_degree,
        "consistent": report.consistent,
        "radius": report.radius_used,
        "morse_sum": report.morse_sum,
        "degenerate_roots": report.degenerate_roots,
        **_evidence(report.enumeration),
        "roots": [_root_record(g, model, s) for s in report.roots],
    }
    if report.perturbed is not None:
        rec["perturbed"] = _degree_record(g, model, report.perturbed)
    return rec


def _system_bound(g, model, section: dict) -> SystemBound:
    """The system's a priori bound from the section's ``Lambda1``/``Lambda2``."""
    lam1 = section.get("Lambda1")
    lam2 = section.get("Lambda2")
    if lam1 is None or lam2 is None:
        raise ConfigError("the system bound needs 'Lambda1' and 'Lambda2' "
                          "(the degree command also takes a 'radius' instead)")
    return apriori_bound_system(g, model, _number(lam1, "Lambda1"), _number(lam2, "Lambda2"))


def cmd_sweep(g, model, cfg, opts, emit) -> int:
    section = _section(cfg, "sweep")
    if not isinstance(model, ScalarModel):
        raise ConfigError("sweep is defined for the scalar model")
    if "range" not in section:
        raise ConfigError("sweep needs a 'range': [lambda_from, lambda_to]")
    span = _numbers(section["range"], "sweep range")
    if len(span) != 2:
        raise ConfigError(f"sweep range must be [lambda_from, lambda_to], got {span}")
    steps = _count(section.get("steps", 11), "steps")
    records = sweep_lambda(
        g, model.f, tuple(span), steps, opts=opts,
        p=model.p, sigma=model.sigma, box=_box(section),
    )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["parameter", "root_id"] + [f"u_{v}" for v in g.vertices]
                    + ["morse_index", "sign_det"])
    for rec in records:
        for i, sol in enumerate(rec.roots):
            writer.writerow(
                [f"{rec.parameter:.12g}", i]
                + [f"{x:.17g}" for x in sol.point]
                + [sol.morse_index, sol.sign_det]
            )
    emit.write_text(buf.getvalue())
    return 0


def cmd_system(g, model, cfg, opts, emit) -> int:
    section = _section(cfg, "system")
    if not isinstance(model, SystemModel):
        raise ConfigError("the system command needs a system model")
    sigma_grid = _numbers(section.get("sigma_grid", [0.0, 0.25, 0.5, 0.75, 1.0]), "sigma_grid")
    for s in sigma_grid:  # before the bound record: a config error emits nothing
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"sigma_grid values must lie in [0, 1], got {s}")
    bound = _system_bound(g, model, section)
    emit.emit({"kind": "system_bound", **dataclasses.asdict(bound)})
    audit = homotopy_audit(g, model, sigma_grid, bound.bound, opts=opts)
    emit.emit({
        "kind": "homotopy_audit",
        "radius": audit.radius,
        "degree_constant": audit.degree_constant,
        "sigma_zero_empty": audit.sigma_zero_empty,
        "bound_violation": audit.bound_violation,
        "slices": [
            {
                "sigma": s.sigma,
                "degree": s.degree,
                "count": len(s.roots),
                "min_margin": s.min_margin,
                "roots": [_root_record(g, model, r) for r in s.roots],
                **_evidence(s.enumeration),
            }
            for s in audit.slices
        ],
    })
    return 0


def cmd_check(opts, emit) -> int:
    results = checks.run_all(opts.rng_seed)
    for name, violations in results.items():
        emit.emit({
            "kind": "check",
            "suite": name,
            "passed": not violations,
            "violations": violations[:20],
            "violation_count": len(violations),
        })
    return 4 if any(results.values()) else 0


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cshlab",
        description="Solve, enumerate and classify roots of Chern-Simons Higgs "
        "equations on weighted finite graphs.",
    )
    ap.add_argument("command", choices=["solve", "enumerate", "degree", "sweep", "system", "check"])
    ap.add_argument("--graph", help="path to a graph JSON file")
    ap.add_argument("--config", help="path to an experiment config JSON file")
    ap.add_argument("--out", help="write results here instead of stdout")
    ap.add_argument("--seed", type=int, default=None, help="RNG seed for randomized policies")
    ap.add_argument("--tol", type=float, default=None, help="override the residual tolerance")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    emit = None
    try:
        cfg = _load_config(args)
        opts = _solve_options(cfg, args)
        emit = _Emitter(args.out)
        if args.command == "check":
            return cmd_check(opts, emit)
        g = _load_graph_from(cfg, args)
        model = _build_model(g, cfg)
        if args.command == "solve":
            return cmd_solve(g, model, cfg, opts, emit)
        if args.command == "enumerate":
            return cmd_enumerate(g, model, cfg, opts, emit)
        if args.command == "degree":
            return cmd_degree(g, model, cfg, opts, emit)
        if args.command == "sweep":
            return cmd_sweep(g, model, cfg, opts, emit)
        if args.command == "system":
            return cmd_system(g, model, cfg, opts, emit)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, GraphError, ValueError) as exc:
        print(f"cshlab {args.command}: config error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"cshlab {args.command}: solver failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    finally:
        if emit is not None:
            emit.close()


if __name__ == "__main__":
    sys.exit(main())
