"""Traced-run instrumentation: spans and aggregate counters around cshlab.

Wrappers are installed where each caller looks a name up, not where it is
defined: ``solve.py`` binds the scalar and system kernels at import,
``degree.py`` imports ``enumerate_report`` by name, and ``solve.py`` reaches
``numpy.linalg`` through its module-level ``np``.  Wrapping
``cshlab.scalar.residual`` alone would count nothing.

Coarse boundaries (``degree``, ``continuation``, ``enumerate_report``,
``morse_data``) are recorded as spans with their parent.  Kernel and linear
algebra boundaries see 10^5..10^6 calls per run, so they are aggregated into
calls, rows and seconds.  Every boundary pushes a frame on one stack, which
gives each span its self time: its duration minus the time of the spans and
counted calls nested inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import cshlab.continuation
import cshlab.degree
import cshlab.solve


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Counter:
    calls: int = 0
    rows: int = 0
    seconds: float = 0.0
    errors: int = 0


@dataclass
class _Frame:
    span: int | None
    child_s: float = 0.0


class Tracer:
    """Records spans and counters; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self._stack: list[_Frame] = []

    def _parent(self) -> int | None:
        return self._stack[-1].span if self._stack else None

    def _close(self, frame: _Frame, start: float) -> tuple[float, float]:
        """Pop ``frame``; return (duration, self time) and bill the parent."""
        end = self.clock()
        self._stack.pop()
        dt = end - start
        if self._stack:
            self._stack[-1].child_s += dt
        return end, dt - frame.child_s

    def span(self, name: str, fn: Callable, annotate: Callable[[Any], dict] | None = None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sp = Span(id=len(self.spans), name=name, parent=self._parent())
            self.spans.append(sp)
            frame = _Frame(sp.id)
            self._stack.append(frame)
            sp.start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                sp.end, sp.self_s = self._close(frame, sp.start)
            if annotate is not None:
                sp.attrs.update(annotate(out))
            return out

        return wrapped

    def counter(self, name: str, fn: Callable, rows: Callable[..., int]):
        """Wrap ``fn`` so each call adds to the aggregate counter ``name``."""
        ctr = self.counters.setdefault(name, Counter())

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = _Frame(self._parent())
            self._stack.append(frame)
            start = self.clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end, _ = self._close(frame, start)
                ctr.calls += 1
                ctr.rows += rows(*args)
                ctr.seconds += end - start
                ctr.errors += not ok

        return wrapped

    def has_ancestor(self, sp: Span, name: str) -> bool:
        p = sp.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


class _Proxy:
    """Attribute proxy that overrides a few names of a module."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _batch_rows(x) -> int:
    """Rows of a (..., n) stack of points; 1 for a single point."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _matrix_rows(a, *_) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _enum_attrs(rep) -> dict:
    return {"seeds": rep.seeds_used, "refinements": len(rep.grid_levels) - 1,
            "roots": len(rep.roots), "stable": bool(rep.stable)}


def _degree_attrs(rep) -> dict:
    return {"perturbed_rerun": getattr(rep, "perturbed", None) is not None}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the cshlab call sites the benchmark measures; restore on exit."""
    solve, degree, cont = cshlab.solve, cshlab.degree, cshlab.continuation
    kernel_rows = lambda g, model, u, *rest: _batch_rows(u)  # noqa: E731
    patches = [
        (degree, "degree_by_enumeration", tracer.span("degree", degree.degree_by_enumeration,
                                                      _degree_attrs)),
        (degree, "homotopy_audit", tracer.span("degree", degree.homotopy_audit, _degree_attrs)),
        (cont, "estimate_threshold", tracer.span("continuation", cont.estimate_threshold)),
        (cont, "sweep_lambda", tracer.span("continuation", cont.sweep_lambda)),
        (cont, "sigma_homotopy", tracer.span("continuation", cont.sigma_homotopy)),
        (degree, "enumerate_report", tracer.span("enumerate_report", degree.enumerate_report,
                                                 _enum_attrs)),
        (solve, "enumerate_report", tracer.span("enumerate_report", solve.enumerate_report,
                                                _enum_attrs)),
        (solve, "morse_data", tracer.span("morse_data", solve.morse_data)),
        (solve, "scalar_residual", tracer.counter("scalar.residual", solve.scalar_residual,
                                                  kernel_rows)),
        (solve, "scalar_jacobian", tracer.counter("scalar.jacobian", solve.scalar_jacobian,
                                                  kernel_rows)),
        (solve, "residual_pair", tracer.counter("system.residual_pair", solve.residual_pair,
                                                kernel_rows)),
        (solve, "jacobian_system", tracer.counter("system.jacobian_system",
                                                  solve.jacobian_system, kernel_rows)),
        (solve, "np", _Proxy(np, linalg=_Proxy(
            np.linalg,
            solve=tracer.counter("solve.linalg_solve", np.linalg.solve, _matrix_rows),
            lstsq=tracer.counter("solve.linalg_lstsq", np.linalg.lstsq, _matrix_rows),
        ))),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, new in patches:
            setattr(mod, name, new)
        yield tracer
    finally:
        for mod, name, old in saved:
            setattr(mod, name, old)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    def top(name):  # outermost spans of a layer, so nested calls count once
        return [s for s in spans(name) if not tracer.has_ancestor(s, name)]

    def ctr(name):
        return tracer.counters.get(name, Counter())

    enum = spans("enumerate_report")
    morse = spans("morse_data")
    seeds = sum(s.attrs["seeds"] for s in enum)
    roots = sum(s.attrs["roots"] for s in enum)
    kernels = ("scalar.residual", "scalar.jacobian", "system.residual_pair",
               "system.jacobian_system")
    lin, lsq = ctr("solve.linalg_solve"), ctr("solve.linalg_lstsq")
    out = {
        "degree.calls": len(spans("degree")),
        "degree.s": sum(s.duration for s in top("degree")),
        "degree.perturbed_reruns": sum(s.attrs["perturbed_rerun"] for s in spans("degree")),
        "continuation.calls": len(spans("continuation")),
        "continuation.s": sum(s.duration for s in top("continuation")),
        "continuation.enumerations": sum(tracer.has_ancestor(s, "continuation") for s in enum),
        "solve.enumerations": len(enum),
        "solve.enumerate_s": sum(s.duration for s in enum),
        "solve.self_s": sum(s.self_s for s in enum),
        "solve.seeds": seeds,
        "solve.refinements": sum(s.attrs["refinements"] for s in enum),
        "solve.unstable": sum(not s.attrs["stable"] for s in enum),
        "solve.roots": roots,
        "solve.roots_per_kseed": _ratio(1000.0 * roots, seeds),
        "solve.rows_per_seed": _ratio(sum(ctr(k).rows for k in kernels), seeds),
        "solve.morse_data.calls": len(morse),
        "solve.morse_data.s": sum(s.duration for s in morse),
        "solve.linalg_solve.calls": lin.calls,
        "solve.linalg_solve.rows": lin.rows,
        "solve.linalg_solve.s": lin.seconds,
        "solve.linalg_solve.rows_per_call": _ratio(lin.rows, lin.calls),
        "solve.linalg_solve.errors": lin.errors,
        "solve.linalg_lstsq.calls": lsq.calls,
        "solve.linalg_lstsq.s": lsq.seconds,
    }
    for k in kernels:
        c = ctr(k)
        out[f"{k}.calls"], out[f"{k}.rows"], out[f"{k}.s"] = c.calls, c.rows, c.seconds
    return out
