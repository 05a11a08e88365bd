"""cshlab benchmark: one workload, one seed, closed loop, answers checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload degree_table --seed 0 --seconds 40 --trace 0

A single caller runs one case at a time.  With ``--trace 0`` it runs the
cases of the workload in turn, round after round, until the next case would
end after ``--seconds``, and times a fixed calibration kernel between cases
(calibration.py); the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced passes over every case alternate while another pair
fits, and the per-layer metrics are printed, with the tracing overhead.
Every answer is checked (a case that raises counts as failed).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
``record`` with the environment and the details behind each metric.

The program is imported from ``src`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
TAIL_BEYOND = 10
# One BLAS thread: the benchmark is a single caller, the linear solves are
# 2x2..5x5, and a second BLAS thread only burns the other core.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Layer counters that must be non-zero on each workload in a traced run, so a
# rename in cshlab cannot silently blank a layer.
EXPECT_NONZERO = {
    "degree_table": ("degree.calls", "solve.enumerations", "solve.seeds", "solve.roots",
                     "solve.morse_data.calls", "solve.linalg_solve.calls",
                     "scalar.residual.calls", "scalar.jacobian.calls"),
    "system_homotopy": ("degree.calls", "solve.enumerations", "solve.seeds",
                        "solve.linalg_solve.calls", "solve.linalg_lstsq.calls",
                        "system.residual_pair.calls", "system.jacobian_system.calls"),
    "thresholds": ("continuation.calls", "continuation.enumerations", "solve.enumerations",
                   "solve.seeds", "solve.roots", "solve.morse_data.calls",
                   "solve.linalg_solve.calls", "scalar.residual.calls",
                   "scalar.jacobian.calls"),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class CaseResult:
    name: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    # calibration kernel seconds around the case (mean of the samples just
    # before and just after it); None when the run was not calibrated
    cal_s: float | None = None

    @property
    def ref_seconds(self) -> float:
        """The case's time adjusted to the reference speed (calibration.py)."""
        return self.seconds * (calibration.REF_S / self.cal_s) ** calibration.EXPONENT

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)`` for the order statistic that leaves
    exactly ``beyond`` samples beyond it, or ``None`` when there are too few
    samples for any percentile to qualify.
    """
    n = len(samples)
    if n <= beyond:
        return None
    k = n - beyond - 1
    return sorted(samples)[k], 100.0 * (k + 1) / n


def failed_frac(results: list[CaseResult]) -> float:
    return sum(r.failed for r in results) / len(results)


# ---------------------------------------------------------------------------
# measurement

def run_case(case) -> CaseResult:
    """Time only the call, then check its answer."""
    start = time.perf_counter()
    try:
        answer = case.run()
    except Exception:
        return CaseResult(case.name, time.perf_counter() - start,
                          ["raised: " + traceback.format_exc(limit=4)])
    seconds = time.perf_counter() - start
    try:
        problems = case.check(answer)
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=4)]
    return CaseResult(case.name, seconds, problems)


def run_pass(cases) -> list[CaseResult]:
    """Run every case once."""
    return [run_case(case) for case in cases]


def run_rounds(cases, seconds: float, calibrate=None) -> list[CaseResult]:
    """Run the cases in turn, round after round, until the next case would
    end after ``seconds``; every case runs at least once.

    With ``calibrate``, the machine's speed is sampled before the first case
    and after each one, and each case gets the mean of the samples on either
    side of it.
    """
    deadline = time.perf_counter() + seconds
    out: list[CaseResult] = []
    last: dict[str, float] = {}
    before = calibrate() if calibrate else None
    for i in itertools.count():
        case = cases[i % len(cases)]
        if i >= len(cases) and time.perf_counter() + last[case.name] > deadline:
            return out
        start = time.perf_counter()
        result = run_case(case)
        if calibrate:
            after = calibrate()
            result.cal_s = 0.5 * (before + after)
            before = after
        last[case.name] = time.perf_counter() - start
        out.append(result)


def pass_seconds(results: list[CaseResult]) -> float:
    return sum(r.seconds for r in results)


def repeat_within(seconds: float, step) -> None:
    """Call ``step`` at least once, then again while one more call fits."""
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        start = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() + longest > deadline:
            return


def case_medians(results: list[CaseResult], ref: bool = False) -> dict[str, float]:
    """Each case's median time (adjusted to the reference speed with
    ``ref``), in case order."""
    times: dict[str, list[float]] = {}
    for r in results:
        times.setdefault(r.name, []).append(r.ref_seconds if ref else r.seconds)
    return {name: statistics.median(v) for name, v in times.items()}


def end_to_end(results: list[CaseResult], setup: list[float]) -> dict[str, float]:
    """Every end-to-end figure; BENCHMARK.json names the bounded ones.

    ``wall_s`` sums each case's median: the time to finish every case of the
    workload once; ``wall_ref_s`` is the same at the reference machine speed
    (calibration.py) and needs calibrated results.
    """
    medians = case_medians(results)
    out = {
        "wall_s": sum(medians.values()),
        "case_p50_s": statistics.median(medians.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    if all(r.cal_s for r in results):
        out["wall_ref_s"] = sum(case_medians(results, ref=True).values())
    return out


# ---------------------------------------------------------------------------
# set-up and environment

def probe_setup(workload: str, seed: int) -> float:
    """Seconds of one cold set-up, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def blas_info(np) -> dict:
    """BLAS library as numpy's build reports it, and its live thread count."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def commit_hash() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(np, seed: int) -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "commit": commit_hash(),
        "seed": seed,
    }


def warm_up(cshlab, np) -> None:
    """Touch the scalar and system paths once so lazy set-up is not timed."""
    g = cshlab.complete_graph(2)
    cshlab.solve.enumerate_report(g, cshlab.ScalarModel(lam=10.0, f=np.ones(2)), grid_n=9)
    s = cshlab.SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    cshlab.solve.enumerate_report(g, s, box=(-3.0, 3.0), grid_n=5)


# ---------------------------------------------------------------------------
# main

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    """Import the workloads and cshlab from this checkout's ``src``."""
    if not (SRC / "cshlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no cshlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and cshlab

    import cshlab

    if SRC.resolve() not in Path(cshlab.__file__).resolve().parents:
        raise BenchmarkError(f"cshlab was imported from {cshlab.__file__}, not from {SRC}")
    return workloads, cshlab


def run(args, spec: dict) -> dict:
    for var in THREAD_ENV:
        os.environ[var] = "1"
    start = time.perf_counter()
    workloads, cshlab = import_program()
    cases = workloads.build(args.workload, args.seed, workloads.load_reference())
    setup = [time.perf_counter() - start]
    setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import numpy as np
    import tracing

    warm_up(cshlab, np)
    calibration.kernel()
    traced: list[list[CaseResult]] = []
    layers: list[dict[str, float]] = []
    tracers: list = []
    if args.trace:
        passes: list[list[CaseResult]] = []

        def traced_pair():
            passes.append(run_pass(cases))
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced.append(run_pass(cases))
            layers.append(tracing.layer_metrics(tracer))
            tracers.append(tracer)

        repeat_within(args.seconds, traced_pair)
        untraced = [r for p in passes for r in p]
    else:
        untraced = run_rounds(cases, args.seconds, calibration.sample)

    results = untraced + [r for p in traced for r in p]
    e2e = end_to_end(untraced, setup)
    pooled = [r.seconds for r in untraced]
    tail = tail_percentile(pooled)
    record = {
        "workload": args.workload,
        "environment": environment(np, args.seed),
        "rounds": len(untraced) / len(cases),
        "traced_passes": len(traced),
        "failed_frac": failed_frac(results),
        "case_tail_s": None if tail is None else {
            "value": tail[0], "percentile": tail[1], "samples": len(pooled)},
        "slowest_case_s": max(case_medians(untraced).values()),
        "setup_samples_s": setup,
        "end_to_end": e2e,
        "calibration_s": [r.cal_s for r in untraced],
        "cases": {c.name: [r.seconds for r in untraced if r.name == c.name] for c in cases},
        "failures": [{"case": r.name, "problems": r.problems} for r in results if r.failed],
    }
    if args.trace:
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["trace_overhead_s"] = (statistics.median(pass_seconds(p) for p in traced)
                                       - e2e["wall_s"])
        blank = [k for k in EXPECT_NONZERO[args.workload] if not metrics[k]]
        if blank:
            raise BenchmarkError(f"layer counters read zero on {args.workload}: {blank}")
        write_spans(args, tracers)
    else:
        metrics = e2e  # BENCHMARK.json bounds some; the record keeps them all
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units)) if args.trace else []
    if missing or extra:
        raise BenchmarkError(f"BENCHMARK.json names {missing} that the run lacks; "
                             f"the traced run has {extra} that it does not name")
    return {"record": record,
            "result": {"correct": not record["failures"], "attempted": len(results),
                       "failed": len(record["failures"]),
                       "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}}


def write_spans(args, tracers) -> None:
    """Keep the spans of the traced passes for inspection."""
    OUT.mkdir(exist_ok=True)
    doc = [{"pass": i, "spans": [vars(s) for s in t.spans],
            "counters": {k: vars(c) for k, c in t.counters.items()}}
           for i, t in enumerate(tracers)]
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    try:
        out = run(args, spec)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    record = out["record"]
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in record["end_to_end"].items():
        if name not in result["metrics"]:
            print(f"{name:40s} {value:.6g} (not bounded)")
    print(f"failed_frac {record['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} cases)")
    print(f"slowest_case_s {record['slowest_case_s']:.6g} s (median of the slowest case)")
    tail = record["case_tail_s"]
    samples = sum(len(v) for v in record["cases"].values())
    print(f"case_tail_s {tail['value']:.6g} s (p{tail['percentile']:.0f} of {tail['samples']})"
          if tail else f"case_tail_s n/a ({samples} case samples; needs {TAIL_BEYOND + 1})")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
