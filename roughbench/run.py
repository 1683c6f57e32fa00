#!/usr/bin/env python3
"""roughmarket benchmark: one workload, closed loop, single process.

Usage, from the root of a roughmarket source checkout:

    python3 roughbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: prop3-long, variation-long, short-suite (see WORKLOADS.md).  The
program under test is imported from ``src/`` of the working directory; a
directory without it is refused with exit code 2.  BLAS/OpenMP threads are
pinned to 1.  Cases run one after another: the next starts only when the
previous has returned and been checked.

``--trace 0`` measures the end-to-end metrics with tracing off: setup time in
fresh processes, then one pass over rounds 0, 1, ...  Timings are scaled to
reference speed by HostClock, which times a fixed loop between rounds.
``--trace 1`` repeats a cycle of rounds, in turn with the public API wrapped
in spans (tracing.py) and without, and reports per-layer metrics per traced
cycle plus the tracing overhead.  Either run ends about
``--seconds`` after it starts.  The last line of standard output is the
result object; the line before it records the environment.  Results, and in
traced runs the spans as JSONL, are also written under ``.bench_build/roughbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("prop3-long", "variation-long", "short-suite")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 5
#: HostClock's reference loop time on an uncontended vCPU of the Intel Xeon
#: VM the bounds were measured on; timings are reported at this speed
REF_MS = 1.0
REF_EVERY_S = 0.25
OUT_DIR = Path(".bench_build") / "roughbench"

#: end-to-end metrics: (name, unit)
END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_ratio", "ratio"),
)
#: per-layer metrics measured by this file rather than by the tracer
TRACE_OVERHEAD = (
    ("bench.cases_per_s_traced", "1/s"),
    ("bench.cases_per_s_untraced", "1/s"),
    ("bench.trace_overhead_pct", "%"),
)
MAX_TRACEBACKS = 3


class Round(NamedTuple):
    inputs_s: float  # input generation
    case_ms: list  # per case: call time, or None if the call raised
    ok: list  # per case: whether it passed its check


class Runner:
    """Runs cases closed-loop, timing each call and checking each result."""

    def __init__(self, tracer=None, corrupt=None):
        self.tracer = tracer
        self.corrupt = corrupt  # applied to the first result; for the self-test
        self.tracebacks = 0

    def installed(self, package):
        """Context in which this runner's tracer, if any, wraps ``package``."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.installed(package)

    def _span(self, name, case):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.root(name, case)

    def run_case(self, case, case_id: str) -> tuple[float | None, bool]:
        """(call time in ms, or None if it raised; whether the check passed)."""
        try:
            t0 = time.perf_counter()
            with self._span("case", case_id):
                result = case.call()
            ms = (time.perf_counter() - t0) * 1000.0
        except Exception:
            self._report(case_id)
            return None, False
        if self.corrupt is not None:
            result, self.corrupt = self.corrupt(result), None
        if self.tracer is not None:
            self.tracer.active = False
        try:
            ok = bool(case.check(result))
        except Exception:
            self._report(case_id)
            ok = False
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        if not ok:
            print(f"roughbench: case {case_id} ({case.label}) failed its check", file=sys.stderr)
        return ms, ok

    def _report(self, case_id: str) -> None:
        self.tracebacks += 1
        if self.tracebacks <= MAX_TRACEBACKS:
            print(f"roughbench: case {case_id} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def run_round(self, workload, r: int) -> Round:
        t0 = time.perf_counter()
        with self._span("inputs", f"r{r}"):
            inputs = workload.inputs(r)
        inputs_s = time.perf_counter() - t0
        case_ms, ok = [], []
        for i, case in enumerate(workload.cases(inputs)):
            ms, passed = self.run_case(case, f"r{r}c{i}")
            case_ms.append(ms)
            ok.append(passed)
        return Round(inputs_s, case_ms, ok)


def warm_up(workload, runner: Runner) -> Round:
    """First case of round 0, untimed: lazy set-up finishes before timing."""
    case = next(iter(workload.cases(workload.inputs(0))))
    ms, ok = runner.run_case(case, "warm-up")
    return Round(0.0, [ms], [ok])


class HostClock:
    """Times a fixed reference loop to tell how fast the host runs right now.

    The loop runs no roughmarket code, so only the host moves its time.  On
    a shared VM the same code runs up to 1.6x slower for stretches of
    seconds to minutes; multiplying a run's timings by REF_MS over the
    loop's mean time during the run takes most of that drift out (WORKLOADS.md
    gives the spreads with and without it).
    """

    def __init__(self):
        import numpy

        self._np = numpy
        self._a = numpy.linspace(0.0, 1.0, 2048)
        self._last = -math.inf
        self.samples: list[float] = []

    def sample(self) -> None:
        np, a, v = self._np, self._a, [0.5] * 64
        t0 = time.perf_counter()
        x = 0.0
        for i in range(4000):  # interpreter-bound, like the grid and strategy loops
            x += v[i & 63] * 0.5
        for i in range(100):  # small-array numpy, like the DP rows
            np.max(np.abs(a[: 20 * i + 1] - a[i]) + a[i])
        self.samples.append((time.perf_counter() - t0) * 1000.0)

    def tick(self) -> None:
        """Take three samples if REF_EVERY_S have passed since the last ones."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            for _ in range(3):
                self.sample()
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns times measured so far into times at reference speed."""
        return REF_MS / statistics.fmean(self.samples)


class Pass(NamedTuple):
    rounds: list
    scale: float  # HostClock.scale() over the run


def run_turns(workload, runners, turns, package, seconds: float) -> list:
    """Give each runner in turn every round of a turn, turn after turn,
    while another turn is expected to fit in ``seconds`` (at least one).

    The host clock is sampled between rounds; the result holds one Pass per
    runner, all with the same scale.  Taking turns gives the traced and the
    untraced runner the same host conditions.
    """
    t0, clock, done = time.perf_counter(), HostClock(), [[] for _ in runners]
    for n, turn in enumerate(turns, 1):
        for runner, rounds in zip(runners, done):
            with runner.installed(package):
                for r in turn:
                    clock.tick()
                    rounds.append(runner.run_round(workload, r))
        if (time.perf_counter() - t0) * (n + 1) / n > seconds:
            return [Pass(rounds, clock.scale()) for rounds in done]


def tally(rounds) -> tuple[int, int]:
    """(case calls attempted, case calls failed)."""
    return sum(len(rd.ok) for rd in rounds), sum(not ok for rd in rounds for ok in rd.ok)


def busy_s(rounds) -> float:
    """Time spent building inputs and in case calls; checks are left out."""
    return sum(rd.inputs_s + sum(ms for ms in rd.case_ms if ms is not None) / 1000.0
               for rd in rounds)


def cases_per_s(p: Pass) -> float:
    """Verified cases per second at reference speed."""
    attempted, failed = tally(p.rounds)
    return (attempted - failed) / (busy_s(p.rounds) * p.scale)


def p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def end_to_end(p: Pass, setup_s: float) -> dict:
    case_ms = [ms * p.scale for rd in p.rounds for ms in rd.case_ms if ms is not None]
    attempted, failed = tally(p.rounds)
    values = {
        "cases_per_s": cases_per_s(p),
        "case_ms_p50": statistics.median(case_ms),
        "case_ms_p90": p90(case_ms),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_ratio": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def trace_overhead(traced: Pass, untraced: Pass) -> dict:
    cps_traced, cps_untraced = cases_per_s(traced), cases_per_s(untraced)
    values = (cps_traced, cps_untraced, 100.0 * (1.0 - cps_traced / cps_untraced))
    return {name: {"value": v, "unit": unit} for (name, unit), v in zip(TRACE_OVERHEAD, values)}


def setup_probe(workload_name: str, seed: int) -> float:
    """Import, input construction and the first call in this fresh process, at reference speed."""
    t0 = time.perf_counter()
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = workloads.make(workload_name, seed, Path(tmp))
        case = next(iter(workload.cases(workload.inputs(0))))
        case.call()
        setup_s = time.perf_counter() - t0
    clock = HostClock()
    clock.tick()
    return setup_s * clock.scale()


def measure_setup(workload_name: str, seed: int, probes: int) -> float:
    """Median setup time over ``probes`` fresh interpreter processes."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def environment() -> dict:
    """What decides whether two results are comparable."""
    import numpy
    import roughmarket

    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    cpu_model = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu_model,
            )
    default_backend = getattr(roughmarket, "default_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        # without a backend selector, the numpy kernels are the only ones
        "backend": default_backend() if default_backend else "numpy",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        tiny: bool = False, probes: int = SETUP_PROBES, corrupt=None) -> tuple[dict, dict]:
    """One benchmark run in this process, done ``seconds`` after it starts.

    Returns (result object, details).  ``tiny``, ``probes`` and
    ``corrupt`` (applied to the first measured result of an untraced run)
    exist for the self-test.
    """
    import roughmarket
    import tracing
    import workloads

    deadline = time.perf_counter() + seconds
    workload = workloads.make(workload_name, seed, work_dir, tiny=tiny)
    details = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        setup_s = measure_setup(workload_name, seed, probes)
        rounds = [warm_up(workload, Runner())]
        [timed] = run_turns(workload, [Runner(corrupt=corrupt)], ([r] for r in itertools.count()),
                            roughmarket, deadline - time.perf_counter())
        rounds += timed.rounds
        metrics = end_to_end(timed, setup_s)
        case_ms = [ms for rd in timed.rounds for ms in rd.case_ms if ms is not None]
        wall_p90 = p90(case_ms)
        details.update(rounds=len(timed.rounds), samples=len(case_ms),
                       beyond_p90=sum(ms > wall_p90 for ms in case_ms),
                       reference_ms=REF_MS / timed.scale,
                       wall_clock={"cases_per_s": metrics["cases_per_s"]["value"] * timed.scale,
                                   "case_ms_p50": statistics.median(case_ms),
                                   "case_ms_p90": wall_p90})
    else:
        rounds = [warm_up(workload, Runner())]
        cycle = workload.trace_rounds
        tracer = tracing.Tracer()
        traced, untraced = run_turns(workload, [Runner(tracer), Runner()],
                                     itertools.repeat(range(cycle)), roughmarket,
                                     deadline - time.perf_counter())
        rounds += traced.rounds + untraced.rounds
        cycles = len(traced.rounds) // cycle
        metrics = tracer.layer_metrics(cycles)
        metrics.update(trace_overhead(traced, untraced))
        details.update(cycles=cycles, absent=sorted(tracer.absent), tracer=tracer)
    attempted, failed = tally(rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "roughmarket" / "__init__.py").is_file():
        print("roughbench: src/roughmarket not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = details.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
    record = {"env": environment(), "details": details, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": record["env"], "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
