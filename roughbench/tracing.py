"""Spans and counts for the benchmark's traced run.

``Tracer.install`` wraps the public roughmarket functions named in SPANS in
every ``roughmarket`` module namespace that binds them, so calls made inside
the package (``verify_prop3_bound`` calling ``discretize``,
``volatility_mixture`` and ``run_mixture``) are seen too.  ``var_p`` is not
wrapped: its time shows in the ``var_phi`` span it opens.  Each wrapped call records a span: id, parent
span, case id, name, start and end.  Spans stay in memory and are written as
JSONL at the end.  A span's self time is its duration minus the time its
child spans cover; calls are single-threaded, so children never overlap.

Counts are read from the arguments and returned objects of the wrapped
calls.  A target name that no longer exists, or a count whose attribute is
gone, is reported as absent rather than crashing the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: metric prefix -> public name in ``roughmarket.__all__``
SPANS = {
    "paths.generate": "generate",
    "paths.discretize": "discretize",
    "variation.var_phi": "var_phi",
    "variation.qvar_profile": "qvar_profile",
    "variation.grid_crossings": "grid_crossings",
    "variation.crossings": "crossings",
    "variation.brute_force_var_phi": "brute_force_var_phi",
    "variation.phi_admissible": "phi_admissible",
    "strategies.run_simple": "run_simple",
    "strategies.borrowing_free_check": "borrowing_free_check",
    "strategies.clairvoyant_strategy": "clairvoyant_strategy",
    "mixtures.volatility_mixture": "volatility_mixture",
    "mixtures.run_mixture": "run_mixture",
    "mixtures.verify_prop3_bound": "verify_prop3_bound",
    "experiments.run_experiment": "run_experiment",
    "experiments.write_report": "write_report",
}


def turning_points(values) -> int:
    """Endpoints plus strict local extrema once plateaus are merged."""
    v = np.asarray(values)
    moves = np.diff(v)
    moves = moves[moves != 0.0]
    if moves.size == 0:
        return min(v.shape[0], 2)
    return 2 + int(np.count_nonzero(np.sign(moves[1:]) != np.sign(moves[:-1])))


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _count_generate(c, args, kwargs, path):
    c["paths.samples_out"] += path.n_samples


def _count_var_phi(c, args, kwargs, value):
    path = _first(args, kwargs, "path")
    c["variation.var_phi.samples_in"] += path.n_samples
    c["variation.var_phi.turning_points_in"] += turning_points(path.values)


def _count_grid_crossings(c, args, kwargs, result):
    path = _first(args, kwargs, "path")
    h = args[1] if len(args) > 1 else kwargs["h"]
    c["variation.grid_crossings.bands"] += int(math.floor(path.sup / h)) + 1


def _count_run_simple(c, args, kwargs, trace):
    c["strategies.firings"] += len(trace.firings)


def _count_volatility_mixture(c, args, kwargs, mixture):
    c["mixtures.scale_cut_max"] = max(c["mixtures.scale_cut_max"], mixture.scale_cut)
    share = mixture.analytic_tail_capital / mixture.total_initial
    c["mixtures.tail_share"] = max(c["mixtures.tail_share"], share)


def _count_run_mixture(c, args, kwargs, trace):
    mixture = _first(args, kwargs, "mixture")
    c["mixtures.cells"] += mixture.n_components
    c["mixtures.levels"] += len(mixture.levels)


def _count_write_report(c, args, kwargs, report_path):
    c["experiments.report_bytes"] += Path(report_path).stat().st_size


#: public name -> (counter, the count metrics it feeds)
COUNTERS = {
    "generate": (_count_generate, ("paths.samples_out",)),
    "discretize": (_count_generate, ("paths.samples_out",)),
    "var_phi": (
        _count_var_phi,
        ("variation.var_phi.samples_in", "variation.var_phi.turning_points_in"),
    ),
    "grid_crossings": (_count_grid_crossings, ("variation.grid_crossings.bands",)),
    "run_simple": (_count_run_simple, ("strategies.firings",)),
    "volatility_mixture": (
        _count_volatility_mixture,
        ("mixtures.scale_cut_max", "mixtures.tail_share"),
    ),
    "run_mixture": (_count_run_mixture, ("mixtures.cells", "mixtures.levels")),
    "write_report": (_count_write_report, ("experiments.report_bytes",)),
}

#: counts that keep their largest value instead of summing
MAXIMA = ("mixtures.scale_cut_max", "mixtures.tail_share")

#: every per-layer metric, in report order: (name, unit)
PER_LAYER = (
    ("mixtures.run_mixture.self_ms", "ms"),
    ("mixtures.run_mixture.calls", "count"),
    ("mixtures.cells", "count"),
    ("mixtures.levels", "count"),
    ("mixtures.volatility_mixture.self_ms", "ms"),
    ("mixtures.verify_prop3_bound.self_ms", "ms"),
    ("mixtures.scale_cut_max", "log2"),
    ("mixtures.tail_share", "ratio"),
    ("variation.var_phi.self_ms", "ms"),
    ("variation.var_phi.calls", "count"),
    ("variation.var_phi.samples_in", "count"),
    ("variation.var_phi.turning_points_in", "count"),
    ("variation.qvar_profile.self_ms", "ms"),
    ("variation.grid_crossings.self_ms", "ms"),
    ("variation.grid_crossings.bands", "count"),
    ("variation.crossings.self_ms", "ms"),
    ("variation.brute_force_var_phi.self_ms", "ms"),
    ("variation.phi_admissible.self_ms", "ms"),
    ("strategies.run_simple.self_ms", "ms"),
    ("strategies.run_simple.calls", "count"),
    ("strategies.firings", "count"),
    ("strategies.borrowing_free_check.self_ms", "ms"),
    ("strategies.clairvoyant_strategy.self_ms", "ms"),
    ("paths.generate.self_ms", "ms"),
    ("paths.generate.calls", "count"),
    ("paths.discretize.self_ms", "ms"),
    ("paths.samples_out", "count"),
    ("experiments.run_experiment.self_ms", "ms"),
    ("experiments.write_report.self_ms", "ms"),
    ("experiments.report_bytes", "B"),
    ("bench.case.self_ms", "ms"),
)


class Tracer:
    """In-memory span recorder with wrappers around the public API."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, case, name, start, end]
        self.counts: dict[str, float] = defaultdict(int)
        self.absent: set[str] = set()
        self.active = True
        self.case = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, self.case, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, case):
        """Benchmark-level span around a case or a round's input generation."""
        self.case = case
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.case = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter, metrics = COUNTERS.get(name, (None, ()))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, KeyError, IndexError):
                    self.absent.update(metrics)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap each SPANS target in every loaded module of ``package``."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for name in SPANS.values():
            original = getattr(package, name, None)
            if original is None:
                self.absent.update(f"{p}.{k}" for p, n in SPANS.items() if n == name
                                   for k in ("self_ms", "calls"))
                self.absent.update(COUNTERS.get(name, (None, ()))[1])
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self, package):
        """The wrappers are in place inside the ``with`` block only."""
        self.install(package)
        try:
            yield
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer metrics per traced cycle; absent metrics are left out."""
        child = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[5] - span[4]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            self_s[span[3]] += span[5] - span[4] - child[span[0]]
            calls[span[3]] += 1
        out = {}
        for metric, unit in PER_LAYER:
            if metric in self.absent:
                continue
            layer, _, kind = metric.rpartition(".")
            name = SPANS.get(layer, layer.rpartition(".")[2])
            if kind == "self_ms":
                value = self_s[name] * 1000.0 / cycles
            elif kind == "calls":
                value = calls[name] / cycles
            elif metric in MAXIMA:
                value = self.counts[metric]
            else:
                value = self.counts[metric] / cycles
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_jsonl(self, path: Path) -> None:
        keys = ("id", "parent", "case", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")

