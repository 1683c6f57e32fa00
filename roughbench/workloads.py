"""The three benchmark workloads: inputs from a seed, cases, independent checks.

A workload is a sequence of rounds.  Round ``r`` builds its inputs from
``(workload, seed, r)`` alone, so the same seed gives the same inputs, and
yields its cases in a fixed order.  One case is one call into the public
roughmarket API plus a check of the result that uses no reference value
recorded for a seed, so any seed works.

Every roughmarket name is looked up on the package module when a round
builds its cases (``rm.var_phi``, never ``from roughmarket import
var_phi``), so that the traced run's wrappers see the call.  Only names in ``roughmarket.__all__``
are used, ``backend=`` is never passed and ``_kernels`` is never imported.
See WORKLOADS.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import math
from functools import partial
from math import fsum
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

import roughmarket as rm

#: Tick of the prop3-long prices.  The derived scale cut is log2(4 / smallest
#: move), and on untick'd paths the smallest of 1024 moves has a tail so
#: heavy that a case's mean cost barely converges: runs of different seeds
#: differed by a third.  On this tick the cut is at most 18, the depth
#: criterion 4 is quoted at, and nearly every N = 1024 case reaches 16-18.
PRICE_TICK = 2.0**-16

ORACLE_WINDOW = 13  # brute_force_var_phi enumerates 2^(n-2) chains


class Case(NamedTuple):
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def sub_seed(*parts) -> int:
    """Generator seed below 2^31 derived from the given parts."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def finest_sum(path, phi) -> float:
    """Gauge sum over the partition that uses every sample: a lower bound."""
    return fsum(float(x) for x in phi(np.abs(np.diff(path.values))))


def star_bound(path, phi) -> float:
    """Upper bound on any gauge sum when phi(u)/u is nondecreasing.

    Every increment is at most the oscillation, so each term phi(|d|) is at
    most phi(osc)/osc * |d|, and the |d| of any partition sum to at most the
    total variation.  Power gauges with p >= 1, psi and convex tables
    through 0 all qualify.
    """
    values = path.values
    osc = float(values.max() - values.min())
    if osc == 0.0:
        return 0.0
    return float(phi(osc)) / osc * fsum(float(x) for x in np.abs(np.diff(values)))


def within_bounds(path, phi, value: float) -> bool:
    return (
        math.isfinite(value)
        and finest_sum(path, phi) * (1.0 - 1e-12) <= value <= star_bound(path, phi) * (1.0 + 1e-12)
    )


def oracle_window(path):
    """The first ORACLE_WINDOW samples from the path's first move on.

    Starting at the first move keeps a long opening plateau (common on the
    sparse-jump path) from making the oracle comparison trivial.
    """
    moved = np.flatnonzero(np.diff(path.values))
    start = int(moved[0]) if moved.size else 0
    start = min(start, path.n_samples - ORACLE_WINDOW)
    stop = start + ORACLE_WINDOW
    times = path.times[start:stop] - path.times[start]
    return rm.make_path(times, path.values[start:stop], float(times[-1]))


# ---------------------------------------------------------------------------
# prop3-long


def prop3_full_family_s0(eps: float) -> float:
    """Initial capital of the untruncated size/scale family, in closed form."""
    return 1.0 - (2.0**eps - 1.0) / (2.0 * (2.0 ** (1.0 + eps) - 1.0))


def prop3_rhs(rep) -> float:
    """The explicit bound, recomputed from the report's variation and sup."""
    eps, delta = rep.eps, rep.delta
    scale = (1.0 - 2.0**-eps) * (1.0 - 2.0**-delta) * 2.0 ** (-6.0 - eps - delta)
    return scale * rep.variation / max(1.0, rep.sup) ** (2.0 + eps + delta) - 0.25


def check_prop3(eps: float, rep) -> bool:
    rhs = prop3_rhs(rep)
    return (
        math.isfinite(rep.s_t)
        and rep.s_t > rhs
        and abs(rhs - rep.rhs) <= 1e-12 * max(1.0, abs(rhs))
        # the truncated family's S0 equals the full family's in exact
        # arithmetic, so both sides may differ in the last bits
        and 0.0 < rep.s0 <= prop3_full_family_s0(eps) * (1.0 + 1e-12)
        and math.isclose(rep.s0, prop3_full_family_s0(eps), rel_tol=1e-12)
    )


class Prop3Long:
    """Criterion 4 in miniature: verify_prop3_bound on long exp-fractional paths.

    Each round draws one path per Hurst value and checks it at every N with
    one (eps, delta) pair; the pair rotates with the round and the path, so
    any four consecutive rounds cover the whole eps x delta grid for each
    Hurst value.  The four pairs share a path's discretization and cost about
    the same, so spreading them over distinct paths averages over more paths
    in a run of the same length.
    """

    name = "prop3-long"
    trace_rounds = 4
    hursts = (0.4, 0.5, 0.6)
    eps_delta = ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0))

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        self.seed = seed
        self.n_samples = 257 if tiny else 4097
        self.n_steps = (16, 64) if tiny else (64, 256, 1024)

    def inputs(self, r: int) -> list:
        out = []
        for i, hurst in enumerate(self.hursts):
            spec = rm.GeneratorSpec(
                kind="exp-fractional",
                n_samples=self.n_samples,
                hurst=hurst,
                sigma=0.5,
                seed=sub_seed(self.name, self.seed, r, i),
            )
            path = rm.generate(spec)
            path = path.with_values(np.round(path.values / PRICE_TICK) * PRICE_TICK)
            eps, delta = self.eps_delta[(len(self.hursts) * r + i) % len(self.eps_delta)]
            out.append((path, eps, delta))
        return out

    def cases(self, inputs) -> Iterator[Case]:
        for path, eps, delta in inputs:
            for n_steps in self.n_steps:
                call = partial(
                    rm.verify_prop3_bound, path, eps, delta, n_steps, raise_on_violation=False
                )
                yield Case("verify_prop3_bound", call, partial(check_prop3, eps))


# ---------------------------------------------------------------------------
# variation-long

TABLE_GAUGE_U = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0)


def check_var_phi(path, phi, value: float) -> bool:
    if not within_bounds(path, phi, value):
        return False
    window = oracle_window(path)
    fast = rm.var_phi(window, phi)
    slow = rm.brute_force_var_phi(window, phi)
    return abs(fast - slow) <= 1e-12 * max(abs(slow), 1e-300)


def check_qvar(path, psi_gauge, points) -> bool:
    # the finest partition is feasible at every mesh, and a smaller mesh
    # only removes skip transitions
    values = [pt.value for pt in points]
    return all(within_bounds(path, psi_gauge, v) for v in values) and all(
        b <= a for a, b in zip(values, values[1:])
    )


def check_growth(path, p: float, n_grid, table) -> bool:
    # dyadic grids are nested, so a finer grid offers every coarser partition;
    # the full path bounds every discretization from above
    values = [table[(p, n)] for n in n_grid]
    phi = rm.VariationFunctional.power(p)
    upper = star_bound(path, phi) * (1.0 + 1e-12)
    return all(math.isfinite(v) and v <= upper for v in values) and all(
        b >= a for a, b in zip(values, values[1:])
    )


class VariationLong:
    """The exact variation DPs on long paths with different turning-point shares.

    The growth profile's grid is criterion 8's: N = 256, 1024 and 4096 on
    4097-sample paths.
    """

    name = "variation-long"
    trace_rounds = 1
    growth_p = 2.5

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        self.seed = seed
        self.n_samples = 65 if tiny else 4097
        self.meshes = (2.0**-4, 2.0**-6, 2.0**-8)
        self.growth_n = (16, 64) if tiny else (256, 1024, 4096)
        self.gauges = (
            rm.VariationFunctional.power(2.5),
            rm.VariationFunctional.taylor_psi(),
            rm.VariationFunctional.from_table(TABLE_GAUGE_U, [u * u for u in TABLE_GAUGE_U]),
        )

    def inputs(self, r: int) -> list:
        specs = (
            dict(kind="exp-fractional", hurst=0.4, sigma=0.5),
            dict(kind="exp-fractional", hurst=0.6, sigma=0.5),
            # ~300 jumps over 4096 steps: plateaus, few turning points
            dict(kind="jump", jump_rate=300.0, jump_sigma=0.05),
        )
        return [
            rm.generate(
                rm.GeneratorSpec(
                    n_samples=self.n_samples, seed=sub_seed(self.name, self.seed, r, i), **spec
                )
            )
            for i, spec in enumerate(specs)
        ]

    def cases(self, paths) -> Iterator[Case]:
        psi_gauge = self.gauges[1]
        for path in paths:
            for phi in self.gauges:
                yield Case(
                    f"var_phi[{phi.label}]",
                    partial(rm.var_phi, path, phi),
                    partial(check_var_phi, path, phi),
                )
            yield Case(
                "qvar_profile",
                partial(rm.qvar_profile, path, self.meshes),
                partial(check_qvar, path, psi_gauge),
            )
            yield Case(
                "variation_growth_profile",
                partial(rm.variation_growth_profile, path, [self.growth_p], self.growth_n),
                partial(check_growth, path, self.growth_p, self.growth_n),
            )


# ---------------------------------------------------------------------------
# short-suite

SHORT_SUITE_KINDS = ("oracle-suite", "doob-suite", "prop1-check", "borrow-audit", "upper-prob-table")


def run_and_write(config, out_dir: Path):
    report = rm.run_experiment(config)
    return report, rm.write_report(report, out_dir)


def check_report(result) -> bool:
    report, report_path = result
    return (
        bool(report.cases)
        and all(bool(c["pass"]) for c in report.cases)
        and Path(report_path).stat().st_size > 0
    )


class ShortSuite:
    """The config-driven verifier: one single-seed run_experiment plus write_report per case."""

    name = "short-suite"
    trace_rounds = 20

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        del tiny  # the suites are short already
        self.seed = seed
        self.out_dir = work_dir

    def inputs(self, r: int) -> list:
        return [
            rm.ExperimentConfig(kind=kind, seeds=(sub_seed(self.name, self.seed, r, i),))
            for i, kind in enumerate(SHORT_SUITE_KINDS)
        ]

    def cases(self, configs) -> Iterator[Case]:
        for config in configs:
            yield Case(
                config.kind,
                partial(run_and_write, config, self.out_dir / config.kind),
                check_report,
            )


WORKLOADS = {w.name: w for w in (Prop3Long, VariationLong, ShortSuite)}


def make(name: str, seed: int, work_dir: Path, tiny: bool = False):
    """Workload ``name`` for ``seed``; files it writes go under ``work_dir``."""
    return WORKLOADS[name](seed, work_dir, tiny=tiny)
