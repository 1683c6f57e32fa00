"""Sample-by-sample references for ``run_simple`` and ``run_mixture``.

``run_simple`` is one Python loop over the samples with a Kahan-compensated
running capital, a freeze flag for an optional capital cap and a cursor over
the firings: the plain form of the simple-strategy engine, kept as the oracle
that the position-array engine ``strategies._run`` must match (positions and
firings exactly, capital exactly on dyadic paths and to roundoff elsewhere).
A capital cap freezes the strategy from the first sample where its capital
reaches the cap: the capital stays constant, an open position is closed by a
``cap-liquidate`` firing, and firings from that sample on are dropped.

``run_components`` is the per-component route of a mixture: every component
runs on its own and must keep its capital >= 0, and the weighted positions
are added in component order.  A capped component runs on the loop here;
any other runs on the engine, which the tests hold to the loop.  ``unboundedness_components``,
``crossing_components`` and ``grid_components`` list the three mixture
families as explicit (weight, strategy, cap) components.
"""

import math

import numpy as np

from roughmarket.errors import NegativeComponent
from roughmarket.paths import PricePath
from roughmarket.strategies import (
    AtIndex,
    CapitalTrace,
    Firing,
    HitAbove,
    SimpleStrategy,
    _collect_firings,
    doob_strategy,
    self_financing,
)
from roughmarket.strategies import run_simple as engine_run

MAX_COMPONENTS = 1 << 16  # banded components that grid_components materializes


def run_simple(strategy: SimpleStrategy, path: PricePath, cap: float | None = None) -> CapitalTrace:
    times, values = path.times, path.values
    n = values.shape[0]
    fired = _collect_firings(strategy, path)

    capital = np.empty(n)
    position = np.empty(n)
    k = float(strategy.initial_capital)
    k_c = 0.0  # Kahan compensation for the telescoping sum
    pos = 0.0
    frozen = False
    executed: list[Firing] = []
    fi = 0
    for t in range(n):
        if t > 0:
            inc = pos * (values[t] - values[t - 1])
            y = inc - k_c
            s = k + y
            k_c = (s - k) - y
            k = s
        if cap is not None and not frozen and k >= cap:
            frozen = True
            if pos != 0.0:
                executed.append(Firing(t, float(times[t]), 0.0, "cap-liquidate"))
            pos = 0.0
        while fi < len(fired) and fired[fi][0] == t:
            idx, h, desc = fired[fi]
            fi += 1
            if frozen:
                continue
            pos = h
            executed.append(Firing(idx, float(times[idx]), h, desc))
        capital[t] = k
        position[t] = pos
    cash = capital - position * values
    return CapitalTrace(
        times=times,
        capital=capital,
        position=position,
        cash=cash,
        firings=tuple(executed),
        initial_capital=float(strategy.initial_capital),
    )


def run_components(components, path: PricePath, tail: float = 0.0) -> CapitalTrace:
    """Capital of the summed position of (weight, strategy, cap) components.

    The initial capital is the weighted components' plus ``tail``, a constant.
    """
    components = list(components)
    position = np.zeros(path.n_samples)
    for w, strategy, cap in components:
        trace = engine_run(strategy, path) if cap is None else run_simple(strategy, path, cap)
        if trace.min_capital < -1e-9 * max(1.0, abs(trace.initial_capital)):
            raise NegativeComponent(f"{strategy.describe()} reached capital {trace.min_capital}")
        with np.errstate(over="ignore", invalid="ignore"):
            position += w * trace.position
    s0 = math.fsum(w * s.initial_capital for w, s, _cap in components) + tail
    capital = self_financing(s0, position, path.values)
    with np.errstate(over="ignore", invalid="ignore"):
        cash = capital - position * path.values
    return CapitalTrace(path.times, capital, position, cash, (), s0)


def unboundedness_components(m_max: int, start: float):
    """Component m buys 1/start units (1 from a zero start) and sells at 2^m."""
    h1 = 1.0 if start == 0.0 else 1.0 / start
    return [
        (2.0**-m, SimpleStrategy(1.0, ((AtIndex(0), h1), (HitAbove(2.0**m), 0.0))), None)
        for m in range(1, m_max + 1)
    ]


def crossing_components(intervals, weights):
    """The band strategy on each interval, capped at 1 / its weight."""
    return [(w, doob_strategy(a, b), 1.0 / w) for (a, b), w in zip(intervals, weights)]


def grid_components(mix):
    """The banded cells of a grid mixture, at most :data:`MAX_COMPONENTS`."""
    if mix.n_components > MAX_COMPONENTS:
        raise ValueError(f"{mix.n_components} components exceed {MAX_COMPONENTS}")
    for lv in mix.levels:
        h = lv.cell_height
        for k in range(lv.k_count):
            yield lv.cell_weight, doob_strategy(k * h, (k + 1) * h), None
