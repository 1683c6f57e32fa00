"""Sample-by-sample reference for ``roughmarket.strategies.run_simple``.

One Python loop over the samples with a Kahan-compensated running capital,
a freeze flag for the capital cap and a cursor over the firings: the plain
form of the simple-strategy engine, kept as the oracle that the
position-array engine ``strategies._run`` must match (positions and firings
exactly, capital exactly on dyadic paths and to roundoff elsewhere).
"""

import numpy as np

from roughmarket.paths import PricePath
from roughmarket.strategies import CapitalTrace, Firing, SimpleStrategy, _collect_firings


def run_simple(strategy: SimpleStrategy, path: PricePath) -> CapitalTrace:
    times, values = path.times, path.values
    n = values.shape[0]
    fired = _collect_firings(strategy, path)

    capital = np.empty(n)
    position = np.empty(n)
    cap = strategy.capital_cap
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

