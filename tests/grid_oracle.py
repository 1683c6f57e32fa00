"""Event-driven reference for ``roughmarket.mixtures.doob_grid_held``.

Simulates one dyadic cell grid (one scale, one cell count) sample by sample:
at each price move it buys one unit in every flat cell whose lower edge the
price reached and sells in every holding cell whose upper edge it reached,
and books cash and gains as it goes.  It returns the capital and the held
count; the kernel returns held counts only, and the tests form its capital
with ``strategies.self_financing`` from ``GridLevel.initial_capital``.  Its
cost grows with the cells crossed, so it is only a test oracle for the
closed-form kernel.
"""

import math

import numpy as np


def doob_grid_events(values, j_exp, k_cap):
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    state = np.zeros(k_cap, dtype=bool)
    buy = np.zeros(k_cap, dtype=np.float64)
    h = math.ldexp(1.0, -j_exp)
    init_sum = h * (k_cap * (k_cap - 1) / 2.0)

    agg = np.empty(n, dtype=np.float64)
    held = np.empty(n, dtype=np.int64)

    gain = 0.0
    sum_buy = 0.0
    n_hold = 0

    for t in range(n):
        x = float(values[t])
        q = math.ldexp(x, j_exp)
        if t == 0:
            k_lo = max(int(math.ceil(q)), 0)
            k_hi = k_cap
            if k_lo < k_hi:
                state[k_lo:k_hi] = True
                buy[k_lo:k_hi] = x
                cnt = k_hi - k_lo
                n_hold += cnt
                sum_buy += x * cnt
        else:
            u = float(values[t - 1])
            if x < u:
                qp = math.ldexp(u, j_exp)
                k_lo = max(int(math.ceil(q)), 0)
                k_hi = min(int(math.ceil(qp)), k_cap)
                if k_lo < k_hi:
                    seg = state[k_lo:k_hi]
                    fresh = ~seg
                    cnt = int(fresh.sum())
                    if cnt:
                        buy[k_lo:k_hi][fresh] = x
                        seg[fresh] = True
                        n_hold += cnt
                        sum_buy += x * cnt
            elif x > u:
                qp = math.ldexp(u, j_exp)
                k_lo = max(int(math.floor(qp)), 0)
                k_hi = min(int(math.floor(q)), k_cap)
                if k_lo < k_hi:
                    seg = state[k_lo:k_hi]
                    bseg = buy[k_lo:k_hi]
                    cnt = int(seg.sum())
                    if cnt:
                        sold = bseg[seg]
                        gain += float(x * cnt - sold.sum())
                        sum_buy -= float(sold.sum())
                        n_hold -= cnt
                        seg[:] = False
        agg[t] = init_sum + gain + n_hold * x - sum_buy
        held[t] = n_hold
    return agg, held
