"""Hot numeric kernels: the variation DP and dyadic grid trading.

Every kernel is vectorized numpy.  The variation DP, which also serves the
mesh-constrained variation, keeps one Python loop over the right end of a
partition step and reduces over its left ends with numpy.

The dyadic grid kernel is closed-form: after each sample, every cell's state
is fixed by where the price sits relative to the cell's band, except for the
one cell whose band strictly contains the price, whose state is carried from
the sample before the price entered that band.  It runs in O(n) per scale,
whatever the number of cells.

Dyadic arithmetic note: grid scales are powers of two, so ``x * 2**j`` is an
exponent shift and exact in float64.  Cell-boundary comparisons inside the
grid kernel therefore involve no rounding.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "psi_np",
    "var_dp",
    "doob_grid_trace",
]


def psi_np(u):
    """Vectorized psi gauge."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    pos = u > 0.0
    up = u[pos]
    lu = np.maximum(1.0, np.abs(np.log(up)))
    llu = np.maximum(1.0, np.log(lu))
    out[pos] = up * up / (2.0 * llu)
    return out


# ---------------------------------------------------------------------------
# variation DP: best[i] = max_{first[i] <= j < i} best[j] + gauge(|x_i - x_j|)


def var_dp(
    values: np.ndarray,
    gauge: Callable[[np.ndarray], np.ndarray],
    first: np.ndarray | None = None,
) -> float:
    """Supremum over index chains 0 -> n-1 of the summed gauge of increments.

    ``gauge`` maps an array of nonnegative increments to their gauge values.
    ``first[i]``, when given, is the smallest index a chain may step from
    into ``i`` (nondecreasing, ``first[i] < i``); by default any ``j < i``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        return 0.0
    if first is None:
        first = np.zeros(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    best[0] = 0.0
    for i in range(1, n):
        lo = first[i]
        d = np.abs(values[i] - values[lo:i])
        best[i] = np.max(best[lo:i] + gauge(d))
    return float(best[n - 1])


# ---------------------------------------------------------------------------
# dyadic grid of buy-low/sell-high cells.
#
# Cell k at scale j trades the band (k*h, (k+1)*h), h = 2^-j: it buys one
# unit at the first sample <= k*h, sells at the first later sample
# >= (k+1)*h, and repeats.  With q = x / h (exact) the cells obey, after
# every sample x:
#
#   cells with k >= ceil(q) hold and cells with k < floor(q) are flat; at
#   most one cell, c = floor(q), lies strictly inside its band, and it holds
#   iff the last sample outside the open band (c, c+1) was <= c (flat if
#   every sample since t = 0 stayed inside).
#
# So the held count is a clip plus a flag carried forward over runs of
# samples inside one band, and the capital is self-financing: the initial
# cash sum k*h plus the cumulative sum of held_{t-1} * (x_t - x_{t-1}).
# Cost is O(n) per scale, independent of k_cap.


def doob_grid_trace(values: np.ndarray, j_exp: int, k_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample aggregate capital and held-unit count of a dyadic cell grid.

    ``j_exp`` is the scale exponent (cell height ``2**-j_exp``; may be
    negative), ``k_cap`` the number of cells simulated, ``k = 0..k_cap-1``.
    The capital of all cells counts initial cash ``k * 2**-j_exp`` each,
    realized gains and the mark-to-market of held units.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    if k_cap <= 0:
        return np.zeros(n), np.zeros(n, dtype=np.int64)
    q = np.ldexp(values, j_exp)
    lo = np.floor(q)
    hi = np.ceil(q)
    inside = lo < hi
    # a run of samples strictly inside one band starts where the previous
    # sample is outside it; the straddled cell holds iff that sample was <= c
    start = inside.copy()
    start[1:] &= ~(inside[:-1] & (lo[1:] == lo[:-1]))
    entered_low = np.zeros(n, dtype=bool)
    entered_low[1:] = q[:-1] <= lo[1:]
    run_head = np.maximum.accumulate(np.where(start, np.arange(n), 0))
    straddled = inside & (lo >= 0.0) & (lo < k_cap) & entered_low[run_head]
    held = np.clip(k_cap - hi, 0, k_cap).astype(np.int64) + straddled
    pnl = np.zeros(n)
    pnl[1:] = held[:-1] * np.diff(values)
    agg = np.cumsum(pnl) + math.ldexp(k_cap * (k_cap - 1) / 2.0, -j_exp)
    return agg, held
