"""Row-at-a-time reference for ``roughmarket.variation._mesh_dp``.

One numpy reduction per right end over all of its left ends, for one mesh
and with no left end dropped: the plain form of the variation DP, kept as
the oracle that the blocked, pruned DP must match bit for bit on every mesh.
"""

from typing import Callable

import numpy as np

from roughmarket.variation import check_dp_samples


def var_dp(values: np.ndarray, gauge: Callable, first: np.ndarray | None = None) -> float:
    """Supremum over index chains 0 -> n-1 of the summed gauge of increments.

    ``gauge`` maps an array of nonnegative increments to their gauge values.
    ``first[i]``, when given, is the smallest index a chain may step from
    into ``i`` (nondecreasing, ``first[i] < i``); by default any ``j < i``.
    One Python loop over the right end of a step, a numpy reduction over its
    left ends: O(n^2) time, O(n) memory.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    check_dp_samples(n)
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
