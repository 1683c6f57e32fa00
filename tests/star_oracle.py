"""Point-at-a-time reference for ``roughmarket.variation._star_dp``.

One gauge call over the opposite stack per turning point: the plain form of
the turning-point DP, kept as the oracle that the blocked DP must match bit
for bit.
"""

from typing import Callable

import numpy as np


def _star_dp(y: np.ndarray, gauge: Callable) -> float:
    """The variation DP over alternating turning points ``y``, at least two.

    Extrema of one type have indices of one parity, and each parity keeps a
    stack of its undominated entries (see :func:`var_phi`).  With c = y at
    maxima and c = -y at minima, a step between opposite types has increment
    c_i + c_j, and an entry j of i's type is dominated once c_j <= c_i, so
    each stack holds strictly decreasing c from the bottom up.  The stacks
    live in preallocated arrays; Python lists mirror their c for the pops.
    """
    m = y.shape[0]
    c = y.copy()
    c[int(y[1] < y[0]) :: 2] *= -1.0  # the minima
    cl = c.tolist()
    stack_c = (np.empty(m), np.empty(m))
    stack_best = (np.empty(m), np.empty(m))
    mirrors = ([cl[0]], [])
    stack_c[0][0] = cl[0]
    stack_best[0][0] = 0.0
    for i in range(1, m):
        ci = cl[i]
        own = i & 1
        left = own ^ 1
        t = len(mirrors[left])
        # the method, not np.max, which adds 2 us per point
        best = (stack_best[left][:t] + gauge(ci + stack_c[left][:t])).max()
        stack = mirrors[own]
        while stack and stack[-1] <= ci:
            stack.pop()
        t = len(stack)
        stack.append(ci)
        stack_c[own][t] = ci
        stack_best[own][t] = best
    return float(best)
