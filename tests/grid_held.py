"""Held-unit counts of the grid kernel at one scale, for the kernel tests.

``doob_grid_held`` reads ``mixtures._grid_held`` for one scale as int64 rows;
``grid_oracle.doob_grid_events`` is its sample-by-sample reference.
"""

import numpy as np

from roughmarket.mixtures import _grid_held, _grid_rows


def doob_grid_held(values: np.ndarray, j_exp: int, k_caps) -> np.ndarray:
    """Held-unit counts of dyadic cell grids at one scale, one row per cell count.

    ``j_exp`` is the scale exponent (cell height ``2**-j_exp``; may be
    negative); row ``i`` holds, after every sample, the number of cells
    ``k = 0..k_caps[i]-1`` that hold one unit.
    """
    caps = np.asarray(k_caps, dtype=np.int64).reshape(-1)
    held = np.empty((caps.size, values.shape[0]), dtype=np.int64)
    for a, b, block in _grid_held(values, _grid_rows([j_exp] * caps.size, caps)):
        held[:, a:b] = block
    return held
