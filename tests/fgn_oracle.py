"""Covariance reference for ``roughmarket.paths.fractional_gaussian_noise``.

The generator is linear in its standard normal draws: noise = A z.  A stub
generator that hands out the entries of one unit vector makes the noise one
column of A, so the draws' count and order need not be known in advance.
A @ A.T must then be the Toeplitz covariance of unit-variance fractional
Gaussian noise, gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2.
"""

import numpy as np

from roughmarket.paths import fractional_gaussian_noise


class UnitDraws:
    """A ``standard_normal`` that returns entry after entry of e_hot (all zeros if hot is None)."""

    def __init__(self, hot=None):
        self.hot = hot
        self.used = 0

    def standard_normal(self, size=None):
        count = 1 if size is None else int(size)
        out = np.zeros(count)
        if self.hot is not None and self.used <= self.hot < self.used + count:
            out[self.hot - self.used] = 1.0
        self.used += count
        return float(out[0]) if size is None else out


def noise_map(n: int, hurst: float) -> np.ndarray:
    """The n x draws matrix A with fractional_gaussian_noise(n, hurst, rng) = A z."""
    counter = UnitDraws()
    fractional_gaussian_noise(n, hurst, counter)
    columns = [fractional_gaussian_noise(n, hurst, UnitDraws(i)) for i in range(counter.used)]
    return np.column_stack(columns)


def fgn_covariance(n: int, hurst: float) -> np.ndarray:
    """The n x n Toeplitz covariance of unit-variance fractional Gaussian noise."""
    k = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(np.float64)
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
