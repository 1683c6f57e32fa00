import numpy as np
import pytest

from roughmarket import PricePath


def step_path(values, T=1.0) -> PricePath:
    values = np.asarray(values, dtype=np.float64)
    times = np.linspace(0.0, T, values.shape[0])
    times[0] = 0.0
    return PricePath(times, values)


def random_positive_path(rng, n_max=40, sigma=0.5) -> PricePath:
    n = int(rng.integers(2, n_max + 1))
    values = np.exp(np.cumsum(rng.normal(0.0, sigma, size=n))) * float(rng.uniform(0.5, 2.0))
    return step_path(values)
