"""The benchmark's tracer names public functions and reads mixture facts; a
name it cannot find is reported as absent, not as a failure, so these checks
keep a rename from silently dropping its per-layer metrics."""

import importlib.util
from pathlib import Path

import pytest

import roughmarket
from roughmarket import GeneratorSpec, VariationFunctional, generate, make_path, var_phi
from roughmarket import variation, volatility_mixture

from conftest import step_path

TRACING = Path(__file__).resolve().parents[1] / "roughbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("roughbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_public():
    missing = sorted(set(_tracing().SPANS.values()) - set(roughmarket.__all__))
    assert missing == []


def test_prop3_mixture_keeps_the_counted_facts():
    path = make_path([0.0, 0.5, 1.0], [1.0, 1.5, 0.75], 1.0)
    mixture = volatility_mixture(None, 1, path_hint=path, kind="prop3", eps=1.0, delta=1.0)
    for name in ("n_components", "levels", "scale_cut", "analytic_tail_capital", "total_initial"):
        assert hasattr(mixture, name), name


# the three path kinds of the variation-long workload, and plateau and
# monotone edge cases
TURNING_POINT_PATHS = [
    dict(kind="exp-fractional", hurst=0.4, sigma=0.5),
    dict(kind="exp-fractional", hurst=0.6, sigma=0.5),
    dict(kind="jump", jump_rate=300.0, jump_sigma=0.05),
    [1.0, 1.0],
    [2.0, 2.0, 2.0, 2.0],
    [1.0, 2.0],
    [1.0, 1.0, 2.0, 2.0, 3.0],
    [5.0, 4.0, 4.0, 3.0],
    [1.0, 1.0, 3.0, 3.0, 2.0, 2.0],
    [1.0, 3.0, 3.0, 3.0, 1.0],
    [1.0, 2.0, 2.0, 1.0, 1.0, 2.0],
]


@pytest.mark.parametrize("shape", TURNING_POINT_PATHS, ids=str)
def test_turning_point_count_is_what_the_dp_runs_on(shape, monkeypatch):
    """``variation.var_phi.turning_points_in`` counts the points the reduced DP keeps."""
    kept = []
    star_dp = variation._star_dp

    def spy(y, gauge):
        kept.append(y.shape[0])
        return star_dp(y, gauge)

    monkeypatch.setattr(variation, "_star_dp", spy)
    if isinstance(shape, dict):
        paths = [generate(GeneratorSpec(n_samples=4097, seed=seed, **shape)) for seed in (1, 2)]
    else:
        paths = [step_path(shape)]
    count = _tracing().turning_points
    for path in paths:
        kept.clear()
        var_phi(path, VariationFunctional.power(2.5))
        assert kept == [count(path.values)]
