"""The benchmark's tracer names public functions and reads mixture facts; a
name it cannot find is reported as absent, not as a failure, so these checks
keep a rename from silently dropping its per-layer metrics."""

import importlib.util
from pathlib import Path

import roughmarket
from roughmarket import make_path, volatility_mixture

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
