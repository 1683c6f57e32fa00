"""Config-driven experiment suites with deterministic, diff-able reports.

All randomness flows through the explicit seed list in the config; the
canonical report serialization contains no volatile fields, so identical
(config, version) pairs produce identical bytes.  Wall time is written to a
sidecar instead.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import CaseFailure, ConfigError, NonFiniteResult, UnknownSeries
from .mixtures import run_mixture, verify_prop3_bound, volatility_mixture
from .paths import MAX_SAMPLES, GeneratorSpec, PricePath, generate
from .strategies import (
    AUDIT_STRATEGIES,
    audit_strategy,
    borrowing_free_check,
    doob_strategy,
    run_simple,
    upper_prob_singleton,
)
from .variation import (
    MAX_ORACLE_SAMPLES,
    VariationFunctional,
    brute_force_var_phi,
    check_dp_samples,
    crossings,
    grid_crossings,
    var_phi,
    variation_growth_profile,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "run_experiment",
    "emit_plot_data",
    "write_report",
    "report_canonical_bytes",
    "canonical_json",
]

EXPERIMENT_KINDS = (
    "oracle-suite",
    "doob-suite",
    "prop1-check",
    "prop3-check",
    "upper-prob-table",
    "growth-profile",
    "borrow-audit",
)


# the seed comes from the config's seed list
_GENERATOR_FIELDS = set(GeneratorSpec.__dataclass_fields__) - {"seed"}
_DEFAULT_GENERATOR = {"kind": "exp-fractional", "hurst": 0.5, "sigma": 0.5}


def _param(params: dict, key: str, cast, default, minimum=None, maximum=None):
    """``params[key]`` (or ``default``) converted by ``cast``, elementwise
    when ``default`` is a list; :class:`ConfigError` when that fails or a
    scalar lies outside [minimum, maximum]."""
    value = params.get(key, default)
    try:
        if isinstance(default, list):
            if not isinstance(value, list) or not value:
                raise TypeError("need a nonempty list")
            out = [cast(v) for v in value]
        else:
            out = cast(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"params.{key} = {value!r}: {e}") from e
    if minimum is not None and out < minimum:
        raise ConfigError(f"params.{key} must be >= {minimum}, got {value!r}")
    if maximum is not None and out > maximum:
        raise ConfigError(f"params.{key} must be <= {maximum}, got {value!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seeds: tuple[int, ...]
    generator: dict | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.seeds:
            raise ConfigError("seed set must be explicit and nonempty")
        if not all(
            isinstance(s, (int, np.integer)) and not isinstance(s, bool) and 0 <= s < 2**64
            for s in self.seeds
        ):
            raise ConfigError(f"seeds must be unsigned 64-bit integers, got {list(self.seeds)}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be a JSON object")
        if self.generator is not None:
            if not isinstance(self.generator, dict):
                raise ConfigError("generator must be a JSON object")
            unknown = set(self.generator) - _GENERATOR_FIELDS
            if unknown:
                raise ConfigError(f"unknown generator fields: {sorted(unknown)}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seeds": list(self.seeds),
            "generator": self.generator,
            "params": self.params,
        }

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid config JSON: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(d) - {"kind", "seeds", "generator", "params"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(
                kind=d.get("kind"),
                seeds=tuple(d.get("seeds", ())),
                generator=d.get("generator"),
                params=d.get("params", {}),
            )
        except TypeError as e:
            raise ConfigError(str(e)) from e


@dataclass
class RunReport:
    config: dict
    cases: list[dict]
    summary: dict
    series: dict
    version: str
    wall_time_s: float

    @property
    def failed(self) -> int:
        return int(self.summary["n_failed"])


def canonical_json(payload) -> str:
    """Sorted, indented, strict JSON; :class:`NonFiniteResult` for NaN or infinity."""
    try:
        return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as e:
        raise NonFiniteResult(f"a result is not finite, so JSON cannot hold it ({e})") from e


def report_canonical_bytes(report: RunReport) -> bytes:
    payload = {
        "config": report.config,
        "cases": report.cases,
        "summary": report.summary,
        "series": report.series,
        "version": report.version,
    }
    return canonical_json(payload).encode("utf-8")


def write_report(report: RunReport, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_bytes(report_canonical_bytes(report))
    (out / "meta.json").write_text(json.dumps({"wall_time_s": report.wall_time_s}))
    if report.cases:
        buf = io.StringIO()
        keys = sorted({k for c in report.cases for k in c})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for c in report.cases:
            writer.writerow(c)
        (out / "cases.csv").write_text(buf.getvalue())
    return out / "report.json"


# ---------------------------------------------------------------------------
# deterministic fixtures


def dyadic_round(values: np.ndarray, bits: int = 20) -> np.ndarray:
    """Snap to multiples of 2^-bits so capital sums are exact in float64."""
    scale = 2.0**bits
    return np.maximum(np.round(np.asarray(values) * scale) / scale, 0.0)


def _walk_path(seed: int, n_max: int = 200, sigma: float = 0.4, quantize: int | None = 20) -> PricePath:
    rng = np.random.default_rng(np.uint64(seed))
    n = int(rng.integers(4, n_max + 1))
    spec = GeneratorSpec(
        kind="geometric-random-walk",
        n_samples=n,
        seed=int(rng.integers(0, 2**63 - 1)),
        sigma=sigma,
    )
    path = generate(spec)
    if quantize is None:
        return path
    return PricePath(path.times, dyadic_round(path.values, quantize))


def _max_samples(params: dict, default: int) -> int:
    return _param(params, "max_samples", int, default, minimum=4, maximum=MAX_SAMPLES)


def _small_path(seed: int, n_max: int = 12) -> PricePath:
    rng = np.random.default_rng(np.uint64(seed))
    n = int(rng.integers(3, n_max + 1))
    values = np.abs(rng.normal(1.0, 0.8, size=n))
    times = np.linspace(0.0, 1.0, n)
    times[0] = 0.0
    return PricePath(times, values)


_ORACLE_GAUGES = tuple(
    [VariationFunctional.power(p) for p in (0.5, 1.0, 2.0, 2.5, 3.0)]
    + [VariationFunctional.taylor_psi()]
)


# ---------------------------------------------------------------------------
# suites (one case dict per unit of work; "pass" key mandatory)


def _case_oracle(seed: int, params: dict) -> dict:
    path = _small_path(
        seed, _param(params, "max_samples", int, 12, minimum=3, maximum=MAX_ORACLE_SAMPLES)
    )
    worst = 0.0
    for phi in _ORACLE_GAUGES:
        fast = var_phi(path, phi)
        slow = brute_force_var_phi(path, phi)
        err = abs(fast - slow) / max(abs(slow), 1e-300)
        worst = max(worst, err)
    tol = _param(params, "rel_tol", float, 1e-12)
    return {"case": f"oracle-{seed:06d}", "max_rel_err": worst, "pass": worst <= tol}


def _case_doob(seed: int, params: dict) -> dict:
    path = _walk_path(seed, _max_samples(params, 200))
    rng = np.random.default_rng(np.uint64(seed) + 7)
    sup = path.sup
    grid = 2.0**-10
    hi = max(int(sup / grid), 2)
    a_i, b_i = sorted(rng.choice(hi, size=2, replace=False))
    a, b = a_i * grid, (b_i + 1) * grid
    trace = run_simple(doob_strategy(a, b), path)
    ups = crossings(path, a, b).up
    ok = trace.min_capital >= 0.0 and trace.final_capital >= (b - a) * ups
    return {
        "case": f"doob-{seed:06d}",
        "a": a,
        "b": b,
        "upcrossings": ups,
        "final": trace.final_capital,
        "bound": (b - a) * ups,
        "pass": bool(ok),
    }


def _case_prop1(seed: int, params: dict) -> dict:
    L = _param(params, "L", int, 1, minimum=0)
    j_max = _param(params, "j_max", int, 8)
    p = _param(params, "p", float, 2.5)
    phi = VariationFunctional.power(p)
    mix = volatility_mixture(phi, L, j_policy=j_max, kind="prop1")  # rejects L > 62 first
    path = _walk_path(seed, _max_samples(params, 200), sigma=0.3)
    # rescale below 2^L
    values = path.values * (2.0**L * 0.8 / max(path.sup, 1e-9))
    path = PricePath(path.times, dyadic_round(values))
    s_t = run_mixture(mix, path).final_capital
    rhs = 0.0
    for lv in mix.levels:
        m = grid_crossings(path, lv.cell_height).up
        rhs += lv.cell_weight * lv.cell_height * m  # w(j) 2^-(L+2j) M
    return {
        "case": f"prop1-{seed:06d}",
        "L": L,
        "final": s_t,
        "crossing_sum": rhs,
        "pass": bool(s_t >= rhs),
    }


def _case_prop3(key: tuple, params: dict) -> dict:
    seed, eps, delta, n_steps = key
    gen = dict(params.get("generator_base", _DEFAULT_GENERATOR))
    gen.setdefault("n_samples", max(int(n_steps) + 1, 1025))
    spec = GeneratorSpec(seed=seed, **gen)
    path = generate(spec)
    j_max = None if params.get("j_max") is None else _param(params, "j_max", int, None)
    rep = verify_prop3_bound(path, eps, delta, n_steps, j_policy=j_max, raise_on_violation=False)
    return {
        "case": f"prop3-{seed:06d}-e{eps:g}-d{delta:g}-N{n_steps}",
        "eps": eps,
        "delta": delta,
        "N": n_steps,
        "s0": rep.s0,
        "s_t": rep.s_t,
        "rhs": rep.rhs,
        "margin": rep.margin,
        "pass": bool(rep.passed),
    }


def _case_upper_prob(eps: float, params: dict) -> dict:
    n = _param(params, "n_samples", int, 101)
    # keep 1 + eps*T strictly positive across the default slope table
    horizon = _param(params, "horizon", float, 0.5)
    spec = GeneratorSpec(kind="linear-drift", n_samples=n, eps=eps, horizon=horizon)
    path = generate(spec)
    value = upper_prob_singleton(path)
    expected = 1.0 / (1.0 + eps * horizon) if eps > 0 else 1.0
    err = abs(value - expected) / expected
    return {
        "case": f"upper-prob-eps{eps:g}",
        "eps": eps,
        "value": value,
        "expected": expected,
        "pass": bool(err <= 1e-12),
    }


def _case_borrow(seed: int, params: dict) -> dict:
    path = _walk_path(seed, _max_samples(params, 128), quantize=None)
    checks = []
    for name in AUDIT_STRATEGIES:
        rep = borrowing_free_check(audit_strategy(name, path), path)
        if name in ("short", "leveraged"):
            checks.append((f"{name}-violates", (not rep.ok) and rep.continuation_min_capital < 0.0))
        else:
            checks.append((name, rep.ok))
    return {
        "case": f"borrow-{seed:06d}",
        "detail": ";".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks),
        "pass": all(ok for _, ok in checks),
    }


def run_experiment(config: ExperimentConfig, raise_on_failure: bool = False) -> RunReport:
    """Execute the configured suite and assemble a deterministic report."""
    t0 = time.perf_counter()
    params = config.params
    series: dict[str, list] = {}
    if config.kind == "growth-profile":
        cases, series = _growth_profile(config)
    elif config.kind == "prop3-check":
        eps_grid = _param(params, "eps", float, [0.5, 1.0])
        delta_grid = _param(params, "delta", float, [0.5, 1.0])
        n_grid = _param(params, "N", int, [64, 256])
        check_dp_samples(max(n_grid) + 1)  # before generating that many samples
        if config.generator:
            params = dict(params, generator_base=config.generator)
        cases = [
            _case_prop3((s, e, d, n), params)
            for s in config.seeds
            for e in eps_grid
            for d in delta_grid
            for n in n_grid
        ]
    elif config.kind == "upper-prob-table":
        eps_grid = _param(params, "eps", float, [-1.0, -0.5, 0.5, 1.0])
        cases = [_case_upper_prob(e, params) for e in eps_grid]
    else:
        case = {
            "oracle-suite": _case_oracle,
            "doob-suite": _case_doob,
            "prop1-check": _case_prop1,
            "borrow-audit": _case_borrow,
        }[config.kind]
        cases = [case(s, params) for s in config.seeds]
    cases.sort(key=lambda c: c["case"])

    if config.kind == "upper-prob-table":
        series["upper_prob"] = [[c["eps"], c["value"]] for c in cases]
    if config.kind == "prop3-check":
        series["margin"] = [[c["N"], c["margin"]] for c in cases]

    n_failed = sum(0 if c["pass"] else 1 for c in cases)
    report = RunReport(
        config=config.to_dict(),
        cases=cases,
        summary={"n_cases": len(cases), "n_failed": n_failed},
        series=series,
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
    )
    if n_failed and raise_on_failure:
        raise CaseFailure(f"{n_failed} of {len(cases)} cases failed")
    return report


def _growth_profile(config: ExperimentConfig) -> tuple[list[dict], dict]:
    params = config.params
    p_grid = _param(params, "p", float, [1.5, 2.0, 2.5, 3.0])
    n_grid = _param(params, "N", int, [256, 1024, 4096])
    check_dp_samples(max(n_grid) + 1)  # before generating that many samples
    gen = dict(config.generator or _DEFAULT_GENERATOR)
    gen.setdefault("n_samples", max(n_grid) + 1)
    tables = [
        variation_growth_profile(generate(GeneratorSpec(seed=seed, **gen)), p_grid, n_grid)
        for seed in config.seeds
    ]
    cases = []
    series = {}
    for p in p_grid:
        medians = [float(np.median([t[(p, n)] for t in tables])) for n in n_grid]
        series[f"p={p:g}"] = [[n, m] for n, m in zip(n_grid, medians)]
        non_decreasing = all(b >= a for a, b in zip(medians, medians[1:]))
        cases.append(
            {
                "case": f"growth-p{p:g}",
                "medians": json.dumps(medians),
                "pass": bool(non_decreasing),
            }
        )
    return cases, series


def emit_plot_data(report: RunReport, series: str) -> str:
    """Two-column CSV for one named series of a report."""
    if series not in report.series:
        raise UnknownSeries(f"{series!r}; available: {sorted(report.series)}")
    lines = ["x,y"]
    for x, y in report.series[series]:
        lines.append(f"{x!r},{y!r}")
    return "\n".join(lines) + "\n"
