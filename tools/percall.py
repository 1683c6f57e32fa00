#!/usr/bin/env python3
"""Per-call times of roughmarket's short-call entry points, in one process.

Usage:

    python3 tools/percall.py [TREE ...] [--rounds R] [--json]

Each TREE is the root of a roughmarket source checkout (default: the working
directory); its ``src/roughmarket`` is imported as a package of its own, so
two trees, say a parent commit and a change, are timed in one process.  Each
number is the minimum over ``R`` rounds (default 15) of the mean time of one
call in a loop of about 10 ms, in microseconds; the trees take turns round by
round, so load on a shared machine falls on all of them alike.  ``--json``
prints one JSON object of tree -> name -> microseconds instead of the table.

Timed: ``PricePath`` construction at 12, 66, 1025 and 4097 samples;
``generate`` for each generator kind at 101 samples; ``canonical_json`` and
``write_report`` on the five short-suite reports (seed 1); ``run_experiment``
of prop3-check on seeds 1, 2 and 3 with its default grid; ``run_mixture``
and ``verify_prop3_bound`` on a prop3-long-like path (4097 exp-fractional
samples on a 2^-16 tick, eps = delta = 0.5) at N = 1, 64, 256 and 1024;
``run_mixture`` of ``unboundedness_mixture(1023)`` and of a crossing
mixture of 200 bands on that path; ``self_financing`` on 91 samples; on a
variation-long-like path (4097 exp-fractional samples, hurst 0.4, sigma
0.5), ``var_phi`` with p = 2.5 on a new ``PricePath`` each call (its
construction, about 1% of the call, included); ``var_phi`` with psi on a new
``PricePath`` each call that carries the DP's value-only plan, which an
earlier p = 2.5 call kept on the scored path (a tree that keeps that plan
re-scores it; one that keeps values per gauge finds none on the new path);
``var_phi`` with p = 2.5 again on the scored path (a tree that keeps values
per gauge returns the kept one); ``variation_growth_profile`` at p = 2.5
on variation-long's grid N = 256, 1024 and 4096 on the scored path, whose
level N = 4096 is the path itself; and ``var_phi`` with p = 3 the same way
as psi above, after p = 2.5, on a 4096-sample zigzag whose swings narrow
and widen over 64 turning points (the tests' ``converging_then_expanding``):
its points read more stack tops than a plan keeps, so a tree that caps the
plan keeps none there and runs a first call; and ``var_phi`` with p = 2.5
on a new ``PricePath`` each call, then with psi the same way as above, on a
4097-sample drift of ticks +2 and -1 (the tests' ``drift_with_reversals``),
whose minima never pop: one stack grows to 2048 entries, and its 267
blocks shrink to 8 turning points as it deepens, so a plan's cost per
block shows there.
Standard library and numpy only; BLAS threads are pinned to 1.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import json
import math
import os
import sys
import tempfile
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SHORT_SUITE_KINDS = ("oracle-suite", "doob-suite", "prop1-check", "borrow-audit", "upper-prob-table")
PRICE_TICK = 2.0**-16
LOOP_S = 0.01


def load(tree: str, alias: str):
    """``tree``'s roughmarket package, imported under the name ``alias``."""
    root = os.path.join(tree, "src", "roughmarket")
    if not os.path.isfile(os.path.join(root, "__init__.py")):
        sys.exit(f"no src/roughmarket under {tree!r}")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def cases(rm, out_dir: str) -> dict:
    """name -> zero-argument call into the package ``rm``."""
    experiments = importlib.import_module(rm.__name__ + ".experiments")
    mixtures = importlib.import_module(rm.__name__ + ".mixtures")
    strategies = importlib.import_module(rm.__name__ + ".strategies")
    out = {}
    for n in (12, 66, 1025, 4097):
        times = np.linspace(0.0, 1.0, n)
        values = 1.0 + 0.5 * np.sin(np.arange(n))
        out[f"PricePath.n{n}"] = lambda t=times, v=values: rm.PricePath(t, v)

    specs = {
        "constant": dict(kind="constant"),
        "linear-drift": dict(kind="linear-drift", eps=0.5, horizon=0.5),
        "geometric-random-walk": dict(kind="geometric-random-walk", seed=3),
        "exp-fractional": dict(kind="exp-fractional", hurst=0.4, seed=3),
        "jump": dict(kind="jump", seed=3),
        "custom-steps": dict(kind="custom-steps", values=tuple(1.0 + 0.01 * i for i in range(101))),
    }
    for kind, fields in specs.items():
        spec = rm.GeneratorSpec(n_samples=101, **fields)
        out[f"generate.{kind}.n101"] = lambda s=spec: rm.generate(s)

    for kind in SHORT_SUITE_KINDS:
        report = rm.run_experiment(rm.ExperimentConfig(kind=kind, seeds=(1,)))
        payload = {
            "config": report.config,
            "cases": report.cases,
            "summary": report.summary,
            "series": report.series,
            "version": report.version,
        }
        target = os.path.join(out_dir, rm.__name__, kind)
        out[f"canonical_json.{kind}"] = lambda p=payload: experiments.canonical_json(p)
        out[f"write_report.{kind}"] = lambda r=report, d=target: rm.write_report(r, d)

    prop3 = rm.ExperimentConfig(kind="prop3-check", seeds=(1, 2, 3))
    out["run_experiment.prop3-check.s3"] = lambda: rm.run_experiment(prop3)

    spec = rm.GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=0.5, sigma=0.5, seed=7)
    path = rm.generate(spec)
    path = path.with_values(np.round(path.values / PRICE_TICK) * PRICE_TICK)
    for n_steps in (1, 64, 256, 1024):
        omega = rm.discretize(path, n_steps)
        sup = omega.sup
        l_top = max(0, math.ceil(math.log2(sup))) if sup > 1.0 else 0
        mix = mixtures.volatility_mixture(
            None, l_top, path_hint=omega, kind="prop3", eps=0.5, delta=0.5
        )
        out[f"run_mixture.N{n_steps}"] = lambda m=mix, o=omega: mixtures.run_mixture(m, o)
        out[f"verify_prop3_bound.N{n_steps}"] = lambda n=n_steps: rm.verify_prop3_bound(
            path, 0.5, 0.5, n, raise_on_violation=False
        )

    if len(inspect.signature(mixtures.unboundedness_mixture).parameters) == 2:
        unbounded = mixtures.unboundedness_mixture(1023, float(path.values[0]))
    else:
        unbounded = mixtures.unboundedness_mixture(1023)
    out["run_mixture.unbounded.m1023"] = lambda: mixtures.run_mixture(unbounded, path)
    edges = np.linspace(path.values.min(), path.values.max(), 201).tolist()
    crossing = mixtures.crossing_explosion_mixture(zip(edges, edges[1:]), [1.0 / 256.0] * 200)
    out["run_mixture.crossing.b200"] = lambda: mixtures.run_mixture(crossing, path)

    spec = rm.GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=0.4, sigma=0.5, seed=7)
    frac = rm.generate(spec)
    p25, psi_gauge = rm.VariationFunctional.power(2.5), rm.VariationFunctional.taylor_psi()
    out["var_phi.new_path.n4097"] = lambda: rm.var_phi(rm.PricePath(frac.times, frac.values), p25)

    def second_gauge(scored, gauge):
        # a new path that carries the DP plan a p = 2.5 call kept on scored,
        # and no values, so a tree that keeps values per gauge re-scores it too
        rm.var_phi(scored, p25)
        plan = scored.__dict__.get("_star_plan")

        def call():
            fresh = rm.PricePath(scored.times, scored.values)
            if plan is not None:
                object.__setattr__(fresh, "_star_plan", plan)
            return rm.var_phi(fresh, gauge)

        return call

    out["var_phi.second_gauge.n4097"] = second_gauge(frac, psi_gauge)
    out["var_phi.repeat.n4097"] = lambda: rm.var_phi(frac, p25)
    out["variation_growth_profile.n4097"] = lambda: rm.variation_growth_profile(
        frac, [2.5], (256, 1024, 4096)
    )
    cycle = np.arange(4096) % 128
    swing = np.where(cycle < 64, 64 - cycle, cycle - 63) * np.where(np.arange(4096) % 2, -1.0, 1.0)
    zigzag = rm.PricePath(np.linspace(0.0, 1.0, 4096), 4.0 + swing * 2.0**-10)
    out["var_phi.second_gauge.zigzag.n4096"] = second_gauge(zigzag, rm.VariationFunctional.power(3.0))
    steps = np.where(np.arange(4096) % 2 == 0, 2.0, -1.0) * 2.0**-10
    drift = rm.PricePath(np.linspace(0.0, 1.0, 4097), 1.0 + np.concatenate([[0.0], np.cumsum(steps)]))
    out["var_phi.new_path.drift.n4097"] = lambda: rm.var_phi(rm.PricePath(drift.times, drift.values), p25)
    out["var_phi.second_gauge.drift.n4097"] = second_gauge(drift, psi_gauge)

    rng = np.random.default_rng(5)
    position = rng.normal(size=91)
    values = 1.0 + np.abs(rng.normal(size=91))
    out["self_financing.n91"] = lambda: strategies.self_financing(1.0, position, values)
    return out


def loop_us(call, loops: int) -> float:
    t0 = time.perf_counter()
    for _ in range(loops):
        call()
    return (time.perf_counter() - t0) / loops * 1e6


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", default=["."], help="source checkouts to time")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)
    packages = [load(tree, f"roughmarket_percall_{i}") for i, tree in enumerate(args.trees)]
    with tempfile.TemporaryDirectory() as out_dir:
        calls = [cases(rm, out_dir) for rm in packages]
        best = [{} for _ in packages]
        for name in calls[0]:
            tree_calls = [c[name] for c in calls]
            for call in tree_calls:  # fill caches first
                call()
            loops = max(1, int(LOOP_S / max(loop_us(tree_calls[0], 1) * 1e-6, 1e-7)))
            for _ in range(args.rounds):
                for i, call in enumerate(tree_calls):
                    us = loop_us(call, loops)
                    best[i][name] = min(best[i].get(name, math.inf), us)
    if args.json:
        print(json.dumps({t: {k: round(v, 2) for k, v in b.items()} for t, b in zip(args.trees, best)}))
        return 0
    print(f"{'us per call':36s}" + "".join(f" {t[-14:]:>14s}" for t in args.trees))
    for name in best[0]:
        row = "".join(f" {b[name]:14.2f}" for b in best)
        ratio = f"  x{best[-1][name] / best[0][name]:.2f}" if len(best) > 1 else ""
        print(f"{name:36s}{row}{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
