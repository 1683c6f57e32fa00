#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

Usage, from the root of a roughmarket source checkout:

    python3 roughbench/selftest.py      # about ten seconds

For every workload it checks that
  * every metric named in BENCHMARK.json is emitted with its unit, and the
    end-to-end values are positive and finite;
  * the traced counts repeat exactly across two runs of the same seed;
  * a deliberately corrupted case result is counted as failed.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import run

SEED = 7
#: one wrong answer per workload, applied to the first case's result
CORRUPT = {
    "prop3-long": lambda rep: dataclasses.replace(rep, s_t=rep.rhs),
    "variation-long": lambda value: -value,
    "short-suite": lambda result: (
        dataclasses.replace(result[0], cases=[dict(c, **{"pass": False}) for c in result[0].cases]),
        result[1],
    ),
}


def emitted(metrics: dict) -> list:
    return sorted((name, m["unit"]) for name, m in metrics.items())


def declared(spec: dict, key: str) -> list:
    return sorted((m["name"], m["unit"]) for m in spec[key])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path.cwd() / "src"))
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        work = Path(tmp)
        for name in run.WORKLOADS:
            result, _ = run.run(name, SEED, 0.0, False, work, tiny=True, probes=1)
            expect(result["correct"] and result["failed"] == 0, f"{name}: tiny run verifies")
            expect(emitted(result["metrics"]) == declared(spec, "end_to_end"),
                   f"{name}: every end-to-end metric emitted with its unit")
            expect(all(math.isfinite(m["value"]) and m["value"] > 0
                       for m in result["metrics"].values()),
                   f"{name}: end-to-end values positive and finite")

            first, _ = run.run(name, SEED, 0.0, True, work, tiny=True)
            second, _ = run.run(name, SEED, 0.0, True, work, tiny=True)
            expect(emitted(first["metrics"]) == declared(spec, "per_layer"),
                   f"{name}: every per-layer metric emitted with its unit")
            counts = {k: (first["metrics"][k]["value"], second["metrics"][k]["value"])
                      for k, m in first["metrics"].items() if m["unit"] in ("count", "B")}
            expect(all(a == b for a, b in counts.values()),
                   f"{name}: traced counts repeat exactly ({len(counts)} counts)")

            bad, _ = run.run(name, SEED, 0.0, False, work, tiny=True, probes=1,
                             corrupt=CORRUPT[name])
            ratio = bad["metrics"]["verified_ratio"]["value"]
            expect(not bad["correct"] and bad["failed"] == 1 and ratio < 1.0,
                   f"{name}: corrupted result counted (failed={bad['failed']}, "
                   f"verified_ratio={ratio:.4f})")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
