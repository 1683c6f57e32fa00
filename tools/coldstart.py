#!/usr/bin/env python3
"""Cold-start times of roughmarket: each run is a fresh interpreter.

Usage:

    python3 tools/coldstart.py [TREE ...] [--rounds R] [--json]

Each TREE is the root of a roughmarket source checkout (default: the working
directory); its runs import ``TREE/src`` through ``PYTHONPATH``.  Probes:

- ``import``: ``import roughmarket``;
- ``var_phi``, ``verify_prop3_bound``, ``run_experiment``: ``import
  roughmarket`` and then the first lookup of that name (which loads the
  modules it needs; the function is not called);
- ``cli info``: ``python -m roughmarket.cli info`` (run through ``runpy``
  inside ``-c``, so the child can time itself).

Every run reports two times in milliseconds: in-process, from before the
import to after the last step, and the process's wall time as the parent
sees it, interpreter start-up included.  Each round runs every probe once per
tree, the trees taking turns and swapping order every round, so load on a
shared machine falls on all of them alike.  The output gives the median and
quartiles of ``R`` rounds (default 10) per tree and probe, and the
``PYTHONDONTWRITEBYTECODE`` setting the children inherit: when it is set,
every run compiles the modules it loads.  ``--json`` prints one JSON object
with every sample instead of the table.  Standard library only; BLAS threads
are pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_TIMED = """\
import sys, time
t0 = time.perf_counter()
{body}
sys.stderr.write(f"\\n{{(time.perf_counter() - t0) * 1000.0!r}}\\n")
"""
_IMPORT = "import roughmarket\n"
_CLI = """\
import runpy
sys.argv = ["roughmarket.cli", "info"]
try:
    runpy.run_module("roughmarket.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    if e.code:
        raise
"""

#: probe name -> code the child runs between its two clock reads
PROBES = {
    "import": _IMPORT,
    "var_phi": _IMPORT + "roughmarket.var_phi\n",
    "verify_prop3_bound": _IMPORT + "roughmarket.verify_prop3_bound\n",
    "run_experiment": _IMPORT + "roughmarket.run_experiment\n",
    "cli info": _CLI,
}


def child_env(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_once(code: str, env: dict) -> tuple[float, float]:
    """(in-process ms, wall ms) of one fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if proc.returncode != 0:
        sys.exit(f"probe failed with exit code {proc.returncode}:\n{proc.stderr}")
    return float(proc.stderr.split()[-1]), wall_ms


def summary(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", default=["."], help="source checkouts to time")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)
    for tree in args.trees:
        if not os.path.isfile(os.path.join(tree, "src", "roughmarket", "__init__.py")):
            sys.exit(f"no src/roughmarket under {tree!r}")
    envs = [child_env(tree) for tree in args.trees]
    codes = {probe: _TIMED.format(body=body.rstrip("\n")) for probe, body in PROBES.items()}
    samples = [{probe: {"in_process_ms": [], "wall_ms": []} for probe in PROBES}
               for _ in args.trees]
    for r in range(args.rounds):
        order = range(len(args.trees)) if r % 2 == 0 else reversed(range(len(args.trees)))
        for i in order:
            for probe, code in codes.items():
                in_ms, wall_ms = run_once(code, envs[i])
                samples[i][probe]["in_process_ms"].append(in_ms)
                samples[i][probe]["wall_ms"].append(wall_ms)

    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    if args.json:
        out = {
            "PYTHONDONTWRITEBYTECODE": bytecode,
            "rounds": args.rounds,
            "python": sys.version.split()[0],
            "trees": {
                tree: {probe: {kind: dict(summary(xs), samples=xs) for kind, xs in times.items()}
                       for probe, times in s.items()}
                for tree, s in zip(args.trees, samples)
            },
        }
        print(json.dumps(out, indent=1))
        return 0
    print(f"PYTHONDONTWRITEBYTECODE={bytecode!r}, {args.rounds} rounds; "
          "ms as median [q1-q3], in-process / wall")
    for probe in PROBES:
        print(probe)
        for tree, s in zip(args.trees, samples):
            cells = [summary(s[probe][kind]) for kind in ("in_process_ms", "wall_ms")]
            text = " / ".join(f"{c['median']:7.1f} [{c['q1']:.1f}-{c['q3']:.1f}]" for c in cells)
            print(f"  {tree[-30:]:30s} {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
