#!/usr/bin/env python3
"""Compare two saved benchmark results metric by metric.

Usage:

    python3 roughbench/compare.py BEFORE.json AFTER.json

The files are the records run.py writes under ``.bench_build/roughbench/``.
Results measured with a different kernel backend or numpy version are not
comparable: the script says so and exits 3 without printing a table.
"""

from __future__ import annotations

import json
import sys

#: environment fields that must match for two results to be compared
MUST_MATCH = ("backend", "numpy")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    differ = [k for k in MUST_MATCH if before["env"].get(k) != after["env"].get(k)]
    if differ:
        for k in differ:
            print(f"not comparable: {k} {before['env'].get(k)!r} vs {after['env'].get(k)!r}")
        return 3
    b, a = before["result"]["metrics"], after["result"]["metrics"]
    for name in sorted(set(b) | set(a)):
        if name not in b or name not in a:
            print(f"{name:45s} only in {'after' if name in a else 'before'}")
            continue
        vb, va = b[name]["value"], a[name]["value"]
        change = f"{(va - vb) / vb:+.1%}" if vb else "n/a"
        print(f"{name:45s} {vb:14.6g} {va:14.6g} {b[name]['unit']:>6s} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
