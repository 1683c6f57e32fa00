"""Command line interface.

Subcommands
-----------
variation / crossings / qvar : path analytics emitting CSV
doob / prop3 / upper-prob / borrow-check / unbounded : strategy runs emitting JSON
generate : write a path file from a generator spec
run : execute a config-driven experiment suite
emit-plot : extract a two-column series from a report
info : versions and platform, as JSON

Only the log verbosity is read from the environment (ROUGHMARKET_LOG).
Exit codes: 0 pass, 1 a check or case failed, 2 bad input or an unusable file.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ParseError, RoughMarketError
from .experiments import (
    ExperimentConfig,
    RunReport,
    canonical_json,
    emit_plot_data,
    run_experiment,
    write_report,
)
from .mixtures import run_mixture, unboundedness_mixture, verify_prop3_bound
from .paths import GeneratorSpec, _write_file, generate, read_path, write_path
from .strategies import (
    AUDIT_STRATEGIES,
    audit_strategy,
    borrowing_free_check,
    doob_strategy,
    run_simple,
    upper_prob_singleton,
)
from .variation import (
    VariationFunctional,
    band_crossings,
    crossings,
    qvar_profile,
    var_phi,
)

log = logging.getLogger("roughmarket")


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_file(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _floats(csv_text: str) -> list[float]:
    try:
        return [float(x) for x in csv_text.split(",") if x.strip()]
    except ValueError as e:
        raise ParseError(f"expected comma-separated numbers: {e}") from e


def _cmd_generate(args) -> int:
    spec = GeneratorSpec.from_json(Path(args.spec).read_text())
    path = generate(spec)
    write_path(path, args.out)
    log.info("wrote %d samples to %s", path.n_samples, args.out)
    return 0


def _cmd_variation(args) -> int:
    path = read_path(args.path)
    lines = ["p,value"]
    for p in _floats(args.p):
        lines.append(f"{p!r},{var_phi(path, VariationFunctional.power(p))!r}")
    if args.psi:
        lines.append(f"psi,{var_phi(path, VariationFunctional.taylor_psi())!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_crossings(args) -> int:
    path = read_path(args.path)
    if args.step is not None:
        up, down = band_crossings(path, args.step)
        lines = ["k,up,down"]
        lines += [f"{k},{u},{d}" for k, (u, d) in enumerate(zip(up.tolist(), down.tolist()))]
        log.info("totals: up=%d down=%d", up.sum(), down.sum())
    else:
        if args.a is None or args.b is None:
            raise RoughMarketError("need --step or both --a and --b")
        c = crossings(path, args.a, args.b)
        lines = ["a,b,up,down", f"{args.a!r},{args.b!r},{c.up},{c.down}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_qvar(args) -> int:
    path = read_path(args.path)
    points = qvar_profile(path, _floats(args.deltas))
    lines = ["delta,value"]
    for pt in points:
        lines.append(f"{pt.delta!r},{pt.value!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _json_out(payload: dict, out: str | None) -> None:
    _emit(canonical_json(payload) + "\n", out)


def _cmd_doob(args) -> int:
    path = read_path(args.path)
    strat = doob_strategy(args.a, args.b)
    trace = run_simple(strat, path)
    ups = crossings(path, args.a, args.b).up
    bound = (args.b - args.a) * ups if ups else 0.0  # inf * 0 is NaN when b = inf
    ok = trace.min_capital >= 0.0 and trace.final_capital >= bound
    _json_out(
        {
            "strategy": strat.descriptor,
            "a": args.a,
            "b": args.b if args.b < math.inf else None,  # JSON has no number for an open top
            "S0": strat.initial_capital,
            "ST": trace.final_capital,
            "min_capital": trace.min_capital,
            "upcrossings": ups,
            "bound_rhs": bound,
            "margin": trace.final_capital - bound,
            "pass": ok,
        },
        args.out,
    )
    return 0 if ok else 1


def _cmd_prop3(args) -> int:
    path = read_path(args.path)
    rep = verify_prop3_bound(
        path, args.eps, args.delta, args.N, j_policy=args.j_max, raise_on_violation=False
    )
    _json_out(
        {
            "eps": rep.eps,
            "delta": rep.delta,
            "N": rep.N,
            "S0": rep.s0,
            "ST": rep.s_t,
            "variation": rep.variation,
            "sup": rep.sup,
            "bound_rhs": rep.rhs,
            "margin": rep.margin,
            "scale_cut": rep.scale_cut,
            "binding": rep.binding,
            "pass": rep.passed,
        },
        args.out,
    )
    return 0 if rep.passed else 1


def _cmd_upper_prob(args) -> int:
    path = read_path(args.path)
    value = upper_prob_singleton(path)
    _json_out({"upper_prob": value, "samples": path.n_samples}, args.out)
    return 0


def _cmd_borrow_check(args) -> int:
    path = read_path(args.path)
    strat = audit_strategy(args.strategy, path, args.a, args.b)
    rep = borrowing_free_check(strat, path)
    payload = {"strategy": strat.describe(), "ok": rep.ok}
    if not rep.ok:
        payload["violation"] = {
            "kind": rep.first_violation.kind,
            "index": rep.first_violation.index,
            "time": rep.first_violation.time,
            "amount": rep.first_violation.amount,
        }
        payload["continuation_min_capital"] = rep.continuation_min_capital
    _json_out(payload, args.out)
    return 0 if rep.ok else 1


def _cmd_unbounded(args) -> int:
    path = read_path(args.path)
    mix = unboundedness_mixture(args.m_max)
    trace = run_mixture(mix, path)
    _json_out(
        {
            "m_max": args.m_max,
            "S0": mix.total_initial,
            "ST": trace.final_capital,
            "gain": trace.final_capital - mix.total_initial,
        },
        args.out,
    )
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(Path(args.config).read_text())
    report = run_experiment(config)
    if args.out:
        where = write_report(report, args.out)
        log.info("report written to %s", where)
    else:
        sys.stdout.write(
            json.dumps(
                {"summary": report.summary, "version": report.version}, sort_keys=True
            )
            + "\n"
        )
    failed = report.failed
    print(f"{report.summary['n_cases']} cases, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_emit_plot(args) -> int:
    try:
        payload = json.loads(Path(args.report).read_text())
        fields = {k: payload[k] for k in ("config", "cases", "summary", "series", "version")}
        csv = emit_plot_data(RunReport(**fields, wall_time_s=0.0), args.series)
    except RoughMarketError:  # UnknownSeries is a KeyError too
        raise
    except (ValueError, KeyError, TypeError) as e:
        raise ParseError(f"{args.report} is not a run report: {e!r}") from e
    _emit(csv, args.out)
    return 0


def _cmd_info(args) -> int:
    _json_out(
        {
            "roughmarket": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        None,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughmarket",
        description="Variation functionals and capital-process checks on step price paths",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a path CSV from a generator spec JSON")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("variation", help="variation values over a p grid")
    p.add_argument("--path", required=True)
    p.add_argument("--p", default="1,2,2.5,3")
    p.add_argument("--psi", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_variation)

    p = sub.add_parser("crossings", help="band crossing counts")
    p.add_argument("--path", required=True)
    p.add_argument("--step", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_crossings)

    p = sub.add_parser("qvar", help="mesh-constrained variation profile")
    p.add_argument("--path", required=True)
    p.add_argument("--deltas", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_qvar)

    p = sub.add_parser("doob", help="run the band strategy and check its bound")
    p.add_argument("--path", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_doob)

    p = sub.add_parser("prop3", help="explicit variation capital bound on a discretization")
    p.add_argument("--path", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--j-max", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_prop3)

    p = sub.add_parser("upper-prob", help="cheapest superhedge of this exact path")
    p.add_argument("--path", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_upper_prob)

    p = sub.add_parser("borrow-check", help="no-borrowing audit of a strategy")
    p.add_argument("--path", required=True)
    p.add_argument("--strategy", default="doob", choices=AUDIT_STRATEGIES)
    p.add_argument("--a", type=float, default=0.25)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_borrow_check)

    p = sub.add_parser("unbounded", help="run the doubling-threshold mixture")
    p.add_argument("--path", required=True)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_unbounded)

    p = sub.add_parser("run", help="run a config-driven experiment suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("emit-plot", help="two-column CSV for a report series")
    p.add_argument("--report", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_emit_plot)

    p = sub.add_parser("info", help="versions of roughmarket, numpy and Python, and the platform")
    p.set_defaults(fn=_cmd_info)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("ROUGHMARKET_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result raises BadPosition or NonFiniteResult, so
        # numpy's overflow warnings would only print ahead of that error
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (RoughMarketError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
