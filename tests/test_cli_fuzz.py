"""Fuzzed command lines: every drawn argument vector, path file, generator
spec, suite config and report file ends with exit code 0, 1 or 2 within a
few seconds, nothing escapes ``main`` but argparse's own ``SystemExit(2)``,
and a command that exits 0 or 1 wrote strict JSON (no ``NaN`` or
``Infinity``) if it writes JSON, and no NaN to a CSV ``--out``.  Now and then
the input file is missing or ``--out`` cannot be written.

Sizes are drawn small (paths of at most 30 samples, N and n_samples in the
hundreds) or far past a size guard, so an example that runs is quick and one
that would not be is rejected before it allocates.  Generator reals that
reach numpy's samplers are often NaN, infinite or 1e300, and config params
often lie past int64 or far above the cell budget.
"""

import json
import math
import re
import signal
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughmarket.cli import main
from roughmarket.experiments import EXPERIMENT_KINDS
from roughmarket.paths import GENERATOR_KINDS, MAX_SAMPLES
from roughmarket.strategies import AUDIT_STRATEGIES

SPECIAL_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e400", "abc", "")
JSON_COMMANDS = ("doob", "prop3", "upper-prob", "borrow-check", "unbounded", "run")


def numbers(lo, hi):
    """Number arguments as text: mostly in [lo, hi], sometimes malformed."""
    return st.one_of(
        st.floats(lo, hi, allow_nan=False).map(repr),
        st.integers(int(lo), int(hi)).map(str),
        st.sampled_from(SPECIAL_NUMBERS),
    )


# zero, subnormals and the edges of float64, where products and sums overflow
EXTREME_PRICES = (0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e300, 1.7e308)

PRICES = st.one_of(
    st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=2, max_size=30),
    st.lists(st.integers(0, 4).map(float), min_size=2, max_size=30),  # plateaus
    st.lists(st.floats(-1.0, 1e6, allow_nan=False), max_size=5),  # often rejected
    st.lists(st.sampled_from(EXTREME_PRICES), min_size=2, max_size=6),
)

# half the draws are sizes that run, so that the fields after them are checked
SIZES = st.one_of(st.integers(-2, 300), st.sampled_from([MAX_SAMPLES + 1, 10**12, "abc", 3.5]))

# NaN, infinities and huge reals, past the argument checks of numpy's samplers
EXTREME_REALS = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300])
SAMPLER_REALS = ("horizon", "jump_rate", "jump_sigma")

SPEC_FIELDS = {
    "seed": st.one_of(st.integers(-1, 2**64), st.just("x")),
    "horizon": st.one_of(st.floats(-1.0, 3.0, allow_nan=False), EXTREME_REALS),
    "level": st.floats(-1.0, 3.0, allow_nan=False),
    "start": st.floats(-1.0, 3.0, allow_nan=False),
    "eps": st.floats(-3.0, 3.0, allow_nan=False),
    "sigma": st.floats(0.0, 2.0, allow_nan=False),
    "drift": st.floats(-2.0, 2.0, allow_nan=False),
    "hurst": st.floats(-0.5, 1.5, allow_nan=False),
    "jump_rate": st.one_of(st.floats(-1.0, 50.0, allow_nan=False), EXTREME_REALS),
    "jump_sigma": st.one_of(st.floats(0.0, 1.0, allow_nan=False), EXTREME_REALS),
    "values": st.one_of(st.lists(st.floats(-1.0, 10.0, allow_nan=False), max_size=30), st.just("x")),
    "times": st.lists(st.floats(0.0, 2.0, allow_nan=False), max_size=30),
    "bogus": st.just(1),
}


@st.composite
def specs(draw):
    spec = {"kind": draw(st.sampled_from(GENERATOR_KINDS + ("bogus",)))}
    if draw(st.integers(0, 9)):  # n_samples is sometimes missing
        spec["n_samples"] = draw(SIZES)
    for name in draw(st.lists(st.sampled_from(sorted(SPEC_FIELDS)), max_size=4, unique=True)):
        spec[name] = draw(SPEC_FIELDS[name])
    if draw(st.booleans()):  # the field lists alone seldom reach a sampler with an extreme
        spec[draw(st.sampled_from(SAMPLER_REALS))] = draw(EXTREME_REALS)
    return spec


CONFIG_PARAMS = {
    "max_samples": st.one_of(st.integers(-1, 12), st.sampled_from([2**63, 1e30])),
    "n_samples": st.integers(-1, 200),
    "N": st.one_of(st.lists(st.integers(-1, 128), min_size=1, max_size=3), st.just(64)),
    "eps": st.lists(st.floats(-1.0, 3.0, allow_nan=False), min_size=1, max_size=2),
    "delta": st.lists(st.floats(-1.0, 3.0, allow_nan=False), min_size=1, max_size=2),
    "p": st.one_of(st.lists(st.floats(-1.0, 4.0, allow_nan=False), min_size=1, max_size=2),
                   st.floats(-1.0, 4.0, allow_nan=False)),
    "horizon": st.floats(-1.0, 2.0, allow_nan=False),
    "rel_tol": st.floats(0.0, 1.0, allow_nan=False),
    "j_max": st.one_of(st.integers(-2, 12), st.just(30000)),
    "L": st.one_of(st.integers(-1, 2), st.sampled_from([63, 1e300])),
}
# past int64 (sample counts, cell counts 2^L) or a cut far above the cell budget
EXTREME_PARAMS = st.sampled_from(
    [("max_samples", 2**63), ("max_samples", 1e30), ("L", 63), ("L", 1e300), ("j_max", 30000)]
)


@st.composite
def configs(draw):
    config = {
        "kind": draw(st.sampled_from(EXPERIMENT_KINDS + ("bogus",))),
        "seeds": draw(st.one_of(st.lists(st.integers(0, 3), min_size=1, max_size=2),
                                st.sampled_from([[], ["x"]]))),
    }
    names = draw(st.lists(st.sampled_from(sorted(CONFIG_PARAMS)), max_size=4, unique=True))
    config["params"] = {name: draw(CONFIG_PARAMS[name]) for name in names}
    if draw(st.booleans()):  # as for specs: the name lists alone seldom draw these
        name, value = draw(EXTREME_PARAMS)
        config["params"][name] = value
    if draw(st.booleans()):
        generator = draw(specs())
        generator.pop("seed", None)
        config["generator"] = generator
    return config


SERIES = ("x", "upper_prob")
FLOAT_PAIRS = st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), max_size=4)
REPORT_FIELDS = {
    "config": st.one_of(st.just({}), st.integers()),
    "cases": st.one_of(st.just([]), st.integers()),
    "summary": st.just({"n_failed": 0}),
    "series": st.one_of(
        st.dictionaries(st.sampled_from(SERIES), st.one_of(FLOAT_PAIRS, st.lists(st.integers()),
                                                           st.integers())),
        st.lists(st.sampled_from(SERIES)),
        st.integers(),
    ),
    "version": st.just("0"),
}


@st.composite
def report_objects(draw):
    """A run report with fields missing or mistyped."""
    names = draw(st.lists(st.sampled_from(sorted(REPORT_FIELDS)), unique=True))
    return {name: draw(REPORT_FIELDS[name]) for name in names}


# a report file: report-like JSON, other JSON, or bytes that may not be text
REPORTS = st.one_of(report_objects(), st.lists(st.integers(), max_size=2), st.binary(max_size=20))


@st.composite
def command_lines(draw):
    """(argv after the command's file arguments, prices, input file payload:
    bytes as they are, anything else as JSON)."""
    command = draw(st.sampled_from(["prop3", "crossings", "generate", "variation", "qvar", "run",
                                    "doob", "upper-prob", "borrow-check", "unbounded",
                                    "emit-plot"]))
    if command == "prop3":
        args = ["--eps", draw(numbers(0.05, 4.0)), "--delta", draw(numbers(0.05, 4.0)),
                "--N", draw(st.one_of(st.integers(-2, 256).map(str),
                                      st.sampled_from(["4000000000", "1.5", "x"])))]
        if draw(st.booleans()):
            args += ["--j-max", draw(st.integers(-3, 30).map(str))]
        return [command] + args, draw(PRICES), None
    if command == "crossings":
        if draw(st.booleans()):
            args = ["--step", draw(numbers(1e-3, 10.0))]
        else:
            args = [flag for name in draw(st.lists(st.sampled_from(["--a", "--b"]), unique=True))
                    for flag in (name, draw(numbers(-1.0, 10.0)))]
        return [command] + args, draw(PRICES), None
    if command == "variation":
        ps = draw(st.lists(numbers(0.1, 4.0), max_size=4))
        args = ["--p", ",".join(ps)] + (["--psi"] if draw(st.booleans()) else [])
        return [command] + args, draw(PRICES), None
    if command == "qvar":
        deltas = draw(st.lists(numbers(1e-3, 2.0), max_size=4))
        return [command, "--deltas", ",".join(deltas)], draw(PRICES), None
    if command in ("doob", "borrow-check"):
        args = [flag for name in draw(st.lists(st.sampled_from(["--a", "--b"]), unique=True))
                for flag in (name, draw(numbers(-1.0, 10.0)))]
        if command == "borrow-check" and draw(st.booleans()):
            args += ["--strategy", draw(st.sampled_from(AUDIT_STRATEGIES + ("bogus",)))]
        return [command] + args, draw(PRICES), None
    if command == "upper-prob":
        return [command], draw(PRICES), None
    if command == "unbounded":
        m_max = draw(st.one_of(st.integers(-2, 2000).map(str), st.sampled_from(["1.5", "x"])))
        return [command, "--m-max", m_max], draw(PRICES), None
    if command == "emit-plot":
        return [command, "--series", draw(st.sampled_from(SERIES))], None, draw(REPORTS)
    if command == "generate":
        return [command], None, draw(specs())
    return [command], None, draw(configs())


@settings(
    max_examples=300,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(command_lines(), st.sampled_from(["input", "out"] + [None] * 8))
def test_cli_exit_codes(tmp_path, command_line, missing):
    argv, prices, payload = command_line
    argv = list(argv)
    work = Path(tempfile.mkdtemp(dir=tmp_path))  # one per example
    absent = work / "no-such-dir" / "file"
    out = absent if missing == "out" else work / "out"
    if prices is not None:
        n = len(prices)
        rows = [f"{k / max(n - 1, 1)!r},{x!r}" for k, x in enumerate(prices)]
        input_file = work / "path.csv"
        input_file.write_text("t,x\n" + "\n".join(rows) + "\n")
        flag = "--path"
    else:
        input_file = work / "input.json"
        if isinstance(payload, bytes):
            input_file.write_bytes(payload)
        else:
            input_file.write_text(json.dumps(payload))
        flag = {"generate": "--spec", "emit-plot": "--report"}.get(argv[0], "--config")
    argv += [flag, str(absent if missing == "input" else input_file), "--out", str(out)]

    def too_slow(signum, frame):
        raise AssertionError(f"{argv} still running after 20 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        rc = main(argv)
    except SystemExit as e:
        assert e.code == 2, argv
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc in (0, 1, 2), argv
    if rc != 2:  # a finished command wrote finite numbers
        text = (out / "report.json" if argv[0] == "run" else out).read_text()
        if argv[0] in JSON_COMMANDS:
            json.loads(text, parse_constant=not_json)
        else:  # `variation` writes inf on purpose
            assert not re.search(r"\bnan\b", text, re.IGNORECASE), (argv, prices, text)


def not_json(constant):
    raise AssertionError(f"{constant} is not JSON")
