import json
import math
import platform
import signal
import time
import warnings

import numpy as np
import pytest

from roughmarket import (
    ExperimentConfig,
    __version__,
    GeneratorSpec,
    emit_plot_data,
    generate,
    psi,
    run_experiment,
    write_path,
    write_report,
)
from roughmarket.cli import main
from roughmarket.errors import CaseFailure, ConfigError, UnknownSeries
from roughmarket.experiments import canonical_json, report_canonical_bytes
from roughmarket.paths import MAX_SAMPLES

from conftest import step_path


class TestConfig:
    def test_empty_seed_set_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="oracle-suite", seeds=())

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="mystery", seeds=(1,))

    def test_from_json_unknown_field(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"kind": "oracle-suite", "seeds": [1], "x": 2}')

    def test_from_json_bad_json(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{nope")


class TestSuites:
    def test_oracle_suite_all_pass(self):
        rep = run_experiment(ExperimentConfig(kind="oracle-suite", seeds=tuple(range(25))))
        assert rep.summary == {"n_cases": 25, "n_failed": 0}

    def test_doob_suite_all_pass(self):
        rep = run_experiment(ExperimentConfig(kind="doob-suite", seeds=tuple(range(25))))
        assert rep.failed == 0

    def test_prop1_suite_all_pass(self):
        rep = run_experiment(ExperimentConfig(kind="prop1-check", seeds=tuple(range(8))))
        assert rep.failed == 0

    def test_prop3_suite(self):
        cfg = ExperimentConfig(
            kind="prop3-check",
            seeds=(0, 1),
            params={"eps": [1.0], "delta": [1.0], "N": [16, 64], "j_max": 10},
            generator={"kind": "exp-fractional", "hurst": 0.5, "sigma": 0.5, "n_samples": 65},
        )
        rep = run_experiment(cfg)
        assert rep.failed == 0
        assert len(rep.cases) == 4
        assert "margin" in rep.series

    def test_upper_prob_table(self):
        rep = run_experiment(
            ExperimentConfig(kind="upper-prob-table", seeds=(0,), params={"eps": [-1.0, 0.5, 1.0]})
        )
        assert rep.failed == 0
        by_eps = {c["eps"]: c for c in rep.cases}
        assert by_eps[-1.0]["value"] == 1.0
        assert by_eps[1.0]["expected"] == pytest.approx(1.0 / 1.5)

    def test_growth_profile_series(self):
        cfg = ExperimentConfig(
            kind="growth-profile",
            seeds=tuple(range(5)),
            params={"p": [1.5, 3.0], "N": [16, 64, 256]},
            generator={"kind": "exp-fractional", "hurst": 0.5, "sigma": 0.5, "n_samples": 257},
        )
        rep = run_experiment(cfg)
        assert rep.failed == 0
        assert set(rep.series) == {"p=1.5", "p=3"}
        col = [y for _x, y in rep.series["p=1.5"]]
        assert col == sorted(col)

    def test_borrow_audit(self):
        rep = run_experiment(ExperimentConfig(kind="borrow-audit", seeds=tuple(range(6))))
        assert rep.failed == 0

    def test_raise_on_failure(self, monkeypatch):
        import roughmarket.experiments as ex

        monkeypatch.setattr(
            ex, "_case_oracle", lambda s, p: {"case": f"oracle-{s}", "pass": False}
        )
        with pytest.raises(CaseFailure):
            run_experiment(
                ExperimentConfig(kind="oracle-suite", seeds=(1,)), raise_on_failure=True
            )


class TestReportDeterminism:
    def test_byte_identical_reports(self):
        cfg = ExperimentConfig(kind="doob-suite", seeds=tuple(range(10)))
        a = report_canonical_bytes(run_experiment(cfg))
        b = report_canonical_bytes(run_experiment(cfg))
        assert a == b

    def test_write_report_layout(self, tmp_path):
        cfg = ExperimentConfig(kind="upper-prob-table", seeds=(0,))
        rep = run_experiment(cfg)
        where = write_report(rep, tmp_path / "out")
        assert where.name == "report.json"
        payload = json.loads(where.read_text())
        assert payload["summary"]["n_failed"] == 0
        assert "wall_time_s" not in payload  # volatile fields live in meta.json
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert "wall_time_s" in meta
        assert (tmp_path / "out" / "cases.csv").exists()

    def test_emit_plot_unknown_series(self):
        rep = run_experiment(ExperimentConfig(kind="upper-prob-table", seeds=(0,)))
        csv_text = emit_plot_data(rep, "upper_prob")
        assert csv_text.startswith("x,y\n")
        with pytest.raises(UnknownSeries):
            emit_plot_data(rep, "nope")


@pytest.fixture
def sample_csv(tmp_path):
    path = generate(GeneratorSpec(kind="exp-fractional", n_samples=129, hurst=0.5, sigma=0.5, seed=3))
    f = tmp_path / "path.csv"
    write_path(path, f)
    return f


class TestCli:
    def test_variation(self, sample_csv, capsys):
        assert main(["variation", "--path", str(sample_csv), "--p", "1,2", "--psi"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p,value\n")
        assert "psi," in out

    def test_crossings_grid(self, sample_csv, capsys):
        assert main(["crossings", "--path", str(sample_csv), "--step", "0.25"]) == 0
        assert capsys.readouterr().out.startswith("k,up,down\n")

    def test_crossings_band(self, sample_csv, capsys):
        assert main(["crossings", "--path", str(sample_csv), "--a", "0.5", "--b", "1.0"]) == 0
        assert capsys.readouterr().out.startswith("a,b,up,down\n")

    def test_crossings_missing_args(self, sample_csv):
        assert main(["crossings", "--path", str(sample_csv)]) == 2

    def test_qvar(self, sample_csv, capsys):
        assert main(["qvar", "--path", str(sample_csv), "--deltas", "1,0.5,0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "delta,value"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert vals == sorted(vals, reverse=True)

    def test_doob_json(self, sample_csv, capsys):
        assert main(["doob", "--path", str(sample_csv), "--a", "0.5", "--b", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["ST"] >= payload["bound_rhs"]

    def test_doob_band_without_top(self, sample_csv, capsys):
        # no upcrossing can complete, so the bound is 0, not inf * 0
        assert main(["doob", "--path", str(sample_csv), "--a", "0", "--b", "inf"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["upcrossings"], payload["bound_rhs"], payload["pass"]) == (0, 0.0, True)
        assert payload["b"] is None

    def test_prop3_json(self, sample_csv, capsys):
        rc = main(
            ["prop3", "--path", str(sample_csv), "--eps", "1", "--delta", "1", "--N", "32"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["binding"] is (payload["bound_rhs"] > 0.0) is False

    def test_prop3_binding(self, tmp_path, capsys):
        # a 0/1 sawtooth with 512 periods: 1024 moves, enough for rhs > 0
        f = tmp_path / "saw.csv"
        write_path(step_path([0.0, 1.0] * 512 + [0.0]), f)
        assert main(["prop3", "--path", str(f), "--eps", "0.5", "--delta", "0.5", "--N", "1024"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["binding"] is True
        assert payload["ST"] > payload["bound_rhs"] > 0.0

    def test_qvar_bounds_below_the_finest_gap(self, tmp_path, capsys):
        # 1e-300 leaves times - d == times; on 1, 1, 20 the per-bound DP divided by zero
        for top in (2.0, 20.0):
            f = tmp_path / "levels.csv"
            write_path(step_path([1.0, 1.0, top]), f)
            assert main(["qvar", "--path", str(f), "--deltas", "1,0.5,1e-300"]) == 0
            rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
            assert [d for d, _ in rows] == ["1.0", "0.5", "1e-300"]
            assert rows[1][1] == rows[2][1] == repr(psi(top - 1.0))

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert sorted(payload) == ["numpy", "platform", "python", "roughmarket"]
        assert payload["roughmarket"] == __version__
        assert payload["numpy"] == np.__version__
        assert payload["python"] == platform.python_version()
        assert out == canonical_json(payload) + "\n"

    def test_upper_prob(self, sample_csv, capsys):
        assert main(["upper-prob", "--path", str(sample_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["upper_prob"] <= 1.0

    def test_borrow_check_violator_exit_code(self, sample_csv, capsys):
        rc = main(["borrow-check", "--path", str(sample_csv), "--strategy", "short"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["continuation_min_capital"] < 0.0

    def test_unbounded(self, sample_csv, capsys):
        assert main(["unbounded", "--path", str(sample_csv), "--m-max", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["S0"] == 1.0 - 2.0**-4

    def test_generate_and_roundtrip(self, tmp_path, capsys):
        spec = tmp_path / "gen.json"
        spec.write_text('{"kind": "linear-drift", "n_samples": 5, "eps": 1.0}')
        out = tmp_path / "path.csv"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        assert main(["upper-prob", "--path", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper_prob"] == pytest.approx(0.5, abs=1e-12)

    def test_run_and_emit_plot(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "upper-prob-table", "seeds": [0]}))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        rc = main(
            ["emit-plot", "--report", str(out_dir / "report.json"), "--series", "upper_prob"]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("x,y\n")

    def test_run_bad_config_exit(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "upper-prob-table", "seeds": []}))
        assert main(["run", "--config", str(cfg)]) == 2


MISSING = "<missing>"  # a file under a directory that does not exist
PATH_COMMANDS = (
    "prop3", "crossings", "doob", "qvar", "unbounded", "upper-prob", "variation", "borrow-check"
)

MALFORMED = {
    "prop3-N-0": (["prop3", "--eps", "1", "--delta", "1", "--N", "0"], None),
    "prop3-eps-negative": (["prop3", "--eps", "-1", "--delta", "1", "--N", "16"], None),
    "prop3-delta-zero": (["prop3", "--eps", "1", "--delta", "0", "--N", "16"], None),
    "prop3-eps-overflow": (["prop3", "--eps", "2000", "--delta", "1", "--N", "4"], None),
    # a payload for prop3 gives the prices of the path to run on
    "prop3-delta-overflow": (["prop3", "--eps", "1", "--delta", "2000", "--N", "4"], [1, 900, 1]),
    "prop3-eps-overflow-high-path": (
        ["prop3", "--eps", "150", "--delta", "1", "--N", "4"],
        [1, 900, 1],
    ),
    "prop3-N-huge": (["prop3", "--eps", "1", "--delta", "1", "--N", "4000000000"], None),
    # 1 - 2^-eps rounds to 0, and the prop3 weights divide by it
    "prop3-eps-tiny": (["prop3", "--eps", "1e-300", "--delta", "1", "--N", "4"], None),
    "prop3-delta-tiny": (["prop3", "--eps", "1", "--delta", "1e-17", "--N", "4"], None),
    "crossings-step-0": (["crossings", "--step", "0"], None),
    "crossings-step-negative": (["crossings", "--step", "-1"], None),
    "crossings-step-tiny": (["crossings", "--step", "1e-12"], None),
    # NaN passes a "d <= 0" test; searchsorted then puts first[i] at or past i
    "qvar-deltas-nan": (["qvar", "--deltas", "nan"], None),
    "spec-n-samples-text": (["generate"], {"kind": "constant", "n_samples": "abc"}),
    "spec-values-not-numbers": (
        ["generate"],
        {"kind": "custom-steps", "n_samples": 2, "values": ["x", 1]},
    ),
    "spec-missing-n-samples": (["generate"], {"kind": "constant"}),
    "spec-custom-steps-empty": (["generate"], {"kind": "custom-steps", "n_samples": 0, "values": []}),
    "spec-custom-steps-one-value": (
        ["generate"],
        {"kind": "custom-steps", "n_samples": 1, "values": [1.0]},
    ),
    # an empty times list: its last entry was read as the horizon
    "spec-custom-steps-no-times": (
        ["generate"],
        {"kind": "custom-steps", "n_samples": 2, "values": [1, 2], "times": []},
    ),
    "spec-n-samples-huge": (["generate"], {"kind": "exp-fractional", "n_samples": 10**10}),
    "spec-n-samples-above-cap": (["generate"], {"kind": "constant", "n_samples": MAX_SAMPLES + 1}),
    # numpy's Poisson sampler refuses a NaN, infinite or huge mean, and its
    # normal sampler a negative scale; NaN passes a "horizon <= 0" test
    "spec-jump-rate-nan": (["generate"], {"kind": "jump", "n_samples": 10, "jump_rate": math.nan}),
    "spec-jump-rate-inf": (["generate"], {"kind": "jump", "n_samples": 10, "jump_rate": math.inf}),
    "spec-jump-rate-huge": (["generate"], {"kind": "jump", "n_samples": 10, "jump_rate": 1e300}),
    "spec-horizon-nan": (["generate"], {"kind": "jump", "n_samples": 10, "horizon": math.nan}),
    "spec-jump-sigma-negative": (["generate"], {"kind": "jump", "n_samples": 10, "jump_sigma": -1}),
    # a JSON integer that float64 cannot hold
    "spec-horizon-integer-huge": (
        ["generate"],
        {"kind": "constant", "n_samples": 3, "horizon": 10**400},
    ),
    # the embedding's eigenvalues go materially negative; a dense fallback
    # would ask for a 262144 x 262144 index array
    "spec-fractional-embedding-not-positive": (
        ["generate"],
        {"kind": "exp-fractional", "n_samples": 262145, "hurst": 0.99999},
    ),
    "run-growth-generator-jump-rate-inf": (
        ["run"],
        {
            "kind": "growth-profile",
            "seeds": [1],
            "params": {"N": [16, 64]},
            "generator": {"kind": "jump", "jump_rate": math.inf},
        },
    ),
    "run-prop3-generator-horizon-nan": (
        ["run"],
        {
            "kind": "prop3-check",
            "seeds": [1],
            "params": {"N": [16]},
            "generator": {"kind": "jump", "n_samples": 65, "horizon": math.nan},
        },
    ),
    # rng.integers cannot draw a sample count past int64
    "run-oracle-max-samples-huge": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    "run-oracle-max-samples-above-oracle-limit": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": 17}},
    ),
    "run-doob-max-samples-huge": (
        ["run"],
        {"kind": "doob-suite", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    "run-prop1-max-samples-huge": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    "run-borrow-max-samples-huge": (
        ["run"],
        {"kind": "borrow-audit", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    # 2^63 cells overflow the int64 cell counts; 2.0**1e300 overflows float64
    "run-prop1-L-63": (["run"], {"kind": "prop1-check", "seeds": [1], "params": {"L": 63}}),
    "run-prop1-L-huge": (["run"], {"kind": "prop1-check", "seeds": [1], "params": {"L": 1e300}}),
    # the scale cut stepped down one scale at a time from j_max, summing big
    # cell counts; the budget's cut then has more bands than band_count allows
    "run-prop1-j-max-30000": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"j_max": 30000}},
    ),
    "run-prop1-j-max-huge": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"j_max": 1e300}},
    ),
    "run-eps-negative": (
        ["run"],
        {"kind": "prop3-check", "seeds": [1], "params": {"eps": [-1], "N": [16]}},
    ),
    "run-seed-text": (["run"], {"kind": "oracle-suite", "seeds": ["abc"]}),
    "run-max-samples-text": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": "x"}},
    ),
    "run-grid-not-list": (["run"], {"kind": "prop3-check", "seeds": [1], "params": {"N": 64}}),
    "run-prop3-N-above-dp-limit": (
        ["run"],
        {"kind": "prop3-check", "seeds": [1], "params": {"N": [70000]}},
    ),
    "run-growth-N-above-dp-limit": (
        ["run"],
        {"kind": "growth-profile", "seeds": [1], "params": {"N": [64, 70000]}},
    ),
    "run-growth-N-not-increasing": (
        ["run"],
        {"kind": "growth-profile", "seeds": [1], "params": {"N": [64, 16]}},
    ),
    "run-prop3-generator-n-samples-huge": (
        ["run"],
        {
            "kind": "prop3-check",
            "seeds": [1],
            "params": {"N": [16]},
            "generator": {"kind": "exp-fractional", "n_samples": 10**10},
        },
    ),
    "run-growth-generator-n-samples-huge": (
        ["run"],
        {
            "kind": "growth-profile",
            "seeds": [1],
            "params": {"N": [16, 64]},
            "generator": {"kind": "jump", "n_samples": 10**10},
        },
    ),
    "run-generator-unknown-field": (
        ["run"],
        {"kind": "growth-profile", "seeds": [1], "generator": {"kind": "constant", "x": 1}},
    ),
    # 2^1024 overflows float64
    "unbounded-m-max-1024": (["unbounded", "--m-max", "1024"], None),
    "unbounded-m-max-0": (["unbounded", "--m-max", "0"], None),
    # an emit-plot payload is the report file: text as is, anything else as JSON
    "emit-plot-not-json": (["emit-plot"], "{not json"),
    "emit-plot-missing-keys": (["emit-plot"], {"config": {}, "cases": []}),
    "emit-plot-not-an-object": (["emit-plot"], [1, 2]),
    "emit-plot-series-not-pairs": (
        ["emit-plot"],
        {"config": {}, "cases": [], "summary": {}, "series": {"x": 5}, "version": "0"},
    ),
    # 2 / start units is inf; the NaN capital it made passed the audit
    "borrow-check-leveraged-zero-start": (["borrow-check", "--strategy", "leveraged"], [0, 2, 0.5]),
    # 1 / 5e-324 is an inf position; times a zero move it made the capital NaN
    "unbounded-subnormal-start": (["unbounded", "--m-max", "5"], [5e-324, 5e-324]),
    # one unit of cash at 1e-300 is 1e300 units, and their gain on 1e300 overflows float64
    "unbounded-gain-overflow": (["unbounded", "--m-max", "1023"], [1e-300, 1e300, 0]),
    # the growth factor exp(744) overflows float64
    "borrow-check-clairvoyant-factor-overflow": (
        ["borrow-check", "--strategy", "clairvoyant"],
        [5e-324, 1.0],
    ),
    # the reinvested position 1 / 5e-324 is inf
    "borrow-check-clairvoyant-position-overflow": (
        ["borrow-check", "--strategy", "clairvoyant"],
        [5e-324, 1e-310, 5e-324],
    ),
    # 2 / start units is inf for a subnormal start too
    "borrow-check-leveraged-subnormal-start": (
        ["borrow-check", "--strategy", "leveraged"],
        [5e-324, 0, 0],
    ),
    # three gains of 1.7e308 make the final capital inf, which JSON cannot hold
    "doob-infinite-capital": (["doob", "--a", "0.5", "--b", "1"], [0, 1.7e308] * 3),
    # a bytes payload for a path command is the path file itself
    "path-not-utf8": (["variation"], b"t,x\n\xff\xfe,1\n"),
    "path-missing": (["variation", "--path", MISSING], None),
    "spec-missing": (["generate", "--spec", MISSING, "--out", MISSING], None),
    "config-missing": (["run", "--config", MISSING], None),
    "report-missing": (["emit-plot", "--report", MISSING, "--series", "x"], None),
    "out-unwritable": (["upper-prob", "--out", MISSING], None),
}


class TestMalformedInput:
    """Bad input exits 2 with one error line, no traceback, and no long loop."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exit_2(self, name, sample_csv, tmp_path, capsys, monkeypatch):
        import roughmarket.cli as cli

        def no_band_loop(*args):
            raise AssertionError("per-band loop ran on a rejected step")

        argv, payload = MALFORMED[name]
        if argv[0] == "crossings":
            monkeypatch.setattr(cli, "crossings", no_band_loop)
        argv = [str(tmp_path / "no-such-dir" / "file") if x == MISSING else x for x in argv]
        if argv[0] in PATH_COMMANDS and "--path" not in argv:
            path_file = sample_csv
            if isinstance(payload, bytes):
                path_file = tmp_path / "prices.csv"
                path_file.write_bytes(payload)
            elif payload is not None:
                path_file = tmp_path / "prices.csv"
                spec = GeneratorSpec(kind="custom-steps", n_samples=len(payload), values=payload)
                write_path(generate(spec), path_file)
            argv += ["--path", str(path_file)]
        elif payload is not None:
            f = tmp_path / "input.json"
            f.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            if argv[0] == "generate":
                argv += ["--spec", str(f), "--out", str(tmp_path / "p.csv")]
            elif argv[0] == "emit-plot":
                argv += ["--report", str(f), "--series", "x"]
            else:
                argv += ["--config", str(f)]

        def too_slow(signum, frame):
            raise AssertionError(f"{name} still running after 20 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(20)
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert time.perf_counter() - t0 < 5.0
