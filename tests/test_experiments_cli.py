import hashlib
import json
import math
import os
import platform
import signal
import stat
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from roughmarket import (
    ExperimentConfig,
    __version__,
    GeneratorSpec,
    VariationFunctional,
    emit_plot_data,
    generate,
    grid_crossings,
    psi,
    run_experiment,
    volatility_mixture,
    write_path,
    write_report,
)
from roughmarket import experiments
from roughmarket.cli import main
from roughmarket.errors import CaseFailure, ConfigError, NonFiniteResult, UnknownSeries
from roughmarket.experiments import canonical_json, report_canonical_bytes
from roughmarket.paths import MAX_SAMPLES, _write_file

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


def _short_suite_seed(seed: int, r: int) -> int:
    """prop1-check's seed in round ``r`` of a short-suite benchmark run with ``seed``."""
    digest = hashlib.sha256(f"short-suite/{seed}/{r}/2".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


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

    @pytest.mark.parametrize("L", [0, 1, 3])
    def test_prop1_crossing_sum_is_the_per_level_sum(self, monkeypatch, L):
        # prop1-check counts every level's grid in one band scan; its sum must
        # be the one of a grid_crossings call per level, on the suite's walk
        # paths and on prop1-check's seeds in the short-suite benchmark
        seen = []
        scan = experiments._grid_moves
        monkeypatch.setattr(experiments, "_grid_moves", lambda p, hs: seen.append(p) or scan(p, hs))
        mix = volatility_mixture(VariationFunctional.power(2.5), L, j_policy=8, kind="prop1")
        seeds = list(range(8)) + [_short_suite_seed(s, r) for s in (1711, 1911) for r in range(5)]
        for seed in seeds:
            case = experiments._case_prop1(seed, {"L": L})
            path = seen.pop()
            per_level = 0.0
            for lv in mix.levels:
                per_level += lv.cell_weight * lv.cell_height * grid_crossings(path, lv.cell_height).up
            assert case["crossing_sum"] == per_level > 0.0

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


# canonical_json's reference: the json module's own sorted, indented, strict encoder
REFERENCE_JSON = json.JSONEncoder(sort_keys=True, indent=1, allow_nan=False)
SUITE_PARAMS = {
    "prop3-check": {"eps": [1.0], "delta": [0.5], "N": [16, 64]},
    "growth-profile": {"p": [2.0, 2.5], "N": [16, 32]},
}


def _payload(report) -> dict:
    return {
        "config": report.config,
        "cases": report.cases,
        "summary": report.summary,
        "series": report.series,
        "version": report.version,
    }


class TestCanonicalJson:
    @pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
    def test_suite_payloads(self, kind):
        params = SUITE_PARAMS.get(kind, {})
        for seeds in ((1,), (2, 7)):
            payload = _payload(run_experiment(ExperimentConfig(kind=kind, seeds=seeds, params=params)))
            assert canonical_json(payload) == REFERENCE_JSON.encode(payload)

    EDGES = [
        {}, [], (), "", None, True, 0, -0.0, 1.5, 10**30, np.float64(0.1),
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}]],
        (1, (2, 3), [4, (5,)]),
        {"t": (1.5, 2), "u": [True, False, None]},
        [1e308, 5e-324, -1e-300, np.float64(-0.0)],
        {1: "a", 2: [1], 0.5: {"x": 1}},
        {1.5: 2, 0.25: [True, None], -3: None},
        {True: 1, False: [2]},
        {None: [1]},
        {"é": "ü☃", "\n\"\\": ["\t", "\u2028"], "z": {"ß": "\x00"}},
        {"x": [{"y": [[{}]]}], "a": {"b": {"c": {"d": [1, {"e": [2, [3]]}]}}}},
        [np.float64(3.3), {"k": np.float64(-0.0)}, {np.float64(2.5): [np.float64(1.0)], 1: 0}],
        {"medians": "[1.0, 2.0]", "brackets": "{[}]", "sep": ",\n  "},
    ]

    @pytest.mark.parametrize("payload", EDGES, ids=range(len(EDGES)))
    def test_edge_payloads(self, payload):
        assert canonical_json(payload) == REFERENCE_JSON.encode(payload)

    @pytest.mark.parametrize(
        "payload, shown",
        [
            (math.nan, "nan"),
            ({"a": math.inf}, "inf"),
            ([1, [-math.inf]], "-inf"),
            ({"a": {"b": [np.float64("nan")]}}, "np.float64(nan)"),
            ({math.nan: 1}, "nan"),
            ({math.inf: [1]}, "inf"),
        ],
    )
    def test_non_finite_values(self, payload, shown):
        with pytest.raises(NonFiniteResult) as e:
            canonical_json(payload)
        assert str(e.value) == (
            "a result is not finite, so JSON cannot hold it "
            f"(Out of range float values are not JSON compliant: {shown})"
        )

    @pytest.mark.parametrize(
        "payload", [{"a": np.int64(3)}, {(1, 2): 3}, {"a": [{1, 2}]}, {True: 1, None: 2}, {(1,): [2]}]
    )
    def test_other_errors_are_the_json_modules(self, payload):
        with pytest.raises(TypeError) as ours:
            canonical_json(payload)
        with pytest.raises(TypeError) as reference:
            REFERENCE_JSON.encode(payload)
        assert str(ours.value) == str(reference.value)

    def test_cycles(self):
        cycle = []
        cycle.append(cycle)
        with pytest.raises(NonFiniteResult, match="Circular reference detected"):
            canonical_json({"a": cycle})


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

    @pytest.mark.parametrize("out_dir", ["", ".", "new/sub"])
    def test_write_report_takes_str_dirs(self, tmp_path, monkeypatch, out_dir):
        # an empty name is the current directory, as it is for pathlib
        monkeypatch.chdir(tmp_path)
        rep = run_experiment(ExperimentConfig(kind="upper-prob-table", seeds=(0,)))
        where = write_report(rep, out_dir)
        assert where == Path(out_dir) / "report.json"
        assert where.read_bytes() == report_canonical_bytes(rep)
        assert sorted(os.listdir(Path(out_dir))) == ["cases.csv", "meta.json", "report.json"]

    def test_shorter_report_over_longer_one(self, tmp_path):
        long_rep = run_experiment(ExperimentConfig(kind="doob-suite", seeds=tuple(range(10))))
        short_rep = run_experiment(ExperimentConfig(kind="doob-suite", seeds=(0,)))
        long_rep.wall_time_s, short_rep.wall_time_s = 0.123456789, 0.5  # a shorter meta.json
        write_report(long_rep, tmp_path / "out")
        before = {f.name: f.stat().st_size for f in (tmp_path / "out").iterdir()}
        write_report(short_rep, tmp_path / "out")
        write_report(short_rep, tmp_path / "new")
        for name in ("report.json", "meta.json", "cases.csv"):
            written = (tmp_path / "out" / name).read_bytes()
            assert written == (tmp_path / "new" / name).read_bytes()
            assert len(written) < before[name]

    def test_emit_plot_unknown_series(self):
        rep = run_experiment(ExperimentConfig(kind="upper-prob-table", seeds=(0,)))
        csv_text = emit_plot_data(rep, "upper_prob")
        assert csv_text.startswith("x,y\n")
        with pytest.raises(UnknownSeries):
            emit_plot_data(rep, "nope")


PINNED_GENERATOR = {"kind": "exp-fractional", "hurst": 0.4, "sigma": 0.5}
# sha256 (first 16 hex digits) of report.json and of cases.csv, recorded before
# prop3-check built one path per seed and sample count; default params
REPORTS = [
    ("oracle-suite", (1,), None, "cb1c28990046390a", "5e3db651e2cfa39d"),
    ("oracle-suite", (2, 3), None, "4575558083b06b21", "ed1bf4d7554054ce"),
    ("doob-suite", (1,), None, "3bbd45b9a8c93677", "4fbdf7e5fd61c2bf"),
    ("doob-suite", (2, 3), None, "40fc3e2213c4a7d7", "294bff6874a6f057"),
    ("prop1-check", (1,), None, "62b196894a68d1d7", "de7b9f01edd10b27"),
    ("prop1-check", (2, 3), None, "7d9cee41c4937fbe", "d88fe1756bbeb8ea"),
    ("prop3-check", (1,), None, "9ea94844a679095c", "d8c9fc67d6bbb5d7"),
    ("prop3-check", (2, 3), None, "9abb56db636431a4", "1d8230f2883a5dda"),
    ("upper-prob-table", (1,), None, "3cd9140d4db532b4", "10e01b732b256001"),
    ("upper-prob-table", (2, 3), None, "6b602e295c1c2af7", "10e01b732b256001"),
    ("growth-profile", (1,), None, "0cbcc471bc2a34fc", "eabfaec0c795c29e"),
    ("growth-profile", (2, 3), None, "f2c73a0b324d9689", "5572a40c005083cf"),
    ("borrow-audit", (1,), None, "619c8f30574b7a05", "5826cff176f7e5a4"),
    ("borrow-audit", (2, 3), None, "ee4e7db7c937ac30", "6ae37ee8934c07ee"),
    ("prop3-check", (2, 3), PINNED_GENERATOR, "cbb59d22f9fc48bb", "a942dea4bc36a66a"),
    ("prop3-check", (2, 3), dict(PINNED_GENERATOR, n_samples=513), "4b5742b830618001", "a4d63e9850fe2c79"),
    ("growth-profile", (2, 3), PINNED_GENERATOR, "f3b9a8028a175330", "c70a6eb57f9432c3"),
    ("growth-profile", (2, 3), dict(PINNED_GENERATOR, n_samples=2049), "50dc0aa2187b073d", "9219ae74a33fa552"),
]


class TestReportPins:
    @pytest.mark.parametrize(
        "kind, seeds, generator, report_digest, cases_digest",
        REPORTS,
        ids=[f"{k}-{'-'.join(map(str, s))}-{g and g.get('n_samples', 'gen')}" for k, s, g, _, _ in REPORTS],
    )
    def test_files_are_unchanged(self, tmp_path, kind, seeds, generator, report_digest, cases_digest):
        write_report(run_experiment(ExperimentConfig(kind=kind, seeds=seeds, generator=generator)), tmp_path)
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in ("report.json", "cases.csv")
        ]
        assert digests == [report_digest, cases_digest]


class TestGeneratedPaths:
    def test_prop3_builds_one_path_per_seed_and_sample_count(self, monkeypatch):
        sizes = []
        build = experiments.generate
        monkeypatch.setattr(experiments, "generate", lambda spec: sizes.append(spec.n_samples) or build(spec))
        run_experiment(ExperimentConfig(kind="prop3-check", seeds=(1, 2, 3)))
        assert sizes == [1025] * 3
        sizes.clear()
        run_experiment(ExperimentConfig(kind="prop3-check", seeds=(1, 2), params={"N": [16, 1024, 2048, 64]}))
        assert sizes == [1025, 2049] * 2
        sizes.clear()
        config = ExperimentConfig(
            kind="prop3-check",
            seeds=(1, 2),
            params={"N": [16, 2048]},
            generator=dict(PINNED_GENERATOR, n_samples=129),
        )
        run_experiment(config)
        assert sizes == [129] * 2

    def test_growth_profile_builds_one_path_per_seed(self, monkeypatch):
        sizes = []
        build = experiments.generate
        monkeypatch.setattr(experiments, "generate", lambda spec: sizes.append(spec.n_samples) or build(spec))
        run_experiment(ExperimentConfig(kind="growth-profile", seeds=(1, 2, 3), params={"N": [16, 64]}))
        assert sizes == [65] * 3

    @pytest.mark.parametrize("kind", ["prop3-check", "growth-profile"])
    @pytest.mark.parametrize("generator_base", [{"bogus": 1}, "x", {"kind": "constant", "n_samples": 5}])
    def test_a_generator_base_param_is_ignored(self, tmp_path, kind, generator_base):
        # config.generator is the only generator input; the report echoes the key
        plain = ExperimentConfig(kind=kind, seeds=(1,), params={"N": [16, 64]})
        config = dict(plain.to_dict())
        config["params"] = dict(plain.params, generator_base=generator_base)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_bytes())
        assert report["config"]["params"].pop("generator_base") == generator_base
        assert report == json.loads(report_canonical_bytes(run_experiment(plain)))


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
    # max(1, sup)^(2 + eps + delta) overflows, not eps or delta
    "prop3-sup-overflow": (["prop3", "--eps", "0.5", "--delta", "0.5", "--N", "4"], [1, 1e300, 1]),
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
    # one that float() rounds up to 2^1024
    "spec-horizon-integer-rounds-up": (
        ["generate"],
        {"kind": "constant", "n_samples": 3, "horizon": 2**1024 - 2**970},
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
    # a float stops at the integer check; each float's integer twin (10**30,
    # 10**300) passes it and meets the check past it
    "run-oracle-max-samples-huge": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    "run-oracle-max-samples-huge-integer": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": 10**30}},
    ),
    # integer params take integers only, as the API does: no text, float or bool
    "run-oracle-max-samples-text-number": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": "12"}},
    ),
    "run-oracle-max-samples-above-oracle-limit": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": 17}},
    ),
    "run-doob-max-samples-huge": (
        ["run"],
        {"kind": "doob-suite", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    "run-doob-max-samples-huge-integer": (
        ["run"],
        {"kind": "doob-suite", "seeds": [1], "params": {"max_samples": 10**30}},
    ),
    "run-prop1-max-samples-huge": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    "run-prop1-max-samples-huge-integer": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"max_samples": 10**30}},
    ),
    "run-borrow-max-samples-huge": (
        ["run"],
        {"kind": "borrow-audit", "seeds": [1], "params": {"max_samples": 1e30}},
    ),
    "run-borrow-max-samples-huge-integer": (
        ["run"],
        {"kind": "borrow-audit", "seeds": [1], "params": {"max_samples": 10**30}},
    ),
    # 2^63 cells overflow the int64 cell counts; 2.0**1e300 overflows float64
    "run-prop1-L-63": (["run"], {"kind": "prop1-check", "seeds": [1], "params": {"L": 63}}),
    "run-prop1-L-huge": (["run"], {"kind": "prop1-check", "seeds": [1], "params": {"L": 1e300}}),
    "run-prop1-L-huge-integer": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"L": 10**300}},
    ),
    "run-prop1-L-bool": (["run"], {"kind": "prop1-check", "seeds": [1], "params": {"L": True}}),
    # float() rounds this integer up to 2^1024, past float64's range
    "run-prop1-p-integer-huge": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"p": 2**1024 - 2**970}},
    ),
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
    "run-prop1-j-max-huge-integer": (
        ["run"],
        {"kind": "prop1-check", "seeds": [1], "params": {"j_max": 10**300}},
    ),
    "run-eps-negative": (
        ["run"],
        {"kind": "prop3-check", "seeds": [1], "params": {"eps": [-1], "N": [16]}},
    ),
    # a NaN or infinite number param; NaN passes every range test
    "run-oracle-rel-tol-nan": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"rel_tol": math.nan}},
    ),
    "run-prop1-p-nan": (["run"], {"kind": "prop1-check", "seeds": [1], "params": {"p": math.nan}}),
    "run-prop3-eps-inf": (
        ["run"],
        {"kind": "prop3-check", "seeds": [1], "params": {"eps": [0.5, math.inf], "N": [16]}},
    ),
    "run-prop3-delta-nan": (
        ["run"],
        {"kind": "prop3-check", "seeds": [1], "params": {"delta": [math.nan], "N": [16]}},
    ),
    "run-upper-prob-eps-nan": (
        ["run"],
        {"kind": "upper-prob-table", "seeds": [1], "params": {"eps": [math.nan]}},
    ),
    "run-upper-prob-horizon-inf": (
        ["run"],
        {"kind": "upper-prob-table", "seeds": [1], "params": {"horizon": math.inf}},
    ),
    "run-growth-p-inf": (
        ["run"],
        {"kind": "growth-profile", "seeds": [1], "params": {"p": [math.inf], "N": [16, 64]}},
    ),
    "run-seed-text": (["run"], {"kind": "oracle-suite", "seeds": ["abc"]}),
    "run-max-samples-text": (
        ["run"],
        {"kind": "oracle-suite", "seeds": [1], "params": {"max_samples": "x"}},
    ),
    "run-grid-not-list": (["run"], {"kind": "prop3-check", "seeds": [1], "params": {"N": 64}}),
    "run-prop3-N-not-integer": (
        ["run"],
        {"kind": "prop3-check", "seeds": [1], "params": {"N": [16.5]}},
    ),
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
    "run-prop3-generator-without-kind": (
        ["run"],
        {"kind": "prop3-check", "seeds": [1], "params": {"N": [16]}, "generator": {"hurst": 0.4}},
    ),
    "run-growth-generator-without-kind": (
        ["run"],
        {"kind": "growth-profile", "seeds": [1], "params": {"N": [16]}, "generator": {"n_samples": 17}},
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


NON_FINITE_PARAMS = (
    "run-oracle-rel-tol-nan",
    "run-prop1-p-nan",
    "run-prop3-eps-inf",
    "run-prop3-delta-nan",
    "run-upper-prob-eps-nan",
    "run-upper-prob-horizon-inf",
    "run-growth-p-inf",
)


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


    @pytest.mark.parametrize("name", NON_FINITE_PARAMS)
    def test_non_finite_params_stop_before_any_case_runs(self, name, tmp_path, capsys, monkeypatch):
        # every case starts by building its path or its mixture
        def spy(*args, **kwargs):
            raise AssertionError(f"{name}: a case ran")

        for entry in ("_small_path", "_walk_path", "generate", "volatility_mixture"):
            monkeypatch.setattr(experiments, entry, spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MALFORMED[name][1]))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "need finite values" in capsys.readouterr().err


OLD = b"old bytes, longer than the new ones\n"


class TestOutputWriter:
    """A plain file is replaced by a new one; every other destination is written through."""

    def test_plain_file_gets_a_new_inode(self, tmp_path):
        f = tmp_path / "out.json"
        f.write_bytes(OLD)
        with open(f, "rb") as reader:  # holds the old inode, so its number is not reused
            _write_file(f, b"new\n")
            assert os.stat(f).st_ino != os.fstat(reader.fileno()).st_ino
            assert reader.read() == OLD
        assert f.read_bytes() == b"new\n"

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(OLD)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        _write_file(link, b"new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"

    def test_hard_link_is_written_in_place(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_bytes(OLD)
        b = tmp_path / "b.json"
        os.link(a, b)
        ino = os.stat(a).st_ino
        _write_file(a, b"new\n")
        assert os.stat(a).st_ino == ino == os.stat(b).st_ino
        assert a.read_bytes() == b.read_bytes() == b"new\n"

    def test_dev_null_out(self, sample_csv, monkeypatch):
        def guarded(call):  # a writer that would remove the device fails here instead
            def checked(*args, **kwargs):
                assert "/dev/null" not in map(os.path.abspath, args), f"{call.__name__}{args}"
                return call(*args, **kwargs)
            return checked

        for name in ("unlink", "remove", "rename", "replace"):
            monkeypatch.setattr(os, name, guarded(getattr(os, name)))
        assert main(["upper-prob", "--path", str(sample_csv), "--out", "/dev/null"]) == 0
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    def test_refused_unlink_falls_back_to_a_plain_write(self, tmp_path, monkeypatch):
        f = tmp_path / "out.json"
        f.write_bytes(OLD)
        ino = os.stat(f).st_ino
        refused = []

        def refuse(path, *args, **kwargs):
            refused.append(path)
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "unlink", refuse)
        _write_file(f, b"new\n")
        monkeypatch.undo()
        assert refused == [f]
        assert os.stat(f).st_ino == ino
        assert f.read_bytes() == b"new\n"


class TestOsLevelWrite:
    """``_write_file`` writes with ``os.open`` and an ``os.write`` loop."""

    def test_short_writes_leave_the_whole_payload(self, tmp_path, monkeypatch):
        write = os.write
        calls = []

        def at_most_3_bytes(fd, data):
            calls.append(len(data))
            return write(fd, data[:3])

        payload = bytes(range(256)) * 3 + b"tail"
        monkeypatch.setattr(os, "write", at_most_3_bytes)
        _write_file(tmp_path / "out.bin", payload)
        monkeypatch.undo()
        assert (tmp_path / "out.bin").read_bytes() == payload
        assert len(calls) == math.ceil(len(payload) / 3)

    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    def test_shorter_payload_through_a_link_leaves_no_tail(self, tmp_path, link):
        target = tmp_path / "target.json"
        target.write_bytes(OLD)
        dest = tmp_path / "dest.json"
        if link == "symlink":
            dest.symlink_to(target)
        else:
            os.link(target, dest)
        _write_file(dest, b"new\n")
        assert target.read_bytes() == dest.read_bytes() == b"new\n"

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002, 0o000])
    def test_new_file_mode_is_that_of_write_bytes(self, tmp_path, mask):
        previous = os.umask(mask)
        try:
            _write_file(tmp_path / "ours", b"x")
            (tmp_path / "pathlib").write_bytes(b"x")
        finally:
            os.umask(previous)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("ours", "pathlib")]
        assert modes[0] == modes[1] == 0o666 & ~mask
