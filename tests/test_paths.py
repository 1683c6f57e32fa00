import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmarket import (
    GeneratorSpec,
    discretize,
    generate,
    make_path,
    read_path,
    write_path,
)
from roughmarket.errors import BadSpec, BadTimeGrid, NonPositiveValue, ParseError, TooLarge
from roughmarket.paths import GENERATOR_KINDS, MAX_SAMPLES, _validate_spec

from conftest import step_path
from fgn_oracle import fgn_covariance, noise_map


class TestMakePath:
    def test_constant(self):
        p = make_path([0, 1], [1, 1], 1)
        assert p.horizon == 1.0
        assert list(p.values) == [1.0, 1.0]

    def test_negative_value_rejected(self):
        with pytest.raises(NonPositiveValue):
            make_path([0, 0.5, 1], [1, -0.1, 2], 1)

    def test_duplicate_time_rejected(self):
        with pytest.raises(BadTimeGrid):
            make_path([0, 0.5, 0.5, 1], [1, 2, 3, 4], 1)

    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(BadTimeGrid):
            make_path([0, 0.5, 1], [1, 2, 3], 2.0)
        with pytest.raises(BadTimeGrid):
            make_path([0.1, 0.5, 1], [1, 2, 3], 1.0)

    def test_too_short(self):
        with pytest.raises(BadTimeGrid):
            make_path([0], [1], 0)

    def test_immutability(self):
        p = make_path([0, 1], [1, 2], 1)
        with pytest.raises(ValueError):
            p.values[0] = 5.0

    def test_step_evaluation(self):
        p = make_path([0, 0.25, 1], [1, 2, 3], 1)
        assert p.value_at(0.0) == 1.0
        assert p.value_at(0.1) == 1.0
        assert p.value_at(0.25) == 2.0
        assert p.value_at(1.0) == 3.0
        with pytest.raises(BadTimeGrid):
            p.value_at(1.5)


class TestGenerate:
    def test_constant(self):
        p = generate(GeneratorSpec(kind="constant", n_samples=4, level=1.0))
        assert list(p.values) == [1.0, 1.0, 1.0, 1.0]

    def test_linear_drift(self):
        p = generate(GeneratorSpec(kind="linear-drift", n_samples=3, eps=1.0))
        assert list(p.times) == [0.0, 0.5, 1.0]
        assert list(p.values) == [1.0, 1.5, 2.0]

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            generate(GeneratorSpec(kind="exp-fractional", n_samples=8, hurst=1.5))
        with pytest.raises(BadSpec):
            generate(GeneratorSpec(kind="constant", n_samples=1))
        with pytest.raises(BadSpec):
            generate(GeneratorSpec(kind="no-such", n_samples=8))
        with pytest.raises(BadSpec):
            generate(GeneratorSpec(kind="constant", n_samples=4, seed=-1))

    def test_size_guard(self):
        # raised before any array of the path's size exists
        for kind in GENERATOR_KINDS[:-1]:
            with pytest.raises(TooLarge):
                generate(GeneratorSpec(kind=kind, n_samples=10**12))
            _validate_spec(GeneratorSpec(kind=kind, n_samples=MAX_SAMPLES))
        too_long = (1.0,) * (MAX_SAMPLES + 1)
        with pytest.raises(TooLarge):
            generate(GeneratorSpec(kind="custom-steps", n_samples=2, values=too_long))
        with pytest.raises(TooLarge):
            generate(GeneratorSpec(kind="custom-steps", n_samples=2, values=(1.0, 2.0), times=too_long))

    def test_deterministic_in_seed(self):
        spec = GeneratorSpec(kind="exp-fractional", n_samples=300, hurst=0.3, seed=11)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.values, b.values)
        c = generate(GeneratorSpec(kind="exp-fractional", n_samples=300, hurst=0.3, seed=12))
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("kind", ["geometric-random-walk", "jump"])
    def test_multiplicative_generators_positive(self, kind):
        for seed in range(25):
            p = generate(GeneratorSpec(kind=kind, n_samples=64, seed=seed))
            assert p.values.min() > 0.0

    def test_exp_fractional_positive_1000_seeds(self):
        # 299 and 63 increments, each the head of a padded power-of-two embedding
        for n, hurst in ((300, 0.5), (64, 0.3)):
            for seed in range(500):
                p = generate(
                    GeneratorSpec(kind="exp-fractional", n_samples=n, hurst=hurst, seed=seed)
                )
                assert p.values.min() > 0.0

    def test_custom_steps(self):
        p = generate(GeneratorSpec(kind="custom-steps", n_samples=0, values=(1.0, 2.0, 0.5)))
        assert list(p.values) == [1.0, 2.0, 0.5]

    def test_spec_json_round_trip(self):
        spec = GeneratorSpec(kind="exp-fractional", n_samples=65, hurst=0.4, sigma=0.25, seed=9)
        again = GeneratorSpec.from_json(spec.to_json())
        assert again == spec
        with pytest.raises(BadSpec):
            GeneratorSpec.from_json('{"kind": "constant", "n_samples": 4, "bogus": 1}')


class TestFractionalNoise:
    @pytest.mark.parametrize("hurst", [0.05, 0.25, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 255, 256, 300])
    def test_covariance_oracle(self, n, hurst):
        A = noise_map(n, hurst)
        assert np.abs(A @ A.T - fgn_covariance(n, hurst)).max() <= 1e-10


class TestDiscretize:
    def test_identity_refinement(self):
        p = generate(GeneratorSpec(kind="geometric-random-walk", n_samples=9, seed=3))
        q = discretize(p, 8)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.times, q.times)

    def test_floor_rule_keeps_final_value(self):
        p = step_path([1.0, 2.0, 3.0, 4.0])
        q = discretize(p, 1)
        assert list(q.values) == [1.0, 4.0]

    def test_constant_stays_constant(self):
        p = step_path([2.0, 2.0, 2.0])
        q = discretize(p, 5)
        assert np.all(q.values == 2.0)

    def test_idempotent(self):
        p = generate(GeneratorSpec(kind="geometric-random-walk", n_samples=50, seed=5))
        q = discretize(p, 7)
        r = discretize(q, 7)
        assert np.array_equal(q.values, r.values)

    def test_nested_grids_subsample_exactly(self):
        p = generate(GeneratorSpec(kind="exp-fractional", n_samples=257, seed=1))
        fine = discretize(p, 64)
        coarse = discretize(p, 16)
        assert np.array_equal(coarse.values, fine.values[::4])

    def test_bad_n(self):
        with pytest.raises(BadSpec):
            discretize(step_path([1.0, 2.0]), 0)


class TestFileRoundTrip:
    def test_examples(self, tmp_path):
        p = generate(GeneratorSpec(kind="exp-fractional", n_samples=40, seed=2))
        f = tmp_path / "p.csv"
        write_path(p, f)
        q = read_path(f)
        assert np.array_equal(p.times, q.times)
        assert np.array_equal(p.values, q.values)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=2, max_size=30))
    def test_round_trip_property(self, values, tmp_path_factory):
        p = step_path(np.asarray(values))
        f = tmp_path_factory.mktemp("io") / "p.csv"
        write_path(p, f)
        q = read_path(f)
        assert np.array_equal(p.times, q.times)
        assert np.array_equal(p.values, q.values)

    def test_header_only_is_parse_error(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("t,x\n")
        with pytest.raises(ParseError):
            read_path(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("time,price\n0,1\n1,2\n")
        with pytest.raises(ParseError):
            read_path(f)

    def test_negative_price(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("t,x\n0.0,1.0\n1.0,-2.0\n")
        with pytest.raises(NonPositiveValue):
            read_path(f)

    def test_malformed_row(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("t,x\n0.0,1.0\noops\n")
        with pytest.raises(ParseError):
            read_path(f)
