import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmarket import (
    GeneratorSpec,
    PricePath,
    discretize,
    generate,
    make_path,
    read_path,
    write_path,
)
from roughmarket.errors import BadSpec, BadTimeGrid, NonPositiveValue, ParseError, TooLarge
from roughmarket import paths
from roughmarket.paths import (
    GENERATOR_KINDS,
    MAX_SAMPLES,
    _fgn_spectrum,
    _validate_spec,
    fractional_gaussian_noise,
)

from conftest import step_path
from fgn_oracle import UnitDraws, fgn_covariance, noise_map


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

    @pytest.mark.parametrize(
        "times, values, equal",
        [
            ([0, 0.5, 1], [1, 2, 1], True),  # a twin built anew
            ([0, 0.5, 1], [1, 2, 1.5], False),
            ([0, 0.25, 1], [1, 2, 1], False),
            ([0, 1], [1, 1], False),
        ],
    )
    def test_equality_compares_the_samples(self, times, values, equal):
        p = make_path([0, 0.5, 1], [1, 2, 1], 1)
        q = make_path(times, values, 1)
        assert (p == q, q == p, p != q) == (equal, equal, not equal)
        with pytest.raises(TypeError):  # not hashable, equal or not
            hash(q)

    @pytest.mark.parametrize("other", [None, 1.0, (np.array([0.0, 1.0]), np.array([1.0, 1.0])), "path"])
    def test_a_non_path_is_never_equal(self, other):
        p = make_path([0, 1], [1, 1], 1)
        assert p.__eq__(other) is NotImplemented
        assert not (p == other) and p != other

    def test_step_evaluation(self):
        p = make_path([0, 0.25, 1], [1, 2, 3], 1)
        assert p.value_at(0.0) == 1.0
        assert p.value_at(0.1) == 1.0
        assert p.value_at(0.25) == 2.0
        assert p.value_at(1.0) == 3.0
        assert p.value_at([0.1, 1.0]).tolist() == [1.0, 3.0]
        for t in (1.5, -0.1, math.nan, [0.2, math.nan], [math.nan, 1.5]):
            with pytest.raises(BadTimeGrid):
                p.value_at(t)


class TestPricePathValidation:
    """Every check keeps its error class and message, in this order: shape,
    non-finite entries, first time, order, sign."""

    @staticmethod
    def raised(times, values):
        with pytest.raises((BadTimeGrid, NonPositiveValue)) as e:
            PricePath(np.asarray(times, dtype=float), np.asarray(values, dtype=float))
        return type(e.value), str(e.value)

    def test_errors_and_their_order(self):
        nan, inf = math.nan, math.inf
        cases = [
            ([[0.0, 1.0]], [[1.0, 1.0]], BadTimeGrid, "times and values must be one-dimensional"),
            ([0.0, 1.0], [1.0, 1.0, 1.0], BadTimeGrid, "times and values must have equal length"),
            ([0.0], [1.0], BadTimeGrid, "a path needs at least two samples"),
            ([0.0, nan, 1.0], [1.0, 1.0, 1.0], BadTimeGrid, "non-finite entries"),
            ([0.0, 1.0, inf], [1.0, 1.0, 1.0], BadTimeGrid, "non-finite entries"),
            ([0.0, 1.0], [1.0, -inf], BadTimeGrid, "non-finite entries"),
            ([0.0, 1.0], [nan, 1.0], BadTimeGrid, "non-finite entries"),
            # non-finite before first time, order and sign
            ([0.5, 0.25, nan], [-1.0, 1.0, 1.0], BadTimeGrid, "non-finite entries"),
            ([1.0, 0.5], [-1.0, nan], BadTimeGrid, "non-finite entries"),
            ([0.5, 1.0], [1.0, 1.0], BadTimeGrid, "first time must be 0"),
            ([-0.0, 1.0], [1.0, 1.0], None, None),  # -0.0 == 0.0
            # first time before order and sign
            ([1.0, 0.5], [-1.0, 1.0], BadTimeGrid, "first time must be 0"),
            ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], BadTimeGrid, "times must be strictly increasing"),
            ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], BadTimeGrid, "times must be strictly increasing"),
            ([0.0, -1.0], [1.0, 1.0], BadTimeGrid, "times must be strictly increasing"),
            # order before sign
            ([0.0, 1.0, 1.0], [1.0, -1.0, 1.0], BadTimeGrid, "times must be strictly increasing"),
            ([0.0, 1.0], [1.0, -5e-324], NonPositiveValue, "price samples must be >= 0"),
            ([0.0, 1.0, 2.0], [-1.0, 2.0, 3.0], NonPositiveValue, "price samples must be >= 0"),
        ]
        for times, values, error, message in cases:
            if error is None:
                PricePath(np.asarray(times), np.asarray(values))
            else:
                assert self.raised(times, values) == (error, message), (times, values)

    def test_accepted_edges(self):
        # a subnormal step is still an increase; -0.0 is a price >= 0
        p = PricePath(np.array([0.0, 5e-324, 1.0]), np.array([-0.0, 0.0, 1e308]))
        assert p.times[1] == 5e-324
        assert math.copysign(1.0, p.values[0]) == -1.0
        PricePath(np.array([0.0, 1e308]), np.array([1.0, 1.0]))
        with pytest.raises(BadTimeGrid, match="strictly increasing"):
            PricePath(np.array([0.0, 5e-324, 5e-324]), np.ones(3))

    def test_inputs_are_copied_and_frozen(self):
        times = np.array([0.0, 0.5, 1.0])
        values = np.array([1.0, 2.0, 3.0])
        p = PricePath(times, values)
        assert not np.shares_memory(p.times, times) and not np.shares_memory(p.values, values)
        assert times.flags.writeable and values.flags.writeable
        times[1] = 0.75
        values[0] = 9.0
        assert list(p.times) == [0.0, 0.5, 1.0] and list(p.values) == [1.0, 2.0, 3.0]
        for a in (p.times, p.values):
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        q = PricePath([0, 1], [1, 2])  # lists and integers become float64 arrays
        assert q.times.dtype == np.float64 and q.values.dtype == np.float64


# sha256 (first 16 hex digits) of times.tobytes() + values.tobytes(), recorded
# before generate built its RNG only for the kinds that draw (numpy 2.4's
# Generator streams)
GENERATED = [
    ("8b13c5aa13f59326", dict(kind="constant", n_samples=5, level=2.5)),
    ("eb5c24fd1300f2f3", dict(kind="constant", n_samples=101, horizon=0.5)),
    ("275afd971ac1853e", dict(kind="linear-drift", n_samples=3, eps=1.0)),
    ("a91589d6257a7b9e", dict(kind="linear-drift", n_samples=101, eps=-1.0, horizon=0.5, seed=9)),
    ("0b9b780010d99c13", dict(kind="geometric-random-walk", n_samples=2, seed=0)),
    ("bf549920abfeb1a0", dict(kind="geometric-random-walk", n_samples=101, seed=7, sigma=0.4, drift=0.1)),
    ("edc78f9c10f0e2b0", dict(kind="exp-fractional", n_samples=2, seed=1, hurst=0.3)),
    ("bd3db58e7c32f539", dict(kind="exp-fractional", n_samples=257, seed=7, hurst=0.4, sigma=0.5)),
    ("422adbd9b7295d45", dict(kind="jump", n_samples=3, seed=2)),
    (
        "671e24e60b3b72f2",
        dict(kind="jump", n_samples=101, seed=7, jump_rate=30.0, jump_mean=0.01, jump_sigma=0.2),
    ),
    ("035e2ee23a67e731", dict(kind="custom-steps", n_samples=0, values=(1.0, 2.0, 0.5))),
    (
        "2029c17b963797bd",
        dict(kind="custom-steps", n_samples=0, values=(1.0, 0.0, 3.0), times=(0.0, 0.25, 2.0), horizon=2.0),
    ),
]


def generated_digest(spec: dict) -> str:
    p = generate(GeneratorSpec(**spec))
    return hashlib.sha256(p.times.tobytes() + p.values.tobytes()).hexdigest()[:16]


class TestGeneratePins:
    @pytest.mark.parametrize(
        "digest, spec", GENERATED, ids=[f"{d['kind']}-{d['n_samples']}" for _, d in GENERATED]
    )
    def test_values_are_unchanged(self, digest, spec):
        assert generated_digest(spec) == digest

    def test_deterministic_kinds_build_no_rng(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        for digest, spec in GENERATED:
            if spec["kind"] in ("constant", "linear-drift", "custom-steps"):
                assert generated_digest(spec) == digest
            else:
                with pytest.raises(AssertionError, match="default_rng called"):
                    generate(GeneratorSpec(**spec))

    def test_type_verdicts(self):
        ok = [
            dict(n_samples=np.int64(3)),
            dict(seed=np.uint64(2**64 - 1)),
            dict(horizon=2),
            dict(level=np.float32(1.5)),
            dict(start=np.int8(1)),
            dict(eps=2**1023),
            dict(eps=2**1024 - 2**970 - 1),  # float() rounds it down to float64's largest
            dict(values=(1.0, 2, np.float32(0.5), 2**1023)),
        ]
        for fields in ok:
            _validate_spec(GeneratorSpec(**{"kind": "constant", "n_samples": 3, **fields}))
        bad = [
            (dict(n_samples=3.0), "n_samples must be an integer, got 3.0"),
            (dict(n_samples=True), "n_samples must be an integer, got True"),
            (dict(seed=np.float64(1.0)), "seed must be an integer, got np.float64(1.0)"),
            (dict(horizon=False), "horizon must be a number, got False"),
            (dict(level="1"), "level must be a number, got '1'"),
            (dict(eps=2**1024), f"eps must be a number, got {2**1024}"),
            # float() rounds it up to 2^1024, and raises OverflowError
            (dict(horizon=2**1024 - 2**970), f"horizon must be a number, got {2**1024 - 2**970}"),
            (dict(jump_sigma=None), "jump_sigma must be a number, got None"),
            (dict(n_samples=3.5, horizon="x"), "n_samples must be an integer, got 3.5"),
            (dict(values=(1.0, True)), "values must hold numbers only"),
            (dict(values=(1.0, 2**1024)), "values must hold numbers only"),
            (dict(times=(0.0, 1.0, True)), "times must hold numbers only"),
        ]
        for fields, message in bad:
            with pytest.raises(BadSpec) as e:
                _validate_spec(GeneratorSpec(**{"kind": "constant", "n_samples": 3, **fields}))
            assert str(e.value) == message

    @pytest.mark.parametrize("key", ["values", "times"])
    def test_mixed_sequences_keep_their_verdicts(self, key):
        # every sequence gets the verdict of checking each element with
        # _is_number
        elements = [
            1.5, math.nan, -0.0, 2, 2**1023, 2**1024, -(2**1024), True, False, np.bool_(True),
            np.float32(0.5), np.float64(math.inf), np.int64(3), np.uint8(7), "1.0", None, 1 + 0j,
        ]
        rng = np.random.default_rng(11)
        seqs = [(1.0, x) for x in elements] + [(x, 2.0, 3.0) for x in elements]
        seqs += [tuple(rng.choice(np.array(elements, dtype=object), size=4)) for _ in range(200)]
        for seq in seqs:
            spec = GeneratorSpec(kind="custom-steps", n_samples=2, **{key: seq})
            if all(paths._is_number(x) for x in seq):
                paths._check_types(spec)
            else:
                with pytest.raises(BadSpec, match=f"{key} must hold numbers only"):
                    paths._check_types(spec)


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


class TestSpectrumCache:
    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 3, 100, 256, 257, 4096, 5000])
    def test_cold_warm_and_uncached_agree(self, n, hurst, monkeypatch):
        _fgn_spectrum.cache_clear()
        cold = fractional_gaussian_noise(n, hurst, np.random.default_rng(n))
        warm = fractional_gaussian_noise(n, hurst, np.random.default_rng(n))
        assert _fgn_spectrum.cache_info().hits == 1
        monkeypatch.setattr(paths, "_SPECTRUM_CACHE_MAX", 0)
        uncached = fractional_gaussian_noise(n, hurst, np.random.default_rng(n))
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, uncached)

    def test_cached_factors_are_read_only(self):
        _s0, _sM, half = _fgn_spectrum(64, 0.3)
        assert not half.flags.writeable
        with pytest.raises(ValueError):
            half[0] = 1.0

    def test_failures_are_not_cached(self):
        # hurst > 1 is no covariance: the embedding fails before any draw
        size = _fgn_spectrum.cache_info().currsize
        for _ in range(2):
            draws = UnitDraws()
            with pytest.raises(BadSpec):
                fractional_gaussian_noise(64, 1.5, draws)
            assert draws.used == 0
        assert _fgn_spectrum.cache_info().currsize == size

    def test_long_paths_bypass_the_cache(self):
        fractional_gaussian_noise(100, 0.3, np.random.default_rng(0))  # a warm cache
        info = _fgn_spectrum.cache_info()
        n = paths._SPECTRUM_CACHE_MAX + 1
        x = fractional_gaussian_noise(n, 0.3, np.random.default_rng(0))
        assert x.shape == (n,)
        after = _fgn_spectrum.cache_info()
        assert (after.currsize, after.misses) == (info.currsize, info.misses)

    def test_covariance_oracle_on_a_warm_cache(self):
        n, hurst = 300, 0.35
        fractional_gaussian_noise(n, hurst, np.random.default_rng(0))
        hits = _fgn_spectrum.cache_info().hits
        A = noise_map(n, hurst)
        assert _fgn_spectrum.cache_info().hits > hits
        assert np.abs(A @ A.T - fgn_covariance(n, hurst)).max() <= 1e-10


class TestDiscretize:
    def test_identity_refinement(self):
        p = generate(GeneratorSpec(kind="geometric-random-walk", n_samples=9, seed=3))
        q = discretize(p, 8)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.times, q.times)

    def test_a_path_on_its_own_grid_is_returned_as_is(self):
        for spec in (dict(kind="geometric-random-walk", n_samples=9), dict(kind="exp-fractional", n_samples=4097)):
            p = generate(GeneratorSpec(seed=3, **spec))
            assert discretize(p, p.n_samples - 1) is p
            assert discretize(p, p.n_samples - 2) is not p
        p = step_path([1.0, 3.0, 2.0, 5.0], T=3.0)
        assert discretize(p, 3) is p

    def test_any_other_grid_is_resampled(self):
        n = 9
        grid = np.arange(n) / (n - 1)
        for times in (
            grid**2,  # same length, not uniform
            np.where(np.arange(n) == 4, np.nextafter(grid, 1.0), grid),  # one ulp off
            np.where(np.arange(n) == 0, -0.0, grid),  # equal, but not bit for bit
        ):
            p = PricePath(times, np.arange(1.0, n + 1.0))
            q = discretize(p, n - 1)
            assert q is not p
            assert q.times.tobytes() == grid.tobytes()
            idx = np.searchsorted(p.times, grid, side="right") - 1
            assert np.array_equal(q.values, p.values[idx])

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

    @pytest.mark.parametrize("N", [2.5, 4.0, np.float64(8.0), True, False, "8", None])
    def test_n_must_be_an_integer(self, N):
        with pytest.raises(BadSpec):
            discretize(step_path([1.0, 2.0]), N)

    @pytest.mark.parametrize("N", [MAX_SAMPLES, 2**40, np.int64(2**62)])
    def test_n_past_the_sample_limit_is_refused_before_allocating(self, N):
        with pytest.raises(TooLarge):
            discretize(step_path([1.0, 2.0]), N)

    def test_n_at_the_sample_limit_runs(self):
        assert discretize(step_path([1.0, 2.0]), MAX_SAMPLES - 1).n_samples == MAX_SAMPLES

    # digests as in GENERATED, recorded before discretize checked N
    @pytest.mark.parametrize(
        "digest, N",
        [
            ("5e5de1dbe5ada7b0", 1),
            ("02f08807003e61e0", 7),
            ("1f0098b6a57828c3", 64),
            ("bd05ee4f00ddb67d", 300),
            ("583647acf0b3b0b9", np.int64(100)),
            ("67911d1a5f233875", np.int32(5)),
        ],
    )
    def test_valid_n_keeps_its_bytes(self, digest, N):
        p = generate(GeneratorSpec(kind="exp-fractional", n_samples=257, seed=1))
        q = discretize(p, N)
        assert hashlib.sha256(q.times.tobytes() + q.values.tobytes()).hexdigest()[:16] == digest


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
