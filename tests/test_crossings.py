import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmarket import GeneratorSpec, crossings, generate, grid_crossings
from roughmarket.errors import BadInterval, BadStep
from roughmarket.variation import band_crossings

from conftest import random_positive_path, step_path
from crossing_oracle import crossings as oracle_crossings


class TestCrossings:
    def test_sawtooth(self):
        c = crossings(step_path([1, 0.5, 1.5, 0.5, 1.5]), 0.5, 1.5)
        assert (c.up, c.down) == (2, 1)

    def test_constant(self):
        c = crossings(step_path([1.0, 1.0, 1.0]), 0.5, 1.5)
        assert (c.up, c.down) == (0, 0)

    def test_single_jump(self):
        c = crossings(step_path([0.0, 2.5]), 0.0, 1.0)
        assert (c.up, c.down) == (1, 0)

    def test_gap_through_band_counts(self):
        # entering strictly below a and leaving strictly above b still crosses
        c = crossings(step_path([0.1, 3.0, 0.1, 3.0]), 0.5, 1.0)
        assert c.up == 2
        assert c.down == 1

    def test_bad_interval(self):
        path = step_path([1.0, 2.0])
        with pytest.raises(BadInterval):
            crossings(path, 1.0, 1.0)
        with pytest.raises(BadInterval):
            crossings(path, -0.5, 1.0)

    def test_up_down_differ_by_at_most_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            path = random_positive_path(rng, n_max=60)
            lo = float(rng.uniform(0.0, path.sup))
            hi = lo + float(rng.uniform(1e-3, path.sup))
            c = crossings(path, lo, hi)
            assert abs(c.up - c.down) <= 1


class TestGridCrossings:
    def test_single_jump_two_bands(self):
        g = grid_crossings(step_path([0.0, 2.5]), 1.0)
        assert (g.up, g.down) == (2, 0)

    def test_constant(self):
        g = grid_crossings(step_path([1.0, 1.0]), 0.25)
        assert (g.up, g.down) == (0, 0)

    def test_matches_per_band_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            path = random_positive_path(rng, n_max=50)
            h = float(rng.choice([0.125, 0.25, 0.5, 1.0]))
            g = grid_crossings(path, h)
            band_up, band_down = band_crossings(path, h)
            up = down = 0
            k = 0
            while k * h <= path.sup:
                c = oracle_crossings(path, k * h, (k + 1) * h)
                assert (band_up[k], band_down[k]) == (c.up, c.down)
                up += c.up
                down += c.down
                k += 1
            assert k == len(band_up) == len(band_down)
            assert (g.up, g.down) == (up, down)

    def test_sawtooth_example(self):
        path = step_path([1, 0.5, 1.5, 0.5, 1.5])
        g = grid_crossings(path, 1.0)
        c0 = crossings(path, 0.0, 1.0)
        c1 = crossings(path, 1.0, 2.0)
        assert g.up == c0.up + c1.up
        assert g.down == c0.down + c1.down

    def test_bad_step(self):
        with pytest.raises(BadStep):
            grid_crossings(step_path([1.0, 2.0]), 0.0)

    def test_each_straddled_band_yields_an_upcrossing(self):
        # every up move that contains a full band cell forces one upcrossing
        rng = np.random.default_rng(29)
        for _ in range(60):
            path = random_positive_path(rng, n_max=40)
            h = float(rng.choice([0.25, 0.5, 1.0]))
            straddled = 0
            v = path.values
            for lo, hi in zip(v[:-1], v[1:]):
                if hi > lo and (math.ceil(lo / h) + 1) * h <= hi:
                    straddled += 1
            assert grid_crossings(path, h).up >= straddled


TICKS = (0.1, 0.125, 0.25, 0.3, 1.0)  # dyadic and not; prices on ticks sit on band edges


@st.composite
def ticked_prices(draw):
    """Prices on a tick, with plateaus, zeros and 2-sample and constant paths."""
    tick = draw(st.sampled_from(TICKS))
    levels = st.one_of(st.integers(0, 24).map(lambda k: k * tick), st.floats(0.0, 7.0))
    runs = draw(st.lists(st.tuples(levels, st.integers(1, 3)), min_size=1, max_size=25))
    values = [x for x, repeat in runs for _ in range(repeat)]
    if len(values) < 2:
        values *= 2
    return step_path(values)


class TestKernelMatchesOracle:
    """``crossings`` and ``band_crossings`` share one kernel; the per-band
    scan in ``crossing_oracle`` is the reference for both."""

    @settings(max_examples=300, deadline=None)
    @given(ticked_prices(), st.one_of(st.sampled_from(TICKS), st.floats(0.05, 2.0)))
    def test_band_crossings(self, path, h):
        up, down = band_crossings(path, h)
        expected = [oracle_crossings(path, k * h, (k + 1) * h) for k in range(len(up))]
        assert len(up) == math.floor(path.sup / h) + 1
        assert up.tolist() == [c.up for c in expected]
        assert down.tolist() == [c.down for c in expected]

    @settings(max_examples=300, deadline=None)
    @given(
        ticked_prices(),
        st.one_of(st.just(0.0), st.sampled_from(TICKS), st.floats(0.0, 7.0)),
        st.one_of(st.sampled_from(TICKS), st.floats(1e-6, 4.0), st.just(math.inf)),
    )
    def test_crossings(self, path, a, width):
        assert crossings(path, a, a + width) == oracle_crossings(path, a, a + width)

    def test_many_bands_in_one_pass(self):
        # 2^20 - 15 bands on a 4097-sample path; a dense pass over every band
        # at every sample took about 20 s
        h = 2.0**-20
        noise = generate(GeneratorSpec(kind="exp-fractional", n_samples=4097, sigma=0.5, seed=5))
        values = np.round(noise.values / noise.sup * (2**20 - 16)) * h
        path = step_path(values)
        t0 = time.perf_counter()
        up, down = band_crossings(path, h)
        elapsed = time.perf_counter() - t0
        assert len(up) == 2**20 - 15
        for k in np.random.default_rng(37).integers(0, len(up), size=8).tolist():
            c = oracle_crossings(path, k * h, (k + 1) * h)
            assert (up[k], down[k]) == (c.up, c.down)
        assert elapsed < 5.0
