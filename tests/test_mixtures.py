import dataclasses
import math
import pickle
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmarket import (
    GeneratorSpec,
    GridLevel,
    GridStrategyMixture,
    VariationFunctional,
    crossing_explosion_mixture,
    doob_strategy,
    generate,
    grid_crossings,
    make_path,
    run_mixture,
    run_simple,
    unboundedness_mixture,
    verify_prop3_bound,
    volatility_mixture,
)
from roughmarket.errors import (
    BadPosition,
    BadSpec,
    BadWeights,
    BoundViolated,
    ConfigError,
    InadmissiblePhi,
    NegativeComponent,
    TooLarge,
    TruncationUnsafe,
)
from roughmarket import ExperimentConfig, mixtures, run_experiment
from roughmarket.experiments import report_canonical_bytes
from roughmarket.mixtures import _resolve_scale_cut, prop3_initial_capital
from roughmarket.strategies import self_financing

from conftest import random_positive_path, step_path
from grid_held import doob_grid_held
from grid_oracle import doob_grid_events
from strategy_oracle import (
    crossing_components,
    grid_components,
    run_components,
    unboundedness_components,
)
from strategy_oracle import run_simple as oracle_run

SAW = step_path([0.0, 1.0, 0.0, 1.0])
P25 = VariationFunctional.power(2.5)


@dataclasses.dataclass(frozen=True)
class HeldMixture:
    """A mixture that holds a fixed position: run_mixture's checks on their own."""

    held: tuple
    total_initial: float
    descriptor: str = "held"

    def position(self, path):
        return np.array(self.held, dtype=np.float64)


class TestRunMixture:
    def test_single_component_equals_run_simple(self):
        # a band that never reaches its cap 2^20 is the band strategy, scaled
        path = step_path([1, 0.5, 1.5, 0.5, 1.5])
        w = 2.0**-20
        mt = run_mixture(crossing_explosion_mixture([(0.5, 1.5)], [w]), path)
        band = run_simple(doob_strategy(0.5, 1.5), path)
        assert np.array_equal(mt.capital, w * band.capital)
        assert np.array_equal(mt.position, w * band.position)

    def test_two_idle_components_sum_constant(self):
        # a start at 8 is at or above every threshold 2^m, m <= 3: none holds
        mix = unboundedness_mixture(3)
        trace = run_mixture(mix, step_path([8.0, 9.0, 0.1]))
        assert np.all(trace.position == 0.0)
        assert np.all(trace.capital == 0.875)
        assert mix.total_initial == 0.875

    def test_doob_component_floor_at_zero(self):
        mix = crossing_explosion_mixture([(0.5, 1.5)], [1.0])
        trace = run_mixture(mix, step_path([1.0, 0.5, 0.0]))
        assert trace.min_capital >= 0.0
        assert trace.final_capital == 0.0

    def test_negative_component_detected(self):
        # one unit held on 0.1 of capital: a drop of 0.5 takes it to -0.4
        with pytest.raises(NegativeComponent):
            run_mixture(HeldMixture((1.0, 1.0), 0.1), step_path([1.0, 0.5]))

    def test_nonpositive_weight_rejected(self):
        for w in (0.0, -1.0, math.nan):
            with pytest.raises(BadWeights):
                crossing_explosion_mixture([(0.5, 1.5)], [w])

    def test_tail_capital_is_constant_offset(self):
        levels = (GridLevel(0, 1, 4, 0.25), GridLevel(1, 0, 2, 0.5))
        with_tail = run_mixture(GridStrategyMixture(levels, 0.5), step_path([1.0, 0.25, 2.0]))
        without = run_mixture(GridStrategyMixture(levels, 0.0), step_path([1.0, 0.25, 2.0]))
        assert np.array_equal(with_tail.position, without.position)
        assert np.array_equal(with_tail.capital, without.capital + 0.5)
        assert with_tail.initial_capital == without.initial_capital + 0.5

    def test_summed_position_overflow_raises(self):
        # 1 / 5e-324 units is inf, and a gain of +inf then -inf is NaN: the
        # error says so without a numpy warning on the way
        cases = [
            (unboundedness_mixture(5), [5e-324, 5e-324, 1.0]),
            (HeldMixture((1e308, 1e308, 0.0), 1.0), [0.0, 1.7e308, 0.0]),
            # a gain past float64 with no inf - inf after it: the capital is +inf
            (unboundedness_mixture(1023), [1e-300, 1e300, 0.0]),
        ]
        for mix, values in cases:
            with warnings.catch_warnings(), pytest.raises(BadPosition):
                warnings.simplefilter("error", RuntimeWarning)
                run_mixture(mix, step_path(values))

    def test_negative_tolerance_scales_with_peak_capital(self):
        # every component holds x_t / x_0 >= 0 throughout, but the capital
        # peaks near 5.7e12 and its cancellation error ends it near -4.7e-5
        values = [
            1.0554648250568559e-15, 1.8427167355327143e-14, 1.5378584204794957e-12,
            0.006234629771751824, 1.7443210769217028e-11, 9.058564947385305e-24,
            1.6700357793092533e-19, 3.0490453717267307e-20, 4.09139149079932e-38,
            9.053042812845577e-46, 4.084028168586873e-66, 3.1685603880657266e-50,
            1.5655055322263901e-62, 3.400053756775931e-62, 1.7754524460769056e-72,
            8.945476376041591e-77, 2.160377739593947e-77, 1.1613088993801351e-76,
            1.9621583487633187e-77, 7.14446677240027e-82, 6.464419303249255e-92,
            5.298338039794515e-102, 1.505728487320914e-95,
        ]
        trace = run_mixture(unboundedness_mixture(5), step_path(values))
        peak = np.abs(trace.capital).max()
        assert peak > 1e12
        assert trace.min_capital < -1e-9  # beyond an absolute tolerance of 1e-9
        assert trace.final_capital == pytest.approx(0.0, abs=1e-9 * peak)

    def test_held_value_overflow_is_inf_cash(self):
        # 1e308 units at price 2 are worth more than float64 holds
        trace = run_mixture(HeldMixture((1e308,) * 3, 1.0), step_path([1.0, 1.0, 2.0]))
        assert trace.final_capital == 1e308 and trace.cash[-1] == -math.inf


@st.composite
def family_cases(draw):
    """(mixture, its oracle components, path) for the two countable families."""
    if draw(st.booleans()):
        values = [v / 64.0 for v in draw(st.lists(st.integers(0, 1024), min_size=2, max_size=40))]
        level = st.integers(0, 320).map(lambda k: k / 64.0)
    else:
        price = st.one_of(st.just(0.0), st.floats(1e-3, 16.0))
        values = draw(st.lists(price, min_size=2, max_size=40))
        level = st.floats(0.0, 5.0, allow_subnormal=False)
    if draw(st.booleans()):
        values[0] = 0.0  # a zero start
    path = step_path(values)
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        return unboundedness_mixture(m), unboundedness_components(m, values[0]), path
    n = draw(st.integers(1, 4))
    lows = draw(st.lists(level, min_size=n, max_size=n))
    intervals = [(a, a + draw(st.integers(1, 128)) / 64.0) for a in lows]
    # cap n/w: reached at t = 0 (a >= n/w), mid-path, or never (w = 2^-20)
    share = st.sampled_from([1.0, 0.5, 0.25, 0.125, 1.0 / 3.0, 2.0**-20])
    weights = [draw(share) / n for _ in range(n)]
    mix = crossing_explosion_mixture(intervals, weights)
    return mix, crossing_components(intervals, weights), path


def exp_fractional_path(n, tick=2.0**-16):
    spec = GeneratorSpec(kind="exp-fractional", n_samples=n, hurst=0.5, sigma=0.5, seed=7)
    path = generate(spec)
    return path.with_values(np.round(path.values / tick) * tick)


class TestFamiliesAgainstOracle:
    """run_mixture's one route against the per-component route of the oracle."""

    @staticmethod
    def assert_same(mix, components, path):
        got = run_mixture(mix, path)
        want = run_components(components, path)
        assert got.initial_capital == want.initial_capital == mix.total_initial
        for name in ("capital", "position", "cash"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        return got

    @settings(max_examples=300, deadline=None)
    @given(family_cases())
    def test_matches_per_component_route(self, case):
        self.assert_same(*case)

    @pytest.mark.parametrize("m_max", [10, 1023])
    def test_unboundedness_4097_samples(self, m_max):
        # x^64 of the path ranges over about 2^-48..2^11; reversed, it starts low
        values = exp_fractional_path(4097).values ** 64
        for path in (step_path(values), step_path(values[::-1])):
            mix = unboundedness_mixture(m_max)
            trace = self.assert_same(mix, unboundedness_components(m_max, path.values[0]), path)
            assert np.unique(trace.position).size > 2  # thresholds are crossed mid-path

    def test_crossing_4097_samples(self):
        # prices in about [37.7, 72.5], 24 bands, caps 64 and 2^20 in turn:
        # two caps are reached at t = 0, five mid-path and the rest never
        path = exp_fractional_path(4097)
        path = path.with_values(path.values * 64.0)
        edges = np.linspace(path.values.min(), path.values.max(), 25).tolist()
        intervals = list(zip(edges, edges[1:]))
        weights = [1.0 / 64.0, 2.0**-20] * 12
        trace = self.assert_same(
            crossing_explosion_mixture(intervals, weights),
            crossing_components(intervals, weights),
            path,
        )
        assert trace.final_capital > trace.initial_capital


class TestVolatilityMixtureConstruction:
    def test_inadmissible_gauges_rejected(self):
        with pytest.raises(InadmissiblePhi):
            volatility_mixture(VariationFunctional.power(2.0), 0, j_policy=6)
        with pytest.raises(InadmissiblePhi):
            volatility_mixture(VariationFunctional.taylor_psi(), 0, j_policy=6)

    def test_truncation_unsafe(self):
        with pytest.raises(TruncationUnsafe):
            volatility_mixture(P25, 0)

    def test_prop1_initial_capital_bound(self):
        for L in (0, 1, 2):
            mix = volatility_mixture(P25, L, j_policy=8)
            assert mix.total_initial <= 2.0 ** (L - 1) + 1e-12

    def test_prop1_weights_normalized(self):
        mix = volatility_mixture(P25, 1, j_policy=6)
        # cell_weight = w(j) / 2^(L+j), so the scale weights w(j) must sum to 1
        total_w = sum(
            lv.cell_weight * 2.0 ** (lv.level_exp + lv.scale_exp) for lv in mix.levels
        )
        assert total_w == pytest.approx(1.0, rel=1e-12)

    def test_prop3_exact_initial_capital(self):
        for eps, delta in ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)):
            for l_top in (0, 1, 3):
                for cut in (3, 9):
                    mix = volatility_mixture(
                        None, l_top, j_policy=cut, kind="prop3", eps=eps, delta=delta
                    )
                    assert mix.total_initial == pytest.approx(
                        prop3_initial_capital(eps, delta), rel=1e-12
                    )
                    assert mix.total_initial <= 1.0

    def test_prop3_param_validation(self):
        with pytest.raises(ValueError):
            volatility_mixture(None, 0, j_policy=4, kind="prop3", eps=-1.0, delta=1.0)
        with pytest.raises(ValueError):
            volatility_mixture(P25, 0, j_policy=4, kind="prop3", eps=1.0, delta=1.0)
        with pytest.raises(ValueError):
            volatility_mixture(None, 0, j_policy=4, kind="nope")

    def test_cell_budget_lowers_cut(self, monkeypatch):
        # one size class L = 0: scales 0..cut hold 2^(cut+1) - 1 cells
        monkeypatch.setattr(mixtures, "CELL_BUDGET", 2**10)
        cut = _resolve_scale_cut(20, None, 0, [(0, 0)])
        assert cut == 9  # 2^10 - 1 cells; scale 10 would exceed the budget
        monkeypatch.undo()
        assert volatility_mixture(P25, 0, j_policy=20).scale_cut == 20

    def test_huge_cut_request_meets_the_budget_at_once(self):
        # the budget of 2^25 cells holds scales 0..24 of class L = 0 and
        # 0..19 of class L = 5; a cut of 10^300 is clamped before the loop
        # that steps down one scale at a time
        assert _resolve_scale_cut(10**300, None, 0, [(0, 0)]) == 24
        assert _resolve_scale_cut(10**300, None, 0, [(5, 0)]) == 19

    def test_a_huge_sup_resolves_its_cut_at_once(self):
        # L_top = 499 puts the floor at -497, and the budget steps the cut
        # down from 26 to -476, with 500 classes to count at every step
        path = make_path([0, 0.5, 1], [1, 1 + 2**-20, 1e150], 1.0)
        t0 = time.perf_counter()
        report = verify_prop3_bound(path, 0.01, 0.01, 2)
        assert time.perf_counter() - t0 < 0.5
        assert report.scale_cut == -476

    @pytest.mark.parametrize(
        "class_lows",
        [[(0, 0)], [(5, 0)], [(L, 2 - L) for L in range(4)], [(L, 2 - L) for L in range(9)], [(3, -3), (0, 5)]],
        ids=str,
    )
    def test_cell_count_is_the_explicit_sum(self, class_lows):
        for cut in range(-12, 16):
            explicit = sum(1 << (L + j) for L, j_lo in class_lows for j in range(j_lo, cut + 1))
            assert mixtures._n_cells(class_lows, cut) == explicit

    def test_prop1_level_past_int64_rejected(self):
        with pytest.raises(TooLarge):
            volatility_mixture(P25, 63, j_policy=4)
        assert volatility_mixture(P25, 62, j_policy=4).scale_cut == 0

    def test_scale_cut_from_path_hint(self):
        mix = volatility_mixture(P25, 0, path_hint=SAW)
        # smallest move 1 keeps every scale coarser than 1/4
        assert mix.scale_cut == 2

    def test_subnormal_move_hits_the_cell_budget(self):
        # 4 / 2^-1030 overflows; the derived cut is 1032, and the budget lowers it
        tiny = step_path([2.0**-1030, 0.0, 1.0])
        mix = volatility_mixture(None, 0, path_hint=tiny, kind="prop3", eps=1.0, delta=1.0)
        assert 20 < mix.scale_cut < 64


def prop3(l_top, **kw):
    return volatility_mixture(
        None, l_top, kind="prop3", **{"j_policy": 6, "eps": 1.0, "delta": 0.5, **kw}
    )


class TestMixtureTables:
    def test_equal_parameters_share_one_table(self):
        assert prop3(1) is prop3(1)
        assert volatility_mixture(P25, 1, j_policy=6) is volatility_mixture(P25, 1, j_policy=6)
        # the cut is the key, not the way it was reached
        assert volatility_mixture(P25, 0, path_hint=SAW) is volatility_mixture(P25, 0, j_policy=2)

    def test_changed_parameters_give_another_table(self, monkeypatch):
        base = prop3(1)
        for other in (prop3(2), prop3(1, eps=0.5), prop3(1, delta=1.0), prop3(1, j_policy=5)):
            assert other != base
        base1 = volatility_mixture(P25, 1, j_policy=6)
        for other in (
            volatility_mixture(VariationFunctional.power(3.0), 1, j_policy=6),
            volatility_mixture(P25, 2, j_policy=6),
            volatility_mixture(P25, 1, j_policy=5),
            volatility_mixture(P25, 1, j_policy=6, path_hint=SAW),  # cut 2
        ):
            assert other != base1
        monkeypatch.setattr(mixtures, "CELL_BUDGET", 2**5)
        assert volatility_mixture(P25, 1, j_policy=6).scale_cut == 3
        assert prop3(1).scale_cut < base.scale_cut

    @pytest.mark.parametrize(
        "call, error",
        [
            # an inadmissible gauge before an L past int64
            (lambda: volatility_mixture(VariationFunctional.power(2.0), 63, j_policy=4), InadmissiblePhi),
            # an L past int64 before a missing cut
            (lambda: volatility_mixture(P25, 63), TooLarge),
            # a gauge that vanishes on every active scale, after the cut
            (
                lambda: volatility_mixture(
                    VariationFunctional.from_table((0.0, 1.0, 2.0), (0.0, 0.0, 1.0)), 0, j_policy=4
                ),
                InadmissiblePhi,
            ),
            # an unknown kind before bad prop3 parameters
            (lambda: volatility_mixture(None, 0, kind="nope", eps=-1.0), ConfigError),
            # bad eps before a wrong gauge
            (lambda: volatility_mixture(P25, 0, j_policy=4, kind="prop3", eps=-1.0, delta=1.0), BadWeights),
            # a wrong gauge before a missing cut
            (lambda: volatility_mixture(P25, 0, kind="prop3", eps=1.0, delta=1.0), InadmissiblePhi),
            # weights that overflow float64, raised by the table
            (lambda: prop3(0, eps=2000.0), BadWeights),
        ],
    )
    def test_errors_keep_their_precedence(self, call, error):
        for cache in (mixtures._admissibility, mixtures._prop1_table, mixtures._prop3_table):
            cache.cache_clear()
        for _ in range(3):  # cold, then with whatever the first call cached
            with pytest.raises(error):
                call()

    @pytest.mark.parametrize("kind", ["prop1-check", "prop3-check"])
    def test_reports_cold_and_warm(self, kind):
        config = ExperimentConfig(kind=kind, seeds=(1, 2))
        mixtures._prop1_table.cache_clear()
        mixtures._prop3_table.cache_clear()
        cold = report_canonical_bytes(run_experiment(config))
        warm = report_canonical_bytes(run_experiment(config))
        assert cold == warm
        assert mixtures._prop1_table.cache_info().hits + mixtures._prop3_table.cache_info().hits


class TestRunPlan:
    """A grid mixture builds run_mixture's inputs once; they are no fields."""

    def test_built_once_per_mixture(self, monkeypatch):
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=257, seed=4, sigma=0.5))
        mix = volatility_mixture(None, 1, path_hint=path, kind="prop3", eps=0.5, delta=0.5)
        first = run_mixture(mix, path)
        calls = []
        grid_rows = mixtures._grid_rows
        monkeypatch.setattr(mixtures, "_grid_rows", lambda *a: calls.append(a) or grid_rows(*a))
        cached = volatility_mixture(None, 1, path_hint=path, kind="prop3", eps=0.5, delta=0.5)
        assert cached is mix
        again = run_mixture(cached, path)
        assert calls == []
        for name in ("capital", "position", "cash"):
            assert np.array_equal(getattr(first, name), getattr(again, name))
        assert again.initial_capital == mix.total_initial
        cells = math.fsum(lv.initial_capital for lv in mix.levels)
        assert mix.total_initial == cells + mix.analytic_tail_capital
        rows, weights = mix._run_plan
        for a in (*rows, weights):
            assert not a.flags.writeable

    def test_plan_is_not_a_field(self):
        levels = (GridLevel(0, 1, 2, 0.25), GridLevel(0, 0, 1, 0.5), GridLevel(1, 1, 4, 0.125))
        built = GridStrategyMixture(levels=levels, analytic_tail_capital=0.125)
        fresh = GridStrategyMixture(levels=levels, analytic_tail_capital=0.125)
        run_mixture(built, step_path([0.5, 1.25, 0.0, 2.0]))
        assert "_run_plan" in vars(built) and "_run_plan" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert [f.name for f in dataclasses.fields(built)] == [
            "levels", "analytic_tail_capital", "descriptor", "scale_cut"
        ]
        (row, js, caps), weights = built._run_plan
        # grouped by scale in order of first appearance, then in mixture order
        assert row.tolist() == [0, 0, 1] and js.ravel().tolist() == [1, 0]
        assert caps.ravel().tolist() == [2.0, 4.0, 1.0] and weights.ravel().tolist() == [0.25, 0.125, 0.5]
        again = pickle.loads(pickle.dumps(built))
        assert again == built
        assert np.array_equal(again._run_plan[1], weights)


class TestGridAgainstExplicit:
    def test_prop1_trace_equality(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            path = random_positive_path(rng, n_max=30, sigma=0.4)
            mix = volatility_mixture(P25, 1, j_policy=5, kind="prop1")
            fast = run_mixture(mix, path)
            cap = np.zeros(path.n_samples)
            pos = np.zeros(path.n_samples)
            for w, strat, _cap in grid_components(mix):
                t = run_simple(strat, path)
                cap += w * t.capital
                pos += w * t.position
            assert np.allclose(fast.capital, cap, atol=1e-10)
            assert np.allclose(fast.position, pos, atol=1e-10)

    def test_prop3_trace_equality_small(self):
        mix = volatility_mixture(None, 1, j_policy=4, kind="prop3", eps=1.0, delta=1.0)
        path = step_path([1.0, 0.25, 1.75, 0.5, 2.5, 1.0])
        fast = run_mixture(mix, path)
        cap = np.full(path.n_samples, mix.analytic_tail_capital)
        for w, strat, _cap in grid_components(mix):
            cap += w * run_simple(strat, path).capital
        assert np.allclose(fast.capital, cap, atol=1e-10)

    def test_initial_capital_matches_trace(self):
        mix = volatility_mixture(None, 2, j_policy=6, kind="prop3", eps=0.5, delta=1.0)
        path = step_path([1.0, 2.0, 0.5, 3.0])
        trace = run_mixture(mix, path)
        assert trace.capital[0] == mix.total_initial


class TestGridKernelOracle:
    """Closed-form grid kernel against the event-driven reference.

    The kernel runs once per scale with all four cell counts; each row's
    capital is the cells' initial cash plus its held units' gains.
    """

    @staticmethod
    def _caps(values, j):
        # one cell, cells below the price range, exactly the range, beyond it
        top = max(1, math.ceil(math.ldexp(float(values.max()), j)))
        return (1, max(1, top // 3), top, top + 3)

    @classmethod
    def _rows(cls, values, j):
        caps = cls._caps(values, j)
        for k_cap, held in zip(caps, doob_grid_held(values, j, caps), strict=True):
            cash = GridLevel(0, j, k_cap, 1.0).initial_capital  # weight 1: the oracle's cash
            yield k_cap, held, self_financing(cash, held, values)

    def test_dyadic_paths_bit_identical(self):
        rng = np.random.default_rng(31)
        for case in range(120):
            bits = int(rng.integers(0, 5))
            n = int(rng.integers(2, 60))
            ticks = rng.integers(0, 8 << bits, size=n)
            if case % 3 == 0:  # plateaus
                ticks = np.repeat(ticks, int(rng.integers(2, 4)))[:n]
            if case % 4 == 0:  # zero prices
                ticks[rng.integers(0, n, size=2)] = 0
            values = np.ldexp(ticks.astype(np.float64), -bits)
            for j in range(-3, 7):  # j >= bits puts every sample on a band edge
                for k_cap, held, agg in self._rows(values, j):
                    ref_agg, ref_held = doob_grid_events(values, j, k_cap)
                    assert np.array_equal(held, ref_held), (case, j, k_cap)
                    assert np.array_equal(agg, ref_agg), (case, j, k_cap)

    def test_real_paths_within_rounding(self):
        rng = np.random.default_rng(32)
        for case in range(150):
            path = random_positive_path(rng, n_max=80, sigma=0.5)
            values = path.values.copy()
            if case % 5 == 0:
                values[int(rng.integers(0, values.size))] = 0.0
            for j in range(-2, 6):
                for k_cap, held, agg in self._rows(values, j):
                    ref_agg, ref_held = doob_grid_events(values, j, k_cap)
                    assert np.array_equal(held, ref_held), (case, j, k_cap)
                    err = np.max(np.abs(agg - ref_agg))
                    assert err <= 1e-12 * np.max(np.abs(ref_agg)), (case, j, k_cap)

    def test_empty_grid(self):
        assert np.array_equal(doob_grid_held(np.array([1.0, 2.0]), 0, [0]), [[0, 0]])
        assert doob_grid_held(np.array([1.0, 2.0]), 0, []).shape == (0, 2)


def reference_position(mix, values):
    """Grid position summed level by level from the event oracle's held counts.

    Scales are taken in order of first appearance and levels in mixture
    order within a scale.  The oracle runs a level's cells up to the first
    one at or above every sample; the cells above it hold throughout (each
    buys at t = 0 and never reaches its upper edge) and are added as a
    constant, so the count stays exact in int64 for ``k_count`` far beyond
    what the oracle can allocate.
    """
    by_scale = {}
    for lv in mix.levels:
        by_scale.setdefault(lv.scale_exp, []).append(lv)
    position = np.zeros(values.shape[0])
    for levels in by_scale.values():
        for lv in levels:
            top = max(0, math.ceil(math.ldexp(float(values.max()), lv.scale_exp)))
            cells = min(lv.k_count, top + 1)
            held = doob_grid_events(values, lv.scale_exp, cells)[1] + (lv.k_count - cells)
            position += lv.cell_weight * held
    return position


def assert_matches_reference(mix, values):
    trace = run_mixture(mix, step_path(values))
    position = reference_position(mix, values)
    assert np.array_equal(trace.position, position)
    assert np.array_equal(trace.capital, self_financing(mix.total_initial, position, values))


def dyadic_values(rng, n, bits):
    ticks = rng.integers(0, 8 << bits, size=n)
    ticks = np.repeat(ticks, rng.integers(1, 4, size=n))[:n]  # plateaus
    return np.ldexp(ticks.astype(np.float64), -bits)


class TestRunMixtureBitIdentity:
    """run_mixture's one grid pass against the per-level sum of the event oracle."""

    def test_prop3_levels_per_scale(self):
        rng = np.random.default_rng(41)
        for case in range(24):
            L_top = case % 4  # L_top + 1 levels at most scales
            n = int(rng.integers(2, 40))
            if case % 2:  # in [0, 8): some prices above the top class's 2^L_top
                values = dyadic_values(rng, n, int(rng.integers(0, 4)))
            else:
                values = random_positive_path(rng, n_max=40, sigma=0.4).values
                values = values * (2.0**L_top / float(values.max()))
            mix = volatility_mixture(
                None, L_top, j_policy=7 - L_top, kind="prop3", eps=0.5, delta=1.0
            )
            assert max(Counter(lv.scale_exp for lv in mix.levels).values()) == L_top + 1
            assert_matches_reference(mix, values)

    def test_prop1(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            values = random_positive_path(rng, n_max=50, sigma=0.4).values
            assert_matches_reference(volatility_mixture(P25, 1, j_policy=6, kind="prop1"), values)

    def test_levels_interleave_scales(self):
        # scale order 2, 0, -1: the position adds levels 0, 2, 5, then 1, 4, then 3
        weights = (0.3, 1.0 / 3.0, 0.7, 0.1, math.pi / 10.0, 1.0 / 7.0)
        shape = ((0, 2), (1, 0), (1, 2), (2, -1), (0, 0), (2, 2))
        levels = tuple(
            GridLevel(level_exp=L, scale_exp=j, k_count=1 << (L + j + 1), cell_weight=w)
            for (L, j), w in zip(shape, weights)
        )
        mix = GridStrategyMixture(levels=levels, analytic_tail_capital=0.125)
        rng = np.random.default_rng(43)
        for _ in range(10):
            assert_matches_reference(mix, dyadic_values(rng, int(rng.integers(2, 30)), 3) / 4.0)
            assert_matches_reference(mix, random_positive_path(rng, n_max=30).values)

    def test_no_levels(self):
        mix = GridStrategyMixture(levels=(), analytic_tail_capital=0.625)
        trace = run_mixture(mix, step_path([1.0, 3.0, 0.5]))
        assert np.array_equal(trace.position, [0.0, 0.0, 0.0])
        assert np.all(trace.capital == 0.625)

    def test_counts_beyond_2_53(self):
        # at t = 1 the cells k >= 2 of 2^54 hold: 2^54 - 2, exact in float64;
        # forming it as (2^54 - 3) + 1 would round twice, to 2^54 - 4
        values = np.array([1.0, 2.5, 2.25, 3.0, 0.5, 2.75, 64.5, 63.75])
        levels = tuple(
            GridLevel(level_exp=k, scale_exp=0, k_count=1 << k, cell_weight=w)
            for k, w in ((54, 1.0), (60, 0.3), (53, 0.5))
        )
        mix = GridStrategyMixture(levels=levels, analytic_tail_capital=0.0)
        assert_matches_reference(mix, values)
        held = doob_grid_held(values, 0, [1 << 54])[0]
        assert held[1] == (1 << 54) - 2


class TestGridBlocks:
    """The grid kernel in column blocks: runs inside one band cross block edges."""

    VALUES = np.array(
        [0.0, 2.5, 2.25, 2.75, 2.5, 2.125, 2.875, 3.0, 3.5, 3.25, 3.75, 3.5]
        + [1.5, 1.25, 1.75, 1.5, 1.5, 1.375, 2.0, 0.75, 0.75, 0.5, 0.625]
    )

    def test_rows_match_oracle_across_edges(self, monkeypatch):
        rng = np.random.default_rng(44)
        paths = [self.VALUES] + [dyadic_values(rng, int(rng.integers(12, 40)), 2) for _ in range(30)]
        for cells in (1, 9, 13):  # blocks of 2, 3 and 4 samples
            monkeypatch.setattr(mixtures, "_BLOCK_CELLS", cells)
            for values in paths:
                for j in (-1, 0, 1, 3):
                    caps = (1, 3, 9)
                    blocks = list(mixtures._grid_held(values, mixtures._grid_rows([j] * 3, caps)))
                    assert len(blocks) >= 3
                    assert all(b - a >= 2 for a, b, _ in blocks)
                    for k_cap, held in zip(caps, doob_grid_held(values, j, caps), strict=True):
                        assert np.array_equal(held, doob_grid_events(values, j, k_cap)[1])

    def test_run_mixture_unchanged_by_blocks(self, monkeypatch):
        rng = np.random.default_rng(45)
        paths = [step_path(self.VALUES)] + [random_positive_path(rng, n_max=60) for _ in range(10)]
        mixes = [
            volatility_mixture(None, 2, j_policy=5, kind="prop3", eps=1.0, delta=0.5),
            volatility_mixture(P25, 1, j_policy=4, kind="prop1"),
        ]
        expected = [[run_mixture(mix, path) for path in paths] for mix in mixes]
        for cells in (1, 7, 50, 100):
            monkeypatch.setattr(mixtures, "_BLOCK_CELLS", cells)
            for mix, traces in zip(mixes, expected):
                for path, want in zip(paths, traces):
                    got = run_mixture(mix, path)
                    assert np.array_equal(got.position, want.position)
                    assert np.array_equal(got.capital, want.capital)


class TestCrossingInequality:
    def test_sawtooth_exact(self):
        mix = volatility_mixture(P25, 0, path_hint=SAW, kind="prop1")
        s_t = run_mixture(mix, SAW).final_capital
        rhs = 0.0
        for lv in mix.levels:
            m = grid_crossings(SAW, lv.cell_height).up
            rhs += lv.cell_weight * lv.cell_height * m
        assert s_t >= rhs
        # regression for the fixture (independent band counts 2, 4, 8)
        assert [grid_crossings(SAW, lv.cell_height).up for lv in mix.levels] == [2, 4, 8]

    def test_random_paths(self):
        rng = np.random.default_rng(555)
        for _ in range(30):
            L = int(rng.integers(0, 2))
            path = random_positive_path(rng, n_max=60, sigma=0.3)
            scale = 2.0**L * 0.9 / path.sup
            path = path.with_values(path.values * scale)
            mix = volatility_mixture(P25, L, j_policy=7, kind="prop1")
            s_t = run_mixture(mix, path).final_capital
            rhs = sum(
                lv.cell_weight * lv.cell_height * grid_crossings(path, lv.cell_height).up
                for lv in mix.levels
            )
            assert s_t >= rhs


class TestProp3Bound:
    def test_constant_path_trivial(self):
        path = step_path([1.0, 1.0, 1.0])
        rep = verify_prop3_bound(path, 1.0, 1.0, 2)
        assert rep.passed
        assert rep.rhs == pytest.approx(-0.25)
        assert rep.binding is False
        assert rep.s_t == pytest.approx(rep.s0, rel=1e-12)

    def test_sawtooth_regression(self):
        rep = verify_prop3_bound(SAW, 1.0, 1.0, 3)
        assert rep.passed
        assert rep.s0 == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert rep.s_t == pytest.approx(11.0 / 6.0, rel=1e-12)
        assert rep.margin == pytest.approx(6391.0 / 3072.0, rel=1e-9)

    def test_report_fields(self):
        rep = verify_prop3_bound(SAW, 0.5, 1.0, 3)
        assert rep.N == 3
        assert rep.sup == 1.0
        assert rep.variation == pytest.approx(3.0, rel=1e-12)
        assert rep.margin == rep.s_t - rep.rhs

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_prop3_bound(SAW, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            verify_prop3_bound(SAW, 1.0, 1.0, 0)

    @pytest.mark.parametrize("N", ["x", 2.5, 3.0, True, None, 2.0**20])
    def test_n_must_be_an_integer(self, N, monkeypatch):
        # refused before the DP size check, which would fail on a str or take a float
        import roughmarket.mixtures as mx

        def no_size_check(n):
            raise AssertionError("check_dp_samples ran")

        monkeypatch.setattr(mx, "check_dp_samples", no_size_check)
        with pytest.raises(BadSpec, match="N must be an integer"):
            verify_prop3_bound(SAW, 0.5, 0.5, N)

    def test_sup_overflow_names_the_sup(self):
        # eps and delta are fine; max(1, sup)^(2 + eps + delta) is what overflows
        with pytest.raises(BadWeights, match=r"sup=1e\+300") as info:
            verify_prop3_bound(step_path([1.0, 1e300, 1.0]), 0.5, 0.5, 2)
        assert "max(1, sup)^(2+eps+delta)" in str(info.value)

    def test_violation_raises(self, monkeypatch):
        import roughmarket.mixtures as mx

        # force an impossible bound to exercise the error path
        monkeypatch.setattr(mx, "var_p", lambda *a, **k: 1e12)
        with pytest.raises(BoundViolated):
            verify_prop3_bound(SAW, 1.0, 1.0, 3)


class TestUnboundedness:
    def test_constant_path_keeps_capital(self):
        mix = unboundedness_mixture(6)
        path = step_path([1.0, 1.0, 1.0])
        trace = run_mixture(mix, path)
        assert trace.final_capital == pytest.approx(mix.total_initial, rel=1e-12)

    def test_big_jump_regression(self):
        mix = unboundedness_mixture(10)
        trace = run_mixture(mix, step_path([1.0, 1024.0]))
        assert mix.total_initial == 1.0 - 2.0**-10
        assert trace.final_capital == 1023.0  # every component liquidates at 1024

    def test_gain_grows_with_threshold_count(self):
        finals = []
        for M in (2, 5, 8):
            path = step_path([1.0, 2.0**M])
            trace = run_mixture(unboundedness_mixture(10), path)
            finals.append(trace.final_capital - trace.initial_capital)
        assert finals[0] < finals[1] < finals[2]

    def test_zero_start_branch(self):
        mix = unboundedness_mixture(3)
        path = step_path([0.0, 4.0, 4.0])
        trace = run_mixture(mix, path)  # h1 = 1, buys at price 0, every m gains 4
        gains = sum(2.0**-m * 4.0 for m in (1, 2, 3))
        assert trace.final_capital == pytest.approx(mix.total_initial + gains, rel=1e-12)

    def test_m_max_validation(self):
        with pytest.raises(BadWeights):
            unboundedness_mixture(0)


class TestCrossingExplosion:
    def test_single_interval_is_capped_doob(self):
        mix = crossing_explosion_mixture([(0.5, 1.5)], [1.0])
        assert mix.total_initial == 0.5
        path = step_path([1.0, 0.5, 1.5, 0.5, 1.5])
        trace = run_mixture(mix, path)
        # first completed band trade lifts capital to 1.5 >= cap 1, freezing it
        assert trace.final_capital == 1.5
        assert np.all(trace.position[2:] == 0.0)

    def test_cap_freezes_after_threshold(self):
        saw = [1.0] + [0.5, 1.5] * 5
        mix = crossing_explosion_mixture([(0.5, 1.5)], [0.25])  # cap 4
        trace = run_mixture(mix, step_path(saw))
        ct = oracle_run(doob_strategy(0.5, 1.5), step_path(saw), cap=4.0)
        assert ct.final_capital == 4.5  # frozen at first sample with capital >= 4
        assert trace.final_capital == 0.25 * 4.5

    def test_sawtooth_lower_bound(self):
        intervals = [(0.5, 1.5), (0.25, 0.75)]
        weights = [0.5, 0.5]
        mix = crossing_explosion_mixture(intervals, weights)
        k = 4
        saw = [1.0] + [0.25, 1.5] * k
        trace = run_mixture(mix, step_path(saw))
        bound = sum(
            w * min((b - a) * k, 1.0 / w) for (a, b), w in zip(intervals, weights)
        )
        assert trace.final_capital >= bound - 1e-12

    def test_weight_validation(self):
        with pytest.raises(BadWeights):
            crossing_explosion_mixture([(0.5, 1.5), (0.25, 0.5)], [0.9, 0.2])
        with pytest.raises(BadWeights):
            crossing_explosion_mixture([(0.5, 1.5), (1.5, 0.5)], [0.5, 0.5])
        with pytest.raises(BadWeights):
            crossing_explosion_mixture([], [])
        with pytest.raises(BadWeights):
            crossing_explosion_mixture([(0.5, 1.5)], [-1.0])


class TestGridMixtureProperties:
    def test_components_materialization_guard(self):
        mix = volatility_mixture(P25, 2, j_policy=14, kind="prop1")
        assert mix.n_components == 131068  # past the 2^16 that grid_components takes
        with pytest.raises(ValueError):
            next(grid_components(mix))

    def test_positions_nonnegative(self):
        rng = np.random.default_rng(9)
        path = random_positive_path(rng, n_max=40)
        mix = volatility_mixture(None, 1, j_policy=6, kind="prop3", eps=1.0, delta=1.0)
        trace = run_mixture(mix, path)
        assert np.all(trace.position >= 0.0)
        assert np.all(trace.cash >= -1e-9)
