import math
import warnings

import numpy as np
import pytest

from roughmarket import (
    AtIndex,
    GridLevel,
    SimpleStrategy,
    StrategyMixture,
    VariationFunctional,
    crossing_explosion_mixture,
    doob_strategy,
    grid_crossings,
    run_mixture,
    run_simple,
    unboundedness_mixture,
    verify_prop3_bound,
    volatility_mixture,
)
from roughmarket.errors import (
    BadPosition,
    BadWeights,
    BoundViolated,
    InadmissiblePhi,
    NegativeComponent,
    TruncationUnsafe,
)
from roughmarket import mixtures
from roughmarket.mixtures import _resolve_scale_cut, doob_grid_held, prop3_initial_capital
from roughmarket.strategies import self_financing

from conftest import random_positive_path, step_path
from grid_oracle import doob_grid_events

SAW = step_path([0.0, 1.0, 0.0, 1.0])
P25 = VariationFunctional.power(2.5)


class TestRunMixture:
    def test_single_component_equals_run_simple(self):
        path = step_path([1, 0.5, 1.5, 0.5, 1.5])
        strat = doob_strategy(0.5, 1.5)
        mix = StrategyMixture(components=((1.0, strat),))
        mt = run_mixture(mix, path)
        st = run_simple(strat, path)
        assert np.array_equal(mt.capital, st.capital)
        assert np.array_equal(mt.position, st.position)

    def test_two_idle_components_sum_constant(self):
        mix = StrategyMixture(
            components=((1.0, SimpleStrategy(0.3, ())), (1.0, SimpleStrategy(0.7, ()))),
        )
        trace = run_mixture(mix, step_path([1.0, 9.0, 0.1]))
        assert np.all(trace.capital == 1.0)
        assert mix.total_initial == 1.0

    def test_doob_component_floor_at_zero(self):
        mix = StrategyMixture(components=((1.0, doob_strategy(0.5, 1.5)),))
        trace = run_mixture(mix, step_path([1.0, 0.5, 0.0]))
        assert trace.min_capital >= 0.0

    def test_negative_component_detected(self):
        risky = SimpleStrategy(0.1, ((AtIndex(0), 1.0),), descriptor="levered-long")
        mix = StrategyMixture(components=((1.0, risky),))
        with pytest.raises(NegativeComponent):
            run_mixture(mix, step_path([1.0, 0.5]))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(BadWeights):
            StrategyMixture(components=((0.0, SimpleStrategy(1.0, ())),))

    def test_tail_capital_is_constant_offset(self):
        mix = StrategyMixture(components=((1.0, SimpleStrategy(0.25, ())),), analytic_tail_capital=0.5)
        trace = run_mixture(mix, step_path([1.0, 2.0]))
        assert np.all(trace.capital == 0.75)
        assert trace.initial_capital == 0.75

    def test_summed_position_overflow_raises(self):
        # each component alone holds 1e308 units; their sum is inf, and the
        # error says so without a numpy warning on the way
        big = SimpleStrategy(1.0, ((AtIndex(0), 1e308),))
        mix = StrategyMixture(components=((1.0, big), (1.0, big)))
        with warnings.catch_warnings(), pytest.raises(BadPosition):
            warnings.simplefilter("error", RuntimeWarning)
            run_mixture(mix, step_path([1.0, 1.0, 1.5]))

    def test_held_value_overflow_is_inf_cash(self):
        # 1e308 units at price 2 are worth more than float64 holds
        big = SimpleStrategy(1.0, ((AtIndex(0), 1e308),))
        trace = run_mixture(StrategyMixture(components=((1.0, big),)), step_path([1.0, 1.0, 2.0]))
        assert trace.final_capital == 1e308 and trace.cash[-1] == -math.inf


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

    def test_scale_cut_from_path_hint(self):
        mix = volatility_mixture(P25, 0, path_hint=SAW)
        # smallest move 1 keeps every scale coarser than 1/4
        assert mix.scale_cut == 2

    def test_subnormal_move_hits_the_cell_budget(self):
        # 4 / 2^-1030 overflows; the derived cut is 1032, and the budget lowers it
        tiny = step_path([2.0**-1030, 0.0, 1.0])
        mix = volatility_mixture(None, 0, path_hint=tiny, kind="prop3", eps=1.0, delta=1.0)
        assert 20 < mix.scale_cut < 64


class TestGridAgainstExplicit:
    def test_prop1_trace_equality(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            path = random_positive_path(rng, n_max=30, sigma=0.4)
            mix = volatility_mixture(P25, 1, j_policy=5, kind="prop1")
            fast = run_mixture(mix, path)
            cap = np.zeros(path.n_samples)
            pos = np.zeros(path.n_samples)
            for w, strat in mix.iter_components():
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
        for w, strat in mix.iter_components():
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

    def test_violation_raises(self, monkeypatch):
        import roughmarket.mixtures as mx

        # force an impossible bound to exercise the error path
        monkeypatch.setattr(mx, "var_p", lambda *a, **k: 1e12)
        with pytest.raises(BoundViolated):
            verify_prop3_bound(SAW, 1.0, 1.0, 3)


class TestUnboundedness:
    def test_constant_path_keeps_capital(self):
        mix = unboundedness_mixture(6, 1.0)
        path = step_path([1.0, 1.0, 1.0])
        trace = run_mixture(mix, path)
        assert trace.final_capital == pytest.approx(mix.total_initial, rel=1e-12)

    def test_big_jump_regression(self):
        mix = unboundedness_mixture(10, 1.0)
        trace = run_mixture(mix, step_path([1.0, 1024.0]))
        assert mix.total_initial == 1.0 - 2.0**-10
        assert trace.final_capital == 1023.0  # every component liquidates at 1024

    def test_gain_grows_with_threshold_count(self):
        finals = []
        for M in (2, 5, 8):
            path = step_path([1.0, 2.0**M])
            trace = run_mixture(unboundedness_mixture(10, 1.0), path)
            finals.append(trace.final_capital - trace.initial_capital)
        assert finals[0] < finals[1] < finals[2]

    def test_zero_start_branch(self):
        mix = unboundedness_mixture(3, 0.0)
        path = step_path([0.0, 4.0, 4.0])
        trace = run_mixture(mix, path)  # h1 = 1, buys at price 0, every m gains 4
        gains = sum(2.0**-m * 4.0 for m in (1, 2, 3))
        assert trace.final_capital == pytest.approx(mix.total_initial + gains, rel=1e-12)

    def test_m_max_validation(self):
        with pytest.raises(BadWeights):
            unboundedness_mixture(0, 1.0)


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
        comp = mix.components[0][1]
        ct = run_simple(comp, step_path(saw))
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
        assert mix.n_components == 131068  # past the 2^16 that iter_components takes
        with pytest.raises(ValueError):
            next(mix.iter_components())

    def test_positions_nonnegative(self):
        rng = np.random.default_rng(9)
        path = random_positive_path(rng, n_max=40)
        mix = volatility_mixture(None, 1, j_policy=6, kind="prop3", eps=1.0, delta=1.0)
        trace = run_mixture(mix, path)
        assert np.all(trace.position >= 0.0)
        assert np.all(trace.cash >= -1e-9)
