import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmarket import (
    AtIndex,
    SimpleStrategy,
    borrowing_free_check,
    clairvoyant_strategy,
    crossings,
    doob_strategy,
    run_simple,
    upper_prob_singleton,
)
from roughmarket.errors import BadInterval, BadPosition, RuleOverflow, ZeroPrice
from roughmarket.mixtures import crossing_explosion_mixture, run_mixture, unboundedness_mixture
from roughmarket.strategies import CapitalTrace, first_violation, self_financing

from conftest import random_positive_path, step_path
from strategy_oracle import crossing_components, run_components, unboundedness_components
from strategy_oracle import run_simple as oracle_run


def telescoped_capital(trace, path):
    """Recompute final capital directly from the firing list."""
    c = trace.initial_capital
    firings = [f for f in trace.firings]
    values = path.values
    total = c
    for i, f in enumerate(firings):
        t_next = firings[i + 1].index if i + 1 < len(firings) else values.shape[0] - 1
        total += f.position * (values[t_next] - values[f.index])
    return total


class TestRunSimple:
    def test_zero_position_constant_capital(self):
        strat = SimpleStrategy(2.0, ())
        trace = run_simple(strat, step_path([1, 5, 0.2, 3]))
        assert np.all(trace.capital == 2.0)
        assert np.all(trace.position == 0.0)

    def test_buy_and_hold(self):
        strat = SimpleStrategy(1.0, ((AtIndex(0), 1.0),))
        trace = run_simple(strat, step_path([1, 2, 4]))
        assert list(trace.capital) == [1.0, 2.0, 4.0]
        assert list(trace.cash) == [0.0, 0.0, 0.0]

    def test_doob_hand_trace(self):
        trace = run_simple(doob_strategy(0.5, 1.5), step_path([1, 0.5, 1.5, 0.5, 1.5]))
        assert list(trace.capital) == [0.5, 0.5, 1.5, 1.5, 2.5]
        assert list(trace.position) == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_same_index_firings_zero_duration(self):
        strat = SimpleStrategy(1.0, ((AtIndex(1), 5.0), (AtIndex(1), 1.0)))
        trace = run_simple(strat, step_path([1.0, 1.0, 2.0]))
        # the 5.0 position is held for zero duration and contributes nothing
        assert trace.final_capital == 2.0

    def test_rule_overflow(self):
        rules = tuple((AtIndex(0), 1.0) for _ in range(10))
        with pytest.raises(RuleOverflow):
            run_simple(SimpleStrategy(1.0, rules), step_path([1.0, 2.0]))

    def test_position_bound_enforced(self):
        strat = SimpleStrategy(1.0, ((AtIndex(0), 3.0),), position_bound=2.0)
        with pytest.raises(ValueError):
            run_simple(strat, step_path([1.0, 2.0]))

    def test_self_check_accepts_builtins(self):
        path = step_path([1, 0.5, 1.5, 0.5, 1.5, 2.5])
        run_simple(doob_strategy(0.5, 1.5), path, self_check=True)

    def test_self_check_catches_lookahead(self):
        from roughmarket import StoppingRule
        from roughmarket.errors import NonAdapted

        class PeekingRule(StoppingRule):
            def first_hit(self, times, values, start):
                # decision depends on the final price: not adapted
                return start if values[-1] > values[0] else None

        strat = SimpleStrategy(1.0, ((PeekingRule(), 1.0),), descriptor="peek")
        # idle on the real path, but the probe's raised suffix makes it fire
        path = step_path([1.0, 1.0, 1.0, 1.0, 0.5])
        with pytest.raises(NonAdapted):
            run_simple(strat, path, self_check=True)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_telescoping_identity(self, seed):
        rng = np.random.default_rng(seed)
        path = random_positive_path(rng, n_max=50)
        a = float(rng.uniform(0.0, path.sup * 0.8))
        b = a + float(rng.uniform(0.05, path.sup))
        trace = run_simple(doob_strategy(a, b), path)
        assert trace.final_capital == pytest.approx(telescoped_capital(trace, path), abs=1e-9)
        assert np.allclose(trace.cash + trace.position * path.values, trace.capital, atol=1e-9)

    def test_adaptedness_under_suffix_mutation(self):
        """The built-in strategies and mixtures ignore a changed suffix."""
        rng = np.random.default_rng(4)
        for _ in range(30):
            path = random_positive_path(rng, n_max=30)
            a = float(rng.uniform(0.0, path.sup * 0.7))
            strategies = (doob_strategy(a, a + 0.3), unboundedness_components(4, path.values[0])[0][1])
            mixtures = (unboundedness_mixture(4), crossing_explosion_mixture([(a, a + 0.3)], [0.5]))
            cut = path.n_samples // 2
            mutated = path.values.copy()
            mutated[cut + 1 :] = rng.uniform(0.0, 2.0 * path.sup, size=mutated.shape[0] - cut - 1)
            mutated = path.with_values(mutated)
            pairs = [(run_simple(s, path), run_simple(s, mutated)) for s in strategies]
            pairs += [(run_mixture(m, path), run_mixture(m, mutated)) for m in mixtures]
            for base, alt in pairs:
                assert np.array_equal(base.capital[: cut + 1], alt.capital[: cut + 1])
                assert np.array_equal(base.position[:cut], alt.position[:cut])


def _dyadic(x) -> bool:
    """Multiples of 2^-6 below 2^6: products and their sums here are exact in float64."""
    x = np.asarray(x) * 64.0
    return bool(np.all((x == np.round(x)) & (np.abs(x) < 4096.0)))


@st.composite
def engine_cases(draw):
    """(strategy, path) over the built-in constructions, on dyadic or real prices."""
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 256), min_size=2, max_size=40))
        values = [v / 64.0 for v in values]
        level = st.integers(0, 320).map(lambda k: k / 64.0)
    else:
        values = draw(st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=2, max_size=40))
        level = st.floats(0.0, 5.0, allow_subnormal=False)
    n = len(values)
    kind = draw(st.sampled_from(["doob", "clairvoyant", "at-index", "unbounded"]))
    if kind == "clairvoyant":
        path = step_path([v + 0.5 for v in values])
        return clairvoyant_strategy(path)[0], path
    path = step_path(values)
    if kind == "at-index":
        # sorted indices with repeats: several firings at one sample
        index = sorted(draw(st.lists(st.integers(0, n), max_size=min(n, 12))))
        h = st.integers(-64, 64).map(lambda k: k / 16.0)
        rules = tuple((AtIndex(i), draw(h)) for i in index)
        return SimpleStrategy(draw(level), rules), path
    if kind == "unbounded":
        m = draw(st.integers(1, 4))
        return unboundedness_components(m, values[0])[m - 1][1], path
    a = draw(level)
    return doob_strategy(a, a + draw(st.integers(1, 128).map(lambda k: k / 64.0))), path


class TestEngineOracle:
    """The position-array engine against the sample-by-sample Kahan loop."""

    @staticmethod
    def assert_same(strat, path):
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracle_run(strat, path)
            # once the capital overflows, the oracle's Kahan step forms
            # inf - inf: there the plain running sum is the reference
            gains = want.position[:-1] * np.diff(path.values)
            plain = want.initial_capital + np.cumsum(np.append(0.0, gains))
        if np.isnan(plain[-1]):  # gains of +inf and -inf
            with pytest.raises(BadPosition):
                run_simple(strat, path)
            return None
        got = run_simple(strat, path)
        assert np.array_equal(got.position, want.position)
        assert got.firings == want.firings
        assert got.initial_capital == want.initial_capital
        finite = np.isfinite(want.capital)
        assert np.array_equal(got.capital[~finite], plain[~finite])
        got_c, want_c = got.capital[finite], want.capital[finite]
        if _dyadic(path.values) and _dyadic(got.position) and _dyadic(got.initial_capital):
            assert np.array_equal(got_c, want_c)
        else:
            # roundoff scales with the largest capital: after a huge gain and
            # its loss the oracle's Kahan sum can lose a unit that cumsum keeps
            slack = 1e-12 * max(1.0, float(np.max(np.abs(want_c))))
            assert np.all(np.abs(got_c - want_c) <= slack)
        return got

    @settings(max_examples=300, deadline=None)
    @given(engine_cases())
    def test_matches_oracle(self, case):
        self.assert_same(*case)

    @pytest.mark.parametrize(
        "a, weight, frozen_at, fired",
        [
            (1.0, 1.0, 0, []),  # cap 1 = initial capital: frozen before any firing
            (0.5, 0.5, 4, [(1, 1.0), (2, 0.0), (3, 1.0), (4, 0.0)]),  # cap 2 at 2.5
            (0.5, 0.1, None, [(1, 1.0), (2, 0.0), (3, 1.0), (4, 0.0), (5, 1.0)]),  # cap 10
        ],
    )
    def test_capital_cap(self, a, weight, frozen_at, fired):
        """A capped band: the oracle's frozen trace, and the crossing mixture's position."""
        path = step_path([1.0, 0.5, 1.5, 0.5, 1.5, 0.5])
        trace = oracle_run(doob_strategy(a, a + 1.0), path, cap=1.0 / weight)
        assert [(f.index, f.position) for f in trace.firings] == fired
        mix = run_mixture(crossing_explosion_mixture([(a, a + 1.0)], [weight]), path)
        want = run_components(crossing_components([(a, a + 1.0)], [weight]), path)
        for name in ("capital", "position", "cash"):
            assert np.array_equal(getattr(mix, name), getattr(want, name)), name
        assert np.array_equal(mix.position, weight * trace.position)
        if frozen_at is not None:
            for t in (trace, mix):
                assert np.all(t.capital[frozen_at:] == t.capital[frozen_at])
                assert np.all(t.position[frozen_at:] == 0.0)
        if frozen_at == 4:
            assert trace.firings[-1].rule == "cap-liquidate"

    def test_overflowing_capital_is_inf(self):
        # the Kahan step formed inf - inf once the capital overflowed
        path = step_path([0.0, 1.7e308] * 3)
        trace = run_simple(doob_strategy(0.5, 1.0), path)  # and warns of nothing
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(oracle_run(doob_strategy(0.5, 1.0), path).final_capital)
        assert list(trace.position) == [1.0, 0.0] * 3
        assert trace.capital[1] == 1.7e308
        assert trace.final_capital == math.inf and trace.min_capital == 0.5


class TestSelfFinancing:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1e300, 1e300), st.floats(0.0, 1.7e308)), min_size=1, max_size=40
        ),
        st.floats(-1e3, 1e3),
        st.booleans(),
    )
    def test_is_the_cumsum_of_the_gains_plus_initial(self, samples, initial, integral):
        position = np.array([h for h, _ in samples])
        if integral:  # held-unit counts, as the grid kernel makes them
            position = np.trunc(np.clip(position, -1e15, 1e15)).astype(np.int64)
        values = np.array([x for _, x in samples])
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.cumsum(np.append(0.0, position[:-1] * np.diff(values))) + initial
        got = self_financing(initial, position, values)  # and warns of nothing
        assert got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)


class TestDoob:
    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            doob_strategy(1.5, 0.5)
        with pytest.raises(BadInterval):
            doob_strategy(-0.1, 0.5)

    def test_constant_path_never_trades(self):
        trace = run_simple(doob_strategy(0.5, 1.5), step_path([1.0, 1.0, 1.0]))
        assert trace.final_capital == 0.5
        assert len(trace.firings) == 0

    def test_worst_case_drop_to_zero(self):
        trace = run_simple(doob_strategy(0.5, 1.5), step_path([1.0, 0.5, 0.0]))
        assert trace.final_capital == 0.0
        assert trace.min_capital == 0.0

    def test_upcrossing_bound_random(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            path = random_positive_path(rng, n_max=60)
            a = float(rng.uniform(0.0, path.sup * 0.9))
            b = a + float(rng.uniform(1e-3, path.sup * 0.5))
            trace = run_simple(doob_strategy(a, b), path)
            ups = crossings(path, a, b).up
            assert trace.min_capital >= 0.0
            assert trace.final_capital >= (b - a) * ups - 1e-12 * max(1.0, trace.final_capital)


class TestClairvoyant:
    def test_monotone_up(self):
        _, f = clairvoyant_strategy(step_path([1, 2, 4]))
        assert f == pytest.approx(4.0, rel=1e-12)

    def test_monotone_down(self):
        _, f = clairvoyant_strategy(step_path([4, 2, 1]))
        assert f == 1.0

    def test_two_doublings(self):
        _, f = clairvoyant_strategy(step_path([1, 2, 1, 2]))
        assert f == pytest.approx(4.0, rel=1e-12)

    def test_zero_price_rejected(self):
        with pytest.raises(ZeroPrice):
            clairvoyant_strategy(step_path([1.0, 0.0, 1.0]))

    def test_factor_matches_trace_and_log_variation(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            path = random_positive_path(rng, n_max=60)
            strat, factor = clairvoyant_strategy(path)
            trace = run_simple(strat, path)
            realized = trace.final_capital / trace.initial_capital
            d = np.diff(np.log(path.values))
            plus = float(np.sum(d[d > 0.0]))
            assert factor == pytest.approx(math.exp(plus), rel=1e-9)
            assert realized == pytest.approx(factor, rel=1e-9)
            # invested samples carry zero cash (full reinvestment), up to roundoff
            invested = trace.position > 0.0
            slack = 1e-9 * np.maximum(1.0, trace.capital[invested])
            assert np.all(np.abs(trace.cash[invested]) <= slack)

    def test_rules_only_where_the_position_changes(self):
        """Same trace as one rule per sample (h = 0 on moves that are not up)."""
        rng = np.random.default_rng(21)
        for k in range(60):
            path = random_positive_path(rng, n_max=60)
            if k % 2:  # plateaus and repeated up and down runs
                path = step_path(0.25 + np.round(path.values * 4.0) / 4.0)
            strat, factor = clairvoyant_strategy(path)
            values = path.values.tolist()
            log_k, per_sample = 0.0, []
            for i in range(len(values) - 1):
                h = 0.0
                if values[i + 1] > values[i]:
                    h = math.exp(log_k) / values[i]
                    log_k += math.log(values[i + 1]) - math.log(values[i])
                per_sample.append((AtIndex(i), h))
            per_sample.append((AtIndex(len(values) - 1), 0.0))
            got = run_simple(strat, path)
            want = run_simple(replace(strat, rules=tuple(per_sample)), path)
            assert factor == math.exp(log_k)
            for name in ("position", "capital", "cash"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            held = [h for _, h in strat.rules[:-1]]
            assert all(a != b for a, b in zip([0.0] + held, held))


class TestUpperProb:
    def test_linear_drift_half(self):
        path = step_path(1.0 + np.linspace(0.0, 1.0, 33))
        assert upper_prob_singleton(path) == pytest.approx(0.5, abs=1e-12)

    def test_non_increasing_is_one(self):
        path = step_path([3.0, 2.0, 2.0, 0.5])
        assert upper_prob_singleton(path) == 1.0

    def test_constant_is_one(self):
        assert upper_prob_singleton(step_path([2.0, 2.0])) == 1.0

    def test_zero_price(self):
        with pytest.raises(ZeroPrice):
            upper_prob_singleton(step_path([1.0, 0.0]))

    def test_price_ratio_overflow(self):
        # start / end overflows float64; in the log domain both forms are 1
        assert upper_prob_singleton(step_path([1e300, 5e-324])) == 1.0
        assert upper_prob_singleton(step_path([5e-324, 1e300])) == pytest.approx(
            5e-324 / 1e300, rel=1e-12
        )

    def test_range_and_characterization(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            path = random_positive_path(rng, n_max=40)
            v = upper_prob_singleton(path)
            assert 0.0 < v <= 1.0
            non_increasing = bool(np.all(np.diff(path.values) <= 0.0))
            assert (v == 1.0) == non_increasing


class TestBorrowingFree:
    def test_doob_ok(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            path = random_positive_path(rng, n_max=40)
            rep = borrowing_free_check(doob_strategy(0.3, 0.9), path)
            assert rep.ok

    def test_short_position_spike(self):
        path = step_path([1.0, 1.0, 1.0, 1.0])
        strat = SimpleStrategy(1.0, ((AtIndex(0), -1.0),), descriptor="short")
        rep = borrowing_free_check(strat, path)
        assert not rep.ok
        assert rep.first_violation.kind == "short"
        assert rep.continuation_min_capital < 0.0
        # continuation agrees with the original up to the violation index
        i = rep.first_violation.index
        assert np.array_equal(rep.continuation.values[: i + 1], path.values[: i + 1])

    def test_leveraged_cash_drop(self):
        path = step_path([1.0, 1.5, 2.0])
        strat = SimpleStrategy(
            1.0, ((AtIndex(0), 2.0),), descriptor="leveraged", position_bound=2.0
        )
        rep = borrowing_free_check(strat, path)
        assert not rep.ok
        assert rep.first_violation.kind == "cash"
        assert rep.continuation_min_capital < 0.0

    def test_negative_initial_capital(self):
        strat = SimpleStrategy(-0.5, ())
        rep = borrowing_free_check(strat, step_path([1.0, 2.0]))
        assert not rep.ok

    def test_violation_amount_reported(self):
        path = step_path([2.0, 1.0, 3.0])
        strat = SimpleStrategy(1.0, ((AtIndex(0), -0.5),))
        rep = borrowing_free_check(strat, path)
        assert rep.first_violation.amount == -0.5

    def test_first_violation_scan_order(self):
        trace = CapitalTrace(
            times=np.array([0.0, 0.5, 1.0]),
            capital=np.ones(3),
            position=np.array([0.0, -1.0, -1.0]),
            cash=np.array([1.0, -1.0, -1.0]),
            initial_capital=1.0,
        )
        # short wins over cash at one index; the last sample is never scanned
        v = first_violation(trace)
        assert (v.kind, v.index, v.amount) == ("short", 1, -1.0)
        earlier_cash = replace(trace, cash=np.array([-1.0, 1.0, 1.0]))
        assert first_violation(earlier_cash).kind == "cash"
        assert first_violation(replace(trace, position=np.zeros(3), cash=np.ones(3))) is None
        # violations within 1e-9 * max(1, max |capital|) of zero are roundoff
        tiny = replace(trace, position=np.array([-1e-10, 0.0, 0.0]), cash=np.ones(3))
        assert first_violation(tiny) is None
