import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmarket import (
    GeneratorSpec,
    PricePath,
    VariationFunctional,
    brute_force_var_phi,
    generate,
    phi_admissible,
    psi,
    qvar_profile,
    var_p,
    var_phi,
    var_signed,
    variation_growth_profile,
)
from roughmarket import variation
from roughmarket.errors import BadStep, TooLarge
from roughmarket.paths import discretize
from roughmarket.variation import _DP_CELLS, _STAR_ROWS, MAX_DP_SAMPLES, turning_points, var_dp

from conftest import random_positive_path, step_path
from dp_oracle import var_dp as oracle_dp
from star_oracle import _star_dp as oracle_star_dp
from test_acceptance import _positive_walk

P_GRID = (0.5, 1.0, 2.0, 2.5, 3.0)
GAUGES = tuple([VariationFunctional.power(p) for p in P_GRID] + [VariationFunctional.taylor_psi()])


class TestVarPhi:
    def test_monotone_total_variation(self):
        assert var_p(step_path([1, 2, 4]), 1.0) == 3.0

    def test_sawtooth_square(self):
        assert var_p(step_path([0, 1, 0, 1]), 2.0) == 3.0

    def test_monotone_coarsest_wins(self):
        assert var_p(step_path([1, 2, 4]), 2.0) == 9.0

    def test_oracle_agreement(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            path = random_positive_path(rng, n_max=10)
            for phi in GAUGES:
                fast = var_phi(path, phi)
                slow = brute_force_var_phi(path, phi)
                assert fast == pytest.approx(slow, rel=1e-12)

    def test_table_gauge_matches_power_on_nodes(self):
        # dense table of u^2 behaves like the power gauge on in-range paths
        u = np.linspace(0.0, 8.0, 4001)
        phi = VariationFunctional.from_table(u, u**2)
        path = step_path([0.0, 1.0, 0.0, 1.0])
        assert var_phi(path, phi) == pytest.approx(3.0, rel=1e-6)

    def test_sub_one_exponent_shortcut_matches_dp(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            path = random_positive_path(rng, n_max=24)
            for p in (0.3, 0.5, 1.0):
                phi = VariationFunctional.power(p)
                assert var_phi(path, phi) == pytest.approx(
                    var_dp(path.values, phi.on_increments), rel=1e-12
                )

    def test_monotone_identity_p_ge_1(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inc = rng.uniform(0.0, 1.0, size=12)
            path = step_path(1.0 + np.concatenate([[0.0], np.cumsum(inc)]))
            for p in (1.0, 1.5, 2.0, 3.0):
                expect = (path.values[-1] - path.values[0]) ** p
                assert var_p(path, p) == pytest.approx(expect, rel=1e-12)

    def test_nonincreasing_in_p_for_small_increments(self):
        rng = np.random.default_rng(3)
        values = 1.0 + np.cumsum(rng.uniform(-0.04, 0.04, size=50))
        path = step_path(values)
        grid = [1.0, 1.5, 2.0, 2.5, 3.0]
        out = [var_p(path, p) for p in grid]
        assert all(b <= a + 1e-12 for a, b in zip(out, out[1:]))

    def test_dp_size_guard(self):
        # raised before the O(n^2) loop runs or the grid is discretized
        path = step_path(np.ones(MAX_DP_SAMPLES + 1))
        with pytest.raises(TooLarge):
            var_phi(path, VariationFunctional.power(2.5))
        with pytest.raises(TooLarge):
            variation_growth_profile(step_path([1.0, 2.0]), [2.5], [16, MAX_DP_SAMPLES])


STAR_GAUGES = tuple(
    [VariationFunctional.power(p) for p in (1.5, 2.0, 2.5, 3.0)]
    + [
        VariationFunctional.taylor_psi(),
        # convex table: node ratios 0.5, 1, 2, 4 rise, then the linear continuation
        VariationFunctional.from_table([0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 0.25, 1.0, 4.0, 16.0]),
    ]
)

# sqrt(u) at its nodes: concave, so the node ratios fall
SQRT_TABLE = VariationFunctional.from_table([0.0, 0.25, 1.0, 4.0, 9.0], [0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def reduction_paths(draw, max_samples):
    """Prices built from monotone runs, plateaus, levels revisited across
    extrema and drifts with small reversals (deep candidate stacks), on an
    integer grid so ties are common, then scaled."""
    v = [draw(st.integers(0, 6))]
    for _ in range(draw(st.integers(1, 12))):
        room = max_samples - len(v)
        if room <= 0:
            break
        kind = draw(st.sampled_from(["run", "plateau", "level", "drift"]))
        length = draw(st.integers(1, min(room, 40)))
        if kind == "run":
            step = draw(st.sampled_from([-2, -1, 1, 2]))
            v += [v[-1] + step * (k + 1) for k in range(length)]
        elif kind == "plateau":
            v += [v[-1]] * length
        elif kind == "level":
            v += draw(st.lists(st.integers(0, 6), min_size=1, max_size=length))
        else:
            up = draw(st.sampled_from([-1, 1]))
            for k in range(length):
                v.append(v[-1] + up * (2 if k % 2 == 0 else -1))
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.0**-7]))
    base = min(v)
    return step_path([(x - base) * scale + 1.0 for x in v[:max_samples]])


def edge_paths(max_samples):
    """Paths of two or three samples, and constant paths."""
    return st.one_of(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=2, max_size=3).map(step_path),
        st.tuples(st.floats(0.0, 10.0, allow_nan=False), st.integers(2, max_samples)).map(
            lambda c: step_path([c[0]] * c[1])
        ),
    )


class TestTurningPointReduction:
    """The reduced DP (turning points, alternation, dominance stacks) against
    the DP over every sample and the exhaustive oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(reduction_paths(200), edge_paths(200)))
    def test_matches_full_dp(self, path):
        for phi in STAR_GAUGES:
            full = var_dp(path.values, phi.on_increments)
            assert var_phi(path, phi) == pytest.approx(full, rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(reduction_paths(13), edge_paths(13)))
    def test_matches_oracle(self, path):
        for phi in STAR_GAUGES:
            slow = brute_force_var_phi(path, phi)
            assert var_phi(path, phi) == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_star_shape_predicate(self):
        assert all(phi.star_shaped for phi in STAR_GAUGES)
        assert VariationFunctional.power(1.0).star_shaped
        assert not VariationFunctional.power(0.5).star_shaped
        # node ratios 1, 2, 5/3: the ratio falls at the last node
        assert not VariationFunctional.from_table([0, 1, 2, 3], [0, 1, 4, 5]).star_shaped
        # linear table: every node ratio equal
        assert VariationFunctional.from_table([0, 1, 2, 4], [0, 3, 6, 12]).star_shaped
        assert not SQRT_TABLE.star_shaped

    def test_star_gauges_take_the_reduced_dp(self, monkeypatch):
        def no_full_dp(*args):
            raise AssertionError("full DP ran on a star-shaped gauge")

        monkeypatch.setattr(variation, "var_dp", no_full_dp)
        path = step_path([1.0, 3.0, 2.0, 2.0, 5.0, 1.0, 4.0])
        for phi in STAR_GAUGES:
            assert var_phi(path, phi) > 0.0

    def test_concave_table_takes_the_full_dp(self, monkeypatch):
        def no_reduced_dp(*args):
            raise AssertionError("reduced DP ran on a gauge that is not star-shaped")

        monkeypatch.setattr(variation, "_star_dp", no_reduced_dp)
        rng = np.random.default_rng(17)
        for _ in range(40):
            path = random_positive_path(rng, n_max=12)
            assert var_phi(path, SQRT_TABLE) == pytest.approx(
                brute_force_var_phi(path, SQRT_TABLE), rel=1e-12
            )


def oracle_qvar(path, deltas):
    """``qvar_profile`` values with the row-at-a-time DP of ``dp_oracle``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(variation, "var_dp", oracle_dp)
        return [pt.value for pt in qvar_profile(path, deltas)]


def assert_qvar_identical(path, deltas):
    assert [pt.value for pt in qvar_profile(path, deltas)] == oracle_qvar(path, deltas)


VARIATION_LONG_MESHES = (2.0**-4, 2.0**-6, 2.0**-8)
CRITERION_6_MESHES = (1.0, 0.4, 0.15, 0.05, 0.01)


def unconstrained_block_ends(n_max, cells=_DP_CELLS):
    """Where ``var_dp``'s blocks end when any left end is allowed: a block
    starting at s has window s and min(s, cells // s) rows, at least one."""
    ends = []
    s = 1
    while s < n_max:
        s += max(1, min(s, cells // s))
        ends.append(s)
    return ends


# powers of two up to the square root of the budget, then steps of cells // s
BLOCK_EDGE_SIZES = sorted({e + d for e in unconstrained_block_ends(200) for d in (-1, 0, 1)} - {1})


@st.composite
def blocked_dp_cases(draw):
    """(path, strictly decreasing mesh bounds): sample counts on both sides
    of each block edge, irregular times so that first[] jumps inside a block,
    plateaus and constant paths, and meshes from inf to below the finest gap."""
    n = draw(st.one_of(st.sampled_from(BLOCK_EDGE_SIZES), st.integers(2, 200)))
    shape = draw(st.sampled_from(["walk", "levels", "constant"]))
    if shape == "walk":
        steps = draw(st.lists(st.floats(-0.5, 0.5, allow_nan=False), min_size=n - 1, max_size=n - 1))
        values = np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    elif shape == "levels":
        values = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float) / 8.0
    else:
        values = np.full(n, draw(st.floats(0.0, 10.0, allow_nan=False)))
    gaps = draw(st.lists(st.sampled_from([1.0, 1.0, 0.1, 0.37, 6.0]), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    path = PricePath(times / times[-1], values)
    min_gap = float(np.diff(path.times).min())
    fractions = draw(st.lists(st.floats(1e-3, 1.0, allow_nan=False), max_size=4))
    deltas = {math.inf, 0.5 * min_gap} | set(fractions)
    return path, sorted(deltas, reverse=True)


class TestBlockedDP:
    """``var_dp`` runs right ends in blocks; it must give what the
    row-at-a-time DP of ``dp_oracle`` gives, bit for bit."""

    def test_criterion_6_paths(self):
        deltas = sorted({*CRITERION_6_MESHES, *VARIATION_LONG_MESHES}, reverse=True)
        for seed in range(100):
            assert_qvar_identical(_positive_walk(seed, n_max=60), deltas)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(kind="exp-fractional", hurst=0.4, sigma=0.5),
            dict(kind="exp-fractional", hurst=0.6, sigma=0.5),
            dict(kind="jump", jump_rate=300.0, jump_sigma=0.05),
        ],
    )
    def test_variation_long_paths(self, spec):
        path = generate(GeneratorSpec(n_samples=4097, seed=5, **spec))
        assert_qvar_identical(path, VARIATION_LONG_MESHES)

    @settings(max_examples=200, deadline=None)
    @given(blocked_dp_cases())
    def test_block_edges_and_meshes(self, case):
        path, deltas = case
        assert_qvar_identical(path, deltas)
        for gauge in (psi, SQRT_TABLE.on_increments):
            assert var_dp(path.values, gauge) == oracle_dp(path.values, gauge)

    def test_sqrt_table_unconstrained(self):
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=0.4, sigma=0.5))
        gauge = SQRT_TABLE.on_increments
        assert var_dp(path.values, gauge) == oracle_dp(path.values, gauge)

    def test_wide_windows(self):
        # windows of thousands of samples, where the blocks are budget-limited
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=0.4, sigma=0.5, seed=1))
        assert var_dp(path.values, psi) == oracle_dp(path.values, psi)
        assert_qvar_identical(path, CRITERION_6_MESHES[:2])

    @pytest.mark.parametrize("budget", (4, 64))
    @settings(max_examples=100, deadline=None)
    @given(blocked_dp_cases())
    def test_small_cell_budgets(self, budget, case):
        path, deltas = case
        with pytest.MonkeyPatch.context() as m:
            m.setattr(variation, "_DP_CELLS", budget)
            assert_qvar_identical(path, deltas)
            for gauge in (psi, SQRT_TABLE.on_increments):
                assert var_dp(path.values, gauge) == oracle_dp(path.values, gauge)

    def test_blocks_follow_the_cell_budget(self, monkeypatch):
        budget = 64
        monkeypatch.setattr(variation, "_DP_CELLS", budget)
        shapes = []

        def gauge(d):
            shapes.append(d.shape)
            return psi(d)

        values = np.exp(np.random.default_rng(7).normal(0.0, 0.3, size=100).cumsum())
        assert var_dp(values, gauge) == oracle_dp(values, psi)
        # a block of r rows with window w scores r x (w + r - 1) increments
        blocks = [(rows, cols - rows + 1) for rows, cols in shapes]
        assert [w + rows for rows, w in blocks] == unconstrained_block_ends(100, budget)
        assert any(rows == w > 1 for rows, w in blocks)  # limited by the window
        assert any(1 < rows < w for rows, w in blocks)  # limited by the budget
        assert any(rows == 1 and w > budget for rows, w in blocks)  # one row
        assert all(rows * cols < 2 * budget for rows, cols in shapes if rows > 1)


def assert_star_identical(path, gauges):
    y = turning_points(path.values)
    for phi in gauges:
        assert var_phi(path, phi) == oracle_star_dp(y, phi.on_increments), phi.label


def drift_with_reversals(n, tick=2.0**-10):
    """Ticks of +2 and -1: the minima rise, so their stack never pops."""
    steps = np.where(np.arange(n - 1) % 2 == 0, 2.0, -1.0) * tick
    return step_path(1.0 + np.concatenate([[0.0], np.cumsum(steps)]))


VARIATION_LONG_SPECS = (
    dict(kind="exp-fractional", hurst=0.4, sigma=0.5),
    dict(kind="exp-fractional", hurst=0.6, sigma=0.5),
    dict(kind="jump", jump_rate=300.0, jump_sigma=0.05),
)
TABLE_U = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0)
VARIATION_LONG_GAUGES = (
    VariationFunctional.power(2.5),
    VariationFunctional.taylor_psi(),
    VariationFunctional.from_table(TABLE_U, [u * u for u in TABLE_U]),
)
STAR_EDGE_COUNTS = (2, 3, _STAR_ROWS - 1, _STAR_ROWS, _STAR_ROWS + 1, 2 * _STAR_ROWS, 2 * _STAR_ROWS + 1)


class TestBlockedStarDP:
    """``var_phi`` runs star-shaped gauges in blocks of turning points; it
    must give what the point-at-a-time DP of ``star_oracle`` gives, bit for
    bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(reduction_paths(200), edge_paths(200)))
    def test_reduction_and_edge_paths(self, path):
        assert_star_identical(path, STAR_GAUGES)

    @pytest.mark.parametrize("m", STAR_EDGE_COUNTS)
    def test_turning_point_counts_at_block_edges(self, m):
        for seed in range(3):
            walk = np.exp(np.cumsum(np.random.default_rng(seed).normal(0.0, 0.3, size=8 * m)))
            y = turning_points(walk)[:m]
            assert y.shape[0] == m
            assert turning_points(y).shape[0] == m
            assert_star_identical(step_path(y), STAR_GAUGES)
        y = turning_points(drift_with_reversals(m).values)
        assert y.shape[0] == m
        assert_star_identical(step_path(y), STAR_GAUGES)

    @pytest.mark.parametrize("spec", VARIATION_LONG_SPECS, ids=lambda s: f"{s['kind']}-{s.get('hurst')}")
    def test_variation_long_paths(self, spec):
        for seed in (5, 6):
            path = generate(GeneratorSpec(n_samples=4097, seed=seed, **spec))
            assert_star_identical(path, VARIATION_LONG_GAUGES)

    @pytest.mark.parametrize("hurst", (0.4, 0.5, 0.6))
    def test_prop3_long_paths(self, hurst):
        tick = 2.0**-16
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=hurst, sigma=0.5, seed=9))
        path = path.with_values(np.round(path.values / tick) * tick)
        gauges = (VariationFunctional.power(2.5), VariationFunctional.power(3.0))
        for n_steps in (64, 256, 1024):
            assert_star_identical(discretize(path, n_steps), gauges)

    def test_deep_stack_blocks_shrink(self, monkeypatch):
        budget = 64
        monkeypatch.setattr(variation, "_STAR_CELLS", budget)
        path = drift_with_reversals(801)
        for phi in STAR_GAUGES:
            shapes = []

            def gauge(d, phi=phi):
                shapes.append(d.shape)
                return phi.on_increments(d)

            y = turning_points(path.values)
            assert variation._star_dp(y, gauge) == oracle_star_dp(y, phi.on_increments)
            prefixes = [shape for shape in shapes if len(shape) == 2]
            # one point of each type per block at least, whatever the budget
            assert prefixes and all(rows * cols <= max(budget, cols) for rows, cols in prefixes)
            assert min(rows for rows, _ in prefixes) < _STAR_ROWS // 2


class TestBruteForce:
    def test_examples(self):
        assert brute_force_var_phi(step_path([1, 2, 4]), VariationFunctional.power(1)) == 3.0
        assert brute_force_var_phi(step_path([0, 1, 0, 1]), VariationFunctional.power(2)) == 3.0

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_var_phi(step_path(np.ones(21)), VariationFunctional.power(2))

    def test_plain_loop_branch_matches_cached(self):
        # 14 samples exercises the uncached enumeration
        rng = np.random.default_rng(5)
        path = step_path(np.abs(rng.normal(1, 0.5, size=14)))
        phi = VariationFunctional.power(2.5)
        assert brute_force_var_phi(path, phi) == pytest.approx(var_phi(path, phi), rel=1e-12)


class TestVarSigned:
    def test_monotone_up(self):
        assert var_signed(step_path([1, 2, 4])) == (3.0, 3.0, 0.0)

    def test_sawtooth(self):
        assert var_signed(step_path([0, 1, 0, 1])) == (3.0, 2.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=2, max_size=40))
    def test_telescoping_identity(self, values):
        path = step_path(np.asarray(values))
        total, plus, minus = var_signed(path)
        assert total == pytest.approx(plus + minus, abs=1e-9)
        assert plus - minus == pytest.approx(values[-1] - values[0], abs=1e-9)
        assert total == pytest.approx(var_p(path, 1.0), abs=1e-9)

    def test_overflowing_sums_are_inf(self):
        # the exact sums exceed float64, where math.fsum raises OverflowError
        path = step_path([0.0, 1.7e308, 0.0, 1.7e308])
        assert var_signed(path) == (math.inf, math.inf, 1.7e308)
        assert var_p(path, 1.0) == math.inf
        assert var_p(step_path([0.0, 1.7e308, 0.0]), 1.0) == math.inf


class TestPsi:
    def test_fixed_points(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == 0.5  # lnstar 1 = 1

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e6, allow_nan=False))
    def test_dominated_by_half_square(self, u):
        assert psi(u) <= u * u / 2.0 + 1e-15

    def test_not_subadditive_near_zero(self):
        # the square gauge region where the DP genuinely beats the finest sum
        u = 1e-4
        assert psi(2 * u) > 2 * psi(u)


class TestAdmissibility:
    def test_power_above_two_admissible(self):
        rep = phi_admissible(VariationFunctional.power(2.5))
        assert rep.admissible
        assert rep.tail_trend < 1e-6

    def test_square_flagged(self):
        rep = phi_admissible(VariationFunctional.power(2.0))
        assert not rep.admissible

    def test_log_corrected_square_admissible(self):
        def gauge(u):
            u = np.asarray(u, dtype=np.float64)
            out = np.zeros_like(u)
            pos = u > 0
            logstar = np.maximum(1.0, np.abs(np.log2(u[pos])))
            out[pos] = (u[pos] / logstar) ** 2
            return out

        rep = phi_admissible(gauge)
        assert rep.admissible

    def test_psi_gauge_flagged(self):
        # the loglog correction decays too slowly for the dyadic series
        rep = phi_admissible(VariationFunctional.taylor_psi())
        assert not rep.admissible


class TestQvar:
    def test_loose_mesh_equals_var_psi(self):
        path = step_path([1.0, 2.0, 4.0])
        full = var_phi(path, VariationFunctional.taylor_psi())
        for delta in (path.horizon, 2.0 * path.horizon):
            pts = qvar_profile(path, [delta])
            assert pts[0].value == pytest.approx(full, rel=1e-12)

    def test_constant_path_zero(self):
        pts = qvar_profile(step_path([1.0, 1.0, 1.0]), [1.0, 0.1])
        assert all(pt.value == 0.0 for pt in pts)

    def test_sawtooth_tight_mesh(self):
        path = step_path([0.0, 1.0, 0.0, 1.0])
        pts = qvar_profile(path, [0.4])
        assert pts[0].value == pytest.approx(1.5, rel=1e-12)

    def test_profile_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            path = random_positive_path(rng, n_max=30)
            deltas = [1.0, 0.5, 0.2, 0.05, 0.01]
            pts = qvar_profile(path, deltas)
            vals = [pt.value for pt in pts]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[0] <= var_phi(path, VariationFunctional.taylor_psi()) + 1e-12

    def test_degenerate_flag_below_finest_spacing(self):
        path = step_path([0.0, 1.0, 0.0, 1.0])  # spacing 1/3
        pts = qvar_profile(path, [0.2])
        assert pts[0].degenerate
        finest = float(np.sum(psi(np.abs(np.diff(path.values)))))
        assert pts[0].value == pytest.approx(finest, rel=1e-12)

    def test_validation(self):
        path = step_path([1.0, 2.0])
        with pytest.raises(BadStep):
            qvar_profile(path, [-1.0])
        with pytest.raises(BadStep):
            qvar_profile(path, [0.5, 0.5])
        for bad in (math.nan, -math.inf, 0.0):
            with pytest.raises(BadStep):
                qvar_profile(path, [1.0, bad])
        # inf is a valid bound: no mesh constraint
        assert qvar_profile(path, [math.inf])[0].value == psi(1.0)


class TestGrowthProfile:
    def test_monotone_path_p1_constant_column(self):
        path = step_path(np.linspace(1.0, 2.0, 65))
        table = variation_growth_profile(path, [1.0], [4, 16, 64])
        col = [table[(1.0, N)] for N in (4, 16, 64)]
        assert col[0] == pytest.approx(1.0, rel=1e-9)
        assert max(col) - min(col) < 1e-9

    def test_constant_path_zeros(self):
        path = step_path(np.full(33, 2.0))
        table = variation_growth_profile(path, [1.0, 2.0], [4, 8])
        assert all(v == 0.0 for v in table.values())

    def test_refinement_never_decreases(self):
        rng = np.random.default_rng(8)
        values = np.exp(np.cumsum(rng.normal(0, 0.1, size=257)))
        path = step_path(values)
        table = variation_growth_profile(path, [2.5], [16, 64, 256])
        col = [table[(2.5, N)] for N in (16, 64, 256)]
        assert all(b >= a - 1e-12 for a, b in zip(col, col[1:]))

    def test_high_p_saturates_before_low_p(self):
        # direction only: above-index columns grow less under refinement
        from roughmarket import GeneratorSpec, generate

        growth = {1.5: [], 3.0: []}
        for seed in range(12):
            path = generate(
                GeneratorSpec(kind="exp-fractional", n_samples=1025, hurst=0.5, sigma=0.5, seed=seed)
            )
            table = variation_growth_profile(path, [1.5, 3.0], [128, 1024])
            for p in (1.5, 3.0):
                growth[p].append(table[(p, 1024)] / table[(p, 128)])
        assert np.median(growth[3.0]) < np.median(growth[1.5])
