import copy
import dataclasses
import itertools
import math
import operator
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roughmarket import (
    GeneratorSpec,
    PricePath,
    VariationFunctional,
    brute_force_var_phi,
    generate,
    make_path,
    phi_admissible,
    psi,
    qvar_profile,
    var_p,
    var_phi,
    var_signed,
    variation_growth_profile,
)
from roughmarket import variation
from roughmarket.errors import BadSpec, BadStep, InadmissiblePhi, TooLarge
from roughmarket.paths import discretize
from roughmarket.variation import (
    _DP_CELLS,
    _MESH_MIN_ROWS,
    _MESH_ROWS,
    _PSI_MONOTONE_BELOW,
    _STAR_ROWS,
    MAX_DP_SAMPLES,
    turning_points,
)

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
                    oracle_dp(path.values, phi.on_increments), rel=1e-12
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

    def test_gauge_overflow_gives_inf_without_a_warning(self):
        # a numpy RuntimeWarning that leaks fails the test (pyproject filter)
        path = step_path([1.0, 1e300, 0.0])
        for phi in (VariationFunctional.taylor_psi(), VariationFunctional.power(2.5)):
            assert var_phi(path, phi) == math.inf
        assert [pt.value for pt in qvar_profile(path, [math.inf, 0.1])] == [math.inf, math.inf]
        # not star-shaped: the mesh DP's -inf sentinels meet an inf gauge value
        table = VariationFunctional.from_table([0, 1, 2, 3], [0, 10, 11, 15])
        assert var_phi(step_path([1.0, 1e308, 0.0]), table) == math.inf

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
# nondecreasing, but np.interp passes the value at node 2 just below it
DIP_TABLE_U = (0.0, 0.3766006307235283, 0.8844805828655509, 0.9904034061293738, 1.3083831198127944)
DIP_TABLE_PHI = (0.0, 0.03862993109318469, 0.18871277902575045, 0.6630463119991448, 0.7455490777567965)


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
            full = oracle_dp(path.values, phi.on_increments)
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

        monkeypatch.setattr(variation, "_mesh_dp", no_full_dp)
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
    """``qvar_profile`` values from the row-at-a-time DP of ``dp_oracle``,
    one mesh bound at a time, over every sample.  Adjacent steps are always
    feasible, also when a bound below half an ulp of the times leaves
    ``t - d == t``, so ``first[i]`` is at most ``i - 1``."""
    t = path.times
    adjacent = np.arange(t.shape[0]) - 1
    return [
        oracle_dp(path.values, psi, np.minimum(np.searchsorted(t[1:], t - d, side="right"), adjacent))
        for d in deltas
    ]


def assert_qvar_identical(path, deltas):
    assert [pt.value for pt in qvar_profile(path, deltas)] == oracle_qvar(path, deltas)


def assert_unconstrained_identical(path):
    """The kernel on every sample, unpruned with psi and the table, and
    ``var_phi``'s pruned run on the table's price levels."""
    for gauge in (psi, SQRT_TABLE.on_increments):
        assert unpruned_dp(path.values, gauge) == oracle_dp(path.values, gauge)
    assert var_phi(path, SQRT_TABLE) == oracle_dp(path.values, SQRT_TABLE.on_increments)


VARIATION_LONG_MESHES = (2.0**-4, 2.0**-6, 2.0**-8)
CRITERION_6_MESHES = (1.0, 0.4, 0.15, 0.05, 0.01)


def unpruned_dp(values, gauge):
    """``_mesh_dp`` on one mesh that allows every left end, dropping none."""
    n = values.shape[0]
    return variation._mesh_dp(values, np.zeros((1, n), dtype=np.intp), np.full(n, n), gauge)[0]


def checked_mesh_dp(values, firsts, gauge=psi):
    """``_mesh_dp`` on hand-built windows, dropping no left end, against
    ``dp_oracle`` mesh by mesh; returns the first right end of each block."""
    n = values.shape[0]
    rows = []

    def gauge_rows(d):
        rows.append(d.shape[0])
        return gauge(d)

    assert variation._mesh_dp(values, firsts, np.full(n, n), gauge_rows) == [
        oracle_dp(values, gauge, first) for first in firsts
    ]
    return np.cumsum([1] + rows[:-1]).tolist()


def unconstrained_block_ends(n_max, cells=_DP_CELLS, rows=_MESH_ROWS, least=_MESH_MIN_ROWS):
    """Where ``unpruned_dp``'s blocks end on ``n_max`` samples: a block
    starting at s scores s left ends before it and has cells // (s + rows)
    rows, at least ``least`` and at most ``rows``, cut at the last sample."""
    ends = []
    s = 1
    while s < n_max:
        s = min(n_max, s + min(rows, max(least, cells // (s + rows))))
        ends.append(s)
    return ends


# unpruned: full blocks of rows while s + rows fits rows times in the
# budget, then cells // (s + rows); pruned, with few live left ends:
# multiples of the rows
BLOCK_EDGE_SIZES = sorted(
    ({e + d for e in unconstrained_block_ends(200) for d in (-1, 0, 1)} - {1})
    | {k * _MESH_ROWS + d for k in range(1, 7) for d in (0, 1, 2)}
)


@st.composite
def blocked_dp_cases(draw):
    """(path, 1-6 strictly decreasing mesh bounds): sample counts on both
    sides of each block edge, irregular times so that first[] jumps inside a
    block, plateaus and constant paths, oscillations on both sides of
    ``_PSI_MONOTONE_BELOW``, and meshes from inf to below the finest gap."""
    n = draw(st.one_of(st.sampled_from(BLOCK_EDGE_SIZES), st.integers(2, 200)))
    shape = draw(st.sampled_from(["walk", "levels", "constant"]))
    if shape == "walk":
        steps = draw(st.lists(st.floats(-0.5, 0.5, allow_nan=False), min_size=n - 1, max_size=n - 1))
        values = np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    elif shape == "levels":
        values = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float) / 8.0
    else:
        values = np.full(n, draw(st.floats(0.0, 10.0, allow_nan=False)))
    values = values * draw(st.sampled_from([1.0, 1.0, 2.0**-7, 30.0, 100.0]))
    gaps = draw(st.lists(st.sampled_from([1.0, 1.0, 0.1, 0.37, 6.0]), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    path = PricePath(times / times[-1], values)
    min_gap = float(np.diff(path.times).min())
    fractions = draw(st.lists(st.floats(1e-3, 1.0, allow_nan=False), max_size=4))
    pool = sorted({math.inf, 0.5 * min_gap} | set(fractions), reverse=True)
    deltas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    return path, sorted(deltas, reverse=True)


class TestBlockedDP:
    """``_mesh_dp`` runs right ends in blocks: for all of ``qvar_profile``'s
    meshes in one pass, pruned below ``_PSI_MONOTONE_BELOW`` and unpruned
    above, and for ``var_phi`` on a table that is not star-shaped.  Each
    must give what the row-at-a-time DP of ``dp_oracle`` gives, bit for
    bit."""

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
        assert_unconstrained_identical(path)

    def test_sqrt_table_unconstrained(self):
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=0.4, sigma=0.5))
        gauge = SQRT_TABLE.on_increments
        assert var_phi(path, SQRT_TABLE) == unpruned_dp(path.values, gauge) == oracle_dp(path.values, gauge)

    def test_wide_windows(self):
        # windows of thousands of samples, where the blocks are budget-limited
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=0.4, sigma=0.5, seed=1))
        assert unpruned_dp(path.values, psi) == oracle_dp(path.values, psi)
        assert_qvar_identical(path, CRITERION_6_MESHES[:2])

    @pytest.mark.parametrize("budget", (4, 64))
    @settings(max_examples=100, deadline=None)
    @given(blocked_dp_cases())
    def test_small_cell_budgets(self, budget, case):
        path, deltas = case
        with pytest.MonkeyPatch.context() as m:
            m.setattr(variation, "_DP_CELLS", budget)
            assert_qvar_identical(path, deltas)
            assert_unconstrained_identical(path)

    def test_blocks_follow_the_cell_budget(self, monkeypatch):
        budget, most, least = 64, 4, 2
        monkeypatch.setattr(variation, "_DP_CELLS", budget)
        monkeypatch.setattr(variation, "_MESH_ROWS", most)
        monkeypatch.setattr(variation, "_MESH_MIN_ROWS", least)
        shapes = []

        def gauge(d):
            shapes.append(d.shape)
            return psi(d)

        values = np.exp(np.random.default_rng(7).normal(0.0, 0.3, size=100).cumsum())
        assert unpruned_dp(values, gauge) == oracle_dp(values, psi)
        # a block of r rows starting at s scores r x (s + r) increments
        blocks = [(rows, cols - rows) for rows, cols in shapes]
        assert [s + rows for rows, s in blocks] == unconstrained_block_ends(100, budget, most, least)
        assert any(rows == most for rows, s in blocks)  # limited by the rows
        assert any(least < rows < most for rows, s in blocks)  # limited by the budget
        assert any(rows == least and rows * cols > budget for rows, cols in shapes)  # the fewest
        assert all(rows * cols <= budget for rows, cols in shapes if rows > least)

    def test_window_from_the_first_left_end_before_a_block(self):
        # meshes 0 and 1 share their windows, so at a block's first right end
        # s mesh 1's starts at the block's first left end, firsts[0, s]: the
        # segment before it is its scratch row alone
        i = np.arange(200)
        wide = np.maximum(i - 30, 0)
        firsts = np.array([wide, wide, np.maximum(i - 10, 0)])
        values = np.random.default_rng(1).uniform(1.0, 2.0, 200)
        starts = checked_mesh_dp(values, firsts)
        assert any(firsts[1, s] == firsts[0, s] > 0 for s in starts)
        # bounds at least the path's length: two windows of every left end
        for scale in (1.0, 30.0):  # pruned, then unpruned
            assert_qvar_identical(step_path(scale * values), [math.inf, 1.0, 0.05])

    def test_window_from_the_first_sample_of_a_block(self):
        # at right end s + 3, mesh 2's window starts at s, the block's first
        # own sample, so every left end before the block is outside it
        i = np.arange(200)
        firsts = np.array([np.maximum(i - 40, 0), np.maximum(i - 12, 0), np.maximum(i - 3, 0)])
        starts = checked_mesh_dp(np.random.default_rng(2).uniform(1.0, 2.0, 200), firsts)
        assert any(e - s > 3 and s > 1 for s, e in zip(starts, starts[1:]))

    @pytest.mark.parametrize("scale", (1.0, 30.0))  # pruned, then unpruned
    def test_adjacent_only_bound_among_eight(self, scale, monkeypatch):
        # the last of a full pass of bounds is below the finest gap: its
        # window is each right end's predecessor, the layout's last segment
        mesh_dp = variation._mesh_dp
        passes = []

        def counted(values, firsts, until, gauge):
            passes.append(firsts)
            return mesh_dp(values, firsts, until, gauge)

        monkeypatch.setattr(variation, "_mesh_dp", counted)
        path = step_path(scale * np.random.default_rng(3).uniform(1.0, 2.0, 200))
        deltas = [math.inf, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.5 * float(np.diff(path.times).min())]
        assert_qvar_identical(path, deltas)
        assert [firsts.shape[0] for firsts in passes] == [len(deltas)] == [variation._MESH_GROUP]
        assert passes[0][-1, 1:].tolist() == list(range(199))


def floats_around(x, ulps):
    """Every float64 within ``ulps`` units in the last place of ``x`` > 0, in order."""
    return (np.float64(x).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)


class TestMeshDP:
    """``_mesh_dp`` drops the left ends that later samples dominate, which is
    exact where the gauge is nondecreasing in float64: psi below
    ``_PSI_MONOTONE_BELOW``, and tables that pass the node-join check.
    ``qvar_profile`` groups the mesh bounds."""

    def test_psi_nondecreasing_below_the_guard(self):
        rng = np.random.default_rng(13)
        u = np.exp(rng.uniform(math.log(1e-300), math.log(_PSI_MONOTONE_BELOW), size=2_000_000))
        u = u[u < _PSI_MONOTONE_BELOW]
        assert np.all(psi(np.nextafter(u, math.inf)) >= psi(u))
        u = np.concatenate([[0.0, math.ulp(0.0), 1e-310], np.sort(u)])
        assert np.all(np.diff(psi(u)) >= 0.0)
        # the joins of psi's pieces: e^-e, and the guard itself
        for x in (math.exp(-math.e), _PSI_MONOTONE_BELOW):
            assert np.all(np.diff(psi(floats_around(x, 200_000))) >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(reduction_paths(200), edge_paths(200)))
    def test_undominated_until_scans(self, path):
        x = path.values.tolist()
        n = len(x)

        def passage(j, hit):
            return next((k for k in range(j + 1, n) if hit(x[k], x[j])), n)

        expect = [max(passage(j, operator.le), passage(j, operator.ge)) for j in range(n)]
        assert variation._undominated_until(path.values).tolist() == expect

    def test_oscillation_picks_the_pruning(self, monkeypatch):
        mesh_dp = variation._mesh_dp
        calls = []

        def counted(values, firsts, until, gauge):
            calls.append(until.tolist())
            return mesh_dp(values, firsts, until, gauge)

        monkeypatch.setattr(variation, "_mesh_dp", counted)
        meshes = [math.inf, 0.4, 0.1]
        below = np.nextafter(_PSI_MONOTONE_BELOW, 0.0)
        for top, pruned in ((below, True), (_PSI_MONOTONE_BELOW, False), (1e6, False)):
            path = step_path([0.0, top, 0.25 * top, 0.75 * top, 0.5 * top, 0.0])
            calls.clear()
            assert [pt.value for pt in qvar_profile(path, meshes)] == oracle_qvar(path, meshes)
            assert calls == [[5, 6, 5, 6, 6, 6] if pruned else [6] * 6]

    def test_no_meshes(self):
        for top in (1.0, 1e6):  # pruned and unpruned
            assert qvar_profile(step_path([0.0, top, 0.5 * top]), []) == []

    def test_table_certificate(self, monkeypatch):
        mesh_dp = variation._mesh_dp
        pruned = []

        def counted(values, firsts, until, gauge):
            pruned.append(bool((until < values.shape[0]).any()))
            return mesh_dp(values, firsts, until, gauge)

        monkeypatch.setattr(variation, "_mesh_dp", counted)
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=257, hurst=0.4, sigma=0.5, seed=2))
        dips = VariationFunctional.from_table(DIP_TABLE_U, DIP_TABLE_PHI)
        assert dips.on_increments(np.nextafter(DIP_TABLE_U[2], 0.0)) > DIP_TABLE_PHI[2]
        # falls by an ulp past node 1, too little for np.interp to dip at node 2
        falls = VariationFunctional.from_table([0.0, 1.0, 2.0], [0.0, 1.0, np.nextafter(1.0, 0.0)])
        assert falls.on_increments(np.nextafter(2.0, 0.0)) == falls.table_phi[2]
        for phi, certified in ((dips, False), (falls, False), (SQRT_TABLE, True)):
            assert not phi.star_shaped
            assert var_phi(path, phi) == oracle_dp(path.values, phi.on_increments)
            assert pruned == [certified]
            pruned.clear()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=8),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    )
    def test_interp_nondecreasing_inside_segments(self, du, dv):
        # np.interp's slope*(x - u_j) + v_j, which the certificate relies on
        k = min(len(du), len(dv))
        u = np.concatenate([[0.0], np.cumsum(du[:k])])
        v = np.concatenate([[0.0], np.cumsum(dv[:k])])
        phi = VariationFunctional.from_table(u, v)
        for lo, hi in zip(u, [*u[1:], 2.0 * u[-1]]):  # the last: the continuation
            x = np.sort(np.concatenate([np.linspace(lo, hi, 4001)[:-1], floats_around(hi, 500)[:500]]))
            assert np.all(np.diff(phi.on_increments(x[x >= lo])) >= 0.0)

    def test_meshes_go_in_groups(self, monkeypatch):
        mesh_dp = variation._mesh_dp
        passes = []

        def counted(values, firsts, until, gauge):
            passes.append(firsts.shape[0])
            return mesh_dp(values, firsts, until, gauge)

        monkeypatch.setattr(variation, "_mesh_dp", counted)
        monkeypatch.setattr(variation, "_MESH_GROUP", 2)
        path = _positive_walk(3, n_max=60)
        assert_qvar_identical(path, CRITERION_6_MESHES)
        assert passes == [2, 2, 1]

    @pytest.mark.parametrize("rows, group", [(1, 1), (2, 3), (7, 2)])
    @settings(max_examples=60, deadline=None)
    @given(blocked_dp_cases())
    def test_small_blocks_and_groups(self, rows, group, case):
        path, deltas = case
        with pytest.MonkeyPatch.context() as m:
            m.setattr(variation, "_MESH_ROWS", rows)
            m.setattr(variation, "_MESH_GROUP", group)
            assert_qvar_identical(path, deltas)

    def test_memory_flat_in_the_number_of_meshes(self):
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=1025, hurst=0.5, sigma=0.5, seed=3))
        assert np.ptp(path.values) < _PSI_MONOTONE_BELOW

        def peak(deltas):
            tracemalloc.start()
            try:
                qvar_profile(path, deltas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few = peak(VARIATION_LONG_MESHES)
        assert peak(np.geomspace(1.0, 1e-4, 300)) <= 3 * few


LEVEL_SCALES = (2.0**-7, 1.0 / 3.0, 2.0, 3.0, 40.0)  # oscillation 6 x scale: both sides of 15


@st.composite
def plateau_cases(draw):
    """(path, 1-6 strictly decreasing mesh bounds): a step path whose levels
    each repeat 1-6 times, on irregular times, with oscillation on both
    sides of ``_PSI_MONOTONE_BELOW``, and bounds from inf to the finest gap
    and below it, down to bounds that leave ``t - d == t``."""
    k = draw(st.integers(1, 60))
    levels = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    repeats = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    values = np.repeat(levels, repeats) * draw(st.sampled_from(LEVEL_SCALES))
    assume(values.size >= 2)
    gaps = draw(st.lists(st.sampled_from([1.0, 0.1, 0.37, 6.0]), min_size=values.size - 1, max_size=values.size - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    path = PricePath(times / times[-1], values)
    min_gap = float(np.diff(path.times).min())
    fractions = draw(st.lists(st.floats(1e-3, 1.0, allow_nan=False), max_size=3))
    pool = sorted({math.inf, min_gap, 0.5 * min_gap, 5e-17, 1e-300} | set(fractions), reverse=True)
    deltas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    return path, sorted(deltas, reverse=True)


class TestLevelRuns:
    """``qvar_profile`` and the non-star branch of ``var_phi`` keep one DP row
    per run of equal prices; they must give what the row-at-a-time DP of
    ``dp_oracle`` gives on every sample, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(plateau_cases())
    def test_qvar_matches_the_sample_dp(self, case):
        path, deltas = case
        assert_qvar_identical(path, deltas)

    @settings(max_examples=200, deadline=None)
    @given(plateau_cases())
    def test_sqrt_table_matches_the_sample_dp(self, case):
        path, _ = case
        gauge = SQRT_TABLE.on_increments
        assert var_phi(path, SQRT_TABLE) == oracle_dp(path.values, gauge)

    def test_constant_path(self):
        path = step_path(np.full(50, 2.5))
        deltas = [math.inf, 0.1, 1e-300]
        assert [pt.value for pt in qvar_profile(path, deltas)] == oracle_qvar(path, deltas) == [0.0] * 3
        assert var_phi(path, SQRT_TABLE) == oracle_dp(path.values, SQRT_TABLE.on_increments) == 0.0

    @pytest.mark.parametrize("scale", (1.0, 20.0))  # pruned, then unpruned
    def test_bounds_below_the_finest_gap(self, scale):
        # 5e-17 and less leave times - d == times, which gave -inf or a
        # ZeroDivisionError when adjacent steps were not kept
        path = PricePath(np.array([0.0, 0.25, 0.5, 0.9, 1.0]), scale * np.array([1.0, 1.0, 0.5, 0.5, 0.75]))
        min_gap = float(np.diff(path.times).min())
        deltas = [min_gap, 0.5 * min_gap, 5e-17, 1e-300, math.ulp(0.0)]
        values = [pt.value for pt in qvar_profile(path, deltas)]
        assert math.isfinite(values[0])
        assert values == [values[0]] * len(deltas) == oracle_qvar(path, deltas)
        bug = qvar_profile(make_path([0.0, 0.5, 1.0], [1.0, 1.0, 2.0 * scale], 1.0), [5e-17])
        assert bug[0].value == psi(2.0 * scale - 1.0)

    @settings(max_examples=100, deadline=None)
    @given(plateau_cases())
    def test_every_bound_at_most_the_finest_gap_allows_adjacent_steps_only(self, case):
        path, deltas = case
        min_gap = float(np.diff(path.times).min())
        tight = [d for d in deltas if d <= min_gap]
        adjacent = 0.0
        for u in psi(np.abs(np.diff(path.values))).tolist():
            adjacent += u
        assert [pt.value for pt in qvar_profile(path, tight)] == [adjacent] * len(tight)

    def test_one_row_per_level_run(self, monkeypatch):
        rows = []
        mesh_dp = variation._mesh_dp

        def mesh_rows(values, firsts, until, gauge):
            rows.append(values.shape[0])
            return mesh_dp(values, firsts, until, gauge)

        monkeypatch.setattr(variation, "_mesh_dp", mesh_rows)
        levels = [1.0, 1.0, 1.0, 3.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 1.0]
        for scale in (1.0, 20.0):  # pruned, then unpruned
            path = step_path(scale * np.array(levels))
            rows.clear()
            assert_qvar_identical(path, [math.inf, 0.3, 0.1])
            assert rows == [5]
        rows.clear()
        path = generate(GeneratorSpec(kind="jump", n_samples=4097, jump_rate=300.0, jump_sigma=0.05, seed=5))
        assert var_phi(path, SQRT_TABLE) == oracle_dp(path.values, SQRT_TABLE.on_increments)
        assert rows == [1 + np.count_nonzero(np.diff(path.values))] and rows[0] < 400


def assert_star_identical(path, gauges):
    y = turning_points(path.values)
    for phi in gauges:
        assert var_phi(path, phi) == oracle_star_dp(y, phi.on_increments), phi.label


def drift_with_reversals(n, tick=2.0**-10):
    """Ticks of +2 and -1: the minima rise, so their stack never pops."""
    steps = np.where(np.arange(n - 1) % 2 == 0, 2.0, -1.0) * tick
    return step_path(1.0 + np.concatenate([[0.0], np.cumsum(steps)]))


def converging_then_expanding(n, swings=64, tick=2.0**-10):
    """Zigzags that narrow for ``swings`` turning points, then widen for as
    many: each cycle builds both stacks up and pops them to the bottom, so
    the points read far more stack tops than on a price path."""
    cycle = np.arange(n) % (2 * swings)
    amplitude = np.where(cycle < swings, swings - cycle, cycle - swings + 1)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return step_path(4.0 + sign * amplitude * tick)


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
            value, plan = variation._star_dp(y, gauge)
            assert value == oracle_star_dp(y, phi.on_increments)
            prefixes = [shape for shape in shapes if len(shape) == 2]
            # one point of each type per block at least, whatever the budget
            assert prefixes and all(rows * cols <= max(budget, cols) for rows, cols in prefixes)
            assert min(rows for rows, _ in prefixes) < _STAR_ROWS // 2
            # the plan keeps those blocks: a re-score makes the same gauge calls
            built = shapes[:]
            shapes.clear()
            assert variation._star_dp(plan, gauge)[0] == value
            assert shapes == built


def copy_of(path):
    return PricePath(path.times.copy(), path.values.copy())


def assert_rescores_identical(path, gauges, orders):
    """On a copy of ``path`` per order, the first gauge builds the plan and
    the others re-score it; each value must be the oracle's and a new path's."""
    y = turning_points(path.values)
    with np.errstate(over="ignore"):  # the oracle runs the gauge with warnings on
        expected = {phi: oracle_star_dp(y, phi.on_increments) for phi in gauges}
    for phi in gauges:
        assert var_phi(copy_of(path), phi) == expected[phi], phi.label
    for order in orders:
        twin = copy_of(path)
        for k in order:
            assert var_phi(twin, gauges[k]) == expected[gauges[k]], (order, gauges[k].label)


def each_first(count):
    """Each gauge first, the rest forwards and backwards."""
    rest = lambda k: [j for j in range(count) if j != k]
    return [[k] + rest(k) for k in range(count)] + [[k] + rest(k)[::-1] for k in range(count)]


def star_plan(path):
    return path.__dict__["_star_plan"]


def signed(y):
    """The turning points ``y`` with the minima negated, as the star DP takes them."""
    c = y.copy()
    c[int(y[1] < y[0]) :: 2] *= -1.0
    return c


class TestStarPlan:
    """The first star-shaped gauge on a path keeps the DP's value-only half
    on it; every later one re-scores that plan, with the same floats."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(reduction_paths(200), edge_paths(200)), st.permutations(range(len(STAR_GAUGES))))
    def test_any_order_matches_the_oracle(self, path, order):
        assert_rescores_identical(path, STAR_GAUGES, [order])

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0],
            [2.0, 1.0],
            [3.0, 3.0],
            [1.0, 1.0, 3.0, 3.0, 2.0, 2.0],
            [1.0, 3.0, 3.0, 3.0, 1.0],
            [2.0, 2.0, 2.0, 5.0, 5.0, 1.0, 1.0, 4.0],
            [1.0, 1e150, 0.0],  # p = 2.5 and 3 overflow to inf
            [1.0, 1e300, 0.0],  # every gauge overflows to inf
            [1.0, 1e300, 0.0, 1e300, 1.0],
        ],
        ids=str,
    )
    def test_every_order_on_two_point_plateau_and_overflow_paths(self, values):
        orders = list(itertools.permutations(range(len(STAR_GAUGES))))
        assert_rescores_identical(step_path(values), STAR_GAUGES, orders)

    def test_overflow_to_inf_on_a_re_score(self):
        # the plan is built on a finite value, and p = 2.5 and 3 overflow on it
        path = step_path([1.0, 1e150, 0.0])
        assert var_phi(path, VariationFunctional.power(1.5)) < math.inf
        values = {phi.label: var_phi(path, phi) for phi in STAR_GAUGES[1:]}
        assert values["p=2.5"] == values["p=3"] == math.inf
        assert values["p=2"] < math.inf and values["psi"] < math.inf

    @pytest.mark.parametrize("m", STAR_EDGE_COUNTS)
    def test_block_edges(self, m):
        walk = np.exp(np.cumsum(np.random.default_rng(m).normal(0.0, 0.3, size=8 * m)))
        for y in (turning_points(walk)[:m], turning_points(drift_with_reversals(m).values)):
            assert_rescores_identical(step_path(y), STAR_GAUGES, each_first(len(STAR_GAUGES)))

    @pytest.mark.parametrize("spec", VARIATION_LONG_SPECS, ids=lambda s: f"{s['kind']}-{s.get('hurst')}")
    def test_variation_long_paths(self, spec):
        path = generate(GeneratorSpec(n_samples=4097, seed=5, **spec))
        gauges = VARIATION_LONG_GAUGES + (VariationFunctional.power(3.0),)
        assert_rescores_identical(path, gauges, each_first(len(gauges)))

    def test_deep_stacks(self):
        gauges = (VariationFunctional.power(2.5), VariationFunctional.taylor_psi())
        assert_rescores_identical(drift_with_reversals(3001), gauges, [[0, 1], [1, 0]])

    def test_a_path_past_the_tops_cap_keeps_no_plan(self):
        path = converging_then_expanding(1024)
        twin = copy_of(path)
        var_phi(twin, VariationFunctional.power(2.5))
        assert "_star_plan" not in vars(twin)
        assert_rescores_identical(path, STAR_GAUGES, each_first(len(STAR_GAUGES)))

    def test_the_plan_keeps_the_producers_records_as_yielded(self, monkeypatch):
        monkeypatch.setattr(variation, "_STAR_PLAN_TOPS", math.inf)  # small drifts pass the cap
        paths = [generate(GeneratorSpec(n_samples=4097, seed=5, **spec)) for spec in VARIATION_LONG_SPECS]
        multi_block = [m for m in STAR_EDGE_COUNTS if m > _STAR_ROWS + 1]
        paths += [drift_with_reversals(m) for m in multi_block + [3001]]
        for m in multi_block:
            walk = np.exp(np.cumsum(np.random.default_rng(m).normal(0.0, 0.3, size=8 * m)))
            paths.append(step_path(turning_points(walk)[:m]))
        star_blocks = variation._star_blocks
        for path in paths:
            yielded, at_yield = [], []

            def spy(c):
                for record in star_blocks(c):
                    yielded.append(record)
                    at_yield.append(copy.deepcopy(record))
                    yield record

            monkeypatch.setattr(variation, "_star_blocks", spy)
            for phi in STAR_GAUGES:
                var_phi(path, phi)
            c, records = star_plan(path)
            assert np.array_equal(c, signed(turning_points(path.values)))
            # the producer ran once, and the plan holds its own records, in order
            assert len(records) == len(yielded) > 1
            assert all(kept is record for kept, record in zip(records, yielded))
            # and no scoring changed one after it was yielded
            for (e, low, push, args, tops), want in zip(records, at_yield):
                assert (e, low, push, tops) == (want[0], want[1], want[2], want[4])
                assert args.dtype == want[3].dtype and args.tobytes() == want[3].tobytes()

    def test_growth_profile_re_scores_the_full_resolution_level(self, monkeypatch):
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=1025, hurst=0.4, seed=2))
        before = variation_growth_profile(copy_of(path), [2.5, 3.0], [64, 1024])
        var_phi(path, VariationFunctional.taylor_psi())
        plan = star_plan(path)
        fresh = []
        star_dp = variation._star_dp

        def spy(y, gauge):
            fresh.append(isinstance(y, np.ndarray))
            return star_dp(y, gauge)

        monkeypatch.setattr(variation, "_star_dp", spy)
        assert variation_growth_profile(path, [2.5, 3.0], [64, 1024]) == before
        # N = 64 fits in one block and keeps no plan; N = 1024 is the path
        # itself, whose plan both p re-score
        assert fresh == [True, True, False, False]
        assert star_plan(path) is plan

    def test_the_plan_is_linear(self):
        for path in (
            generate(GeneratorSpec(kind="exp-fractional", n_samples=4097, hurst=0.4, sigma=0.5, seed=1)),
            drift_with_reversals(4097),
            converging_then_expanding(4096),
        ):
            var_phi(path, VariationFunctional.power(2.5))
            y = turning_points(path.values)
            m = y.shape[0]
            plan = vars(path).get("_star_plan")
            var_phi(path, VariationFunctional.taylor_psi())
            if plan is None:  # too many tops a point to keep: only the zigzags
                tops = sum(record[3].shape[0] for record in variation._star_blocks(signed(y)))
                assert "_star_plan" not in vars(path) and tops > variation._STAR_PLAN_TOPS * m
                continue
            assert star_plan(path) is plan
            c, records = plan
            assert c.shape == (m,) and len(records) <= m - 1
            assert records[-1][0] == m
            n_args = sum(args.shape[0] for _, _, _, args, _ in records)
            assert n_args <= variation._STAR_PLAN_TOPS * m
            # the entries written back are the tops read or points pushed
            assert sum(len(k) for *_, kept in records for k in kept) <= n_args + m

    @pytest.mark.parametrize("m", (2, 3, _STAR_ROWS, _STAR_ROWS + 1, _STAR_ROWS + 2))
    def test_one_block_keeps_no_plan(self, m):
        walk = np.exp(np.cumsum(np.random.default_rng(m).normal(0.0, 0.3, size=8 * m)))
        y = turning_points(walk)[:m]
        path = step_path(y)
        gauge = VariationFunctional.power(2.5).on_increments
        value, plan = variation._star_dp(y, gauge)
        assert var_phi(path, VariationFunctional.power(2.5)) == value
        # the first point starts the stacks, and a block takes _STAR_ROWS more
        if m <= _STAR_ROWS + 1:
            assert plan is None and "_star_plan" not in vars(path)
        else:
            assert "_star_plan" in vars(path)
            assert variation._star_dp(plan, gauge) == (value, plan)

    def test_a_path_keeps_its_equality_repr_and_pickle(self):
        path = generate(GeneratorSpec(kind="exp-fractional", n_samples=513, seed=4))
        twin = copy_of(path)
        pickled, text = pickle.dumps(path), repr(path)
        var_phi(path, VariationFunctional.power(2.5))
        assert "_star_plan" in vars(path) and "_var_phi" in vars(path)
        assert path == path and not (path != path)
        assert path == twin and twin == path and twin == copy_of(twin)  # the fields only
        assert repr(path) == text
        assert pickle.dumps(path) == pickled
        assert path.__getstate__().keys() == {f.name for f in dataclasses.fields(PricePath)}
        back = pickle.loads(pickle.dumps(path))
        assert "_star_plan" not in vars(back) and "_var_phi" not in vars(back)
        assert back.times.tobytes() == path.times.tobytes()
        assert back.values.tobytes() == path.values.tobytes()
        assert var_phi(back, VariationFunctional.taylor_psi()) == var_phi(path, VariationFunctional.taylor_psi())


@pytest.fixture
def dp_calls(monkeypatch):
    """The DP kernels that var_phi runs, in call order: "star" or "mesh"."""
    calls = []
    star_dp, mesh_dp = variation._star_dp, variation._mesh_dp

    def star_spy(y, gauge):
        calls.append("star")
        return star_dp(y, gauge)

    def mesh_spy(values, firsts, until, gauge):
        calls.append("mesh")
        return mesh_dp(values, firsts, until, gauge)

    monkeypatch.setattr(variation, "_star_dp", star_spy)
    monkeypatch.setattr(variation, "_mesh_dp", mesh_spy)
    return calls


class TestScoreCache:
    """A path keeps the value of each gauge var_phi scored on it; a call with
    an equal gauge returns that float and runs no DP."""

    PATH = GeneratorSpec(kind="exp-fractional", n_samples=1025, hurst=0.4, seed=3)

    @pytest.mark.parametrize(
        "phi, kernel",
        [(phi, "star") for phi in STAR_GAUGES]
        + [(SQRT_TABLE, "mesh"), (VariationFunctional.power(0.5), None)],
        ids=lambda x: getattr(x, "label", x),
    )
    def test_a_repeated_gauge_runs_no_dp(self, phi, kernel, dp_calls):
        path = generate(self.PATH)
        first = var_phi(path, phi)
        assert dp_calls == ([kernel] if kernel else [])
        for _ in range(3):
            assert var_phi(path, phi) == first
        assert len(dp_calls) == (1 if kernel else 0)
        assert vars(path)["_var_phi"] == {phi: first}
        assert first == var_phi(generate(self.PATH), phi)

    def test_an_equal_gauge_hits_and_another_re_scores_the_plan(self, dp_calls):
        fresh_psi = var_phi(generate(self.PATH), VariationFunctional.taylor_psi())
        path = generate(self.PATH)
        dp_calls.clear()
        first = var_phi(path, VariationFunctional.power(2.5))
        plan = star_plan(path)
        assert var_phi(path, VariationFunctional.power(2.5)) == first
        assert var_p(path, 2.5) == first
        assert dp_calls == ["star"]
        assert var_phi(path, VariationFunctional.taylor_psi()) == fresh_psi
        assert dp_calls == ["star", "star"] and star_plan(path) is plan
        table = STAR_GAUGES[-1]
        again = VariationFunctional.from_table(table.table_u, table.table_phi)
        assert again is not table and again == table
        assert var_phi(path, table) == var_phi(path, again)
        assert dp_calls == ["star"] * 3

    def test_growth_profile_after_var_phi_runs_no_dp_at_full_resolution(self, dp_calls):
        path = generate(self.PATH)
        before = variation_growth_profile(copy_of(path), [2.5], [64, 1024])
        value = var_phi(path, VariationFunctional.power(2.5))
        assert value == before[(2.5, 1024)]
        dp_calls.clear()
        assert variation_growth_profile(path, [2.5], [64, 1024]) == before
        assert dp_calls == ["star"]  # N = 64 only: N = 1024 is the path itself

    def test_copies_pickles_and_equal_twins_start_empty(self):
        path = generate(self.PATH)
        var_phi(path, VariationFunctional.power(2.5))
        var_phi(path, SQRT_TABLE)
        assert len(vars(path)["_var_phi"]) == 2
        for other in (
            copy.copy(path),
            copy.deepcopy(path),
            pickle.loads(pickle.dumps(path)),
            copy_of(path),
            PricePath(path.times, path.values),
            path.with_values(path.values),
        ):
            assert other == path and "_var_phi" not in vars(other) and "_star_plan" not in vars(other)
            assert var_phi(other, SQRT_TABLE) == var_phi(path, SQRT_TABLE)
            assert list(vars(other)["_var_phi"]) == [SQRT_TABLE]
        assert len(vars(path)["_var_phi"]) == 2

    def test_a_call_that_raises_keeps_nothing(self, dp_calls):
        path = step_path(np.ones(MAX_DP_SAMPLES + 1))
        for phi in (VariationFunctional.power(2.5), SQRT_TABLE):
            for _ in range(2):
                with pytest.raises(TooLarge):
                    var_phi(path, phi)
        assert "_var_phi" not in vars(path) and "_star_plan" not in vars(path)
        assert dp_calls == []


class TestBruteForce:
    def test_examples(self):
        assert brute_force_var_phi(step_path([1, 2, 4]), VariationFunctional.power(1)) == 3.0
        assert brute_force_var_phi(step_path([0, 1, 0, 1]), VariationFunctional.power(2)) == 3.0

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_var_phi(step_path(np.ones(17)), VariationFunctional.power(2))

    def test_matches_dp_up_to_the_size_limit(self):
        # past the 13 samples that the suites use, up to the oracle's limit
        rng = np.random.default_rng(5)
        phi = VariationFunctional.power(2.5)
        for n in (14, 16):
            path = step_path(np.abs(rng.normal(1, 0.5, size=n)))
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


class TestTableGauge:
    TABLES = (SQRT_TABLE, VariationFunctional.from_table(DIP_TABLE_U, DIP_TABLE_PHI), STAR_GAUGES[-1])

    @pytest.mark.parametrize(
        "u, v",
        [((0, 1), (0, math.nan)), ((0, 1, 2), (0, math.nan, 4)), ((0, 1, 2), (0, 1, math.nan)), ((0, 1), (0, -1))],
        ids=str,
    )
    def test_nan_and_negative_values_are_refused(self, u, v):
        # a NaN gauge value would make the DPs return -inf or 0.0 with no error
        with pytest.raises(InadmissiblePhi, match="gauge values must be >= 0"):
            VariationFunctional.from_table(u, v)

    @staticmethod
    def whole_array(phi, d):
        # the continuation past the last node, formed on every increment
        uu, vv = np.array(phi.table_u), np.array(phi.table_phi)
        slope = (vv[-1] - vv[-2]) / (uu[-1] - uu[-2])
        return np.where(d > uu[-1], vv[-1] + slope * (d - uu[-1]), np.interp(d, uu, vv))

    @pytest.mark.parametrize("phi", TABLES, ids=["sqrt", "dips", "convex"])
    def test_continuation_on_the_beyond_increments_only(self, phi):
        last = phi.table_u[-1]
        d = np.concatenate(
            [np.linspace(0.0, 3.0 * last, 301), floats_around(last, 40), [math.inf, 1e300, 0.0]]
        )
        rng = np.random.default_rng(8)
        for x in (d, rng.permutation(d).reshape(5, -1), rng.permutation(d)[::3], d[d <= last]):
            out = phi.on_increments(x)
            assert out.shape == x.shape
            assert np.array_equal(out, self.whole_array(phi, x))
        for x in (0.5 * last, last, np.nextafter(last, math.inf), 2.0 * last, math.inf):
            assert phi(x) == self.whole_array(phi, np.float64(x))


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

    @pytest.mark.parametrize("N_grid", [[2.5, 8.9], [True, 4], [4, 8.0], ["16"], [None]])
    def test_n_must_be_an_integer(self, N_grid, monkeypatch):
        def no_size_check(n):
            raise AssertionError("check_dp_samples ran")

        monkeypatch.setattr(variation, "check_dp_samples", no_size_check)
        with pytest.raises(BadSpec, match="N must be an integer"):
            variation_growth_profile(step_path([1.0, 2.0, 1.5]), [2.5], N_grid)

    def test_numpy_integer_n(self):
        path = step_path([1.0, 2.0, 1.5, 3.0, 2.0])
        table = variation_growth_profile(path, [2.5], [np.int64(2), np.int32(4)])
        assert list(table) == [(2.5, 2), (2.5, 4)] and all(type(N) is int for _, N in table)

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
