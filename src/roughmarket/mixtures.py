"""Countable strategy mixtures and their exact capital accounting.

A weighted sum of self-financing strategies is the self-financing strategy
holding the weighted sum of the positions.  So each mixture returns its
summed position on a path, and :func:`run_mixture` forms the one capital
process from it, starting exactly at the mixture's initial capital:

* :class:`GridStrategyMixture` describes dyadic families of buy-low/sell-high
  band strategies.  One closed-form grid kernel counts the held cells of
  every level from the lowest held cell of each scale, all scales in one
  blocked pass over the path, and the position sums the counts in one
  weighted pass.
* :class:`UnboundednessMixture` bets that the path never reaches each
  threshold 2^m; its position is a sum over the thresholds that the running
  maximum has not reached.
* :class:`CrossingMixture` trades bands that stop once their capital reaches
  a cap; its position sums the band strategies' positions up to each cap.

Grid scales are powers of two, so ``x * 2**j`` is an exponent shift and
exact in float64: cell-boundary comparisons involve no rounding, the held
counts are exact, and so is one level's capital on dyadic prices.

Components beyond the truncation cut are carried as constants: a component
replaced by a zero-position strategy with the same initial capital keeps the
mixture a genuine positive capital process with unchanged initial capital,
so a verified bound on the truncated process is a valid witness.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import (
    BadPosition,
    BadWeights,
    BoundViolated,
    ConfigError,
    InadmissiblePhi,
    NegativeComponent,
    TooLarge,
    TruncationUnsafe,
)
from .paths import PricePath, _integer_steps, discretize
from .strategies import (
    BorrowReport,
    CapitalTrace,
    doob_strategy,
    first_violation,
    run_simple,
    self_financing,
)
from .variation import VariationFunctional, check_dp_samples, phi_admissible, var_p

__all__ = [
    "GridLevel",
    "GridStrategyMixture",
    "Mixture",
    "run_mixture",
    "borrowing_free_mixture_check",
    "volatility_mixture",
    "Prop3Report",
    "verify_prop3_bound",
    "unboundedness_mixture",
    "crossing_explosion_mixture",
]

_NEG_TOL = 1e-9
CELL_BUDGET = 1 << 25  # simulated cells per mixture; finer scales fold into the tail


@dataclass(frozen=True)
class GridLevel:
    """One dyadic scale of one size class: cells k = 0..k_count-1 at scale j."""

    level_exp: int  # L: cells span [0, 2^L]
    scale_exp: int  # j: cell height 2^-j
    k_count: int
    cell_weight: float

    @property
    def cell_height(self) -> float:
        return math.ldexp(1.0, -self.scale_exp)

    @property
    def initial_capital(self) -> float:
        # sum over cells of weight * (k * 2^-j)
        return self.cell_weight * self.cell_height * (self.k_count * (self.k_count - 1) / 2.0)


# Cell k at scale j trades the band (k*h, (k+1)*h), h = 2^-j, starting with
# cash k*h: it buys one unit at the first sample <= k*h, sells at the first
# later sample >= (k+1)*h, and repeats.  With q = x / h (exact) the cells
# obey, after every sample x:
#
#   every cell k >= e holds and every cell k < e is flat, where
#   e = ceil(q) - [the straddled cell holds].  Only a non-integer q has a
#   straddled cell, c = floor(q), strictly inside its band; it holds iff the
#   last sample outside the open band (c, c+1) was <= c (flat if every sample
#   since t = 0 stayed inside).
#
# So the held count of cells 0..k_cap-1 is max(k_cap - e, 0).  A run of
# samples inside one band shares the flag of its head, the sample that
# entered the band; a max-accumulate of the key 2t + 2 + [entered from
# below], set at heads and 0 elsewhere, carries it in its low bit.  One pass computes e for every scale
# at once, as a (scales x samples) array, and one the counts of every level,
# as a (levels x samples) array.  The counts are integers, exact in float64
# below 2^53; above it k_cap - e is rounded once.  Column blocks keep each
# temporary under the 128 KiB at which glibc's malloc maps fresh pages for
# it (with 2^16-count blocks a 1025-sample mixture page-faulted ~270 times a
# call); the open run's flag crosses a block edge in the accumulator's last
# column.  The cells' cash is `GridLevel.initial_capital`; `run_mixture`
# forms the capital.

_BLOCK_CELLS = 12 << 10  # counts per column block: 96 KiB per float64 temporary


def _grid_rows(scale_exps, k_caps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of :func:`_grid_held`, read-only: row ``i`` counts the cells
    ``k = 0..k_caps[i]-1`` at scale ``2**-scale_exps[i]``.

    Returns each row's index into the distinct scales, the distinct scale
    exponents in order of first appearance (an int32 column) and the cell
    counts (a float64 column).
    """
    rank = {}
    row = np.array([rank.setdefault(j, len(rank)) for j in scale_exps], dtype=np.intp)
    js = np.array(list(rank), dtype=np.int32).reshape(-1, 1)  # np.ldexp has no fast int64 loop
    caps = np.array(k_caps, dtype=np.float64).reshape(-1, 1)
    for a in (row, js, caps):
        a.setflags(write=False)
    return row, js, caps


def _grid_held(values: np.ndarray, rows) -> Iterator[tuple[int, int, np.ndarray]]:
    """Held-unit counts of dyadic cell grids, one column block at a time.

    ``rows`` is :func:`_grid_rows` of the grids.  Yields ``(a, b, held)``
    with ``held[i, t - a]`` (float64) the held count of row ``i`` after
    sample ``t`` for ``a <= t < b``; a block has at least two samples unless
    ``values`` has one.
    """
    row, js, caps = rows
    coarse = bool((js < 0).any())  # a scale coarser than 1 can flush a price to 0
    n = values.shape[0]
    width = max(2, _BLOCK_CELLS // max(1, caps.shape[0]))
    edges = list(range(0, n, width))
    if len(edges) > 1 and n - edges[-1] == 1:
        edges.pop()  # a one-sample block would make np.add.reduce sum pairwise
    edges.append(n)
    # x[t + 1] is sample t; +inf before t = 0 heads a run of its own.  A price
    # below 0 sits below every cell, as 0 does.
    x = np.concatenate(([np.inf], values))
    np.maximum(x, 0.0, out=x)
    steps = np.arange(2, 2 * width + 4, 2, dtype=np.int32)
    carry = 0
    for a, b in zip(edges, edges[1:]):
        q = np.ldexp(x[a : b + 1], js)  # one sample before the block
        if coarse:  # ldexp can flush a subnormal price to 0: keep it in cell 0
            q[(q == 0.0) & (x[a : b + 1] > 0.0)] = 5e-324
        lo = np.floor(q)
        hi = np.ceil(q)
        mid = lo + hi  # 2c + 1 inside the band (c, c+1), 2q on a band edge
        # a run head is a sample whose band differs from its predecessor's;
        # it enters low if that sample was at or below its band
        head = mid[:, 1:] != mid[:, :-1]
        low = (mid[:, :-1] < mid[:, 1:]) & (lo[:, 1:] < hi[:, 1:])
        key = steps[: b - a] + low
        key *= head
        np.maximum(key[:, 0], carry, out=key[:, 0])
        np.maximum.accumulate(key, axis=1, out=key)
        np.bitwise_and(key, 1, out=key)
        carry = key[:, -1]
        e = np.subtract(hi[:, 1:], key)  # the lowest held cell
        held = e[row]
        np.subtract(caps, held, out=held)
        np.maximum(held, 0.0, out=held)
        yield a, b, held


@dataclass(frozen=True)
class GridStrategyMixture:
    """Dyadic band-trading mixture with analytic tail accounting."""

    levels: tuple[GridLevel, ...]
    analytic_tail_capital: float
    descriptor: str = ""
    scale_cut: int = 0  # largest simulated scale exponent

    # run_mixture's inputs, built once per mixture (not dataclass fields, so
    # == and hash still see the fields only): the volatility-mixture tables
    # are cached and run on many paths

    @functools.cached_property
    def total_initial(self) -> float:
        return math.fsum(lv.initial_capital for lv in self.levels) + self.analytic_tail_capital

    @functools.cached_property
    def _run_plan(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """:func:`_grid_rows` of the levels grouped by scale in order of first
        appearance, then in mixture order, and their weights as a read-only
        column: np.add.reduce over axis 0 then adds rows one by one."""
        rank = {}
        for lv in self.levels:
            rank.setdefault(lv.scale_exp, len(rank))
        levels = sorted(self.levels, key=lambda lv: rank[lv.scale_exp])
        weights = np.array([lv.cell_weight for lv in levels]).reshape(-1, 1)
        weights.setflags(write=False)
        rows = _grid_rows([lv.scale_exp for lv in levels], [lv.k_count for lv in levels])
        return rows, weights

    @property
    def n_components(self) -> int:
        return sum(lv.k_count for lv in self.levels)

    def position(self, path: PricePath) -> np.ndarray:
        """The cell weights times the levels' held counts, summed after every sample."""
        position = np.zeros(path.n_samples, dtype=np.float64)
        rows, weights = self._run_plan
        for a, b, held in _grid_held(path.values, rows):
            position[a:b] = np.add.reduce(np.multiply(held, weights, out=held), axis=0)
        return position


@dataclass(frozen=True)
class UnboundednessMixture:
    """Weighted bets that the path never reaches each threshold 2^m, m = 1..m_max.

    Component m has weight 2^-m.  It invests one unit of cash at time 0, so
    it holds h1 = 1/start units (one unit when the start price is 0), and
    liquidates at the first sample at or above 2^m.  While it holds, its
    capital is 1 + h1 (x_t - start): x_t / start, or 1 + x_t from a zero
    start, so it stays >= 0 on a path >= 0.
    """

    m_max: int

    @property
    def descriptor(self) -> str:
        return f"unboundedness(m<={self.m_max})"

    @property
    def total_initial(self) -> float:
        return 1.0 - 2.0**-self.m_max

    def position(self, path: PricePath) -> np.ndarray:
        """The held components' 2^-m h1, added in component order after every sample."""
        start = float(path.values[0])
        h1 = 1.0 if start == 0.0 else 1.0 / start  # inf from a subnormal start
        # with 2^(e-1) <= running max < 2^e (frexp's exponent e), the
        # components m >= e hold; m_max + 1 stands for none
        first = np.frexp(np.maximum.accumulate(path.values))[1].clip(1, self.m_max + 1)
        terms = np.append(h1 * 0.5 ** np.arange(1, self.m_max + 1), 0.0)
        held = np.zeros(self.m_max + 2)
        for m in np.unique(first):  # a left fold: np.cumsum adds in order
            held[m] = terms[m - 1 :].cumsum()[-1]
        return held[first]


@dataclass(frozen=True)
class CrossingMixture:
    """Band strategies on ``intervals`` with ``weights``, each capped at 1/weight.

    A band's position is that of :func:`strategies.doob_strategy` up to the
    first sample at which that strategy's capital reaches 1/weight, and 0
    from there: a band that reaches its cap stops trading, so it fires
    finitely often.  Capped or not, a band's capital stays >= 0 on a path
    >= 0.
    """

    intervals: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]
    descriptor = "crossing-explosion"  # not a field

    @property
    def total_initial(self) -> float:
        return math.fsum(w * a for (a, _b), w in zip(self.intervals, self.weights))

    def position(self, path: PricePath) -> np.ndarray:
        """The capped bands' weighted positions, added in band order."""
        position = np.zeros(path.n_samples, dtype=np.float64)
        for (a, b), w in zip(self.intervals, self.weights):
            trace = run_simple(doob_strategy(a, b), path)
            capped = trace.capital >= 1.0 / w
            if capped.any():
                trace.position[capped.argmax() :] = 0.0
            position += w * trace.position
        return position


Mixture = Union[GridStrategyMixture, UnboundednessMixture, CrossingMixture]


def run_mixture(mixture: Mixture, path: PricePath) -> CapitalTrace:
    """Capital of the mixture's summed position, from its initial capital.

    Raises :class:`BadPosition` if the position or the capital is not
    finite, and :class:`NegativeComponent` if the capital goes below 0 by
    more than ``1e-9 * max(1, peak capital)``, the scale of its cancellation
    error.  Every family's components stay >= 0 on a path >= 0, so the latter
    guards the implementation.
    """
    position = mixture.position(path)
    s0 = mixture.total_initial
    capital = self_financing(s0, position, path.values)
    # an overflowed capital stays inf or turns NaN, so the last sample tells
    if not np.isfinite(position).all() or not np.isfinite(capital[-1]):
        raise BadPosition(f"{mixture.descriptor}: the summed position or its gains overflow")
    low = capital.min()
    if low < -_NEG_TOL and low < -_NEG_TOL * capital.max():  # 1e-9 max(1, peak)
        raise NegativeComponent(f"{mixture.descriptor}: the capital reached {low}")
    with np.errstate(over="ignore", invalid="ignore"):  # a held value may overflow
        cash = capital - position * path.values
    return CapitalTrace(
        times=path.times,
        capital=capital,
        position=position,
        cash=cash,
        firings=(),
        initial_capital=s0,
    )


def borrowing_free_mixture_check(mixture: Mixture, path: PricePath) -> BorrowReport:
    """Aggregate no-borrowing audit: position >= 0 and cash >= 0 per sample."""
    violation = first_violation(run_mixture(mixture, path))
    return BorrowReport(ok=violation is None, first_violation=violation)


# ---------------------------------------------------------------------------
# dyadic volatility mixtures


def _derive_scale_cut(path: PricePath) -> int:
    """Largest scale exponent worth simulating for this path.

    Scales finer than a quarter of the smallest nonzero move cannot matter
    for partition increments of the sample sequence; their cells are folded
    into the constant tail.
    """
    d = np.abs(np.diff(path.values))
    d = d[d > 0.0]
    if d.size == 0:
        return 2
    smallest = float(d.min())
    if smallest < 1e-300:  # 4 / smallest overflows for a subnormal move
        return int(math.floor(2.0 - math.log2(smallest)))
    return int(math.floor(math.log2(4.0 / smallest)))


def _resolve_scale_cut(
    j_policy,
    path_hint,
    j_floor: int,
    class_lows: list[tuple[int, int]],
) -> int:
    if j_policy is None and path_hint is None:
        raise TruncationUnsafe("need a path hint or an explicit scale cutoff")
    cut = None
    if path_hint is not None:
        cut = _derive_scale_cut(path_hint)
    if j_policy is not None:
        cut = int(j_policy) if cut is None else min(int(j_policy), cut)
    # every class has a level of at least 2^c cells at scale c, so no cut
    # above the budget's bit length fits the budget
    cut = max(min(cut, CELL_BUDGET.bit_length()), j_floor)
    while cut > j_floor and _n_cells(class_lows, cut) > CELL_BUDGET:
        cut -= 1
    return cut


def _n_cells(class_lows: list[tuple[int, int]], cut: int) -> int:
    """Cells of scales j_lo..cut of each class (L, j_lo), 2^(L+j) at scale j:
    per class a geometric sum, 2^(L+cut+1) - 2^(L+j_lo)."""
    return sum((1 << (L + cut + 1)) - (1 << (L + j_lo)) for L, j_lo in class_lows if cut >= j_lo)


def volatility_mixture(
    phi: VariationFunctional | None,
    L_max: int,
    j_policy: int | None = None,
    path_hint: PricePath | None = None,
    kind: str = "prop1",
    eps: float | None = None,
    delta: float | None = None,
) -> GridStrategyMixture:
    """Build the dyadic band mixture of the given kind.

    ``prop1``: one size class L = L_max, scales j = 0..cut, weights
    2^(2j) phi(2^-j) normalized over the active window, cell averaging
    2^-(L+j).

    ``prop3``: size classes L = 0..L_max mixed with weights
    (1 - 2^-delta) 2^(-delta L) and rescaled by 2^(1-L); inside each class,
    scales j >= 2-L with weights (1 - 2^-eps) 2^(eps(2-L)) 2^(-eps j).
    Initial capital of the full family is below 1 by construction; folded
    scales and size classes are carried as exact geometric-series constants.
    """
    if kind == "prop1":
        if phi is None:
            raise InadmissiblePhi("prop1 mixture needs a gauge")
        report = _admissibility(phi)
        if not report.admissible:
            raise InadmissiblePhi(
                f"gauge fails the dyadic series probe (tail_trend={report.tail_trend:.3g})"
            )
        L = int(L_max)
        if L > 62:  # 2^(L+cut) cells overflow int64; the budget keeps L + cut <= 25 if cut > 0
            raise TooLarge(f"L = {L}: a level of 2^L cells or more overflows int64")
        cut = _resolve_scale_cut(j_policy, path_hint, 0, [(L, 0)])
        return _prop1_table(phi, L, cut)

    if kind != "prop3":
        raise ConfigError(f"unknown mixture kind {kind!r}")
    _check_prop3_params(eps, delta)
    if phi is not None and (phi.kind != "power" or abs(phi.p - (2.0 + eps)) > 1e-12):
        raise InadmissiblePhi("prop3 gauge must be power(2 + eps)")
    L_top = int(L_max)
    cut = _resolve_scale_cut(j_policy, path_hint, 2 - L_top, [(L, 2 - L) for L in range(L_top + 1)])
    return _prop3_table(L_top, cut, eps, delta)


# The tables below depend on their arguments only, so equal parameters share
# one immutable mixture.  Their size bound, stated here only: under
# CELL_BUDGET a prop3 table holds at most 253 levels (about 40 KB; criterion
# 4's cuts give about 35), so a full prop3 cache holds 10 MB at most, and a
# prop1 table holds at most 25 levels.
# prop1-check builds one (gauge, L, cut) per run, so 64 prop1 entries are
# room for many configurations at a few KB each.


@functools.lru_cache(maxsize=64)
def _admissibility(phi: VariationFunctional):
    return phi_admissible(phi)


@functools.lru_cache(maxsize=64)
def _prop1_table(phi: VariationFunctional, L: int, cut: int) -> GridStrategyMixture:
    js = np.arange(0, cut + 1)
    w_raw = np.asarray(phi(2.0 ** (-js.astype(np.float64)))) * 4.0**js
    z = float(w_raw.sum())
    if not (z > 0.0):
        raise InadmissiblePhi("gauge vanishes on the active scales")
    levels = tuple(
        GridLevel(
            level_exp=L,
            scale_exp=int(j),
            k_count=1 << (L + int(j)),
            cell_weight=float(w) / z * math.ldexp(1.0, -(L + int(j))),
        )
        for j, w in zip(js, w_raw)
    )
    return GridStrategyMixture(
        levels=levels,
        analytic_tail_capital=0.0,
        descriptor=f"prop1(L={L},{phi.label},j<={cut})",
        scale_cut=cut,
    )


@functools.lru_cache(maxsize=256, typed=True)
def _prop3_table(L_top: int, cut: int, eps: float, delta: float) -> GridStrategyMixture:
    one_m_eps = 1.0 - 2.0**-eps
    one_m_del = 1.0 - 2.0**-delta
    levels = []
    tail = 0.0
    with _in_float_range(eps, delta):
        for L in range(L_top + 1):
            outer = one_m_del * 2.0 ** (-delta * L) * math.ldexp(1.0, 1 - L)
            j_lo = 2 - L
            norm = one_m_eps * 2.0 ** (eps * (2 - L))
            for j in range(j_lo, cut + 1):
                w = norm * 2.0 ** (-eps * j)
                levels.append(
                    GridLevel(
                        level_exp=L,
                        scale_exp=j,
                        k_count=1 << (L + j),
                        cell_weight=outer * w * math.ldexp(1.0, -(L + j)),
                    )
                )
            # scales beyond the cut: each holds its initial capital
            # sum_{j>=s} w(j) (2^L - 2^-j)/2, geometric in both terms
            s = max(cut + 1, j_lo)
            g1 = 2.0 ** (-eps * s) / one_m_eps
            g2 = 2.0 ** (-(1.0 + eps) * s) / (1.0 - 2.0 ** -(1.0 + eps))
            tail += outer * norm * 0.5 * (2.0**L * g1 - g2)
        # size classes beyond L_top: full class initial capital, independent of L
        tail += prop3_initial_capital(eps, delta) * 2.0 ** (-delta * (L_top + 1))
    return GridStrategyMixture(
        levels=tuple(levels),
        analytic_tail_capital=tail,
        descriptor=f"prop3(eps={eps:g},delta={delta:g},L<={L_top},j<={cut})",
        scale_cut=cut,
    )


def _check_prop3_params(eps, delta) -> None:
    if eps is None or delta is None or not (0.0 < eps < math.inf and 0.0 < delta < math.inf):
        raise BadWeights(f"prop3 mixture needs finite eps > 0 and delta > 0, got {eps}, {delta}")
    if 2.0**-eps == 1.0 or 2.0**-delta == 1.0:  # the weights divide by 1 - 2^-eps
        raise BadWeights(f"eps={eps:g}, delta={delta:g}: 1 - 2^-eps or 1 - 2^-delta is 0 in float64")


@contextmanager
def _in_float_range(eps: float, delta: float):
    """Report a float64 overflow of the prop3 weights or bound as :class:`BadWeights`."""
    try:
        yield
    except OverflowError as e:
        raise BadWeights(f"eps={eps:g}, delta={delta:g} overflow float64 in prop3") from e


def prop3_initial_capital(eps: float, delta: float) -> float:
    """Closed form for the full (untruncated) family's initial capital."""
    del delta  # the size-class weights sum to one
    return 1.0 - (2.0**eps - 1.0) / (2.0 * (2.0 ** (1.0 + eps) - 1.0))


# ---------------------------------------------------------------------------
# explicit capital bound


@dataclass(frozen=True)
class Prop3Report:
    eps: float
    delta: float
    N: int
    s0: float
    s_t: float
    variation: float
    sup: float
    rhs: float
    margin: float
    passed: bool
    scale_cut: int

    @property
    def binding(self) -> bool:
        """Whether the bound is above 0 (needs at least 257 price moves).

        That does not make a pass a gain: a strategy that never trades keeps
        its initial capital ``s0`` (0.887 at eps = 0.5, 0.833 at eps = 1), so
        it passes every case with ``rhs < s0``."""
        return self.rhs > 0.0


def verify_prop3_bound(
    path: PricePath,
    eps: float,
    delta: float,
    N: int,
    j_policy: int | None = None,
    raise_on_violation: bool = True,
) -> Prop3Report:
    """Check the explicit capital bound on the N-step discretization.

    Runs the truncated size/scale mixture on the resampled path and compares
    its final capital against

        (1 - 2^-eps) (1 - 2^-delta) 2^(-6-eps-delta)
            * var_{2+eps} / max(1, sup)^(2+eps+delta)  -  1/4.

    Truncation drops only positive components, so a pass is a valid witness;
    a failure raises :class:`BoundViolated` and would indicate a defect in
    the construction, not in the inequality.  Bad parameters raise
    :class:`BadWeights` (eps, delta, also when they or the path's
    ``max(1, sup)^(2+eps+delta)`` overflow float64), :class:`BadSpec`
    (N not an integer >= 1) or :class:`TooLarge` (N + 1 above the DP limit).
    """
    _check_prop3_params(eps, delta)
    _integer_steps(N)
    check_dp_samples(N + 1)
    omega_n = discretize(path, N)
    sup = omega_n.sup
    try:
        sup_scale = max(1.0, sup) ** (2.0 + eps + delta)
    except OverflowError as e:
        raise BadWeights(
            f"max(1, sup)^(2+eps+delta) overflows float64 for sup={sup:g} "
            f"(eps={eps:g}, delta={delta:g})"
        ) from e
    l_top = max(0, math.ceil(math.log2(sup))) if sup > 1.0 else 0
    mixture = volatility_mixture(
        None,
        l_top,
        j_policy=j_policy,
        path_hint=omega_n,
        kind="prop3",
        eps=eps,
        delta=delta,
    )
    trace = run_mixture(mixture, omega_n)
    s_t = trace.final_capital
    variation = var_p(omega_n, 2.0 + eps)
    rhs = (
        (1.0 - 2.0**-eps)
        * (1.0 - 2.0**-delta)
        * 2.0 ** (-6.0 - eps - delta)
        * variation
        / sup_scale
        - 0.25
    )
    passed = s_t > rhs
    report = Prop3Report(
        eps=eps,
        delta=delta,
        N=N,
        s0=trace.initial_capital,
        s_t=s_t,
        variation=variation,
        sup=sup,
        rhs=rhs,
        margin=s_t - rhs,
        passed=passed,
        scale_cut=mixture.scale_cut,
    )
    if not passed and raise_on_violation:
        raise BoundViolated(f"final capital {s_t} <= bound {rhs} ({report})")
    return report


# ---------------------------------------------------------------------------
# countable families from the right-continuous extension


def unboundedness_mixture(m_max: int) -> UnboundednessMixture:
    """Weighted bets that the path never doubles past each threshold 2^m.

    See :class:`UnboundednessMixture`.  Weights 2^-m; initial capital
    1 - 2^-m_max.  ``m_max`` is at most 1023, since 2^1024 overflows float64.
    """
    if not 1 <= m_max <= 1023:
        raise BadWeights(f"m_max must be in [1, 1023], got {m_max}")
    return UnboundednessMixture(m_max)


def crossing_explosion_mixture(intervals, weights) -> CrossingMixture:
    """Capped band strategies over the given intervals.

    Each component trades its band like the upcrossing strategy but stops
    once its capital reaches 1/weight (see :class:`CrossingMixture`); total
    cost is sum(weight * a).  A finite list stands for the leading part of a
    unit-mass countable family, so weights must satisfy 0 < sum <= 1.
    """
    intervals = tuple((float(a), float(b)) for a, b in intervals)
    weights = tuple(float(w) for w in weights)
    if len(intervals) != len(weights) or not intervals:
        raise BadWeights("need matching nonempty intervals and weights")
    if not all(w > 0.0 for w in weights):
        raise BadWeights("weights must be > 0")
    if math.fsum(weights) > 1.0 + 1e-12:
        raise BadWeights("weights must sum to at most 1")
    if any(not (0.0 <= a < b) for a, b in intervals):
        raise BadWeights("intervals must satisfy 0 <= a < b")
    mixture = CrossingMixture(intervals, weights)
    if not math.isfinite(mixture.total_initial):
        raise BadWeights("total cost must be finite")
    return mixture
