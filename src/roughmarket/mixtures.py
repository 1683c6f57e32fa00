"""Countable strategy mixtures and their exact capital accounting.

Two representations:

* :class:`StrategyMixture` holds explicit (weight, strategy) components and
  is executed component by component.
* :class:`GridStrategyMixture` describes dyadic families of buy-low/sell-high
  band strategies; the closed-form grid kernel :func:`doob_grid_held` counts
  the held cells of all levels that share a scale in one pass over the path.

A weighted sum of self-financing strategies is the self-financing strategy
holding the weighted sum of the positions: :func:`run_mixture` forms its one
capital process, which starts exactly at the mixture's initial capital.

Grid scales are powers of two, so ``x * 2**j`` is an exponent shift and
exact in float64: cell-boundary comparisons involve no rounding, the held
counts are exact, and so is one level's capital on dyadic prices.

Components beyond the truncation cut are carried as constants: a component
replaced by a zero-position strategy with the same initial capital keeps the
mixture a genuine positive capital process with unchanged initial capital,
so a verified bound on the truncated process is a valid witness.
"""

from __future__ import annotations

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
from .paths import PricePath, discretize
from .strategies import (
    AtIndex,
    BorrowReport,
    CapitalTrace,
    HitAbove,
    SimpleStrategy,
    doob_strategy,
    first_violation,
    run_simple,
    self_financing,
)
from .variation import VariationFunctional, check_dp_samples, phi_admissible, var_p

__all__ = [
    "StrategyMixture",
    "GridLevel",
    "doob_grid_held",
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
MAX_COMPONENTS = 1 << 16  # banded components that iter_components materializes


@dataclass(frozen=True)
class StrategyMixture:
    """Weighted finite family of simple strategies plus a constant tail."""

    components: tuple[tuple[float, SimpleStrategy], ...]
    analytic_tail_capital: float = 0.0
    descriptor: str = ""

    def __post_init__(self):
        if any(w <= 0.0 or not math.isfinite(w) for w, _s in self.components):
            raise BadWeights("component weights must be positive and finite")
        if self.analytic_tail_capital < 0.0:
            raise BadWeights("tail capital must be >= 0")

    @property
    def total_initial(self) -> float:
        return (
            math.fsum(w * s.initial_capital for w, s in self.components)
            + self.analytic_tail_capital
        )


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
#   cells with k >= ceil(q) hold and cells with k < floor(q) are flat; at
#   most one cell, c = floor(q), lies strictly inside its band, and it holds
#   iff the last sample outside the open band (c, c+1) was <= c (flat if
#   every sample since t = 0 stayed inside).
#
# So the held count of cells 0..k_cap-1 is a clip of k_cap - ceil(q) plus a
# flag carried forward over runs of samples inside one band: O(n) per scale
# for q and the runs, plus O(n) per cell count for its clip.  The cells'
# cash is `GridLevel.initial_capital`; `run_mixture` forms the capital.


def doob_grid_held(values: np.ndarray, j_exp: int, k_caps) -> np.ndarray:
    """Held-unit counts of dyadic cell grids at one scale, one row per cell count.

    ``j_exp`` is the scale exponent (cell height ``2**-j_exp``; may be
    negative); row ``i`` holds, after every sample, the number of cells
    ``k = 0..k_caps[i]-1`` that hold one unit.
    """
    caps = np.asarray(k_caps, dtype=np.int64).reshape(-1, 1)
    q = np.ldexp(values, j_exp)
    lo = np.floor(q)
    hi = np.ceil(q)
    inside = lo < hi
    # a run of samples strictly inside one band starts where the previous
    # sample is outside it; the straddled cell holds iff that sample was <= c
    start = inside.copy()
    start[1:] &= ~(inside[:-1] & (lo[1:] == lo[:-1]))
    entered_low = np.zeros_like(inside)
    entered_low[1:] = q[:-1] <= lo[1:]
    run_head = np.maximum.accumulate(np.where(start, np.arange(q.size), 0))
    straddled = inside & (lo >= 0.0) & entered_low[run_head] & (lo < caps)
    return np.clip(caps - hi, 0, caps).astype(np.int64) + straddled


@dataclass(frozen=True)
class GridStrategyMixture:
    """Dyadic band-trading mixture with analytic tail accounting."""

    levels: tuple[GridLevel, ...]
    analytic_tail_capital: float
    descriptor: str = ""
    scale_cut: int = 0  # largest simulated scale exponent

    @property
    def total_initial(self) -> float:
        return math.fsum(lv.initial_capital for lv in self.levels) + self.analytic_tail_capital

    @property
    def n_components(self) -> int:
        return sum(lv.k_count for lv in self.levels)

    def iter_components(self) -> Iterator[tuple[float, SimpleStrategy]]:
        """Materialize the banded components (at most :data:`MAX_COMPONENTS`)."""
        if self.n_components > MAX_COMPONENTS:
            raise ValueError(f"{self.n_components} components exceed {MAX_COMPONENTS}")
        for lv in self.levels:
            h = lv.cell_height
            for k in range(lv.k_count):
                yield lv.cell_weight, doob_strategy(k * h, (k + 1) * h)


Mixture = Union[StrategyMixture, GridStrategyMixture]


def run_mixture(mixture: Mixture, path: PricePath) -> CapitalTrace:
    """Capital of the weighted position sum; components stay >= 0, the sum finite."""
    position = np.zeros(path.n_samples, dtype=np.float64)
    if isinstance(mixture, GridStrategyMixture):
        by_scale = {}
        for lv in mixture.levels:
            by_scale.setdefault(lv.scale_exp, []).append(lv)
        for j, levels in by_scale.items():
            held = doob_grid_held(path.values, j, [lv.k_count for lv in levels])
            for lv, row in zip(levels, held):
                position += lv.cell_weight * row
    else:
        for w, strat in mixture.components:
            trace = run_simple(strat, path)
            if trace.min_capital < -_NEG_TOL * max(1.0, abs(trace.initial_capital)):
                raise NegativeComponent(
                    f"component {strat.describe()} reached capital {trace.min_capital}"
                )
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                position += w * trace.position
    s0 = mixture.total_initial
    capital = self_financing(s0, position, path.values)
    if not np.isfinite(position).all() or np.isnan(capital[-1]):
        raise BadPosition(f"{mixture.descriptor}: the summed position or its gains overflow")
    # grid cells are individually positive on positive paths (they buy at or
    # below their cash level); the aggregate check guards the implementation
    if isinstance(mixture, GridStrategyMixture) and capital.min() < -_NEG_TOL * max(1.0, s0):
        raise NegativeComponent(f"grid aggregate reached {capital.min()}")
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

    def n_cells(c: int) -> int:
        return sum(1 << (L + j) for L, j_lo in class_lows for j in range(j_lo, c + 1))

    while cut > j_floor and n_cells(cut) > CELL_BUDGET:
        cut -= 1
    return cut


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
        report = phi_admissible(phi)
        if not report.admissible:
            raise InadmissiblePhi(
                f"gauge fails the dyadic series probe (tail_trend={report.tail_trend:.3g})"
            )
        L = int(L_max)
        if L > 62:  # 2^(L+cut) cells overflow int64; the budget keeps L + cut <= 25 if cut > 0
            raise TooLarge(f"L = {L}: a level of 2^L cells or more overflows int64")
        cut = _resolve_scale_cut(j_policy, path_hint, 0, [(L, 0)])
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

    if kind != "prop3":
        raise ConfigError(f"unknown mixture kind {kind!r}")
    _check_prop3_params(eps, delta)
    if phi is not None and (phi.kind != "power" or abs(phi.p - (2.0 + eps)) > 1e-12):
        raise InadmissiblePhi("prop3 gauge must be power(2 + eps)")
    L_top = int(L_max)
    l_exps = list(range(0, L_top + 1))
    cut = _resolve_scale_cut(j_policy, path_hint, 2 - L_top, [(L, 2 - L) for L in l_exps])

    one_m_eps = 1.0 - 2.0**-eps
    one_m_del = 1.0 - 2.0**-delta
    levels = []
    tail = 0.0
    with _in_float_range(eps, delta):
        for L in l_exps:
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
        """Whether the bound is above 0, so a pass says more than that the
        capital stayed above -1/4 (needs at least 257 price moves)."""
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
    :class:`BadWeights` (eps, delta, also when they overflow float64),
    :class:`BadSpec` (N < 1) or :class:`TooLarge` (N + 1 above the DP limit).
    """
    _check_prop3_params(eps, delta)
    check_dp_samples(N + 1)
    omega_n = discretize(path, N)
    sup = omega_n.sup
    with _in_float_range(eps, delta):
        sup_scale = max(1.0, sup) ** (2.0 + eps + delta)
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


def unboundedness_mixture(m_max: int, omega0_hint: float) -> StrategyMixture:
    """Weighted bets that the path never doubles past each threshold 2^m.

    Component m invests everything at time 0 (one unit of cash, position
    1/start, or position 1 when the start price is 0) and liquidates on
    hitting [2^m, inf).  Weights 2^-m; initial capital 1 - 2^-m_max.
    ``m_max`` is at most 1023, since 2^1024 overflows float64.
    """
    if not 1 <= m_max <= 1023:
        raise BadWeights(f"m_max must be in [1, 1023], got {m_max}")
    h1 = 1.0 if omega0_hint == 0.0 else 1.0 / omega0_hint
    comps = []
    for m in range(1, m_max + 1):
        strat = SimpleStrategy(
            initial_capital=1.0,
            rules=((AtIndex(0), h1), (HitAbove(2.0**m), 0.0)),
            descriptor=f"unbounded(m={m})",
        )
        comps.append((2.0**-m, strat))
    return StrategyMixture(
        components=tuple(comps),
        analytic_tail_capital=0.0,
        descriptor=f"unboundedness(m<={m_max})",
    )


def crossing_explosion_mixture(intervals, weights) -> StrategyMixture:
    """Capped band strategies over the given intervals.

    Each component trades its band like the upcrossing strategy but freezes
    once its capital reaches 1/weight, so it can only fire finitely often;
    total cost is sum(weight * a).  A finite list stands for the leading part
    of a unit-mass countable family, so weights must satisfy 0 < sum <= 1.
    """
    intervals = [(float(a), float(b)) for a, b in intervals]
    weights = [float(w) for w in weights]
    if len(intervals) != len(weights) or not intervals:
        raise BadWeights("need matching nonempty intervals and weights")
    if any(w <= 0.0 for w in weights):
        raise BadWeights("weights must be > 0")
    if math.fsum(weights) > 1.0 + 1e-12:
        raise BadWeights("weights must sum to at most 1")
    if any(not (0.0 <= a < b) for a, b in intervals):
        raise BadWeights("intervals must satisfy 0 <= a < b")
    cost = math.fsum(w * a for (a, _b), w in zip(intervals, weights))
    if not math.isfinite(cost):
        raise BadWeights("total cost must be finite")
    comps = []
    for (a, b), w in zip(intervals, weights):
        base = doob_strategy(a, b)
        capped = SimpleStrategy(
            initial_capital=base.initial_capital,
            rules=base.rules,
            descriptor=f"capped-{base.descriptor}@{1.0 / w:g}",
            position_bound=base.position_bound,
            capital_cap=1.0 / w,
        )
        comps.append((w, capped))
    return StrategyMixture(
        components=tuple(comps),
        analytic_tail_capital=0.0,
        descriptor="crossing-explosion",
    )
