"""Simple-strategy execution engine and the explicit trading constructions.

A simple strategy is an initial capital plus an ordered sequence of
(stopping rule, position) pairs.  Rules are evaluated left to right on the
step path; each rule fires at the first sample index, at or after the
previous firing index, where its hitting condition holds (hitting a closed
level set on a step path is attained exactly at a sample).  Several rules
may fire at the same index; zero-duration holdings contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadInterval,
    BadPosition,
    FormMismatch,
    NonAdapted,
    RoughMarketError,
    RuleOverflow,
    ZeroPrice,
)
from .paths import PricePath

__all__ = [
    "StoppingRule",
    "HitBelow",
    "HitAbove",
    "AtIndex",
    "SimpleStrategy",
    "CapitalTrace",
    "run_simple",
    "self_financing",
    "doob_strategy",
    "clairvoyant_strategy",
    "upper_prob_singleton",
    "borrowing_free_check",
    "BorrowReport",
    "AUDIT_STRATEGIES",
    "audit_strategy",
]


class StoppingRule:
    """Decision procedure over path prefixes; returns a firing sample index."""

    def first_hit(self, times: np.ndarray, values: np.ndarray, start: int) -> int | None:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class HitBelow(StoppingRule):
    """Fire at the first sample with value <= level (hits [0, level])."""

    level: float

    def first_hit(self, times, values, start):
        return next((i for i in range(start, values.shape[0]) if values[i] <= self.level), None)

    def describe(self):
        return f"hit<= {self.level:g}"


@dataclass(frozen=True)
class HitAbove(StoppingRule):
    """Fire at the first sample with value >= level (hits [level, inf))."""

    level: float

    def first_hit(self, times, values, start):
        return next((i for i in range(start, values.shape[0]) if values[i] >= self.level), None)

    def describe(self):
        return f"hit>= {self.level:g}"


@dataclass(frozen=True)
class AtIndex(StoppingRule):
    """Fire at a fixed sample index (a deterministic time)."""

    index: int

    def first_hit(self, times, values, start):
        if self.index < start or self.index >= values.shape[0]:
            return None
        return self.index

    def describe(self):
        return f"at[{self.index}]"


class AlternatingHits:
    """Endless rule stream: hit [0,a] take 1 unit, hit [b,inf) take 0."""

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def __iter__(self) -> Iterator[tuple[StoppingRule, float]]:
        while True:
            yield HitBelow(self.a), 1.0
            yield HitAbove(self.b), 0.0


@dataclass(frozen=True)
class SimpleStrategy:
    """Initial capital plus ordered (stopping rule, position) pairs.

    ``rules`` is any reusable iterable; it may be endless as long as only
    finitely many rules fire on any step path.  ``capital_cap`` freezes the
    strategy from the first sample where its capital reaches the cap: the
    capital stays constant, an open position is closed by a ``cap-liquidate``
    firing, and firings from that sample on are dropped.
    """

    initial_capital: float
    rules: Iterable[tuple[StoppingRule, float]]
    descriptor: str = ""
    position_bound: float = math.inf
    capital_cap: float | None = None

    def describe(self) -> str:
        return self.descriptor or "strategy"


@dataclass(frozen=True)
class Firing:
    index: int
    time: float
    position: float
    rule: str


@dataclass(frozen=True)
class CapitalTrace:
    """Per-sample capital, position carried out of the sample, and cash.

    ``position[i]`` is the holding over ``(times[i], times[i+1]]``;
    ``capital`` is :func:`self_financing` of the positions (constant from a
    capital cap on); ``cash = capital - position * values``, constant until
    the next trade.
    """

    times: np.ndarray
    capital: np.ndarray
    position: np.ndarray
    cash: np.ndarray
    firings: tuple[Firing, ...] = ()
    initial_capital: float = 0.0

    @property
    def final_capital(self) -> float:
        return float(self.capital[-1])

    @property
    def min_capital(self) -> float:
        return float(self.capital.min())


def run_simple(
    strategy: SimpleStrategy,
    path: PricePath,
    self_check: bool = False,
) -> CapitalTrace:
    """Execute a strategy on a path and return its capital trace.

    Raises :class:`RuleOverflow` if more rules fire than the path has
    samples, :class:`BadPosition` if a position is not finite, exceeds its
    bound, or has gains that overflow to inf - inf.  With ``self_check`` a
    suffix perturbation is replayed and :class:`NonAdapted` raised if the
    visible prefix of the trace changes.
    """
    trace = _run(strategy, path)
    if self_check:
        _adaptedness_probe(strategy, path, trace)
    return trace


def _collect_firings(strategy: SimpleStrategy, path: PricePath) -> list[tuple[int, float, str]]:
    times, values = path.times, path.values
    n = values.shape[0]
    fired: list[tuple[int, float, str]] = []
    start = 0
    for rule, h in strategy.rules:
        if not (math.isfinite(h) and abs(h) <= strategy.position_bound):
            raise BadPosition(f"position {h} is not finite or above bound {strategy.position_bound}")
        i = rule.first_hit(times, values, start)
        if i is None:
            break
        if i < start:
            raise NonAdapted(f"rule fired at {i} before search start {start}")
        fired.append((i, float(h), rule.describe()))
        if len(fired) > n:
            raise RuleOverflow(f"more than {n} firings on an {n}-sample path")
        start = i
    return fired


def self_financing(initial: float, position: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Capital of a self-financing strategy at every sample.

    ``initial`` plus the cumulative gains ``position[t-1] * (values[t] -
    values[t-1])``: the one accumulator of the simple-strategy engine and of
    :func:`mixtures.run_mixture`.
    """
    gains = np.zeros(values.shape[0])
    gains[1:] = position[:-1] * np.diff(values)
    return np.cumsum(gains) + initial


def _run(strategy: SimpleStrategy, path: PricePath) -> CapitalTrace:
    times, values = path.times, path.values
    fired = _collect_firings(strategy, path)
    index = np.array([i for i, _, _ in fired], dtype=np.int64)
    held = np.array([0.0] + [h for _, h, _ in fired])
    # the position out of sample t is that of the last firing at or before t
    position = held[np.searchsorted(index, np.arange(values.shape[0]), side="right")]
    capital = self_financing(float(strategy.initial_capital), position, values)
    executed = [Firing(i, float(times[i]), h, desc) for i, h, desc in fired]
    cap = strategy.capital_cap
    reached = np.flatnonzero(capital >= cap) if cap is not None else ()
    if len(reached):
        # frozen from the first sample at the cap: later firings are dropped
        c = int(reached[0])
        executed = [f for f in executed if f.index < c]
        if c > 0 and position[c - 1] != 0.0:
            executed.append(Firing(c, float(times[c]), 0.0, "cap-liquidate"))
        capital[c:] = capital[c]
        position[c:] = 0.0
    if np.isnan(capital[-1]):  # gains of +inf and -inf
        raise BadPosition(f"{strategy.describe()}: a position times a price move overflows float64")
    return CapitalTrace(
        times=times,
        capital=capital,
        position=position,
        cash=capital - position * values,
        firings=tuple(executed),
        initial_capital=float(strategy.initial_capital),
    )


def _adaptedness_probe(strategy: SimpleStrategy, path: PricePath, trace: CapitalTrace) -> None:
    n = path.n_samples
    if n < 3:
        return
    cut = n // 2
    mutated = path.values.copy()
    mutated[cut + 1 :] = mutated[cut] + 1.0  # positive, valid suffix
    alt = _run(strategy, PricePath(path.times, mutated))
    if not (
        np.array_equal(trace.capital[: cut + 1], alt.capital[: cut + 1])
        and np.array_equal(trace.position[:cut], alt.position[:cut])
    ):
        raise NonAdapted(f"{strategy.describe()} reacted to a suffix perturbation")


def doob_strategy(a: float, b: float) -> SimpleStrategy:
    """Buy one unit on hitting [0, a], sell on hitting [b, inf), repeat.

    Starts with capital a; on any positive path the capital stays positive
    and ends at least (b - a) times the number of completed up moves.
    """
    if not (0.0 <= a < b):
        raise BadInterval(f"need 0 <= a < b, got ({a}, {b})")
    return SimpleStrategy(
        initial_capital=a,
        rules=AlternatingHits(a, b),
        descriptor=f"doob({a:g},{b:g})",
        position_bound=1.0,
    )


def clairvoyant_strategy(path: PricePath) -> tuple[SimpleStrategy, float]:
    """Full reinvestment on every up move of this specific path.

    Returns the strategy (fixed positions at fixed indices, so trivially
    adapted) and the achieved growth factor, which equals
    exp(var_plus(log path)) exactly.  Factors accumulate in the log domain
    and are exponentiated once; :class:`BadPosition` if that overflows.
    A rule is kept only where it changes the held position (the position
    before the first rule is 0), plus the final liquidation.
    """
    values = path.values
    if np.any(values == 0.0):
        raise ZeroPrice("clairvoyant reinvestment requires strictly positive prices")
    v = values.tolist()
    log_k = 0.0
    held = 0.0
    rules: list[tuple[StoppingRule, float]] = []
    try:
        for i, (a, b) in enumerate(zip(v, v[1:])):
            if b > a:
                h = math.exp(log_k) / a
                log_k += math.log(b) - math.log(a)
            else:
                h = 0.0
            if h != held:
                rules.append((AtIndex(i), h))
                held = h
        factor = math.exp(log_k)
    except OverflowError as e:
        raise BadPosition(f"clairvoyant growth factor exp({log_k:g}) overflows float64") from e
    rules.append((AtIndex(values.shape[0] - 1), 0.0))
    strat = SimpleStrategy(
        initial_capital=1.0,
        rules=tuple(rules),
        descriptor="clairvoyant",
    )
    return strat, factor


def upper_prob_singleton(path: PricePath) -> float:
    """Cheapest superhedge of the indicator of this exact path.

    Computes both closed forms, exp(-var_plus(log path)) and
    sqrt(start/end * exp(-var(log path))), in the log domain, checks they
    agree to 1e-12 relative (per unit of var(log path) when that exceeds 1),
    and returns the first, which is exactly 1 on a non-increasing path.
    """
    values = path.values
    if np.any(values == 0.0):
        raise ZeroPrice("upper probability of a singleton needs strictly positive prices")
    logs = np.log(values)
    d = np.diff(logs)
    plus = fsum(d[d > 0.0])
    minus = fsum(-d[d < 0.0])
    log_sqrt = 0.5 * (float(logs[0] - logs[-1]) - plus - minus)
    if abs(log_sqrt + plus) > 1e-12 * max(1.0, plus + minus):
        raise FormMismatch(f"closed forms disagree: exp({-plus!r}) vs exp({log_sqrt!r})")
    return math.exp(-plus)


@dataclass(frozen=True)
class Violation:
    kind: str  # "short" (position < 0) or "cash" (cash < 0)
    index: int
    time: float
    amount: float


@dataclass(frozen=True)
class BorrowReport:
    """Outcome of the borrowing audit.

    When a violation exists, ``continuation`` is a modified path agreeing
    with the original up to the violation and ``continuation_min_capital``
    is strictly negative on it, demonstrating that a capital process that is
    positive on every positive path cannot borrow cash or security.
    """

    ok: bool
    first_violation: Violation | None = None
    continuation: PricePath | None = None
    continuation_min_capital: float | None = None


_BORROW_TOL = 1e-9  # slack per unit of max(1, max |capital|) for roundoff zeros


def first_violation(trace: CapitalTrace) -> Violation | None:
    """First borrowing of a capital trace in time order, or None.

    Negative initial capital is borrowed cash at time 0.  After that, sample
    ``i < n-1`` borrows when the position carried into
    ``(times[i], times[i+1]]`` is short or the cash is negative; a short
    position is reported before negative cash at the same sample.  Amounts
    within ``1e-9 * max(1, max |capital|)`` of zero count as zero.
    """
    tol = _BORROW_TOL * max(1.0, float(np.max(np.abs(trace.capital))))
    if trace.initial_capital < -tol:
        return Violation("cash", 0, 0.0, float(trace.initial_capital))
    short = trace.position[:-1] < -tol
    borrowing = short | (trace.cash[:-1] < -tol)
    if not borrowing.any():
        return None
    i = int(borrowing.argmax())
    if short[i]:
        return Violation("short", i, float(trace.times[i]), float(trace.position[i]))
    return Violation("cash", i, float(trace.times[i]), float(trace.cash[i]))


def borrowing_free_check(strategy: SimpleStrategy, path: PricePath) -> BorrowReport:
    """Check position >= 0 and cash >= 0 at every sample.

    On a violation, builds the adversarial continuation (price spike for a
    short position, price drop to zero for borrowed cash) and reports the
    strictly negative capital it produces.
    """
    trace = run_simple(strategy, path)
    violation = first_violation(trace)
    if violation is None:
        return BorrowReport(ok=True)
    return _with_continuation(strategy, path, trace, violation)


def _with_continuation(
    strategy: SimpleStrategy, path: PricePath, trace: CapitalTrace, violation: Violation
) -> BorrowReport:
    i = violation.index
    values = path.values.copy()
    if violation.kind == "short":  # spike the price until the capital is below -1
        values[i + 1 :] = values[i] + (trace.capital[i] + 1.0) / -trace.position[i]
    else:  # drop the price to zero: the capital becomes the (negative) cash
        values[i + 1 :] = 0.0
    continuation = PricePath(path.times, values)
    alt = run_simple(strategy, continuation)
    return BorrowReport(
        ok=False,
        first_violation=violation,
        continuation=continuation,
        continuation_min_capital=alt.min_capital,
    )


AUDIT_STRATEGIES = ("doob", "clairvoyant", "short", "leveraged")


def audit_strategy(name: str, path: PricePath, a: float = 0.25, b: float = 0.75) -> SimpleStrategy:
    """A named strategy for the no-borrowing audit on ``path``.

    ``doob`` trades the band (a, b) and ``clairvoyant`` reinvests on every
    up move of the path; neither borrows.  ``short`` sells one unit at time
    0 and ``leveraged`` buys two units of capital's worth; both borrow.
    Raises :class:`ZeroPrice` for ``leveraged`` on a path that starts at 0.
    """
    if name == "doob":
        return doob_strategy(a, b)
    if name == "clairvoyant":
        return clairvoyant_strategy(path)[0]
    if name == "short":
        return SimpleStrategy(1.0, ((AtIndex(0), -1.0),), descriptor="short")
    if name == "leveraged":
        if path.values[0] == 0.0:
            raise ZeroPrice("leveraged buys 2 / start units; the path starts at 0")
        h = 2.0 / path.values[0]
        return SimpleStrategy(1.0, ((AtIndex(0), h),), descriptor="leveraged")
    raise RoughMarketError(f"unknown audit strategy {name!r}")
