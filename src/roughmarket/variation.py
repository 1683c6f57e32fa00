"""Exact variation functionals, crossing counters and gauge diagnostics.

All computations are exact on step paths: any partition of [0, T] evaluates
the path at sample values, and any strictly increasing index subsequence
through the first and last sample is realizable as a partition.  The DP over
index subsequences therefore computes the true supremum.  For star-shaped
gauges (phi(u)/u nondecreasing) :func:`var_phi` runs it on the turning points
with a stack of undominated left ends, near-linear on typical paths, taking
the points in blocks so that one gauge call scores the stack entries that no
point of the block removes.  What that DP needs from the prices alone comes
from one producer, a record per block; a path of more than one block keeps
the records as the producer yielded them, so a further star-shaped gauge on
it runs only the scoring loop.
The value of each gauge is kept on the path too, so an equal gauge runs no
DP at all.  Every other DP, :func:`var_phi` on gauges that are not
star-shaped and the mesh-constrained :func:`qvar_profile`, is
:func:`_mesh_dp`: one pass over the right ends for any number of nested
windows, in blocks, so that one gauge call per block serves every window.
Where the gauge is certified nondecreasing in float64 (:func:`_dp_until`),
a left end leaves once later samples on both sides of its price have
arrived; otherwise every left end stays, and the pass is O(n^2).  All take
at most :data:`MAX_DP_SAMPLES` samples, and evaluate the gauge with numpy's
overflow warning off, so an increment whose gauge passes float64 gives
``inf``.

Prices are step paths, so plateaus are the normal case.  As every gauge has
phi(0) = 0, a sample equal to its predecessor has the same best chain value,
and a run of equal samples offers one candidate, live while its last sample
is in the window (:func:`_level_heads`).  So both callers of
:func:`_mesh_dp` keep one row per price level, with bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from typing import Callable

import numpy as np

from .errors import BadInterval, BadStep, InadmissiblePhi, TooLarge
from .paths import PricePath, _integer_steps, discretize

__all__ = [
    "VariationFunctional",
    "psi",
    "turning_points",
    "var_phi",
    "var_p",
    "brute_force_var_phi",
    "var_signed",
    "CrossingCount",
    "crossings",
    "band_count",
    "band_crossings",
    "grid_crossings",
    "phi_admissible",
    "AdmissibilityReport",
    "qvar_profile",
    "variation_growth_profile",
]


_TINY = math.ulp(0.0)


def psi(u):
    """Gauge u^2 / (2 lnstar lnstar u), lnstar u = max(1, |ln u|), psi(0) = 0.

    Takes a scalar (returns a float) or an array of nonnegative values.  The
    first log sees at least the smallest subnormal, so psi(0) = 0 needs no
    mask (a mask costs a third of a call on DP-sized arrays).
    """
    arr = np.asarray(u, dtype=np.float64)
    lnstar = np.maximum(1.0, np.abs(np.log(np.maximum(arr, _TINY))))
    out = arr * arr / (2.0 * np.maximum(1.0, np.log(lnstar)))
    return out if out.ndim else float(out)  # not np.isscalar: 1 us per DP row


@dataclass(frozen=True)
class VariationFunctional:
    """Gauge phi applied to absolute partition increments; phi(0) = 0.

    Kinds: ``power`` (phi(u) = u**p, p > 0), ``psi`` (slow-growth corrected
    square gauge), ``table`` (piecewise-linear interpolation through given
    nodes, linearly continued past the last node).
    """

    kind: str
    p: float | None = None
    table_u: tuple | None = None
    table_phi: tuple | None = None

    def __post_init__(self):
        if self.kind == "power":
            if self.p is None or not (self.p > 0.0):
                raise InadmissiblePhi("power gauge needs p > 0")
        elif self.kind == "table":
            u = np.asarray(self.table_u, dtype=np.float64)
            v = np.asarray(self.table_phi, dtype=np.float64)
            if u.ndim != 1 or u.shape != v.shape or u.shape[0] < 2:
                raise InadmissiblePhi("table gauge needs matching 1-d nodes")
            if u[0] != 0.0 or v[0] != 0.0:
                raise InadmissiblePhi("table gauge must start at phi(0) = 0")
            if not np.all(np.diff(u) > 0):
                raise InadmissiblePhi("table nodes must be strictly increasing")
            if not (v >= 0.0).all():  # NaN too: the DPs assume no NaN candidate
                raise InadmissiblePhi("gauge values must be >= 0, and not NaN")
            object.__setattr__(self, "table_u", tuple(float(x) for x in u))
            object.__setattr__(self, "table_phi", tuple(float(x) for x in v))
            # node arrays for on_increments, built once; not dataclass
            # fields, so == and hash still see the tuples only
            u.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "_nodes", (u, v))
        elif self.kind != "psi":
            raise InadmissiblePhi(f"unknown gauge kind {self.kind!r}")

    @classmethod
    def power(cls, p: float) -> "VariationFunctional":
        return cls(kind="power", p=float(p))

    @classmethod
    def taylor_psi(cls) -> "VariationFunctional":
        return cls(kind="psi")

    @classmethod
    def from_table(cls, u, phi_values) -> "VariationFunctional":
        return cls(kind="table", table_u=tuple(u), table_phi=tuple(phi_values))

    def on_increments(self, d: np.ndarray) -> np.ndarray:
        """The gauge on an array of nonnegative increments.

        The variation DPs call this on whole blocks of increments; the abs
        and scalar handling of ``__call__`` would cost 10-25% of the p = 2.5
        DP.
        """
        if self.kind == "power":
            return d**self.p
        if self.kind == "psi":
            return psi(d)
        uu, vv = self._nodes
        out = np.interp(d, uu, vv)
        # continue the last segment linearly beyond the table, on those
        # increments only (np.interp returns a scalar for a scalar d)
        beyond = np.flatnonzero(d > uu[-1])
        if beyond.size:
            slope = (vv[-1] - vv[-2]) / (uu[-1] - uu[-2])
            out = np.asarray(out)
            out.put(beyond, vv[-1] + slope * (np.asarray(d).take(beyond) - uu[-1]))
        return out

    def __call__(self, u):
        out = self.on_increments(np.abs(np.asarray(u, dtype=np.float64)))
        return float(out) if np.isscalar(u) else out

    @property
    def star_shaped(self) -> bool:
        """Whether phi(u)/u is nondecreasing on u > 0.

        Power gauges with p >= 1 are, and so is psi: psi(u)/u =
        u / (2 lnstar lnstar u) rises on each of u < e^-e, [e^-e, e^e] and
        u > e^e and is continuous at both joins.  A table is when its node
        ratios phi_k/u_k (k >= 1) are nondecreasing: on each segment, and on
        the linear continuation past the last node, the ratio is monotone
        between its end values.
        """
        if self.kind == "power":
            return self.p >= 1.0
        if self.kind == "psi":
            return True
        ratios = [v / u for u, v in zip(self.table_u[1:], self.table_phi[1:])]
        return all(a <= b for a, b in zip(ratios, ratios[1:]))

    @property
    def label(self) -> str:
        if self.kind == "power":
            return f"p={self.p:g}"
        return self.kind


# at this size, 2-vCPU VM, CPU time of one run each: _mesh_dp on one
# unconstrained window 21 s unpruned on fractional noise (a table that is not
# certified), 30 s pruned on a steady rise to oscillation 10, where no left end
# is ever dominated; var_phi 0.07 s on fractional noise, 2.3 s (p = 2.5) and
# 4.1 s (psi) on a drift with small reversals (one deep stack)
MAX_DP_SAMPLES = 1 << 16


def check_dp_samples(n: int) -> None:
    """Raise :class:`TooLarge` if a DP over ``n`` samples exceeds :data:`MAX_DP_SAMPLES`."""
    if n > MAX_DP_SAMPLES:
        raise TooLarge(f"{n} samples; the exact variation DP takes at most {MAX_DP_SAMPLES}")


# psi is nondecreasing in float64 on [0, 15): it is exactly u*u/2 on
# [e^-e, 15], as log(log 15) < 1, and below e^-e a nondecreasing numerator
# over a nonincreasing denominator; above e^e it dips by an ulp at places
_PSI_MONOTONE_BELOW = 15.0
_MESH_ROWS = 48  # right ends per block of _mesh_dp; 64 measures alike, 32 is 10% slower
# rows x its 2 meshes - 1 rows x left ends per block of _mesh_dp, so its tiled
# gauge array stays near 256 KB unless the fewest rows pass it
_DP_CELLS = 1 << 15
_MESH_MIN_ROWS = 4  # fewest right ends per block of _mesh_dp: they share its O(window) set-up
# mesh bounds per _mesh_dp pass: its arrays grow with the bounds it serves
_MESH_GROUP = 8


def _undominated_until(values: np.ndarray) -> np.ndarray:
    """For each sample j, the index by which a later sample at or below x_j
    and a later one at or above it have both arrived; n if never.

    Each half is a first passage: the first k > j with x_k <= x_j, and the
    same on -x.  A table of the minima of x over windows of 2^l samples
    finds it for every j at once by binary lifting: k starts at j + 1 and
    jumps over each window, longest first, whose minimum stays above x_j.
    O(n log n) time and memory.
    """
    n = values.shape[0]
    passage = []
    for x in (values, -values):
        mins = [x]  # mins[l][i] = min(x[i : i + 2^l])
        while 2 ** len(mins) <= n:
            h = 2 ** (len(mins) - 1)
            mins.append(np.minimum(mins[-1][:-h], mins[-1][h:]))
        k = np.arange(1, n + 1)  # x stays above x_j on [j+1, k)
        for level in reversed(range(len(mins))):
            m = mins[level]
            fits = k < m.shape[0]
            k += 2**level * (fits & (m[np.where(fits, k, 0)] > x))
        passage.append(k)
    return np.maximum(*passage)


def _dp_until(values: np.ndarray, phi: VariationFunctional) -> np.ndarray:
    """``until`` for :func:`_mesh_dp`: :func:`_undominated_until` where phi
    is certified nondecreasing in float64 on every increment of ``values``,
    else n everywhere, which keeps every left end.

    psi is certified when the oscillation is below
    :data:`_PSI_MONOTONE_BELOW`.  A table is certified when its values are
    nondecreasing and ``np.interp`` does not dip at a node join: inside a
    segment numpy computes slope*(x - u_j) + v_j, monotone for slope >= 0,
    and so is the linear continuation past the last node, so the largest
    value below node k >= 1 is at nextafter(u_k, 0), and it must not pass
    the value at u_k.  No other gauge is certified.
    """
    n = values.shape[0]
    if phi.kind == "psi":
        certified = np.ptp(values) < _PSI_MONOTONE_BELOW
    elif phi.kind == "table":
        uu, vv = phi._nodes
        below = phi.on_increments(np.nextafter(uu[1:], 0.0))
        certified = np.all(np.diff(vv) >= 0.0) and np.all(below <= phi.on_increments(uu[1:]))
    else:
        certified = False
    return _undominated_until(values) if certified else np.full(n, n)


@np.errstate(over="ignore", invalid="ignore")
def _mesh_dp(values: np.ndarray, firsts: np.ndarray, until: np.ndarray, gauge: Callable) -> list[float]:
    """Supremum over index chains 0 -> n-1 of the summed ``gauge`` of
    increments, for each row of ``firsts``, in one pass over the right ends.

    ``gauge`` maps an array of nonnegative increments to their gauge values,
    elementwise, with gauge(0) = 0.  ``firsts[m, i]`` is the smallest index
    a chain may step from into ``i`` under mesh m (``firsts[m, i] < i``),
    nondecreasing along each row and down each column (mesh bounds in
    decreasing order); best[i] is the max over those j of best[j] +
    gauge(|x_i - x_j|).  ``until`` is :func:`_dp_until`: left end j serves
    no row after until[j].

    Dominance: every adjacent step is feasible, so best[j+1] >= best[j] +
    gauge(|x_{j+1} - x_j|) >= best[j] in float64 too, and best is
    nondecreasing.  Let j < k with x_k <= x_j.  A row i > k whose window
    holds j holds k, and if x_i >= x_j, k's candidate best[k] + gauge(x_i -
    x_k) is at least j's, as subtraction and addition are monotone, and so
    is the gauge wherever :func:`_dp_until` prunes.  Mirrored for x_k >=
    x_j, so j serves no row after :func:`_undominated_until`'s index, and
    the candidates that remain give the same max.

    Right ends go in blocks of :data:`_MESH_ROWS`, fewer when rows times 2
    meshes - 1 times left ends would pass :data:`_DP_CELLS`, but at least
    :data:`_MESH_MIN_ROWS`.  The left ends of a block are those before it
    that the widest window holds and that serve its first row, then every
    sample inside it, in increasing order; one that dies inside the block
    stays a candidate, which changes no max.  One gauge call scores their
    pairs with the block's rows.  The chain values lie in one contiguous
    array, mesh m in row 2m and a scratch row between each two, with the
    block's own samples at -inf, which hides each from the rows up to its
    own; each gauge row is tiled to that layout once.  Mesh m's window at
    right end i is the suffix of its row from ``searchsorted(cols, firsts[m,
    i])``, so each right end takes one add and one ``fmax.reduceat`` whose
    segments are the meshes' windows; the segments between them, a scratch
    row and the next mesh's left ends outside its window, land in the
    scratch rows.  Chain and gauge values are >= 0 or ``inf``, so a valid
    candidate is never NaN; a hidden one is -inf, or NaN where -inf meets an
    ``inf`` (warning off), and ``fmax`` skips NaN.  Every row has a valid
    candidate, its predecessor.  So each result is the max of the sums the
    row-at-a-time DP forms over the undominated left ends in its window, and
    max is exact: bit-identical to that DP.  O(n x window) time, O(meshes x
    n) memory.
    """
    meshes, n = firsts.shape
    height = 2 * meshes - 1
    lefts = np.zeros((n, height), dtype=np.intp)  # window starts; a scratch row's is all of it
    lefts[:, ::2] = firsts.T
    best = np.zeros((meshes, n))
    s = 1
    while s < n:
        lo = firsts[0, s]  # the widest window
        live = np.flatnonzero(until[lo:s] >= s) + lo
        nl = live.size
        rows = min(_MESH_ROWS, max(_MESH_MIN_ROWS, _DP_CELLS // (height * (nl + _MESH_ROWS))))
        e = min(n, s + rows)
        cols = np.concatenate((live, np.arange(s, e)))
        tiled = gauge(np.abs(values[s:e, None] - values[cols]))[:, None].repeat(height, axis=1)
        chain = np.full((height, cols.size), -np.inf)
        chain[::2, :nl] = best[:, live]
        flat = chain.reshape(-1)
        cand = np.empty_like(flat)
        segs = np.searchsorted(cols, lefts[s:e]) + cols.size * np.arange(height)
        for g_row, seg, out in zip(tiled.reshape(e - s, -1), segs, chain.T[nl:]):
            np.fmax.reduceat(np.add(flat, g_row, out=cand), seg, out=out)
        best[:, s:e] = chain[::2, nl:]
        s = e
        del tiled, g_row  # free them before the next block's tiled array
    return best[:, -1].tolist()


def _level_heads(values: np.ndarray) -> np.ndarray:
    """Index of the first sample of each maximal run of equal samples.

    A step path that keeps only these samples, at their times, is the same
    right-continuous function, with one step per price level.  The DP over
    every sample gives it the same value when phi(0) = 0: if x_i = x_{i-1},
    every candidate of row i other than i-1 is a candidate of row i-1 with
    the same float value (the windows are nested), and i-1's is best[i-1] +
    phi(0) = best[i-1], so best[i] = best[i-1].  The samples of a run then
    carry one chain value and one price, so the run offers one candidate,
    which a mesh window holds iff it holds the run's last sample.
    """
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def turning_points(values: np.ndarray) -> np.ndarray:
    """Values of the first and last sample and of the strict local extrema
    between them, once plateaus are merged.

    Consecutive points alternate strictly between minima and maxima (the
    endpoints count as extrema), except on a constant sequence, which keeps
    its two endpoints.
    """
    values = np.asarray(values, dtype=np.float64)
    moves = np.diff(values)
    moved = np.flatnonzero(moves)
    if moved.size == 0:
        return values[[0, -1]]
    up = moves[moved] > 0.0
    # the level between two moves of opposite sign is an extremum
    turns = moved[1:][up[1:] != up[:-1]]
    return np.concatenate((values[:1], values[turns], values[-1:]))


_STAR_ROWS = 128  # turning points per block of _star_dp; 96-192 measure alike
# rows x deeper stack per block: a prefix array stays near 64 KB, as arrays of
# 128 KB and more measured 2x slower per cell with psi
_STAR_CELLS = 1 << 14
_STAR_MIN_PREFIX = 32  # stable cells below this join the other candidates
# gauge arguments a turning point past which a path keeps no plan: price paths
# read 5-10 tops a point, while stacks popped to the bottom block after block
# read up to about 33, which would take a 2^16-point plan past 16 MB
_STAR_PLAN_TOPS = 16


def _star_blocks(c: np.ndarray):
    """What :func:`_star_dp` needs from the prices, one record per block of
    the signed turning points ``c``: ``(e, low, push, args, kept)``.

    Replays the block's pops and pushes on lists of each stack's c, then its
    tops from the block's start.  ``e`` ends the block, which starts where
    the last one ended (the first at 1); ``low`` holds the stable-prefix
    heights, ``push`` each point's height in its own stack, ``args`` the
    gauge arguments c_i + c_j of the tops j that each point reads, point by
    point, and ``kept`` each stack's c above ``low`` as the block ends.
    Each record is built anew for its block and never changed once yielded,
    so a plan can keep it as it is.
    """
    cl = c.tolist()
    m = len(cl)
    stacks = ([cl[0]], [])
    before = ([cl[0]], [])  # the stacks as the block starts
    s = 1
    while s < m:
        low = [len(stack) for stack in stacks]
        e = min(m, s + max(2, min(_STAR_ROWS, _STAR_CELLS // max(low))))
        push = []
        for i in range(s, e):
            ci = cl[i]
            own = i & 1
            stack = stacks[own]
            while stack and stack[-1] <= ci:
                stack.pop()
            t = len(stack)
            if t < low[own]:
                low[own] = t
            push.append(t)
            stack.append(ci)
        # the first point of each type; points of type own read stack own ^ 1
        firsts = (s + (s & 1), s + 1 - (s & 1))
        for own in (0, 1):
            if low[own ^ 1] * len(range(firsts[own], e, 2)) < _STAR_MIN_PREFIX:
                low[own ^ 1] = 0
        tops = [before[k][low[k] :] for k in (0, 1)]
        xs = []
        counts = []
        for i, t in zip(range(s, e), push):
            own = i & 1
            top = tops[own ^ 1]
            xs += top
            counts.append(len(top))
            del tops[own][t - low[own] :]
            tops[own].append(cl[i])
        for k in (0, 1):
            before[k][low[k] :] = tops[k]
        yield e, low, push, c[s:e].repeat(counts) + np.array(xs), tops
        s = e


def _recorded(records, c: np.ndarray, plans: list):
    """``records`` of ``c``, passed through; at their end, the plan ``(c,
    kept)`` goes on ``plans``, ``kept`` the list of the records as yielded,
    unless their ``args`` pass :data:`_STAR_PLAN_TOPS` a point, where
    keeping stops."""
    kept = []
    n_args = 0
    for record in records:
        yield record
        kept.append(record)
        n_args += record[3].shape[0]
        if n_args > _STAR_PLAN_TOPS * c.shape[0]:
            yield from records
            return
    plans.append((c, kept))


@np.errstate(over="ignore")
def _star_dp(y, gauge: Callable) -> tuple[float, tuple | None]:
    """The variation DP over alternating turning points ``y``, at least two,
    and its plan; ``y`` may be that plan, from an earlier call on the same
    points.

    Extrema of one type have indices of one parity, and each parity keeps a
    stack of its undominated entries (see :func:`var_phi`).  With c = y at
    maxima and c = -y at minima, a step between opposite types has increment
    c_i + c_j, and an entry j of i's type is dominated once c_j <= c_i, so
    each stack holds strictly decreasing c from the bottom up.  Point i
    takes best_i = max over the opposite stack of best_j + gauge(c_i + c_j),
    then pops and pushes its own stack.

    Points go in blocks of :data:`_STAR_ROWS`, fewer when the deeper stack
    times the rows would pass :data:`_STAR_CELLS`.  The pops read c, never
    best, so :func:`_star_blocks` replays them first and finds the lowest
    height each stack falls to.  The entries below it are the stable prefix:
    no point of the block pops or overwrites them, and a stack is only ever
    cut from the top, so each is on the stack whenever a point of the other
    type reads it.  The prefix is scored for all those points with one
    gauge call on a (points x prefix) array and one row max, unless it has
    fewer than :data:`_STAR_MIN_PREFIX` cells.  The other entries a point
    reads take one gauge call on the record's ``args``, and a scalar pass
    replays the stack tops with their best.  Every candidate is the same
    float sum as in the point-at-a-time DP, which reads the whole opposite
    stack, and max is exact (no candidate is NaN: increments of finite
    prices are finite, and the gauges map them to non-NaN values), so the
    result is bit-identical to it.  The stacks live in preallocated arrays,
    written back after each block from the record's ``kept``.

    The plan is ``(c, records)``: the signed turning points and the list
    of the records that :func:`_star_blocks` yielded on them, kept as
    yielded (:func:`_recorded`); nothing changes a record once it is
    yielded.  One loop scores the records, from the producer on a first call
    and from the plan's list on a re-score, so a re-score gives the same
    floats.  A first call on over :data:`_STAR_ROWS` + 1 points keeps a
    plan; one block's would cost more than it saves.  A record is a few
    small Python objects, so a plan of many short blocks, a deep stack's,
    costs about 0.8 KB a block: 24 MB on a 2^16-sample drift with small
    reversals, against 3 MB on 2^16 samples of fractional noise.
    """
    if isinstance(y, tuple):
        c, records = y
        plans = [y]
    else:
        c = y.copy()
        c[int(y[1] < y[0]) :: 2] *= -1.0  # the minima
        records, plans = _star_blocks(c), []
        if c.shape[0] > _STAR_ROWS + 1:
            records = _recorded(records, c, plans)
    m = c.shape[0]
    stack_c = (np.empty(m), np.empty(m))
    stack_best = (np.empty(m), np.empty(m))
    stack_c[0][0] = c[0]
    stack_best[0][0] = 0.0
    heights = [1, 0]
    s = 1
    for e, low, push, args, kept in records:
        firsts = (s + (s & 1), s + 1 - (s & 1))
        top_g = iter(gauge(args).tolist())
        pre = [-math.inf] * (e - s)
        for own in (0, 1):
            h = low[own ^ 1]
            if h:
                cand = gauge(c[firsts[own] : e : 2, None] + stack_c[own ^ 1][:h])
                cand += stack_best[own ^ 1][:h]  # in place: one array fewer
                pre[firsts[own] - s :: 2] = cand.max(axis=1).tolist()
        top_best = [stack_best[k][low[k] : heights[k]].tolist() for k in (0, 1)]
        for i, t, best in zip(range(s, e), push, pre):
            own = i & 1
            for b in top_best[own ^ 1]:
                v = b + next(top_g)
                if v > best:
                    best = v
            del top_best[own][t - low[own] :]
            top_best[own].append(best)
        if e < m:
            for k in (0, 1):
                heights[k] = low[k] + len(top_best[k])
                stack_c[k][low[k] : heights[k]] = kept[k]
                stack_best[k][low[k] : heights[k]] = top_best[k]
        s = e
    return float(best), plans[0] if plans else None


def var_phi(path: PricePath, phi: VariationFunctional) -> float:
    """Supremum over all partitions of sum phi(|increment|); exact on step paths.

    For power gauges with p <= 1 the finest partition is optimal
    (subadditivity), so an O(n) sum is used.  A star-shaped gauge (phi(u)/u
    nondecreasing: power with p > 1, psi, a table whose node ratios
    phi_k/u_k are nondecreasing) is nondecreasing and superadditive, which
    gives three facts about the DP over index chains:

    (a) Turning points.  Some optimal chain uses only the endpoints and the
        strict local extrema of the sequence once plateaus are merged: a
        chain point inside a monotone run either lies between its chain
        neighbours and can be dropped (superadditivity), or can move to the
        end of its run, which lengthens both of its increments.
    (b) Alternation.  A step into a maximum comes from a minimum strictly
        below it, and a step into a minimum from a maximum strictly above
        it: between two chain points of one type, or a misordered pair,
        inserting the adjacent extremum never lowers the sum.
    (c) Dominance.  The best chain value never decreases along extrema of
        one type, because a chain can be extended through the extremum
        between them.  So a minimum is dominated once a later minimum is at
        or below it (a maximum once a later one is at or above it).  The
        candidate left ends form a stack of minima with strictly increasing
        values (maxima: strictly decreasing), and every entry on the stack is
        a valid left end for the next extremum.

    The DP is then one pass over the m turning points, each scored against
    the opposite stack: near-linear on typical paths, O(m^2) when small
    reversals of a drifting path keep the stack growing.  Whether an entry
    leaves a stack depends on values only, never on chain values, so the
    points go in blocks (see :func:`_star_dp`): the entries that stay on a
    stack through a whole block are valid left ends for every point of the
    block that reads it, and one gauge call scores them all.  That replay
    and the gauge arguments it leads to depend on the prices only: the first
    star-shaped gauge on a path of more than one block keeps them on the
    path as a private plan, the producer's records as it yielded them
    (unless they pass :data:`_STAR_PLAN_TOPS` a point), and every later one
    re-scores that plan in about 60% of the time of a first call on
    fractional noise.  Other gauges take :func:`_mesh_dp`
    with one unconstrained window and one row per run of equal prices
    (:func:`_level_heads`), bit-identical to the DP over every sample; it
    drops dominated left ends when the table is certified nondecreasing
    (:func:`_dp_until`), and is O(n^2) otherwise.

    The path also keeps each value returned, by gauge, in a private dict:
    a gauge equal to one scored before on the same path (gauges are frozen
    and compare by kind and parameters) returns that float and runs no DP.
    Like the plan, the dict is not a field, so it stays out of ``==``,
    ``repr``, copies and pickles, and an equal path built anew starts
    without it.  A call that raises keeps nothing.
    """
    # private attributes, not fields: ==, repr and pickles ignore them, and a
    # new path has neither (no AttributeError to raise)
    scores = path.__dict__.get("_var_phi")
    if scores is not None and phi in scores:
        return scores[phi]
    value = _score(path, phi)
    if scores is None:
        scores = {}
        object.__setattr__(path, "_var_phi", scores)
    scores[phi] = value
    return value


def _score(path: PricePath, phi: VariationFunctional) -> float:
    """:func:`var_phi` without its values kept on the path."""
    if phi.kind == "power" and phi.p <= 1.0:
        d = np.abs(np.diff(path.values))
        return _fsum_nonneg(d**phi.p)
    check_dp_samples(path.values.shape[0])
    if not phi.star_shaped:
        values = path.values[_level_heads(path.values)]
        firsts = np.zeros((1, values.shape[0]), dtype=np.intp)
        return _mesh_dp(values, firsts, _dp_until(values, phi), phi.on_increments)[0]
    plan = path.__dict__.get("_star_plan")
    best, plan = _star_dp(turning_points(path.values) if plan is None else plan, phi.on_increments)
    if plan is not None:
        object.__setattr__(path, "_star_plan", plan)
    return best


def var_p(path: PricePath, p: float) -> float:
    return var_phi(path, VariationFunctional.power(p))


MAX_ORACLE_SAMPLES = 16  # 2^14 chains, whose cached index arrays hold 3 MB


@lru_cache(maxsize=MAX_ORACLE_SAMPLES)
def _chain_structure(n: int):
    """Flat pair indices and segment ids of every index chain 0 -> n-1.

    Chain c holds both endpoints and interior point b + 1 for each set bit b
    of c; its consecutive pairs are flattened in order and tagged with
    segment id c for a bincount reduction.
    """
    chains = np.arange(1 << (n - 2))
    member = np.ones((chains.size, n), dtype=bool)
    member[:, 1:-1] = (chains[:, None] >> np.arange(n - 2)) & 1
    seg, idx = np.nonzero(member)  # chain by chain, indices increasing
    same = seg[1:] == seg[:-1]
    return idx[:-1][same], idx[1:][same], seg[:-1][same], chains.size


def brute_force_var_phi(path: PricePath, phi: VariationFunctional) -> float:
    """Independent oracle: enumerate every partition chain explicitly.

    Restricted to paths of at most :data:`MAX_ORACLE_SAMPLES` samples;
    raises :class:`TooLarge` otherwise.
    """
    values = path.values
    n = values.shape[0]
    if n > MAX_ORACLE_SAMPLES:
        raise TooLarge(f"{n} samples; oracle enumerates 2^(n-2) partitions")
    left, right, seg, n_seg = _chain_structure(n)
    contrib = phi(np.abs(values[right] - values[left]))
    sums = np.bincount(seg, weights=contrib, minlength=n_seg)
    return float(sums.max())


def var_signed(path: PricePath) -> tuple[float, float, float]:
    """(var, var_plus, var_minus) of the sample sequence.

    Positive and negative parts are subadditive under merging, so the finest
    partition attains all three suprema; sums are exact, or inf past float64.
    """
    d = np.diff(path.values)
    var_plus = _fsum_nonneg(d[d > 0.0])
    var_minus = _fsum_nonneg(-d[d < 0.0])
    return var_plus + var_minus, var_plus, var_minus


def _fsum_nonneg(terms) -> float:
    """``math.fsum`` of nonnegative terms, or ``inf`` when it overflows float64."""
    try:
        return fsum(terms)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CrossingCount:
    """Completed up/down moves across a band; |up - down| <= 1 per band."""

    up: int
    down: int


def crossings(path: PricePath, a: float, b: float) -> CrossingCount:
    """Count completed moves <=a -> >=b (up) and >=b -> <=a (down).

    Matches hitting the closed sets [0, a] and [b, inf) in sample order,
    which on a step path happens exactly at sample points.
    """
    if not (0.0 <= a < b):
        raise BadInterval(f"need 0 <= a < b, got ({a}, {b})")
    up, down = _band_moves(path.values, [(np.array([a], float), np.array([b], float))])[0]
    return CrossingCount(up=int(up[0]), down=int(down[0]))


def _band_moves(values: np.ndarray, band_sets) -> list[tuple[np.ndarray, np.ndarray]]:
    """Completed up and down moves across each band (a[k], b[k]), as in :func:`crossings`.

    One ``(up, down)`` per set ``(a, b)`` of nondecreasing edges, a[k] < b[k].  Band
    k is on its low side iff its last sample in [0, a[k]] is later than its last in
    [b[k], inf); it has no side while it has neither.  With sorted edges the first
    time is nondecreasing in k and the second nonincreasing, so the bands form
    three blocks [high | no side | low], split at p <= q.  Sample t sets [0, highs_t)
    high and [lows_t, K) low, its ``searchsorted`` indices, which clamps p and q
    into [highs_t, lows_t].  A sample with its predecessor's index pairs moves no
    band (a clamp is idempotent) and is dropped.  Clamps compose, so a Hillis-Steele
    scan (log2 n rounds of max/min on shifted slices, one column per set) gives p
    and q before every sample.  Sample t completes ups on [q_{t-1}, highs_t) and
    downs on [lows_t, p_{t-1}), summed in one difference array per direction (set s
    at [starts[s], starts[s + 1])): O(S n log n + sum K) time, O(S n + sum K)
    memory.  ``mixtures._grid_held`` rests on the same monotone-side fact but shares
    no code, and each is pinned to its own oracle, so they certify each other.
    """
    rows, starts = [], [0]  # lows and highs of set s at 2s and 2s + 1
    for a, b in band_sets:
        rows += np.searchsorted(a, values, side="left"), np.searchsorted(b, values, side="right")
        starts.append(starts[-1] + a.shape[0] + 1)
    moved = np.zeros(values.shape[0], dtype=bool)
    moved[0] = True
    changed = np.empty(values.shape[0] - 1, dtype=bool)  # one buffer keeps the peak down
    for row in rows:
        moved[1:] |= np.not_equal(row[1:], row[:-1], out=changed)
    del changed
    # free the full rows before copying the kept samples into (samples x sets)
    kept = [row[moved] for row in rows]
    del rows, row
    lows, highs = np.array(kept[0::2]).T, np.array(kept[1::2]).T
    del kept
    bounds = np.array(starts)
    first, last = bounds[None, :-1], bounds[None, 1:] - 1  # set s is [first, last]
    lows += first
    highs += first
    # clamp t + 1 is kept sample t's; clamp 0, [0, K], is the start.  The scan
    # leaves p and q before kept sample t in lo[t] and hi[t].
    lo = np.concatenate((first, highs[:-1]))
    hi = np.concatenate((last, lows[:-1]))
    shift = 1
    while shift < lo.shape[0]:
        new_lo = np.minimum(np.maximum(lo[:-shift], lo[shift:]), hi[shift:])
        hi[shift:] = np.minimum(np.maximum(hi[:-shift], lo[shift:]), hi[shift:])
        lo[shift:] = new_lo
        shift *= 2
    up = np.bincount(hi.ravel(), minlength=starts[-1])
    np.subtract.at(up, np.maximum(hi, highs).ravel(), 1)
    down = np.bincount(lows.ravel(), minlength=starts[-1])
    np.subtract.at(down, np.maximum(lows, lo).ravel(), 1)
    np.add.accumulate(up, out=up)  # in place, as K can reach 2^20; a set's entries sum to 0
    np.add.accumulate(down, out=down)
    return [(up[s : end - 1], down[s : end - 1]) for s, end in zip(starts, starts[1:])]


MAX_BANDS = 1 << 20  # band grids in use stay near 2^10


def band_count(sup: float, h: float) -> int:
    """Number of bands (k*h, (k+1)*h) with k*h <= sup.

    Raises :class:`BadStep` unless ``h`` is finite and > 0, and
    :class:`TooLarge` beyond :data:`MAX_BANDS` bands.
    """
    if not (0.0 < h < math.inf):
        raise BadStep(f"step must be finite and > 0, got {h}")
    ratio = sup / h
    if ratio >= MAX_BANDS:
        raise TooLarge(f"step {h:g} gives more than {MAX_BANDS} bands below {sup:g}")
    return int(math.floor(ratio)) + 1


def band_crossings(path: PricePath, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-band up and down move counts over the grid (k*h, (k+1)*h), k*h <= sup.

    Band k counts exactly what ``crossings(path, k*h, (k+1)*h)`` counts:
    both run :func:`_band_moves`, here on all bands at once.
    """
    return _grid_moves(path, [h])[0]


def _grid_moves(path: PricePath, heights) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`band_crossings` for each of ``heights``, all in one band scan."""
    grids = [h * np.arange(band_count(path.sup, h) + 1) for h in heights]
    return _band_moves(path.values, [(g[:-1], g[1:]) for g in grids])


def grid_crossings(path: PricePath, h: float) -> CrossingCount:
    """Aggregate band crossings over the grid (k*h, (k+1)*h), k*h <= sup."""
    up, down = band_crossings(path, h)
    return CrossingCount(up=int(up.sum()), down=int(down.sum()))


ADMISSIBLE_J_MAX = 64  # finest dyadic scale of the series probe
ADMISSIBLE_FLAT_TOL = 0.05  # largest tail share of a numerically Cauchy series


@dataclass(frozen=True)
class AdmissibilityReport:
    """Numeric probe of the two gauge conditions needed by dyadic mixtures.

    ``partial_sum`` accumulates 2^(2j) phi(2^-j) for j <= ADMISSIBLE_J_MAX;
    ``tail_trend`` is the relative mass of the last quarter of that sum (flat
    tail means the series is numerically Cauchy).  Advisory, not a proof.
    """

    admissible: bool
    ratio_sup_estimate: float
    partial_sum: float
    tail_trend: float


def phi_admissible(phi: VariationFunctional) -> AdmissibilityReport:
    j = np.arange(ADMISSIBLE_J_MAX + 1, dtype=np.float64)
    w = np.asarray(phi(2.0**-j)) * 4.0**j
    partial = np.cumsum(w)
    total = float(partial[-1])
    tail_trend = float((partial[-1] - partial[3 * ADMISSIBLE_J_MAX // 4]) / max(total, 1e-300))
    # doubling-ratio probe of sup phi(s)/phi(t) over t <= s <= 2t; row 0 is
    # s = t, and fmax skips the NaN of an overflowed inf / inf
    t = np.logspace(-9, 2, 45)
    s = np.linspace(t, 2.0 * t, 5)
    g = np.asarray(phi(s.ravel()), dtype=np.float64).reshape(s.shape)
    live = g[0] > 0.0
    ratio_sup = float(np.fmax.reduce(g[:, live] / g[0, live], axis=None, initial=0.0))
    return AdmissibilityReport(
        admissible=tail_trend <= ADMISSIBLE_FLAT_TOL and math.isfinite(total),
        ratio_sup_estimate=ratio_sup,
        partial_sum=total,
        tail_trend=tail_trend,
    )


@dataclass(frozen=True)
class QvarPoint:
    delta: float
    value: float
    degenerate: bool  # no skip transition was feasible at this mesh


def qvar_profile(path: PricePath, deltas) -> list[QvarPoint]:
    """Mesh-constrained psi-variation for each mesh bound in ``deltas``.

    Partition points range over all of [0, T], so capturing one jump is
    always feasible (approach it from the left); the mesh bound only limits
    skipping over intermediate samples.  Values are non-increasing as delta
    decreases and bounded by the unconstrained psi-variation; every bound at
    or below the finest time gap allows adjacent steps only.

    The DP runs on one sample per price level, the first of each run of
    equal prices (:func:`_level_heads`), at its time: the same step function,
    so the windows come from the same formula.  :func:`_mesh_dp` serves up
    to :data:`_MESH_GROUP` bounds per pass, dropping dominated left ends
    when the oscillation is below :data:`_PSI_MONOTONE_BELOW`
    (:func:`_dp_until`).  The results are bit-identical to the DP over
    every sample.
    """
    deltas = [float(d) for d in deltas]
    if not all(d > 0.0 for d in deltas):  # NaN too; inf means unconstrained
        raise BadStep("all mesh bounds must be > 0")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise BadStep("mesh bounds must be strictly decreasing")
    check_dp_samples(path.n_samples)
    min_gap = float(np.diff(path.times).min())
    heads = _level_heads(path.values)
    times = path.times[heads]
    values = path.values[heads]

    def firsts(bounds):
        # a step j -> i is feasible iff a partition with mesh < d can evaluate
        # the path at consecutive points carrying x_j then x_i: landing
        # anywhere in block j and leaving just before times[j+1], that is
        # times[i] - times[j+1] < d; adjacent blocks always qualify, also
        # when times[i] - d rounds to times[i]
        first = np.searchsorted(times[1:], times - np.array(bounds)[:, None], side="right")
        return np.minimum(first, np.arange(times.shape[0]) - 1)

    until = _dp_until(values, VariationFunctional.taylor_psi())
    out = []
    for k in range(0, len(deltas), _MESH_GROUP):
        out += _mesh_dp(values, firsts(deltas[k : k + _MESH_GROUP]), until, psi)
    return [QvarPoint(delta=d, value=v, degenerate=d <= min_gap) for d, v in zip(deltas, out)]


def variation_growth_profile(path: PricePath, p_grid, N_grid) -> dict:
    """Table var_p(path discretized to N steps) over p_grid x N_grid.

    Finite-sample diagnostic for how variation grows under refinement; a
    direction-only probe, never a point estimate of a variation index.
    Raises :class:`BadSpec` unless each N is an integer (``bool`` is not),
    :class:`BadStep` unless ``N_grid`` increases, :class:`TooLarge` past the
    DP limit.  The level N = n - 1 of an n-sample path on the uniform grid
    is the path itself (:func:`discretize`), so it reads what :func:`var_phi`
    keeps on the path: the value of a p scored there before, with no DP, or
    else a re-score of its DP plan.
    """
    N_grid = [_integer_steps(N) for N in N_grid]
    if any(n2 <= n1 for n1, n2 in zip(N_grid, N_grid[1:])):
        raise BadStep("N_grid must be strictly increasing")
    check_dp_samples(max(N_grid, default=0) + 1)
    table = {}
    for N in N_grid:
        sub = discretize(path, N)
        for p in p_grid:
            table[(float(p), N)] = var_p(sub, float(p))
    return table
