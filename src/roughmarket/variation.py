"""Exact variation functionals, crossing counters and gauge diagnostics.

All computations are exact on step paths: any partition of [0, T] evaluates
the path at sample values, and any strictly increasing index subsequence
through the first and last sample is realizable as a partition.  The DP over
index subsequences therefore computes the true supremum.  For star-shaped
gauges (phi(u)/u nondecreasing) :func:`var_phi` runs it on the turning points
with a stack of undominated left ends, near-linear on typical paths, taking
the points in blocks so that one gauge call scores the stack entries that no
point of the block removes.  The mesh-constrained :func:`qvar_profile` runs
one pass over the right ends for all its mesh bounds at once
(:func:`_mesh_dp`): the windows are nested, so one gauge call per block
serves every mesh, and a left end leaves once later samples on both sides of
its price have arrived.  :func:`var_dp` is the O(n^2) DP over every sample,
which gauges that are not star-shaped use, and :func:`qvar_profile` on paths
whose oscillation reaches the range where psi is not monotone in float64; it
takes right ends in blocks so that one gauge call scores all of a block's
left ends and one vector max finishes each right end.  All take at most
:data:`MAX_DP_SAMPLES` samples, and evaluate the gauge with numpy's overflow
warning off, so an increment whose gauge passes float64 gives ``inf``.

Prices are step paths, so plateaus are the normal case.  As every gauge has
phi(0) = 0, a sample equal to its predecessor has the same best chain value,
and a run of equal samples offers one candidate, live while its last sample
is in the window (:func:`_level_heads`).  So :func:`qvar_profile` and the
:func:`var_dp` branch of :func:`var_phi` keep one row per price level, with
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from typing import Callable

import numpy as np

from .errors import BadInterval, BadStep, InadmissiblePhi, TooLarge
from .paths import PricePath, discretize

__all__ = [
    "VariationFunctional",
    "psi",
    "var_dp",
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
            if np.any(v < 0.0):
                raise InadmissiblePhi("gauge values must be >= 0")
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
        # continue the last segment linearly beyond the table
        beyond = d > uu[-1]
        if beyond.any():
            slope = (vv[-1] - vv[-2]) / (uu[-1] - uu[-2])
            out = np.where(beyond, vv[-1] + slope * (d - uu[-1]), out)
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


# at this size, 2-vCPU VM: var_dp 14.6 s (p = 2.5), 20.8 s (psi) on fractional
# noise; var_phi 0.1 s on fractional noise, 3.7 s (p = 2.5) and 5.5 s (psi) on a
# drift with small reversals (one deep stack)
MAX_DP_SAMPLES = 1 << 16


def check_dp_samples(n: int) -> None:
    """Raise :class:`TooLarge` if a DP over ``n`` samples exceeds :data:`MAX_DP_SAMPLES`."""
    if n > MAX_DP_SAMPLES:
        raise TooLarge(f"{n} samples; the exact variation DP takes at most {MAX_DP_SAMPLES}")


# rows x window per block of var_dp, so a gauge array stays near 128 KB or
# below: larger ones measured 2x slower per cell with psi; 2^12-2^14 measure alike
_DP_CELLS = 1 << 13


@np.errstate(over="ignore")
def var_dp(values: np.ndarray, gauge: Callable, first: np.ndarray | None = None) -> float:
    """Supremum over index chains 0 -> n-1 of the summed gauge of increments.

    ``gauge`` maps an array of nonnegative increments to their gauge values,
    elementwise.  ``first[i]``, when given, is the smallest index a chain may
    step from into ``i`` (nondecreasing, ``first[i] < i``); by default any
    ``j < i``.  best[i] is the max over those j of best[j] + gauge(|x_i - x_j|).

    Right ends go in blocks [s, e) of at most w = s - first[s] rows, fewer
    when the rows times w would pass :data:`_DP_CELLS`.  One gauge call takes
    the increments of the block's rows against every left end any of them
    reads, [first[s], e-1); as first is nondecreasing and e - s <= w, that
    array has fewer than 2 w (e - s) cells, so at most 2 :data:`_DP_CELLS`
    unless a single row's window passes it.  Then each row i, in order, takes
    one vector max of best[first[i]:i] plus its slice of those gauge values:
    the left ends inside the block are final by the time row i reads them.
    Every candidate best[j] + g is the same float sum as in the one-row-per-
    right-end DP and max is exact, so the result is bit-identical to it
    whenever the gauge gives an element of a 2-D array the value it gives
    the same element of a 1-D slice (psi, powers and ``np.interp`` are
    elementwise).  O(n^2) time, O(n) memory.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    check_dp_samples(n)
    if n < 2:
        return 0.0
    starts = [0] * n if first is None else first.tolist()
    best = np.empty(n, dtype=np.float64)
    best[0] = 0.0
    s = 1
    while s < n:
        lo = starts[s]
        w = s - lo
        e = min(n, s + max(1, min(w, _DP_CELLS // w)))
        g = gauge(np.abs(values[s:e, None] - values[lo : e - 1]))
        for i in range(s, e):
            a = starts[i]
            best[i] = (best[a:i] + g[i - s, a - lo : i - lo]).max()  # np.max costs ~2 us more
        s = e
    return float(best[n - 1])


# psi is nondecreasing in float64 on [0, 15): it is exactly u*u/2 on
# [e^-e, 15], as log(log 15) < 1, and below e^-e a nondecreasing numerator
# over a nonincreasing denominator; above e^e it dips by an ulp at places
_PSI_MONOTONE_BELOW = 15.0
_MESH_ROWS = 48  # right ends per block of _mesh_dp; 32-64 measure alike, 16 is 20% slower
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


@np.errstate(over="ignore")
def _mesh_dp(values: np.ndarray, firsts: np.ndarray, until: np.ndarray) -> list[float]:
    """:func:`var_dp` with gauge :func:`psi` for each row of ``firsts``, in
    one pass over the right ends; ``until`` is :func:`_undominated_until`.

    The rows of ``firsts`` must be nondecreasing down each column (mesh
    bounds in decreasing order), and psi nondecreasing in float64 on every
    increment of ``values`` (oscillation below :data:`_PSI_MONOTONE_BELOW`).

    Dominance: every adjacent step is feasible, so best[j+1] >= best[j] +
    psi(|x_{j+1} - x_j|) >= best[j] in float64 too, and best is
    nondecreasing.  Let j < k with x_k <= x_j.  A row i > k whose window
    holds j holds k, and if x_i >= x_j, k's candidate best[k] + psi(x_i -
    x_k) is at least j's, as subtraction, psi and addition are all monotone.
    Mirrored for x_k >= x_j, so j serves no row after until[j], and the
    candidates that remain give the same max.

    Right ends go in blocks of :data:`_MESH_ROWS`, fewer when meshes times
    rows times left ends would pass :data:`_DP_CELLS`.  The left ends of a
    block are those before it that the widest window holds and that serve
    its first row, and every sample inside it; one that dies inside the
    block stays a candidate, which changes no max.  One gauge call scores
    all their pairs with the block's rows, and a (rows x meshes x left
    ends) array holds each score, or -inf where a left end is outside a
    mesh's window.  The chain values of the block's own samples start at
    -inf, which hides each from the rows up to its own.  Each row then
    takes one add of the meshes' chain values and one max per mesh, and
    writes its best into its column.  Every finite candidate is the sum the
    row-at-a-time DP forms, the undominated left ends of each window are
    among them, and max is exact (no candidate is NaN: chain and gauge
    values are finite), so each result is bit-identical to :func:`var_dp`'s.
    """
    meshes, n = firsts.shape
    best = np.zeros((meshes, n))
    s = 1
    while s < n:
        lo = firsts[0, s]  # the widest window
        live = np.flatnonzero(until[lo:s] >= s) + lo
        nl = live.size
        rows = max(1, min(_MESH_ROWS, _DP_CELLS // (meshes * (nl + _MESH_ROWS))))
        e = min(n, s + rows)
        cols = np.concatenate((live, np.arange(s, e)))
        g = psi(np.abs(values[s:e, None] - values[cols]))
        score = np.where(cols >= firsts[:, s:e].T[:, :, None], g[:, None, :], -np.inf)
        chain = np.full((meshes, cols.size), -np.inf)
        chain[:, :nl] = best[:, live]
        cand = np.empty_like(chain)
        for row, out in zip(score, chain.T[nl:]):
            np.maximum.reduce(np.add(chain, row, out=cand), axis=1, out=out)
        best[:, s:e] = chain[:, nl:]
        s = e
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


@np.errstate(over="ignore")
def _star_dp(y: np.ndarray, gauge: Callable) -> float:
    """The variation DP over alternating turning points ``y``, at least two.

    Extrema of one type have indices of one parity, and each parity keeps a
    stack of its undominated entries (see :func:`var_phi`).  With c = y at
    maxima and c = -y at minima, a step between opposite types has increment
    c_i + c_j, and an entry j of i's type is dominated once c_j <= c_i, so
    each stack holds strictly decreasing c from the bottom up.  Point i
    takes best_i = max over the opposite stack of best_j + gauge(c_i + c_j),
    then pops and pushes its own stack.

    Points go in blocks of :data:`_STAR_ROWS`, fewer when the deeper stack
    times the rows would pass :data:`_STAR_CELLS`.  The pops read c, never
    best, so a first pass over the block replays them, with the Python lists
    that mirror each stack's c, and finds the lowest height each stack falls
    to.  The entries below that height are the stable prefix: no point of
    the block pops or overwrites them, and a stack is only ever cut from
    the top, so every one of them is on the stack whenever a point of the
    other type reads it.  The prefix is scored for all those points with one
    gauge call on a (points x prefix) array and one row max, unless it has
    fewer than :data:`_STAR_MIN_PREFIX` cells.  The other entries a point
    reads (pushed in the block, or popped in it) take one gauge call on
    their pairs, and a scalar pass replays the stack tops with their best.
    Every candidate is the same float sum as in the point-at-a-time DP,
    which reads the whole opposite stack, and max is exact (no candidate is
    NaN: increments of finite prices are finite, and the gauges map them to
    non-NaN values), so the result is bit-identical to it.  The stacks live
    in preallocated arrays, written back after each block.
    """
    m = y.shape[0]
    c = y.copy()
    c[int(y[1] < y[0]) :: 2] *= -1.0  # the minima
    cl = c.tolist()
    stack_c = (np.empty(m), np.empty(m))
    stack_best = (np.empty(m), np.empty(m))
    mirrors = ([cl[0]], [])
    stack_c[0][0] = cl[0]
    stack_best[0][0] = 0.0
    s = 1
    while s < m:
        h0 = (len(mirrors[0]), len(mirrors[1]))
        e = min(m, s + max(2, min(_STAR_ROWS, _STAR_CELLS // max(h0))))
        low = list(h0)
        push = []  # each point's height in its own stack
        for i in range(s, e):
            ci = cl[i]
            own = i & 1
            stack = mirrors[own]
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
        # the entries above the prefix, replayed with their c, then their best
        top_c = [stack_c[k][low[k] : h0[k]].tolist() for k in (0, 1)]
        xs = []
        counts = []
        for i, t in zip(range(s, e), push):
            own = i & 1
            top = top_c[own ^ 1]
            xs += top
            counts.append(len(top))
            del top_c[own][t - low[own] :]
            top_c[own].append(cl[i])
        top_g = iter(gauge(c[s:e].repeat(counts) + np.array(xs)).tolist() if xs else ())
        pre = [-math.inf] * (e - s)
        for own in (0, 1):
            h = low[own ^ 1]
            if h:
                cand = gauge(c[firsts[own] : e : 2, None] + stack_c[own ^ 1][:h])
                cand += stack_best[own ^ 1][:h]  # in place: one array fewer
                pre[firsts[own] - s :: 2] = cand.max(axis=1).tolist()
        top_best = [stack_best[k][low[k] : h0[k]].tolist() for k in (0, 1)]
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
                stack_c[k][low[k] : len(mirrors[k])] = top_c[k]
                stack_best[k][low[k] : len(mirrors[k])] = top_best[k]
        s = e
    return float(best)


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
    block that reads it, and one gauge call scores them all.  Other gauges
    take the O(n^2) :func:`var_dp` with one row per run of equal prices
    (:func:`_level_heads`), bit-identical to the DP over every sample.
    """
    if phi.kind == "power" and phi.p <= 1.0:
        d = np.abs(np.diff(path.values))
        return _fsum_nonneg(d**phi.p)
    check_dp_samples(path.values.shape[0])
    if not phi.star_shaped:
        return var_dp(path.values[_level_heads(path.values)], phi.on_increments)
    return _star_dp(turning_points(path.values), phi.on_increments)


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
    up, down = _band_moves(path.values, np.array([a], dtype=float), np.array([b], dtype=float))
    return CrossingCount(up=int(up[0]), down=int(down[0]))


def _band_moves(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Completed up and down moves across each band (a[k], b[k]), as in :func:`crossings`.

    ``a`` and ``b`` are nondecreasing with a[k] < b[k].  As the edges are
    sorted, the bands on their low side after a sample x (a[k] >= x) are a
    suffix [low, K), those on their high side (b[k] <= x) a prefix [0, high),
    and every other band keeps the side it was last on.  So a sample touches
    only the bands that the suffix or the prefix gains since the previous
    sample: O(n + band entries) time, O(K) memory.  The kernel keeps explicit
    per-band state (0 no side yet, 1 low, 2 high) and does not use the grid
    kernel's floor/ceil and run-head invariant, so the two certify each other.
    """
    lows = np.searchsorted(a, values, side="left").tolist()
    highs = np.searchsorted(b, values, side="right").tolist()
    side = np.zeros(a.shape[0], dtype=np.int8)
    up = np.zeros(a.shape[0], dtype=np.int64)
    down = np.zeros(a.shape[0], dtype=np.int64)
    low_was, high_was = a.shape[0], 0
    for low, high in zip(lows, highs):
        if low < low_was:
            joined = side[low:low_was]
            down[low:low_was] += joined == 2
            joined[:] = 1
        if high > high_was:
            joined = side[high_was:high]
            up[high_was:high] += joined == 1
            joined[:] = 2
        low_was, high_was = low, high
    return up, down


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
    values = path.values
    n_bands = band_count(float(values.max()), h)
    return _band_moves(values, h * np.arange(n_bands), h * np.arange(1, n_bands + 1))


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
    so the windows come from the same formula.  A path whose oscillation is
    below :data:`_PSI_MONOTONE_BELOW` runs :func:`_mesh_dp` on up to
    :data:`_MESH_GROUP` bounds per pass; others run :func:`var_dp` once per
    bound.  The results are bit-identical to the DP over every sample.
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

    if deltas and values.max() - values.min() < _PSI_MONOTONE_BELOW:
        until = _undominated_until(values)
        out = []
        for k in range(0, len(deltas), _MESH_GROUP):
            out += _mesh_dp(values, firsts(deltas[k : k + _MESH_GROUP]), until)
    else:
        out = [var_dp(values, psi, firsts([d])[0]) for d in deltas]
    return [QvarPoint(delta=d, value=v, degenerate=d <= min_gap) for d, v in zip(deltas, out)]


def variation_growth_profile(path: PricePath, p_grid, N_grid) -> dict:
    """Table var_p(path discretized to N steps) over p_grid x N_grid.

    Finite-sample diagnostic for how variation grows under refinement; a
    direction-only probe, never a point estimate of a variation index.
    Raises :class:`BadStep` unless ``N_grid`` increases, :class:`TooLarge` past the DP limit.
    """
    N_grid = [int(N) for N in N_grid]
    if any(n2 <= n1 for n1, n2 in zip(N_grid, N_grid[1:])):
        raise BadStep("N_grid must be strictly increasing")
    check_dp_samples(max(N_grid, default=0) + 1)
    table = {}
    for N in N_grid:
        sub = discretize(path, N)
        for p in p_grid:
            table[(float(p), N)] = var_p(sub, float(p))
    return table
