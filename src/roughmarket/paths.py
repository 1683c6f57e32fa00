"""Price path data model, generators, discretization and file I/O.

A :class:`PricePath` is a finite sample of a right-continuous step function:
``value(t) = values[i]`` for ``t in [times[i], times[i+1])`` and
``value(T) = values[-1]``.  Every downstream operation (variation, crossing
counts, strategy execution) treats the path as exactly this step function,
which makes hitting times and partition increments exact on the sample grid.
Fixtures meant to mimic continuous paths are represented by dense sampling;
this bias is inherent to any finite representation and noted per experiment.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import BadSpec, BadTimeGrid, NonPositiveValue, ParseError, TooLarge

__all__ = [
    "PricePath",
    "GeneratorSpec",
    "make_path",
    "generate",
    "discretize",
    "write_path",
    "read_path",
]

GENERATOR_KINDS = (
    "constant",
    "linear-drift",
    "geometric-random-walk",
    "exp-fractional",
    "jump",
    "custom-steps",
)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PricePath:
    """Sampled positive price trajectory, read as a right-continuous step function.

    Immutable after construction and safe to share across workers.  Two
    paths are ``==`` when their times and values are; a path is not
    hashable.  :func:`~roughmarket.variation.var_phi` keeps what it scored on
    a path (the star DP's plan, its block records as their producer yielded
    them, and its values by gauge) in private attributes that are not
    fields, so ``==``, ``repr``, copies and pickles ignore them, and an
    equal path built anew starts without them.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _frozen(self.times)
        values = _frozen(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise BadTimeGrid("times and values must be one-dimensional")
        if times.shape[0] != values.shape[0]:
            raise BadTimeGrid("times and values must have equal length")
        if times.shape[0] < 2:
            raise BadTimeGrid("a path needs at least two samples")
        # method reductions: the np.all / np.any / np.diff wrappers cost
        # more than the work on short paths
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise BadTimeGrid("non-finite entries")
        if times[0] != 0.0:
            raise BadTimeGrid("first time must be 0")
        if not (times[1:] > times[:-1]).all():
            raise BadTimeGrid("times must be strictly increasing")
        if values.min() < 0.0:  # no NaN is left, and -0.0 passes
            raise NonPositiveValue("price samples must be >= 0")

    def __eq__(self, other):
        # the dataclass one compares the arrays inside a tuple, which raises
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.values, other.values)

    def __getstate__(self):
        # the fields only: the private caches that other modules keep on a
        # path (variation's DP plan and values) stay out of pickles and copies
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_samples(self) -> int:
        return int(self.times.shape[0])

    def value_at(self, t) -> np.ndarray | float:
        """Evaluate the step function at time(s) t in [0, horizon]."""
        t_arr = np.asarray(t, dtype=np.float64)
        if not np.all((t_arr >= 0.0) & (t_arr <= self.horizon)):  # NaN too
            raise BadTimeGrid("evaluation time outside [0, T]")
        idx = np.searchsorted(self.times, t_arr, side="right") - 1
        out = self.values[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    @property
    def sup(self) -> float:
        return float(self.values.max())

    def with_values(self, values) -> "PricePath":
        return PricePath(self.times, values)


def make_path(times, values, T: float) -> PricePath:
    """Validate and build a path; ``T`` must equal the last sample time."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.shape[0] < 2:
        raise BadTimeGrid("need at least two samples")
    if not np.isfinite(T) or T <= 0.0:
        raise BadTimeGrid("horizon must be a positive real")
    if times[-1] != T:
        raise BadTimeGrid(f"last time {times[-1]} != declared horizon {T}")
    return PricePath(times, values)


def _uniform_times(n: int, T: float) -> np.ndarray:
    # arange * step keeps dyadic grids exact; endpoint forced to T.
    step = T / (n - 1)
    t = np.arange(n, dtype=np.float64) * step
    t[-1] = T
    return t


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic path generator description; same (spec, seed) gives the
    same path bit for bit."""

    kind: str
    n_samples: int
    seed: int = 0
    horizon: float = 1.0
    level: float = 1.0
    start: float = 1.0
    eps: float = 0.0
    sigma: float = 1.0
    drift: float = 0.0
    hurst: float = 0.5
    jump_rate: float = 1.0
    jump_mean: float = 0.0
    jump_sigma: float = 0.5
    values: tuple | None = None
    times: tuple | None = None

    def to_json(self) -> str:
        d = {k: v for k, v in self.__dict__.items() if v is not None}
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise BadSpec(f"invalid generator JSON: {e}") from e
        if not isinstance(d, dict):
            raise BadSpec("generator spec must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise BadSpec(f"unknown generator fields: {sorted(unknown)}")
        missing = {"kind", "n_samples"} - set(d)
        if missing:
            raise BadSpec(f"missing generator fields: {sorted(missing)}")
        for key in ("values", "times"):
            if key in d and d[key] is not None:
                if not isinstance(d[key], list):
                    raise BadSpec(f"{key} must be a list of numbers")
                d[key] = tuple(d[key])
        return cls(**d)


_INT_FIELDS = ("n_samples", "seed")
_REAL_FIELDS = (
    "horizon", "level", "start", "eps", "sigma", "drift", "hurst",
    "jump_rate", "jump_mean", "jump_sigma",
)


def _is_number(x, integral: bool = False) -> bool:
    kinds = (int, np.integer) if integral else (int, float, np.integer, np.floating)
    if isinstance(x, int) and not integral and abs(x) >= 2**1024 - 2**970:
        return False  # a JSON integer that float() rounds to 2^1024, past float64's range
    return isinstance(x, kinds) and not isinstance(x, bool)


# each checked field with the type that passes it without _is_number
_PLAIN_TYPES = tuple((name, int) for name in _INT_FIELDS) + tuple(
    (name, float) for name in _REAL_FIELDS
)


def _check_types(spec: GeneratorSpec) -> None:
    for name, plain in _PLAIN_TYPES:
        value = getattr(spec, name)
        if type(value) is not plain and not _is_number(value, integral=plain is int):
            what = "an integer" if plain is int else "a number"
            raise BadSpec(f"{name} must be {what}, got {value!r}")
    for name in ("values", "times"):
        seq = getattr(spec, name)
        if seq is not None and not all(_is_number(x) for x in seq):
            raise BadSpec(f"{name} must hold numbers only")


MAX_SAMPLES = 1 << 22  # exp-fractional, the costliest kind: 0.45 GB peak RSS, 1.3-1.9 s, 2-vCPU VM
MAX_JUMP_MEAN = 1e18  # numpy's Poisson sampler refuses means above about 9.2e18


def _validate_spec(spec: GeneratorSpec) -> None:
    _check_types(spec)
    sizes = [len(seq) for seq in (spec.values, spec.times) if seq is not None]
    n = max(sizes) if spec.kind == "custom-steps" and sizes else spec.n_samples
    if n > MAX_SAMPLES:
        raise TooLarge(f"{n} samples; a generated path has at most {MAX_SAMPLES}")
    if spec.kind not in GENERATOR_KINDS:
        raise BadSpec(f"unknown generator kind {spec.kind!r}")
    if spec.kind != "custom-steps" and spec.n_samples < 2:
        raise BadSpec("n_samples must be >= 2")
    if not (0 <= spec.seed < 2**64):
        raise BadSpec("seed must be an unsigned 64-bit integer")
    if not 0.0 < spec.horizon < math.inf:
        raise BadSpec("horizon must be positive and finite")
    if spec.kind == "exp-fractional" and not (0.0 < spec.hurst < 1.0):
        raise BadSpec("hurst must lie in (0, 1)")
    if spec.kind in ("geometric-random-walk", "exp-fractional", "jump") and spec.start <= 0.0:
        raise BadSpec("start price must be strictly positive")
    if spec.kind == "jump":
        if not (0.0 <= spec.jump_rate < math.inf and 0.0 <= spec.jump_sigma < math.inf):
            raise BadSpec("jump_rate and jump_sigma must be finite and >= 0")
        if not spec.jump_rate * spec.horizon / (spec.n_samples - 1) <= MAX_JUMP_MEAN:
            raise BadSpec(f"more than {MAX_JUMP_MEAN:g} jumps expected per step")
    if spec.kind == "custom-steps" and (spec.values is None or len(spec.values) < 2):
        raise BadSpec("custom-steps requires at least two values")


# The largest M whose spectrum _fgn_spectrum keeps: 0.5 MB of scale factors
# an entry, so a 2^22-sample path never pins its 32 MB spectrum.
_SPECTRUM_CACHE_MAX = 1 << 16


@functools.lru_cache(maxsize=16)
def _fgn_spectrum(M: int, hurst: float) -> tuple[float, float, np.ndarray]:
    """Scale factors of the circulant embedding (Davies & Harte 1987, length 2M).

    Returns the factors of the two real draws and the read-only factors of
    the M - 1 complex ones; :class:`BadSpec` if the embedding is materially
    not positive.  It depends on (M, hurst) only, so repeated parameters
    reuse it; call ``_fgn_spectrum.__wrapped__`` to bypass the cache.
    """
    k = np.arange(M + 1, dtype=np.float64)
    two_h = 2.0 * hurst
    g = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    del k
    # Each 2M-point complex buffer (128 MB at 2^22 samples) is transformed
    # in place, bit for bit as into a fresh one.  The first row is built
    # complex, since fft would otherwise cast a real one to a complex copy.
    m = 2 * M
    row = np.zeros(m, dtype=np.complex128)
    row.real[: M + 1] = g
    row.real[M + 1 :] = g[M - 1 : 0 : -1]
    del g
    eig = np.fft.fft(row, out=row).real
    del row
    if not eig.min() >= -1e-8 * max(eig.max(), 1.0):
        raise BadSpec(f"hurst {hurst!r}: the circulant embedding of {M} increments is not positive")
    eig = np.clip(eig, 0.0, None)
    half = np.sqrt(eig[1:M] / (2.0 * m))
    half.setflags(write=False)
    return np.sqrt(eig[0] / m), np.sqrt(eig[M] / m), half


def fractional_gaussian_noise(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """The first n of M unit-variance fractional Gaussian noise increments.

    M is the next power of two >= n, so both FFTs of the exact circulant
    embedding take pocketfft's radix-2 passes.  :class:`BadSpec` if the
    embedding is materially not positive.  The embedding's spectrum is kept
    for M <= :data:`_SPECTRUM_CACHE_MAX` (see :func:`_fgn_spectrum`).
    """
    M = 1 << (n - 1).bit_length()
    spectrum = _fgn_spectrum if M <= _SPECTRUM_CACHE_MAX else _fgn_spectrum.__wrapped__
    s0, sM, half = spectrum(M, hurst)
    v0 = rng.standard_normal()
    vn = rng.standard_normal()
    v1 = rng.standard_normal(M - 1)
    v2 = rng.standard_normal(M - 1)
    body = half * (v1 + 1j * v2)
    del half, v1, v2
    w = np.empty(2 * M, dtype=np.complex128)
    w[0] = s0 * v0
    w[M] = sM * vn
    w[1:M] = body
    np.conj(body[::-1], out=w[M + 1 :])
    del body
    return np.fft.fft(w, out=w).real[:n].copy()  # a view would keep the 2M buffer


def _rng(spec: GeneratorSpec) -> np.random.Generator:
    # built by the kinds that draw only: default_rng costs more than a
    # whole constant or linear-drift path
    return np.random.default_rng(np.uint64(spec.seed))


def generate(spec: GeneratorSpec) -> PricePath:
    """Build the path described by ``spec`` on a uniform grid."""
    _validate_spec(spec)
    T = spec.horizon

    if spec.kind == "custom-steps":
        values = np.asarray(spec.values, dtype=np.float64)
        if spec.times is not None:
            times = np.asarray(spec.times, dtype=np.float64)
        else:
            times = _uniform_times(values.shape[0], T)
        return PricePath(times, values)

    n = spec.n_samples
    times = _uniform_times(n, T)
    dt = T / (n - 1)

    if spec.kind == "constant":
        values = np.full(n, float(spec.level))
    elif spec.kind == "linear-drift":
        values = spec.start + spec.eps * times
    elif spec.kind == "geometric-random-walk":
        z = _rng(spec).standard_normal(n - 1)
        log_inc = spec.drift * dt + spec.sigma * np.sqrt(dt) * z
        values = spec.start * np.exp(np.concatenate([[0.0], np.cumsum(log_inc)]))
    elif spec.kind == "exp-fractional":
        fgn = fractional_gaussian_noise(n - 1, spec.hurst, _rng(spec))
        log_path = np.concatenate([[0.0], np.cumsum(fgn)]) * (dt**spec.hurst) * spec.sigma
        values = spec.start * np.exp(log_path)
    elif spec.kind == "jump":
        rng = _rng(spec)
        counts = rng.poisson(spec.jump_rate * dt, size=n - 1)
        sizes = np.where(
            counts > 0,
            rng.normal(spec.jump_mean, spec.jump_sigma, size=n - 1) * counts,
            0.0,
        )
        values = spec.start * np.exp(np.concatenate([[0.0], np.cumsum(sizes)]))
    else:  # pragma: no cover - guarded by _validate_spec
        raise BadSpec(spec.kind)

    return make_path(times, values, T)


def _integer_steps(N) -> int:
    """The step count ``N`` as an int; :class:`BadSpec` unless it is an integer (``bool`` is not)."""
    if not _is_number(N, integral=True):
        raise BadSpec(f"N must be an integer, got {N!r}")
    return int(N)


def discretize(path: PricePath, N: int) -> PricePath:
    """Resample onto the uniform grid k*T/N, k = 0..N, via the step rule.

    When ``path`` already has N + 1 samples on that grid, bit for bit, the
    rule picks every sample, and ``path`` itself is returned, with whatever
    it has cached.  Raises :class:`BadSpec` unless N is an integer >= 1
    (``bool`` is not), :class:`TooLarge` if the N + 1 samples exceed
    ``MAX_SAMPLES``.
    """
    _integer_steps(N)
    if N < 1:
        raise BadSpec("N must be >= 1")
    if N >= MAX_SAMPLES:
        raise TooLarge(f"{int(N) + 1} samples; a discretized path has at most {MAX_SAMPLES}")
    T = path.horizon
    grid = _uniform_times(N + 1, T)
    if N + 1 == path.n_samples and np.array_equal(grid.view(np.int64), path.times.view(np.int64)):
        return path
    idx = np.searchsorted(path.times, grid, side="right") - 1
    return PricePath(grid, path.values[idx])


def _write_file(destination, data: bytes) -> None:
    """Write ``data``; a regular file with one link is unlinked first, not truncated.

    Truncating makes ext4 (``auto_da_alloc``) start writeback on close.  Any other
    destination (symlink, hard link, device, FIFO, refused unlink) is written through.
    """
    try:
        st = os.lstat(destination)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.unlink(destination)
    except OSError:
        pass
    fd = os.open(destination, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:  # os.write may write less than asked
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def write_path(path: PricePath, destination) -> None:
    """Write as UTF-8 CSV with header ``t,x`` and full round-trip decimals."""
    lines = ["t,x"]
    for t, x in zip(path.times, path.values):
        lines.append(f"{float(t)!r},{float(x)!r}")
    _write_file(destination, ("\n".join(lines) + "\n").encode("utf-8"))


def read_path(source) -> PricePath:
    """Read a CSV written by :func:`write_path`; round-trips exactly."""
    text = Path(source).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "t,x":
        raise ParseError("expected header 't,x'")
    if len(lines) < 2:
        raise ParseError("no samples")
    times = []
    values = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {i}: expected two comma-separated fields")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as e:
            raise ParseError(f"line {i}: {e}") from e
    times = np.asarray(times)
    return make_path(times, values, float(times[-1]))
