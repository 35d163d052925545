"""Moment statistics, sliding windows, and bootstrap resampling.

All moments use the population convention: central moments are averaged
over n (no bias correction), std = sqrt(m2), skewness g1 = m3 / m2^1.5 and
kurtosis g2 = m4 / m2^2 (non-excess, normal -> 3, uniform -> 1.8). This
keeps the distribution landmarks on the moments plane at their textbook
positions; sample-size corrections would shift them.

Many samples make one table of columns, not one object each:
``sliding_windows`` returns a ``WindowTable``, ``bootstrap`` a
``MomentColumns``; ``moments`` of one sample returns a ``Moments``. All three
go through one row-moment kernel, ``_block_moments``, which reduces each row
of a 2-D block of samples along its contiguous last axis. Blocks hold at
most ``BLOCK_VALUES`` values (256 rows of the default window, about 0.6 MB
per float64 temporary) and fill preallocated columns, so memory grows by a
few numbers per window or resample, not by an object. Results are
bit-identical to reducing each sample as its own 1-D array and finishing in
Python floats: numpy reduces a row with the pairwise summation it applies to
a 1-D array, and its sqrt, products, divisions and comparisons are
correctly rounded like Python's. Only ``m2**1.5`` is taken by Python's
float power, value by value, because numpy's power differs from it in the
last bit for about 5% of values.

Degeneracy has one signal: a sample whose variance is numerically zero
relative to its mean gets NaN skewness and kurtosis, which ``degenerate``
reads. Windows keep such rows and the bootstrap redraws such resamples. A
central moment that overflows float64 (values more than about 1e77 from
their mean) raises ``MomentOverflow``, so every other number is finite.

Bootstrap resample i draws from the stream of
``np.random.default_rng([seed, i])``. Building 10,000 such generators one at
a time costs more than drawing from them, and most of that is the
``SeedSequence`` hash. That hash is a fixed mix of 32-bit words (O'Neill's
``seed_seq_fe``, the seeding of O'Neill 2014, *PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation*), so ``_seed_states`` computes it for a whole block of i in
numpy uint32 arithmetic. Each row seeds numpy's own ``PCG64`` through an
``ISeedSequence`` that hands it that row: the streams, and so the cloud,
are those of ``default_rng([seed, i])`` for every ``seed >= 0``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MomentOverflow, SeriesTooShort
from .ingest import Channel, _write_table

#: Relative variance floor below which skewness/kurtosis are undefined.
DEGENERACY_EPS = 1e-12

DEFAULT_WINDOW = 300
DEFAULT_STRIDE = 30

#: Values per block of the row-moment kernel: 256 rows of a default window.
BLOCK_VALUES = 256 * DEFAULT_WINDOW

WINDOW_CSV_HEADER = ("start_index", "t_start_ms", "t_end_ms", "n", "mean", "std", "skewness", "kurtosis", "degenerate")


@dataclass(frozen=True)
class Moments:
    """First four moments of a sample.

    ``skewness``/``kurtosis`` are NaN when the sample is degenerate
    (numerically zero variance).
    """

    n: int
    mean: float
    std: float
    skewness: float
    kurtosis: float

    @property
    def degenerate(self) -> bool:
        return math.isnan(self.skewness)


@dataclass(frozen=True, eq=False)
class MomentColumns:
    """Moments of many samples of ``n`` values each: float64 columns
    ``mean``, ``std``, ``skewness``, ``kurtosis``, one row per sample, NaN
    skewness and kurtosis marking a degenerate sample. The columns are
    read-only views."""

    n: int
    mean: np.ndarray
    std: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray

    def __post_init__(self):
        for f in dataclasses.fields(self)[1:]:
            col = np.asarray(getattr(self, f.name)).view()
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)

    def __len__(self) -> int:
        return len(self.mean)

    @property
    def degenerate(self) -> np.ndarray:
        return np.isnan(self.skewness)


@dataclass(frozen=True, eq=False)
class WindowTable(MomentColumns):
    """Sliding windows of ``n`` samples: the moment columns plus int64
    columns ``start`` (index of the first sample), ``t_start_ms`` and
    ``t_end_ms`` (times of the first and last sample)."""

    start: np.ndarray
    t_start_ms: np.ndarray
    t_end_ms: np.ndarray

    @property
    def t_mid_ms(self) -> np.ndarray:
        """(t_start_ms + t_end_ms) // 2, computed without int64 overflow."""
        return self.t_start_ms + (self.t_end_ms - self.t_start_ms) // 2


def _block_moments(blk: np.ndarray) -> list[np.ndarray]:
    """Columns mean, std, skewness, kurtosis of the rows of a 2-D block."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = blk.mean(axis=1)
        d = blk - mean[:, None]
        d2 = d * d
        m2 = d2.mean(axis=1)
        m3 = (d2 * d).mean(axis=1)
        m4 = (d2 * d2).mean(axis=1)
        ok = ~(m2 < DEGENERACY_EPS * (1.0 + mean * mean))
    if not (np.isfinite(m2).all() and np.isfinite(m3).all() and np.isfinite(m4).all()):
        raise MomentOverflow("central moments overflow float64: values lie more than about 1e77 from their mean")
    skewness = np.full(len(m2), math.nan)
    kurtosis = np.full(len(m2), math.nan)
    m2ok = m2[ok]
    skewness[ok] = m3[ok] / np.array([v**1.5 for v in m2ok.tolist()])
    kurtosis[ok] = m4[ok] / (m2ok * m2ok)
    return [mean, np.sqrt(m2), skewness, kurtosis]


def _columns(count: int, n: int, block) -> list[np.ndarray]:
    """Moment columns of ``count`` samples of n values, filled by kernel
    blocks: ``block(rows)`` returns the columns of the samples in the slice
    ``rows``."""
    cols = [np.empty(count) for _ in range(4)]
    step = max(1, BLOCK_VALUES // n)
    for b in range(0, count, step):
        rows = slice(b, min(b + step, count))
        for col, part in zip(cols, block(rows)):
            col[rows] = part
    return cols


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 4:
        raise ValueError(f"need at least 4 samples, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    return arr


def moments(values) -> Moments:
    """First four moments of a sample (n >= 4, finite values).

    When the variance is numerically zero relative to the mean, skewness
    and kurtosis are undefined: they come back NaN and ``.degenerate`` is
    true, as for a degenerate window. ``mean`` and ``std`` are always set.
    """
    arr = _as_array(values)
    return Moments(arr.size, *(float(col[0]) for col in _block_moments(arr[None, :])))


def sliding_windows(series: Channel, window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> WindowTable:
    """Windows at offsets 0, stride, 2*stride, ...; the last partial window
    is discarded. ``series`` must be univariate.

    Degenerate windows are flagged rather than dropped so window indices
    stay aligned with time.
    """
    if window < 4:
        raise ConfigError(f"window must be >= 4, got {window}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if series.values.ndim != 1:
        raise ValueError("sliding_windows needs a univariate channel")
    n = len(series)
    if n < window:
        raise SeriesTooShort(f"series length {n} < window {window}")
    start = np.arange(0, n - window + 1, stride, dtype=np.int64)
    view = np.lib.stride_tricks.sliding_window_view(series.values, window)[::stride]
    cols = _columns(len(start), window, lambda rows: _block_moments(view[rows]))
    t_start, t_end = series.t_ms[: n - window + 1 : stride], series.t_ms[window - 1 :: stride]
    return WindowTable(window, *cols, start=start, t_start_ms=t_start, t_end_ms=t_end)


#: Constants of numpy's ``SeedSequence`` hash (O'Neill's ``seed_seq_fe``):
#: the pool's ``hashmix``, its ``mix`` and the ``generate_state`` output hash.
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """``np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)``
    for every i in [lo, hi), as one (hi - lo, 4) uint64 array.

    The entropy is the little-endian 32-bit words of ``seed`` (one word 0
    for 0), then those of ``i``; words past the pool's four are mixed in by
    the extra rounds. Each step works on one uint32 column per word, so
    every i is hashed at once; the hash constants do not depend on the
    data and stay Python ints.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if lo < 2**32 < hi:
        return np.concatenate((_seed_states(seed, lo, 2**32), _seed_states(seed, 2**32, hi)))
    m = hi - lo
    entropy = []
    while True:
        entropy.append(np.full(m, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    i = np.arange(lo, hi, dtype=np.uint64)
    entropy.append((i & _MASK32).astype(np.uint32))
    if lo >= 2**32:
        entropy.append((i >> np.uint64(32)).astype(np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    zero = np.zeros(m, dtype=np.uint32)
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    # 4 uint64 words are 8 uint32 words, the low word of each first
    const = _INIT_B
    state = np.empty((m, 8), dtype=np.uint32)
    for j in range(8):
        value = pool[j % _POOL_WORDS] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, j] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def bootstrap(values, B: int, seed: int) -> MomentColumns:
    """Nonparametric bootstrap: B with-replacement resamples of size n.

    Resample i draws from ``np.random.default_rng([seed, i])``, so the cloud
    is identical no matter how resamples are scheduled; the generators of a
    block are seeded from one ``_seed_states`` pass. A resample that
    collapses to zero variance is redrawn from the same stream.
    """
    # imported here, so that commands without a bootstrap never load numpy.random
    from numpy.random import PCG64, Generator, bit_generator

    class _State(bit_generator.ISeedSequence):
        """One row of ``_seed_states``: the words ``PCG64`` asks for."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    arr = _as_array(values)
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    n = arr.size

    def block(rows):
        rngs = [Generator(PCG64(_State(words))) for words in _seed_states(seed, rows.start, rows.stop)]
        cols = _block_moments(arr[np.stack([rng.integers(0, n, size=n) for rng in rngs])])
        for j in np.flatnonzero(np.isnan(cols[2])).tolist():
            while math.isnan(cols[2][j]):
                for col, redrawn in zip(cols, _block_moments(arr[None, rngs[j].integers(0, n, size=n)])):
                    col[j] = redrawn[0]
        return cols

    return MomentColumns(n, *_columns(B, n, block))


def _window_lines(n: int, *columns: np.ndarray) -> list[str]:
    lines = []
    for a, b, c, m, s, g, k in zip(*(col.tolist() for col in columns)):
        tail = ",,true" if math.isnan(g) else f"{g!r},{k!r},false"
        lines.append(f"{a},{b},{c},{n},{m!r},{s!r},{tail}\r\n")
    return lines


def write_windows_csv(path, windows: WindowTable) -> None:
    """Window CSV export; degenerate windows leave skewness/kurtosis empty.

    Written a block of rows at a time: a table of 36k windows joined whole
    would add about 10 MB to the peak memory of a ``moments`` run.
    """
    w = windows
    columns = (w.start, w.t_start_ms, w.t_end_ms, w.mean, w.std, w.skewness, w.kurtosis)
    _write_table(path, WINDOW_CSV_HEADER, functools.partial(_window_lines, w.n), *columns)
