"""Moment statistics, sliding windows, and bootstrap resampling.

All moments use the population convention: central moments are averaged
over n (no bias correction), std = sqrt(m2), skewness g1 = m3 / m2^1.5 and
kurtosis g2 = m4 / m2^2 (non-excess, normal -> 3, uniform -> 1.8). This
keeps the distribution landmarks on the moments plane at their textbook
positions; sample-size corrections would shift them.

Moments have one form, a table of columns with one row per sample:
``sliding_windows`` returns a ``WindowTable``, ``bootstrap`` a
``MomentColumns``, and ``moments`` of one sample a one-row
``MomentColumns``. All three go through one row-moment kernel,
``_block_moments``, which reduces each row of a 2-D block of samples along
its contiguous last axis. Blocks hold at most ``BLOCK_VALUES`` values (256
rows of the default window, about 0.6 MB per float64 temporary) and fill
preallocated columns, so memory grows by a few numbers per window or
resample, not by an object; many windows are spread over processes
(``_columns``). Results are bit-identical to reducing each sample as its
own 1-D array and finishing in Python floats: numpy reduces a row with the
pairwise summation it applies to a 1-D array, and its sqrt, products,
divisions and comparisons are correctly rounded like Python's. Only
``m2**1.5`` is taken by Python's float power, value by value, because
numpy's power differs from it in the last bit for some values.

Degeneracy has one signal: a sample whose variance is numerically zero
relative to its mean gets NaN skewness and kurtosis, which ``degenerate``
reads. Windows keep such rows; the bootstrap redraws such resamples and
refuses a degenerate sample, whose every resample is degenerate. A
central moment that overflows float64 (values more than about 1e77 from
their mean) raises ``MomentOverflow``, so every other number is finite.

The bootstrap draws each kernel block of resamples from one generator of
numpy's public API, ``np.random.default_rng([seed, first])``, where
``first`` is the index of the block's first resample; degenerate resamples
are redrawn from that generator. So ``BLOCK_VALUES`` is part of the cloud's
definition: a seed fixes the cloud, and a change to ``BLOCK_VALUES`` moves
every cloud whose blocks hold more than one resample. When n exceeds
``BLOCK_VALUES``, each block holds one resample i and draws from
``default_rng([seed, i])``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import ingest, manifest
from .errors import ConfigError, MomentOverflow, SeriesTooShort
from .ingest import Channel, _write_table

#: Relative variance floor below which skewness/kurtosis are undefined.
DEGENERACY_EPS = 1e-12

DEFAULT_WINDOW = 300
DEFAULT_STRIDE = 30

#: Values per block of the row-moment kernel: 256 rows of a default window.
#: Each block of bootstrap resamples draws from its own stream, so a change
#: here moves every bootstrap cloud; window outputs do not depend on it.
BLOCK_VALUES = 256 * DEFAULT_WINDOW

WINDOW_CSV_HEADER = ("start_index", "t_start_ms", "t_end_ms", "mean", "std", "skewness", "kurtosis")


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
        # the third and fourth powers overwrite d and d2: two temporaries per block, not four
        m3 = np.multiply(d2, d, out=d).mean(axis=1)
        m4 = np.multiply(d2, d2, out=d2).mean(axis=1)
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
    ``rows``. With at least ``ingest.SPLIT_ROWS`` samples per worker, each
    worker (``manifest._fork_map``) fills one run of blocks, in shared
    memory."""
    step = max(1, BLOCK_VALUES // n)
    starts = range(0, count, step)
    workers = manifest._worker_count(count // ingest.SPLIT_ROWS)
    cols = [ingest._empty((count,), np.float64, shared=workers > 1) for _ in range(4)]

    def fill(run):
        for b in run:
            rows = slice(b, min(b + step, count))
            for col, part in zip(cols, block(rows)):
                col[rows] = part

    manifest._fork_map(fill, [starts[len(starts) * k // workers : len(starts) * (k + 1) // workers] for k in range(workers)])
    return cols


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 4:
        raise ValueError(f"need at least 4 samples, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    return arr


def moments(values) -> MomentColumns:
    """First four moments of a sample (n >= 4, finite values), as a one-row
    ``MomentColumns``.

    When the variance is numerically zero relative to the mean, skewness
    and kurtosis are undefined: they come back NaN and ``.degenerate`` is
    true, as for a degenerate window. ``mean`` and ``std`` are always set.
    """
    arr = _as_array(values)
    return MomentColumns(arr.size, *_block_moments(arr[None, :]))


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


def bootstrap(values, B: int, seed: int) -> MomentColumns:
    """Nonparametric bootstrap: B with-replacement resamples of size n.

    The resamples of a kernel block ``rows`` (``BLOCK_VALUES // n`` of them,
    at least one) draw from one stream, ``np.random.default_rng([seed,
    rows.start])``: first one ``integers(0, n, size=(len(rows), n))`` call,
    then, in row order, each degenerate resample is redrawn until it is
    not. A seed fixes the cloud; a change to
    ``BLOCK_VALUES`` moves it. A degenerate sample, whose every resample is
    degenerate, raises ConfigError.
    """
    arr = _as_array(values)
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if moments(arr).degenerate[0]:
        raise ConfigError("cannot bootstrap a sample of numerically zero variance: every resample would be degenerate")
    n = arr.size

    def block(rows):
        rng = np.random.default_rng([seed, rows.start])
        cols = _block_moments(arr[rng.integers(0, n, size=(rows.stop - rows.start, n))])
        for j in np.flatnonzero(np.isnan(cols[2])).tolist():
            while math.isnan(cols[2][j]):
                for col, redrawn in zip(cols, _block_moments(arr[None, rng.integers(0, n, size=n)])):
                    col[j] = redrawn[0]
        return cols

    return MomentColumns(n, *_columns(B, n, block))


def _window_lines(*columns: np.ndarray) -> list[str]:
    lines = []
    for a, b, c, m, s, g, k in zip(*(col.tolist() for col in columns)):
        tail = "," if math.isnan(g) else f"{g!r},{k!r}"
        lines.append(f"{a},{b},{c},{m!r},{s!r},{tail}\r\n")
    return lines


def write_windows_csv(path, windows: WindowTable) -> None:
    """Window CSV export. Empty skewness and kurtosis cells, the missing-value
    marker of ``features.csv`` too, mark a degenerate window. The window
    size is the run's ``window`` setting, which the manifest records.

    Written a block of rows at a time, so a table of many windows is never
    joined whole in memory.
    """
    w = windows
    columns = (w.start, w.t_start_ms, w.t_end_ms, w.mean, w.std, w.skewness, w.kurtosis)
    _write_table(path, WINDOW_CSV_HEADER, _window_lines, *columns)
