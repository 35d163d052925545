"""Moment statistics, sliding windows, and bootstrap resampling.

All moments use the population convention: central moments are averaged
over n (no bias correction), std = sqrt(m2), skewness g1 = m3 / m2^1.5 and
kurtosis g2 = m4 / m2^2 (non-excess, normal -> 3, uniform -> 1.8). This
keeps the distribution landmarks on the moments plane at their textbook
positions; sample-size corrections would shift them.

Every moment goes through one row-moment kernel, ``_row_moments``: it takes
a 2-D block of samples, one sample per row, and reduces each row along its
contiguous last axis. ``moments`` passes a one-row block, ``sliding_windows``
blocks of rows of a strided window view, ``bootstrap`` blocks of stacked
resamples. Blocks hold at most ``BLOCK_VALUES`` values (256 rows of the
default 300-sample window, about 0.6 MB per float64 temporary), and each
block's results become Python floats before the next block is reduced, so
memory stays flat however many windows or resamples there are. Results are
bit-identical to reducing each sample as its own 1-D array: numpy reduces
each row with the same pairwise summation it applies to a 1-D array, and
the scalar tail (sqrt, the standardised ratios, the degeneracy test) runs
on Python floats in the same operation order.

Degeneracy has one signal: a sample whose variance is numerically zero
relative to its mean gets NaN skewness and kurtosis, which
``Moments.degenerate`` reads. ``moments`` and the windows flag it this way
and the bootstrap redraws such resamples; nothing raises for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort, TooFewSamples
from .ingest import Channel, _write_table

#: Relative variance floor below which skewness/kurtosis are undefined.
DEGENERACY_EPS = 1e-12

DEFAULT_WINDOW = 300
DEFAULT_STRIDE = 30

#: Values per block of the row-moment kernel: 256 rows of a default window.
BLOCK_VALUES = 256 * DEFAULT_WINDOW

WINDOW_CSV_HEADER = (
    "start_index",
    "t_start_ms",
    "t_end_ms",
    "n",
    "mean",
    "std",
    "skewness",
    "kurtosis",
    "degenerate",
)


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


@dataclass(frozen=True)
class SampleWindow:
    """One sliding-window slice with its moment statistics."""

    start_index: int
    length: int
    t_start_ms: int
    t_end_ms: int
    moments: Moments

    @property
    def degenerate(self) -> bool:
        return self.moments.degenerate

    @property
    def t_mid_ms(self) -> int:
        return (self.t_start_ms + self.t_end_ms) // 2


@dataclass(frozen=True)
class BootstrapCloud:
    """Moment points of B with-replacement resamples of one sample."""

    points: tuple[Moments, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.points)


def _row_moments(blk: np.ndarray) -> tuple[list, list, list, list]:
    """Per-row mean and central moments m2, m3, m4 of a 2-D block, as lists
    of Python floats."""
    mean = blk.mean(axis=1)
    d = blk - mean[:, None]
    d2 = d * d
    m2 = d2.mean(axis=1)
    m3 = (d2 * d).mean(axis=1)
    m4 = (d2 * d2).mean(axis=1)
    return mean.tolist(), m2.tolist(), m3.tolist(), m4.tolist()


def _block_rows(n: int) -> int:
    """Rows of n values each that fit in one kernel block."""
    return max(1, BLOCK_VALUES // n)


def _finish(n: int, mean: float, m2: float, m3: float, m4: float) -> Moments:
    """Moments from the kernel's results; NaN skewness/kurtosis when degenerate."""
    if m2 < DEGENERACY_EPS * (1.0 + mean * mean):
        return Moments(n, mean, math.sqrt(m2), math.nan, math.nan)
    return Moments(n, mean, math.sqrt(m2), m3 / m2**1.5, m4 / (m2 * m2))


def _block_moments(blk: np.ndarray) -> list[Moments]:
    """Moments of each row of a 2-D block."""
    n = blk.shape[1]
    return [_finish(n, *row) for row in zip(*_row_moments(blk))]


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size < 4:
        raise TooFewSamples(arr.size)
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    return arr


def moments(values) -> Moments:
    """First four moments of a sample (n >= 4, finite values).

    When the variance is numerically zero relative to the mean, skewness
    and kurtosis are undefined: they come back NaN and ``.degenerate`` is
    true, as for a degenerate window. ``mean`` and ``std`` are always set.
    """
    (m,) = _block_moments(_as_array(values)[None, :])
    return m


def sliding_windows(
    series: Channel,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> list[SampleWindow]:
    """Windows at offsets 0, stride, 2*stride, ...; the last partial window
    is discarded. ``series`` must be univariate.

    Degenerate windows are flagged rather than dropped so window indices
    stay aligned with time.
    """
    if window < 4:
        raise ValueError(f"window must be >= 4, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if series.values.ndim != 1:
        raise ValueError("sliding_windows needs a univariate channel")
    n = len(series)
    if n < window:
        raise SeriesTooShort(f"series length {n} < window {window}")
    starts = range(0, n - window + 1, stride)
    view = np.lib.stride_tricks.sliding_window_view(series.values, window)[::stride]
    t_start = series.t_ms[: n - window + 1 : stride]
    t_end = series.t_ms[window - 1 :: stride]
    out: list[SampleWindow] = []
    rows = _block_rows(window)
    for b in range(0, len(starts), rows):
        blk = slice(b, b + rows)
        for start, ts, te, m in zip(
            starts[blk], t_start[blk].tolist(), t_end[blk].tolist(), _block_moments(view[blk])
        ):
            out.append(SampleWindow(start, window, ts, te, m))
    return out


def bootstrap(values, B: int, seed: int) -> BootstrapCloud:
    """Nonparametric bootstrap: B with-replacement resamples of size n.

    Each resample draws from its own counter-derived generator, so the cloud
    is identical no matter how resamples are scheduled. A resample that
    collapses to zero variance is redrawn from the same stream.
    """
    arr = _as_array(values)
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    n = arr.size
    points = []
    rows = _block_rows(n)
    for b in range(0, B, rows):
        rngs = [np.random.default_rng([seed, i]) for i in range(b, min(b + rows, B))]
        idx = np.stack([rng.integers(0, n, size=n) for rng in rngs])
        for rng, m in zip(rngs, _block_moments(arr[idx])):
            while m.degenerate:
                (m,) = _block_moments(arr[None, rng.integers(0, n, size=n)])
            points.append(m)
    return BootstrapCloud(points=tuple(points), seed=seed)


def _window_lines(windows: list[SampleWindow]) -> list[str]:
    lines = []
    for win in windows:
        m = win.moments
        tail = ",,true" if m.degenerate else f"{m.skewness!r},{m.kurtosis!r},false"
        lines.append(f"{win.start_index},{win.t_start_ms},{win.t_end_ms},{m.n},{m.mean!r},{m.std!r},{tail}\r\n")
    return lines


def write_windows_csv(path, windows: list[SampleWindow]) -> None:
    """Window CSV export; degenerate windows leave skewness/kurtosis empty.

    Written a block of rows at a time: a table of 36k windows joined whole
    would add about 10 MB to the peak memory of a ``moments`` run.
    """
    _write_table(path, WINDOW_CSV_HEADER, _window_lines, windows)
