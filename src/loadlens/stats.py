"""Moment statistics, sliding windows, and bootstrap resampling.

All moments use the population convention: central moments are averaged
over n (no bias correction), std = sqrt(m2), skewness g1 = m3 / m2^1.5 and
kurtosis g2 = m4 / m2^2 (non-excess, normal -> 3, uniform -> 1.8). This
keeps the distribution landmarks on the moments plane at their textbook
positions; sample-size corrections would shift them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSample, SeriesTooShort, TooFewSamples
from .ingest import Channel

#: Relative variance floor below which skewness/kurtosis are undefined.
DEGENERACY_EPS = 1e-12

DEFAULT_WINDOW = 300
DEFAULT_STRIDE = 30

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
    degenerate: bool = False

    @property
    def t_mid_ms(self) -> int:
        return (self.t_start_ms + self.t_end_ms) // 2


@dataclass(frozen=True)
class BootstrapCloud:
    """Moment points of B with-replacement resamples of one sample."""

    points: tuple[Moments, ...]
    seed: int
    source_window: SampleWindow | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.points)


def _central_moments(arr: np.ndarray):
    n = arr.size
    mean = float(arr.mean())
    d = arr - mean
    d2 = d * d
    m2 = float(d2.mean())
    m3 = float((d2 * d).mean())
    m4 = float((d2 * d2).mean())
    return n, mean, m2, m3, m4


def _is_degenerate(m2: float, mean: float) -> bool:
    return m2 < DEGENERACY_EPS * (1.0 + mean * mean)


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

    Raises DegenerateSample when the variance is numerically zero relative
    to the mean, in which case skewness and kurtosis are undefined.
    """
    arr = _as_array(values)
    n, mean, m2, m3, m4 = _central_moments(arr)
    if _is_degenerate(m2, mean):
        raise DegenerateSample(f"variance {m2:.3e} too small relative to mean {mean:.6g}")
    return Moments(n, mean, math.sqrt(m2), m3 / m2**1.5, m4 / (m2 * m2))


def _lenient_moments(arr: np.ndarray) -> tuple[Moments, bool]:
    """Moments with NaN skewness/kurtosis instead of raising on degeneracy."""
    n, mean, m2, m3, m4 = _central_moments(arr)
    if _is_degenerate(m2, mean):
        return Moments(n, mean, math.sqrt(m2), math.nan, math.nan), True
    return Moments(n, mean, math.sqrt(m2), m3 / m2**1.5, m4 / (m2 * m2)), False


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
    values = series.values
    t_ms = series.t_ms
    out: list[SampleWindow] = []
    for start in range(0, n - window + 1, stride):
        m, degenerate = _lenient_moments(values[start : start + window])
        out.append(
            SampleWindow(
                start_index=start,
                length=window,
                t_start_ms=int(t_ms[start]),
                t_end_ms=int(t_ms[start + window - 1]),
                moments=m,
                degenerate=degenerate,
            )
        )
    return out


def bootstrap(values, B: int, seed: int, source_window: SampleWindow | None = None) -> BootstrapCloud:
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
    for i in range(B):
        rng = np.random.default_rng([seed, i])
        while True:
            resample = arr[rng.integers(0, n, size=n)]
            m, degenerate = _lenient_moments(resample)
            if not degenerate:
                break
        points.append(m)
    return BootstrapCloud(points=tuple(points), seed=seed, source_window=source_window)


def write_windows_csv(path, windows: list[SampleWindow]) -> None:
    """Window CSV export; degenerate windows leave skewness/kurtosis empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(WINDOW_CSV_HEADER)
        for win in windows:
            m = win.moments
            w.writerow(
                [
                    win.start_index,
                    win.t_start_ms,
                    win.t_end_ms,
                    m.n,
                    repr(m.mean),
                    repr(m.std),
                    "" if win.degenerate else repr(m.skewness),
                    "" if win.degenerate else repr(m.kurtosis),
                    "true" if win.degenerate else "false",
                ]
            )
