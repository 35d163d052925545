"""Feature presets, target encoding, and the train/validation/prediction
split of a ``FeatureTable`` into three tables of its rows."""

from __future__ import annotations

import numpy as np

from ..errors import TooFewRows, UnknownLabel
from ..features import FeatureTable
from ..ingest import DEFAULT_ACTIVITIES


#: Named feature-column subsets used to compare model inputs.
PRESETS: dict[str, tuple[str, ...]] = {
    "all": (
        "distance",
        "duration",
        "velocity",
        "pace",
        "metricD",
        "ahr",
        "mhr",
        "acc_std",
        "acc_skewness",
        "acc_kurtosis",
        "metric1",
        "metric2",
    ),
    "dist_dur_hr": ("distance", "duration", "ahr", "mhr"),
    "hr": ("ahr", "mhr"),
    "acc_with_metrics": ("acc_std", "acc_skewness", "acc_kurtosis", "metric1", "metric2"),
    "acc": ("acc_std", "acc_skewness", "acc_kurtosis"),
}

#: Shares of the rows in the train, validation and prediction splits.
SPLIT_FRACTIONS = (0.7, 0.15, 0.15)


def encode_target(activity: str) -> float:
    """Ordinal target code: registry position as a float (walking -> 0.0, ...)."""
    try:
        return float(DEFAULT_ACTIVITIES.index(activity))
    except ValueError:
        raise UnknownLabel(activity) from None


def decode_prediction(y: float) -> int:
    """Regression output -> class index: round half to even, clamp to range."""
    return min(max(round(y), 0), len(DEFAULT_ACTIVITIES) - 1)


def build_xy(table: FeatureTable, columns):
    """Design matrix of the features ``columns`` and encoded targets; rows
    with a missing selected feature are dropped.

    Returns (X, y, kept), ``kept`` the table of the rows kept.
    """
    X = table.columns(columns)
    y = np.array([encode_target(a) for a in table.activity], dtype=float)
    keep = np.isfinite(X).all(axis=1)
    return X[keep], y[keep], table.take(np.flatnonzero(keep))


def _cuts(n: int) -> tuple[int, int]:
    i1 = int(round(SPLIT_FRACTIONS[0] * n))
    i2 = int(round((SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]) * n))
    return i1, i2


def split(table: FeatureTable, seed: int = 0):
    """Seeded shuffle + contiguous cut into (train, validation, prediction)
    tables by ``SPLIT_FRACTIONS``.

    Stratified by activity whenever every class present has >= 3 rows, which
    keeps each split's class counts within one of proportional.
    """
    n = len(table.session_id)
    if n < 10:
        raise TooFewRows(f"split needs >= 10 rows, got {n}")
    rng = np.random.default_rng(seed)
    activity = np.array(table.activity)
    groups = [np.flatnonzero(activity == label) for label in sorted(set(table.activity))]
    if not all(len(idx) >= 3 for idx in groups):
        groups = [np.arange(n)]
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for idx in groups:
        idx = idx[rng.permutation(len(idx))]
        i1, i2 = _cuts(len(idx))
        for part, rows in zip(parts, (idx[:i1], idx[i1:i2], idx[i2:])):
            part.extend(rows.tolist())
    return tuple(table.take(part) for part in parts)
