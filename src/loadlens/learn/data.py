"""Feature presets, target encoding, and the train/validation/prediction split."""

from __future__ import annotations

import numpy as np

from ..errors import TooFewRows, UnknownLabel
from ..features import SessionFeatures, feature_matrix
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


def build_xy(rows: list[SessionFeatures], columns):
    """Design matrix + encoded targets; rows with a missing selected feature
    are dropped.

    Returns (X, y, kept_rows).
    """
    X = feature_matrix(rows, columns)
    y = np.array([encode_target(r.activity) for r in rows])
    keep = np.isfinite(X).all(axis=1)
    kept = [r for r, k in zip(rows, keep) if k]
    return X[keep], y[keep], kept


def _cuts(n: int) -> tuple[int, int]:
    i1 = int(round(SPLIT_FRACTIONS[0] * n))
    i2 = int(round((SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]) * n))
    return i1, i2


def split(rows: list[SessionFeatures], seed: int = 0):
    """Seeded shuffle + contiguous cut into (train, validation, prediction)
    by ``SPLIT_FRACTIONS``.

    Stratified by activity whenever every class present has >= 3 rows, which
    keeps each split's class counts within one of proportional.
    """
    if len(rows) < 10:
        raise TooFewRows(f"split needs >= 10 rows, got {len(rows)}")
    rng = np.random.default_rng(seed)

    by_label: dict[str, list[int]] = {}
    for i, r in enumerate(rows):
        by_label.setdefault(r.activity, []).append(i)
    stratified = all(len(v) >= 3 for v in by_label.values())

    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    if stratified:
        for label in sorted(by_label):
            idx = np.array(by_label[label])
            idx = idx[rng.permutation(len(idx))]
            i1, i2 = _cuts(len(idx))
            parts[0].extend(idx[:i1].tolist())
            parts[1].extend(idx[i1:i2].tolist())
            parts[2].extend(idx[i2:].tolist())
    else:
        idx = rng.permutation(len(rows))
        i1, i2 = _cuts(len(rows))
        parts = (idx[:i1].tolist(), idx[i1:i2].tolist(), idx[i2:].tolist())

    return tuple([rows[i] for i in part] for part in parts)
