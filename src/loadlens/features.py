"""Per-session objective/subjective features and correlation analysis.

Objective parameters describe the workload itself (distance, duration,
velocity, pace, metricD = pace^2); subjective parameters describe the body's
response (average/maximal heart rate, acceleration distribution moments,
and the plane metrics of the whole-session heartbeat distribution).

Units are fixed: km, minutes, km/h, min/km. AHR/MHR are computed from the
unrounded instantaneous rate 60000/rr_ms; rounding first would throw away
the extra significant digits the millisecond heartbeat provides.

The features of many sessions have one form, a ``FeatureTable``: their
ids and activities, and one float64 matrix of their features in
``ALL_FEATURES`` order. ``features.csv`` holds one table, and a split is a
table of some of its rows.

Missing values are carried as NaN in memory and as empty cells in CSV;
every other value is a finite float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFile, MissingChannel, MomentOverflow, TooFewRows
from .ingest import Channel, SessionMeta, _check_session_key, _parse_float, _read_rows
from .manifest import _write_csv


#: Canonical feature name -> features.csv column, in the order of the
#: columns of ``FeatureTable.values``.
FEATURE_COLUMNS: dict[str, str] = {
    "distance": "distance_km",
    "duration": "duration_min",
    "velocity": "velocity_kmh",
    "pace": "pace_min_per_km",
    "metricD": "metricD",
    "ahr": "ahr_bpm",
    "mhr": "mhr_bpm",
    "acc_mean": "acc_mean",
    "acc_std": "acc_std",
    "acc_skewness": "acc_skewness",
    "acc_kurtosis": "acc_kurtosis",
    "metric1": "metric1",
    "metric2": "metric2",
}

ALL_FEATURES = tuple(FEATURE_COLUMNS)

FEATURES_CSV_HEADER = ("session_id", "activity", *FEATURE_COLUMNS.values())


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Per-session features, one row per session: ``session_id`` and
    ``activity`` (tuples of str), and ``values``, a read-only float64
    (n, 13) matrix in ``ALL_FEATURES`` order, NaN marking a missing value."""

    session_id: tuple[str, ...]
    activity: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        ids, activity = tuple(self.session_id), tuple(self.activity)
        values = np.ascontiguousarray(self.values, dtype=np.float64).view()
        shape = (len(ids), len(ALL_FEATURES))
        if len(activity) != len(ids) or values.shape != shape:
            raise ValueError(f"expected {len(ids)} activities and {shape} values, got {len(activity)} and {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "session_id", ids)
        object.__setattr__(self, "activity", activity)
        object.__setattr__(self, "values", values)

    def columns(self, names) -> np.ndarray:
        """(n, len(names)) matrix of the features named in ``names``; an
        unknown name raises ValueError."""
        return self.values[:, [ALL_FEATURES.index(name) for name in names]]

    def take(self, rows) -> FeatureTable:
        """The table of the rows at the indices ``rows``, in their order; an
        index may repeat."""
        rows = [int(i) for i in rows]
        return FeatureTable([self.session_id[i] for i in rows], [self.activity[i] for i in rows], self.values[rows])


def extract_features(meta: SessionMeta, accel: Channel, rr: Channel) -> dict[str, float]:
    """The session's features, keyed by the names of ``ALL_FEATURES`` in
    their order, from its channels: the accel magnitude series and the rr
    series.

    Pace-derived features are NaN when distance is zero. A degenerate
    channel (numerically constant accel or rr) does not fail the session:
    ``moments`` flags it, its skewness and kurtosis (for rr, ``metric1`` and
    ``metric2``) stay NaN, and ``acc_mean``/``acc_std`` are always set. A
    heart rate 60000/rr_ms whose mean overflows float64 (an rr_ms below
    about 3.3e-304), or a velocity, pace or metricD that does, raises
    MomentOverflow.
    """
    # imported here, so that reading or writing features.csv loads neither
    from .momentplane import metric1, metric2
    from .stats import moments

    if accel.values.ndim != 1:
        raise ValueError("extract_features needs the accel magnitude, not the raw axes")
    if not len(rr):
        raise MissingChannel("rr", "no heartbeat samples")
    if not (rr.values > 0).all():
        raise MissingChannel("rr", "rr_ms must be > 0")
    if len(accel) < 4:
        raise MissingChannel("accel", f"needs >= 4 samples, got {len(accel)}")

    if meta.distance_km > 0:
        velocity = 60.0 * meta.distance_km / meta.duration_min
        pace = meta.duration_min / meta.distance_km
        metric_d = pace * pace
        if not all(map(math.isfinite, (velocity, pace, metric_d))):
            raise MomentOverflow("velocity, pace or metricD overflows float64: duration_min / distance_km is out of range")
    else:
        velocity = pace = metric_d = math.nan

    with np.errstate(over="ignore"):
        hr = 60000.0 / rr.values
        ahr = hr.mean()
    if not math.isfinite(ahr):
        raise MomentOverflow("heart rate 60000/rr_ms overflows float64: an rr_ms lies too close to 0")

    acc_m = moments(accel.values)
    m1 = m2 = math.nan
    if len(rr) >= 4:
        rr_m = moments(rr.values)
        if not rr_m.degenerate[0]:
            g, k = rr_m.skewness[0], rr_m.kurtosis[0]
            m1, m2 = metric1(g * g, k), metric2(g * g, k)

    values = (meta.distance_km, meta.duration_min, velocity, pace, metric_d, ahr, hr.max())
    values += (acc_m.mean[0], acc_m.std[0], acc_m.skewness[0], acc_m.kurtosis[0], m1, m2)
    return dict(zip(ALL_FEATURES, values))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(np.sqrt((xd * xd).sum()))
    sy = float(np.sqrt((yd * yd).sum()))
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return float((xd * yd).sum() / (sx * sy))


def correlation_matrix(table: FeatureTable, features=ALL_FEATURES) -> np.ndarray:
    """Pearson r of each pair of ``features``, a (p, p) matrix, over the
    rows where both values are present.

    Pairs with fewer than 3 complete rows, and zero-variance features (their
    whole row/column, diagonal included), come back NaN. A feature whose
    squared deviations overflow float64 raises MomentOverflow.
    """
    if len(table.session_id) < 3:
        raise TooFewRows(f"correlation needs >= 3 rows, got {len(table.session_id)}")
    X = table.columns(features)
    p = X.shape[1]
    r = np.full((p, p), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(p):
            for j in range(i, p):
                mask = np.isfinite(X[:, i]) & np.isfinite(X[:, j])
                if mask.sum() < 3:
                    continue
                if i == j:
                    # A pair's rows are a subset of the column's, whose squared
                    # deviations sum to no less: this check covers its pairs.
                    std = float(X[mask, i].std())
                    if not math.isfinite(std):
                        raise MomentOverflow("a feature mean or std overflows float64")
                    r[i, i] = math.nan if std == 0.0 else 1.0
                    continue
                rij = _pearson(X[mask, i], X[mask, j])
                r[i, j] = rij
                r[j, i] = rij
    return r


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


def write_features_csv(path, table: FeatureTable) -> None:
    rows = zip(table.session_id, table.activity, table.values.tolist())
    _write_csv(path, FEATURES_CSV_HEADER, ([i, a, *map(_fmt, values)] for i, a, values in rows))


def read_features_csv(path) -> FeatureTable:
    """Read features.csv back; empty cells become NaN, and a cell that is
    not a finite float, or a repeated ``session_id``, raises MalformedRow.
    Row numbers in errors count non-blank data rows from 1, as for the
    channel files."""
    ids: list[str] = []
    activity: list[str] = []
    values: list[list[float]] = []
    seen: set[str] = set()
    for row, fields in _read_rows(path, FEATURES_CSV_HEADER):
        _check_session_key(row, fields[0], fields[1], seen)
        ids.append(fields[0])
        activity.append(fields[1])
        cells = zip(FEATURES_CSV_HEADER[2:], fields[2:])
        values.append([math.nan if text == "" else _parse_float(text, row, name) for name, text in cells])
    if not ids:
        raise EmptyFile(f"{path}: no data rows")
    return FeatureTable(ids, activity, values)


def write_correlation_csv(path, names, r: np.ndarray) -> None:
    """The (p, p) matrix ``r`` of the features ``names``, with a header row
    and a leading name column; NaN as empty."""
    body = ([name, *map(_fmt, row)] for name, row in zip(names, r.tolist()))
    _write_csv(path, ("feature", *names), body)
