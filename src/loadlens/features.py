"""Per-session objective/subjective feature vectors and correlation analysis.

Objective parameters describe the workload itself (distance, duration,
velocity, pace, metricD = pace^2); subjective parameters describe the body's
response (average/maximal heart rate, acceleration distribution moments,
and the plane metrics of the whole-session heartbeat distribution).

Units are fixed: km, minutes, km/h, min/km. AHR/MHR are computed from the
unrounded instantaneous rate 60000/rr_ms; rounding first would throw away
the extra significant digits the millisecond heartbeat provides.

Missing values are carried as NaN in memory and as empty cells in CSV;
every other value is a finite float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import EmptyFile, MalformedRow, MissingChannel, MomentOverflow, TooFewRows, UnknownLabel
from .ingest import DEFAULT_ACTIVITIES, Channel, SessionMeta, _parse_float, _read_rows
from .manifest import _write_csv


@dataclass(frozen=True)
class SessionFeatures:
    """One session's feature vector; NaN marks an undefined feature."""

    session_id: str
    activity: str
    distance_km: float
    duration_min: float
    velocity_kmh: float
    pace_min_per_km: float
    metricD: float
    ahr_bpm: float
    mhr_bpm: float
    acc_mean: float
    acc_std: float
    acc_skewness: float
    acc_kurtosis: float
    metric1: float
    metric2: float


#: Canonical feature name -> SessionFeatures attribute.
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

FEATURES_CSV_HEADER = tuple(f.name for f in dc_fields(SessionFeatures))


def feature_matrix(rows: list[SessionFeatures], names) -> np.ndarray:
    """(n_rows, n_features) matrix of the features named in ``names``
    (keys of ``FEATURE_COLUMNS``), NaN for missing; shape (0, n_features)
    for no rows."""
    attrs = [FEATURE_COLUMNS[n] for n in names]
    values = [[getattr(r, a) for a in attrs] for r in rows]
    return np.array(values, dtype=float).reshape(len(rows), len(attrs))


def extract_features(
    meta: SessionMeta,
    accel: Channel,
    rr: Channel,
) -> SessionFeatures:
    """Build the session feature vector from its channels: the accel
    magnitude series and the rr series.

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
        velocity = math.nan
        pace = math.nan
        metric_d = math.nan

    with np.errstate(over="ignore"):
        hr = 60000.0 / rr.values
        ahr = float(hr.mean())
    if not math.isfinite(ahr):
        raise MomentOverflow("heart rate 60000/rr_ms overflows float64: an rr_ms lies too close to 0")
    mhr = float(hr.max())

    # .item() of each one-row column: repr spells an np.float64 field
    # "np.float64(...)", which would change features.csv
    acc_m = moments(accel.values)

    m1 = m2 = math.nan
    if len(rr) >= 4:
        rr_m = moments(rr.values)
        if not rr_m.degenerate[0]:
            g, k = rr_m.skewness.item(), rr_m.kurtosis.item()
            m1, m2 = metric1(g * g, k), metric2(g * g, k)

    return SessionFeatures(
        session_id=meta.session_id,
        activity=meta.activity,
        distance_km=meta.distance_km,
        duration_min=meta.duration_min,
        velocity_kmh=velocity,
        pace_min_per_km=pace,
        metricD=metric_d,
        ahr_bpm=ahr,
        mhr_bpm=mhr,
        acc_mean=acc_m.mean.item(),
        acc_std=acc_m.std.item(),
        acc_skewness=acc_m.skewness.item(),
        acc_kurtosis=acc_m.kurtosis.item(),
        metric1=m1,
        metric2=m2,
    )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson correlations with pairwise deletion; NaN marks undefined entries."""

    feature_names: tuple[str, ...]
    r: np.ndarray


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(np.sqrt((xd * xd).sum()))
    sy = float(np.sqrt((yd * yd).sum()))
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return float((xd * yd).sum() / (sx * sy))


def correlation_matrix(rows: list[SessionFeatures], features=ALL_FEATURES) -> CorrelationMatrix:
    """Pearson r per feature pair over the rows where both values are present.

    Pairs with fewer than 3 complete rows, and zero-variance features (their
    whole row/column, diagonal included), come back NaN. A feature whose
    squared deviations overflow float64 raises MomentOverflow.
    """
    if len(rows) < 3:
        raise TooFewRows(f"correlation needs >= 3 rows, got {len(rows)}")
    names = tuple(features)
    X = feature_matrix(rows, names)
    p = len(names)
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
    return CorrelationMatrix(feature_names=names, r=r)


def _fmt(v: float) -> str:
    return "" if (isinstance(v, float) and math.isnan(v)) else repr(v)


def write_features_csv(path, rows: list[SessionFeatures]) -> None:
    body = ([r.session_id, r.activity] + [_fmt(getattr(r, name)) for name in FEATURES_CSV_HEADER[2:]] for r in rows)
    _write_csv(path, FEATURES_CSV_HEADER, body)


def read_features_csv(path) -> list[SessionFeatures]:
    """Read features.csv back; empty cells become NaN, and a cell that is
    not a finite float, or a repeated ``session_id``, raises MalformedRow.
    Row numbers in errors count non-blank data rows from 1, as for the
    channel files."""
    rows: list[SessionFeatures] = []
    seen: set[str] = set()
    for row, fields in _read_rows(path, FEATURES_CSV_HEADER):
        if fields[0] in seen:
            raise MalformedRow(row, f"duplicate session_id {fields[0]!r}")
        seen.add(fields[0])
        if fields[1] not in DEFAULT_ACTIVITIES:
            raise UnknownLabel(fields[1])
        cells = zip(FEATURES_CSV_HEADER[2:], fields[2:])
        values = [math.nan if text == "" else _parse_float(text, row, name) for name, text in cells]
        rows.append(SessionFeatures(fields[0], fields[1], *values))
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return rows


def write_correlation_csv(path, corr: CorrelationMatrix) -> None:
    """Square matrix with a header row and a leading name column; NaN as empty."""
    body = ([name] + [_fmt(float(v)) for v in corr.r[i]] for i, name in enumerate(corr.feature_names))
    _write_csv(path, ("feature",) + corr.feature_names, body)
