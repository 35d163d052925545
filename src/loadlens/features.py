"""Per-session objective/subjective feature vectors and correlation analysis.

Objective parameters describe the workload itself (distance, duration,
velocity, pace, metricD = pace^2); subjective parameters describe the body's
response (average/maximal heart rate, acceleration distribution moments,
and the plane metrics of the whole-session heartbeat distribution).

Units are fixed: km, minutes, km/h, min/km. AHR/MHR are computed from the
unrounded instantaneous rate 60000/rr_ms; rounding first would throw away
the extra significant digits the millisecond heartbeat provides.

Missing values are carried as NaN in memory and as empty cells in CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import (
    EmptyFile,
    MalformedRow,
    MissingChannel,
    ParseError,
    TooFewRows,
    UnknownLabel,
)
from .ingest import DEFAULT_ACTIVITIES, Channel, SessionMeta
from .momentplane import metric1, metric2
from .stats import moments


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


def feature_value(row: SessionFeatures, name: str) -> float:
    """Look up a feature by canonical name."""
    try:
        return getattr(row, FEATURE_COLUMNS[name])
    except KeyError:
        raise KeyError(f"unknown feature {name!r}; known: {', '.join(FEATURE_COLUMNS)}") from None


def feature_matrix(rows: list[SessionFeatures], names) -> np.ndarray:
    """(n_rows, n_features) matrix of the named features, NaN for missing;
    shape (0, n_features) for no rows."""
    values = [[feature_value(r, n) for n in names] for r in rows]
    return np.array(values, dtype=float).reshape(len(rows), len(names))


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
    ``metric2``) stay NaN, and ``acc_mean``/``acc_std`` are always set.
    """
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
    else:
        velocity = math.nan
        pace = math.nan
        metric_d = math.nan

    hr = 60000.0 / rr.values
    ahr = float(hr.mean())
    mhr = float(hr.max())

    acc_m = moments(accel.values)

    m1 = m2 = math.nan
    if len(rr) >= 4:
        rr_m = moments(rr.values)
        if not rr_m.degenerate:
            s = rr_m.skewness * rr_m.skewness
            m1, m2 = metric1(s, rr_m.kurtosis), metric2(s, rr_m.kurtosis)

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
        acc_mean=acc_m.mean,
        acc_std=acc_m.std,
        acc_skewness=acc_m.skewness,
        acc_kurtosis=acc_m.kurtosis,
        metric1=m1,
        metric2=m2,
    )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson correlations with pairwise deletion; NaN marks undefined entries."""

    feature_names: tuple[str, ...]
    r: np.ndarray

    def get(self, a: str, b: str) -> float:
        i = self.feature_names.index(a)
        j = self.feature_names.index(b)
        return float(self.r[i, j])


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
    whole row/column, diagonal included), come back NaN.
    """
    if len(rows) < 3:
        raise TooFewRows(f"correlation needs >= 3 rows, got {len(rows)}")
    names = tuple(features)
    X = feature_matrix(rows, names)
    p = len(names)
    r = np.full((p, p), math.nan)
    for i in range(p):
        for j in range(i, p):
            mask = np.isfinite(X[:, i]) & np.isfinite(X[:, j])
            if mask.sum() < 3:
                continue
            if i == j:
                xi = X[mask, i]
                r[i, i] = math.nan if float(xi.std()) == 0.0 else 1.0
                continue
            rij = _pearson(X[mask, i], X[mask, j])
            r[i, j] = rij
            r[j, i] = rij
    return CorrelationMatrix(feature_names=names, r=r)


def _fmt(v: float) -> str:
    return "" if (isinstance(v, float) and math.isnan(v)) else repr(v)


def write_features_csv(path, rows: list[SessionFeatures]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURES_CSV_HEADER)
        for r in rows:
            w.writerow(
                [r.session_id, r.activity]
                + [_fmt(getattr(r, name)) for name in FEATURES_CSV_HEADER[2:]]
            )


def read_features_csv(path) -> list[SessionFeatures]:
    """Read features.csv back; empty cells become NaN."""
    rows: list[SessionFeatures] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != FEATURES_CSV_HEADER:
            raise MalformedRow(0, f"expected header {','.join(FEATURES_CSV_HEADER)}")
        for idx, fields in enumerate(reader, start=1):
            if not fields:
                continue
            if len(fields) != len(FEATURES_CSV_HEADER):
                raise MalformedRow(idx, f"expected {len(FEATURES_CSV_HEADER)} fields")
            if fields[1] not in DEFAULT_ACTIVITIES:
                raise UnknownLabel(fields[1])
            values = []
            for name, text in zip(FEATURES_CSV_HEADER[2:], fields[2:]):
                if text == "":
                    values.append(math.nan)
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise MalformedRow(idx, f"bad {name} {text!r}") from None
            rows.append(SessionFeatures(fields[0], fields[1], *values))
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return rows


def write_correlation_csv(path, corr: CorrelationMatrix) -> None:
    """Square matrix with a header row and a leading name column; NaN as empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("feature",) + corr.feature_names)
        for i, name in enumerate(corr.feature_names):
            w.writerow([name] + [_fmt(float(v)) for v in corr.r[i]])


def read_correlation_csv(path) -> CorrelationMatrix:
    """Read a matrix written by ``write_correlation_csv``; empty cells become NaN."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: empty file") from None
        names = tuple(header[1:])
        rows = []
        for idx, fields in enumerate(reader, start=1):
            if not fields:
                continue
            if len(fields) != len(header):
                raise MalformedRow(idx, f"expected {len(header)} fields, got {len(fields)}")
            try:
                rows.append([math.nan if t == "" else float(t) for t in fields[1:]])
            except ValueError:
                raise MalformedRow(idx, "bad correlation value") from None
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    if len(rows) != len(names):
        raise ParseError(f"{path}: {len(rows)} data rows for {len(names)} features")
    return CorrelationMatrix(feature_names=names, r=np.array(rows, dtype=float))
