"""The moments diagram: (skewness^2, kurtosis) plane analysis.

Distribution families occupy fixed landmarks on this plane (the classic
Cullen-Frey construction): the normal sits at (0, 3), the uniform at
(0, 1.8), the exponential at (4, 9); the gamma family traces the line
k = 3 + 1.5 s and the Weibull family a curved band. Every empirical sample
obeys the Pearson feasibility bound k >= s + 1.

The geometry has one source: the landmarks and lines are the module
constants below, and the Weibull curve, the only part that must be
computed, comes from ``weibull_curve()``. Zone classification and the plot
export both read these.

A window maps to the point (s, k) = (skewness^2, kurtosis); degenerate
windows have none. ``zone_indices`` classifies points given as arrays, and
``export_plane`` writes a ``stats.WindowTable`` straight to ``plane.json``.

Two scalar indicators summarize where a window sits:

* ``metric1`` -- Euclidean distance from the normal landmark (0, 3);
  grows with load, shrinks with recovery.
* ``metric2`` -- Euclidean distance from the uniform landmark (0, 1.8).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from . import ingest, manifest
from .stats import MomentColumns, WindowTable

NORMAL_LANDMARK = (0.0, 3.0)
UNIFORM_LANDMARK = (0.0, 1.8)

#: Gamma family: k = GAMMA_INTERCEPT + GAMMA_SLOPE * s.
GAMMA_SLOPE = 1.5
GAMMA_INTERCEPT = 3.0

#: Feasibility limit: k = 1 + s (no sample can fall below it).
LIMIT_SLOPE = 1.0
LIMIT_INTERCEPT = 1.0

DEFAULT_RHO = 0.3
DEFAULT_TAU = 0.15

WEIBULL_SHAPE_RANGE = (0.5, 10.0)
WEIBULL_GRID_SIZE = 200


#: Moments-plane region labels, in rule order: for each point the first
#: matching rule wins, and "other" takes the rest (``zone_indices``).
ZONES = (
    "infeasible",
    "normal_vicinity",
    "uniform_vicinity",
    "gamma_line",
    "weibull_band",
    "beta_zone",
    "other",
)


def weibull_landmark(c: float) -> tuple[float, float]:
    """Plane coordinates (s, k) of the Weibull distribution with shape c.

    Computed from the raw moments mu_r = Gamma(1 + r/c). Shape 1 reduces to
    the exponential landmark (4, 9).
    """
    if not c > 0:
        raise ValueError(f"shape must be > 0, got {c}")
    mu1, mu2, mu3, mu4 = (math.gamma(1.0 + r / c) for r in (1, 2, 3, 4))
    m2 = mu2 - mu1 * mu1
    m3 = mu3 - 3.0 * mu1 * mu2 + 2.0 * mu1**3
    m4 = mu4 - 4.0 * mu1 * mu3 + 6.0 * mu1 * mu1 * mu2 - 3.0 * mu1**4
    g1 = m3 / m2**1.5
    g2 = m4 / (m2 * m2)
    return g1 * g1, g2


@lru_cache(maxsize=1)
def weibull_curve() -> tuple[tuple[float, float], ...]:
    """The Weibull family's plane curve: ``weibull_landmark`` on a
    200-point log grid of shapes, computed once per process."""
    lo, hi = WEIBULL_SHAPE_RANGE
    shapes = np.exp(np.linspace(math.log(lo), math.log(hi), WEIBULL_GRID_SIZE))
    return tuple(weibull_landmark(float(c)) for c in shapes)


def metric1(s: float, k: float) -> float:
    """Distance from the normal landmark (0, 3); the load-accommodation indicator."""
    return math.hypot(s - NORMAL_LANDMARK[0], k - NORMAL_LANDMARK[1])


def metric2(s: float, k: float) -> float:
    """Distance from the uniform landmark (0, 1.8); the recovery indicator."""
    return math.hypot(s - UNIFORM_LANDMARK[0], k - UNIFORM_LANDMARK[1])


#: Points per block of the polyline distance: 256 points by 199 segments
#: keep each float64 temporary near 0.4 MB.
POINT_BLOCK = 256

def _polyline_distances(s: np.ndarray, k: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Exact distance from each point (s[i], k[i]) to the piecewise-linear
    curve through the grid points."""
    ax, ay = curve[:-1, 0], curve[:-1, 1]
    abx, aby = curve[1:, 0] - ax, curve[1:, 1] - ay
    denom = abx * abx + aby * aby
    # Degenerate segments collapse to their start point.
    proper = denom > 0
    safe = np.where(proper, denom, 1.0)
    out = np.empty(len(s))
    for i in range(0, len(s), POINT_BLOCK):
        qs = s[i : i + POINT_BLOCK, None]
        qk = k[i : i + POINT_BLOCK, None]
        t = np.where(proper, ((qs - ax) * abx + (qk - ay) * aby) / safe, 0.0)
        t = np.clip(t, 0.0, 1.0)
        d = np.hypot(ax + t * abx - qs, ay + t * aby - qk)
        out[i : i + POINT_BLOCK] = d.min(axis=1)
    return out


def _metric_columns(s: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``metric1`` and ``metric2`` of each point (s[i], k[i]), NaN for a NaN
    coordinate. Taken by ``math.hypot`` point by point: ``np.hypot``
    differs from it in the last bit for about 0.5% of points (ROADMAP,
    "Measured and parked")."""
    s, k = s.tolist(), k.tolist()
    return np.fromiter(map(metric1, s, k), float, len(s)), np.fromiter(map(metric2, s, k), float, len(s))


def zone_indices(s, k, m1, m2, rho: float, tau: float) -> np.ndarray:
    """Total, deterministic zone classification of the plane points
    (s[i], k[i]): for each point, the index in ``ZONES`` of the first rule
    it meets. ``m1`` and ``m2`` are the points' ``metric1`` and ``metric2``,
    which ``export_plane`` computes for its output anyway, so no point pays
    for a second ``math.hypot``.

    Rule order: infeasible, normal vicinity, uniform vicinity, gamma line,
    Weibull band, beta zone, other. The gamma-line test precedes the Weibull
    band because the two families intersect at the exponential (shape 1),
    and that shared landmark is read as gamma. Each rule is evaluated for
    all points at once; only the points that no earlier rule claims are
    measured against the Weibull curve.
    """
    limit = LIMIT_INTERCEPT + LIMIT_SLOPE * s
    gamma = GAMMA_INTERCEPT + GAMMA_SLOPE * s
    hits = [k < limit - tau, m1 <= rho, m2 <= rho, np.abs(k - gamma) <= tau]
    weibull = np.zeros(len(s), dtype=bool)
    todo = np.flatnonzero(~np.logical_or.reduce(hits))
    if todo.size:
        curve = np.asarray(weibull_curve(), dtype=float)
        weibull[todo] = _polyline_distances(s[todo], k[todo], curve) <= tau
    hits += [weibull, (limit <= k) & (k <= gamma)]
    return np.select(hits, range(len(hits)), default=len(hits))


_NULL_POINT = (
    '  {\n   "t_mid_ms": %d,\n   "s": null,\n   "k": null,\n'
    '   "zone": null,\n   "metric1": null,\n   "metric2": null\n  }'
)


def _point(t: int, s: float, k: float, zone: str | None, m1: float, m2: float) -> str:
    """One member of "points" as ``manifest._write_json`` spells it; only
    finite floats reach it, and ``repr`` is json's spelling of those."""
    if zone is None:
        return _NULL_POINT % t
    return (
        f'  {{\n   "t_mid_ms": {t},\n   "s": {s!r},\n   "k": {k!r},\n   "zone": "{zone}",\n'
        f'   "metric1": {m1!r},\n   "metric2": {m2!r}\n  }}'
    )


def _cloud_entry(s: float, k: float, mean: float, std: float, skewness: float) -> str:
    """One member of "bootstrap_cloud", as ``_point`` spells a point. The
    kurtosis is ``k``; ``skewness`` keeps the sign that ``s`` loses."""
    return (
        f'  {{\n   "s": {s!r},\n   "k": {k!r},\n   "mean": {mean!r},\n   "std": {std!r},\n'
        f'   "skewness": {skewness!r}\n  }}'
    )


def _json_list(item, *columns):
    """Text parts of a list at depth 1 of the indent=1 document:
    ``item(*row)`` for each row of ``columns``, formatted
    ``ingest.CHUNK_ROWS`` rows at a time."""
    n = len(columns[0])
    if not n:
        yield "[]"
        return
    yield "[\n"
    for i in range(0, n, ingest.CHUNK_ROWS):
        block = (col[i : i + ingest.CHUNK_ROWS].tolist() for col in columns)
        yield (",\n" if i else "") + ",\n".join(map(item, *block))
    yield "\n ]"


def _points_text(windows: WindowTable, rho: float, tau: float):
    """Text parts of ``plane.json`` up to its "bootstrap_cloud" value: the
    landmarks, and one point per window with its zone and metrics."""
    s, k = windows.skewness * windows.skewness, windows.kurtosis
    m1, m2 = _metric_columns(s, k)
    ok = ~windows.degenerate
    zones = np.full(len(windows), None, dtype=object)
    zones[ok] = [ZONES[i] for i in zone_indices(s[ok], k[ok], m1[ok], m2[ok], rho, tau).tolist()]
    landmarks = {
        "normal": NORMAL_LANDMARK,
        "uniform": UNIFORM_LANDMARK,
        "gamma_line": {"intercept": GAMMA_INTERCEPT, "slope": GAMMA_SLOPE},
        "limit_line": {"intercept": LIMIT_INTERCEPT, "slope": LIMIT_SLOPE},
        "weibull_curve": weibull_curve(),
    }
    head = json.dumps({"landmarks": landmarks, "rho": rho, "tau": tau}, indent=1)
    yield head.removesuffix("\n}") + ',\n "points": '
    yield from _json_list(_point, windows.t_mid_ms, s, k, zones, m1, m2)
    yield ',\n "bootstrap_cloud": '


def _cloud_text(cloud):
    """Text parts of ``plane.json`` from its "bootstrap_cloud" value on:
    the cloud ``cloud()`` returns, or an empty one when ``cloud`` is None."""
    c = MomentColumns(0, [], [], [], []) if cloud is None else cloud()
    yield from _json_list(_cloud_entry, c.skewness * c.skewness, c.kurtosis, c.mean, c.std, c.skewness)
    yield "\n}\n"


def export_plane(
    path,
    windows: WindowTable,
    rho: float = DEFAULT_RHO,
    tau: float = DEFAULT_TAU,
    cloud: Callable[[], MomentColumns] | None = None,
) -> None:
    """Write the plot-ready plane export: landmarks, one point per window
    with its zone and metrics, and the optional bootstrap cloud, which the
    function ``cloud`` returns.

    Degenerate windows appear with null coordinates as the missing-value
    marker so consumers keep the full time axis. The bytes are those of
    ``manifest._write_json(path, doc)``; points and cloud entries are
    streamed from fixed templates, so the text is never held whole. With a
    cloud, the text is written in two sections of ``manifest._write_text``:
    this process classifies and writes the points while a forked child
    calls ``cloud`` and writes the cloud, and an error raised by ``cloud``
    leaves no file.
    """
    sections = [_points_text(windows, rho, tau), _cloud_text(cloud)]
    if cloud is None:
        sections = [itertools.chain(*sections)]
    manifest._write_text(path, *sections)
