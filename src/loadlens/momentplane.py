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

Two scalar indicators summarize where a window sits:

* ``metric1`` -- Euclidean distance from the normal landmark (0, 3);
  grows with load, shrinks with recovery.
* ``metric2`` -- Euclidean distance from the uniform landmark (0, 1.8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DegenerateMoments, NonPositiveShape
from .stats import Moments, SampleWindow

NORMAL_LANDMARK = (0.0, 3.0)
UNIFORM_LANDMARK = (0.0, 1.8)
EXPONENTIAL_LANDMARK = (4.0, 9.0)

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


class Zone(str, Enum):
    """Moments-plane region labels; classification is total and deterministic."""

    NORMAL_VICINITY = "normal_vicinity"
    UNIFORM_VICINITY = "uniform_vicinity"
    BETA_ZONE = "beta_zone"
    WEIBULL_BAND = "weibull_band"
    GAMMA_LINE = "gamma_line"
    INFEASIBLE = "infeasible"
    OTHER = "other"


@dataclass(frozen=True)
class PlanePoint:
    """A (skewness^2, kurtosis) coordinate with its window midpoint time."""

    s: float
    k: float
    t_mid_ms: int = 0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"s (skewness squared) must be >= 0, got {self.s}")


def weibull_landmark(c: float) -> tuple[float, float]:
    """Plane coordinates (s, k) of the Weibull distribution with shape c.

    Computed from the raw moments mu_r = Gamma(1 + r/c). Shape 1 reduces to
    the exponential landmark (4, 9).
    """
    if not c > 0:
        raise NonPositiveShape(f"shape must be > 0, got {c}")
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


def to_plane(m: Moments, t_mid_ms: int = 0) -> PlanePoint:
    """Map non-degenerate moments to their plane coordinates."""
    if m.degenerate:
        raise DegenerateMoments("degenerate moments have no plane point")
    return PlanePoint(s=m.skewness * m.skewness, k=m.kurtosis, t_mid_ms=t_mid_ms)


def metric1(p: PlanePoint) -> float:
    """Distance from the normal landmark (0, 3); the load-accommodation indicator."""
    return math.hypot(p.s - NORMAL_LANDMARK[0], p.k - NORMAL_LANDMARK[1])


def metric2(p: PlanePoint) -> float:
    """Distance from the uniform landmark (0, 1.8); the recovery indicator."""
    return math.hypot(p.s - UNIFORM_LANDMARK[0], p.k - UNIFORM_LANDMARK[1])


#: Points per block of the polyline distance: 256 points by 199 segments
#: keep each float64 temporary near 0.4 MB.
POINT_BLOCK = 256

#: Zones in rule order; the first matching rule wins and OTHER takes the rest.
_RULES = (
    Zone.INFEASIBLE,
    Zone.NORMAL_VICINITY,
    Zone.UNIFORM_VICINITY,
    Zone.GAMMA_LINE,
    Zone.WEIBULL_BAND,
    Zone.BETA_ZONE,
    Zone.OTHER,
)


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


def classify_zones(
    points: list[PlanePoint],
    rho: float = DEFAULT_RHO,
    tau: float = DEFAULT_TAU,
) -> list[Zone]:
    """Total, deterministic zone classification of a sequence of plane
    points; for each point the first matching rule wins.

    Rule order: infeasible, normal vicinity, uniform vicinity, gamma line,
    Weibull band, beta zone, other. The gamma-line test precedes the Weibull
    band because the two families intersect at the exponential (shape 1),
    and that shared landmark is read as gamma. Each rule is evaluated for
    all points at once; only the points that no earlier rule claims are
    measured against the Weibull curve.
    """
    s = np.array([p.s for p in points], dtype=float)
    k = np.array([p.k for p in points], dtype=float)
    limit = LIMIT_INTERCEPT + LIMIT_SLOPE * s
    gamma = GAMMA_INTERCEPT + GAMMA_SLOPE * s
    hits = [
        k < limit - tau,
        np.array([metric1(p) for p in points], dtype=float) <= rho,
        np.array([metric2(p) for p in points], dtype=float) <= rho,
        np.abs(k - gamma) <= tau,
    ]
    weibull = np.zeros(len(s), dtype=bool)
    todo = np.flatnonzero(~np.logical_or.reduce(hits))
    if todo.size:
        curve = np.asarray(weibull_curve(), dtype=float)
        weibull[todo] = _polyline_distances(s[todo], k[todo], curve) <= tau
    hits += [weibull, (limit <= k) & (k <= gamma)]
    first = np.select(hits, range(len(hits)), default=len(hits))
    return [_RULES[i] for i in first.tolist()]


def classify_zone(p: PlanePoint, rho: float = DEFAULT_RHO, tau: float = DEFAULT_TAU) -> Zone:
    """Zone of one point: ``classify_zones`` of a one-point sequence."""
    (zone,) = classify_zones([p], rho, tau)
    return zone


def export_plane(
    windows: list[SampleWindow],
    rho: float = DEFAULT_RHO,
    tau: float = DEFAULT_TAU,
    bootstrap_cloud=None,
) -> dict:
    """Plot-ready plane export: landmarks, per-window points, optional cloud.

    Degenerate windows appear with null coordinates as the missing-value
    marker so consumers keep the full time axis.
    """
    plane = [to_plane(w.moments, w.t_mid_ms) for w in windows if not w.degenerate]
    classified = iter(zip(plane, classify_zones(plane, rho, tau)))
    points = []
    for w in windows:
        if w.degenerate:
            points.append(
                {"t_mid_ms": w.t_mid_ms, "s": None, "k": None, "zone": None, "metric1": None, "metric2": None}
            )
            continue
        p, zone = next(classified)
        points.append(
            {
                "t_mid_ms": p.t_mid_ms,
                "s": p.s,
                "k": p.k,
                "zone": zone.value,
                "metric1": metric1(p),
                "metric2": metric2(p),
            }
        )
    cloud = []
    if bootstrap_cloud is not None:
        for m in bootstrap_cloud.points:
            cloud.append(
                {
                    "s": m.skewness * m.skewness,
                    "k": m.kurtosis,
                    "mean": m.mean,
                    "std": m.std,
                    "skewness": m.skewness,
                    "kurtosis": m.kurtosis,
                }
            )
    return {
        "landmarks": {
            "normal": list(NORMAL_LANDMARK),
            "uniform": list(UNIFORM_LANDMARK),
            "gamma_line": {"intercept": GAMMA_INTERCEPT, "slope": GAMMA_SLOPE},
            "limit_line": {"intercept": LIMIT_INTERCEPT, "slope": LIMIT_SLOPE},
            "weibull_curve": [list(p) for p in weibull_curve()],
        },
        "rho": rho,
        "tau": tau,
        "points": points,
        "bootstrap_cloud": cloud,
        # No command produces exercise marks; the key stays, always empty,
        # because plane.json bytes are pinned.
        "phase_marks": [],
    }
