import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadlens import ingest, momentplane
from loadlens.ingest import Channel
from loadlens.momentplane import (
    ZONES,
    export_plane,
    metric1,
    metric2,
    weibull_curve,
    weibull_landmark,
    zone_indices,
)
from loadlens.stats import MomentColumns, WindowTable, bootstrap, moments, sliding_windows


def window_at(t, mean=0.0, std=1.0, skew=0.0, kurt=3.0, degenerate=False):
    """One 300-sample window row centred on t: (start, t_start_ms, t_end_ms,
    mean, std, skewness, kurtosis)."""
    shape = (math.nan, math.nan) if degenerate else (skew, kurt)
    return (0, t - 150, t + 150, mean, std, *shape)


def table(*rows) -> WindowTable:
    start, t0, t1, mean, std, skew, kurt = zip(*rows)
    return WindowTable(300, mean, std, skew, kurt, start=start, t_start_ms=t0, t_end_ms=t1)


def plane_doc(windows, **kwargs) -> dict:
    """``export_plane`` of the windows, read back."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "plane.json")
        export_plane(path, windows, **kwargs)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def whole_sample(values) -> WindowTable:
    """One window over the whole sample."""
    return sliding_windows(Channel(np.arange(len(values)), values), window=len(values), stride=1)


def zones(s, k, rho=momentplane.DEFAULT_RHO, tau=momentplane.DEFAULT_TAU) -> list[str]:
    """Zone labels of the points (s[i], k[i]) by ``zone_indices``, given the
    metric columns that ``export_plane`` computes."""
    s, k = np.asarray(s, dtype=float), np.asarray(k, dtype=float)
    return [ZONES[i] for i in zone_indices(s, k, *momentplane._metric_columns(s, k), rho, tau).tolist()]


def zone(s, k, rho=momentplane.DEFAULT_RHO, tau=momentplane.DEFAULT_TAU) -> str:
    """Zone of one point: ``zones`` of one-point arrays."""
    (z,) = zones([s], [k], rho, tau)
    return z


def plane_point(values) -> tuple[float, float]:
    """(skewness^2, kurtosis) of one whole sample, from ``moments``."""
    m = moments(values)
    return m.skewness.item() ** 2, m.kurtosis.item()


class TestToPlane:
    """A window's plane point in the export: (skewness^2, kurtosis)."""

    def test_normal_landmark(self):
        (p,) = plane_doc(table(window_at(5)))["points"]
        assert (p["s"], p["k"], p["t_mid_ms"]) == (0.0, 3.0, 5)

    def test_squaring_kills_sign(self):
        (p,) = plane_doc(table(window_at(5, skew=-2.0, kurt=9.0)))["points"]
        assert (p["s"], p["k"]) == (4.0, 9.0)

    def test_uniform_draws_near_landmark(self):
        x = np.random.default_rng(0).uniform(0, 1, 10_000)
        (p,) = plane_doc(whole_sample(x))["points"]
        assert math.hypot(p["s"], p["k"] - 1.8) < 0.1

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=6, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_pearson_feasibility_inherited(self, values):
        arr = np.asarray(values)
        if arr.std() <= 1e-3 * (1 + abs(arr.mean())):
            return
        (p,) = plane_doc(whole_sample(arr))["points"]
        assert p["k"] >= p["s"] + 1.0 - 1e-12


class TestMetrics:
    def test_landmark_identities(self):
        assert metric1(0.0, 3.0) == 0.0
        assert metric2(0.0, 3.0) == 1.2
        assert metric2(0.0, 1.8) == 0.0
        assert metric1(0.0, 1.8) == 1.2

    def test_exponential_landmark_distance(self):
        # hand computation: sqrt(4^2 + (9-3)^2) = sqrt(52)
        assert metric1(4.0, 9.0) == pytest.approx(math.sqrt(52.0), rel=1e-15)

    @given(st.floats(0, 50, allow_nan=False), st.floats(-5, 60, allow_nan=False))
    def test_non_negative_and_zero_only_at_landmark(self, s, k):
        assert metric1(s, k) >= 0.0 and metric2(s, k) >= 0.0
        if metric1(s, k) == 0.0:
            assert (s, k) == (0.0, 3.0)
        if metric2(s, k) == 0.0:
            assert (s, k) == (0.0, 1.8)


class TestWeibullLandmark:
    def test_exponential_shape(self):
        s, k = weibull_landmark(1.0)
        assert abs(s - 4.0) < 1e-9 and abs(k - 9.0) < 1e-9

    def test_rayleigh_frozen_values(self):
        # Gamma-function evaluation, frozen; g1 = 0.63111...
        s, k = weibull_landmark(2.0)
        assert s == pytest.approx(0.39830066241265777, abs=1e-9)
        assert k == pytest.approx(3.245089300687638, abs=1e-9)

    def test_rayleigh_against_monte_carlo(self):
        x = np.random.default_rng(1).weibull(2.0, 1_000_000)
        got_s, got_k = plane_point(x)
        s, k = weibull_landmark(2.0)
        assert got_s == pytest.approx(s, abs=0.01)
        assert got_k == pytest.approx(k, abs=0.05)

    def test_skew_zero_shape_by_bisection(self):
        # oracle: bisection root of g1(c) = 0 between 3 and 4
        def g1(c):
            s, _ = weibull_landmark(c)
            mu = [math.gamma(1 + r / c) for r in (1, 2, 3)]
            m3 = mu[2] - 3 * mu[0] * mu[1] + 2 * mu[0] ** 3
            return math.copysign(math.sqrt(s), m3)

        lo, hi = 3.0, 4.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if g1(mid) > 0:
                lo = mid
            else:
                hi = mid
        c_star = (lo + hi) / 2
        assert c_star == pytest.approx(3.602349, abs=1e-5)
        s, _ = weibull_landmark(c_star)
        assert s < 1e-12

    def test_non_positive_shape(self):
        with pytest.raises(ValueError, match="shape must be > 0"):
            weibull_landmark(0.0)
        with pytest.raises(ValueError, match="shape must be > 0"):
            weibull_landmark(-2.0)

    def test_curve_grid_monotone_and_feasible(self):
        curve = weibull_curve()
        assert len(curve) == 200
        for s, k in curve:
            assert k >= s + 1.0 - 1e-9


class TestClassifyZone:
    def test_normal_landmark(self):
        assert zone(0.0, 3.0) == "normal_vicinity"

    def test_uniform_draws(self):
        assert zone(*plane_point(np.random.default_rng(0).uniform(0, 1, 10_000))) == "uniform_vicinity"

    def test_beta22_windows(self):
        # population landmark (0, 15/7) sits inside the beta zone
        assert zone(0.0, 15.0 / 7.0) == "beta_zone"
        rng = np.random.default_rng(2024)
        s, k = zip(*(plane_point(rng.beta(2, 2, 10_000)) for _ in range(100)))
        assert zones(s, k).count("beta_zone") >= 90

    def test_exponential_reads_as_gamma(self):
        s, k = plane_point(np.random.default_rng(5).exponential(1.0, 10_000))
        assert math.hypot(s - 4.0, k - 9.0) < 0.1
        assert zone(s, k) == "gamma_line"

    def test_rayleigh_reads_as_weibull(self):
        assert zone(*plane_point(np.random.default_rng(1).weibull(2.0, 10_000))) == "weibull_band"

    def test_infeasible_and_other(self):
        assert zone(1.0, 1.0) == "infeasible"
        assert zone(0.5, 6.0) == "other"


def reference_polyline_distance(s, k, curve):
    """Distance to the Weibull polyline, one point at a time (the reference
    for the array classifier)."""
    q = np.array([s, k])
    a = curve[:-1]
    ab = curve[1:] - a
    denom = (ab * ab).sum(axis=1)
    t = np.where(denom > 0, ((q - a) * ab).sum(axis=1) / np.where(denom > 0, denom, 1.0), 0.0)
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return float(np.hypot(proj[:, 0] - q[0], proj[:, 1] - q[1]).min())


def reference_zone(s, k, rho, tau):
    """The per-point rules, in order, as one scalar function."""
    curve = np.asarray(weibull_curve(), dtype=float)
    if k < 1.0 + 1.0 * s - tau:
        return "infeasible"
    if metric1(s, k) <= rho:
        return "normal_vicinity"
    if metric2(s, k) <= rho:
        return "uniform_vicinity"
    if abs(k - (3.0 + 1.5 * s)) <= tau:
        return "gamma_line"
    if reference_polyline_distance(s, k, curve) <= tau:
        return "weibull_band"
    if 1.0 + 1.0 * s <= k <= 3.0 + 1.5 * s:
        return "beta_zone"
    return "other"


@st.composite
def points_on_and_off_boundaries(draw):
    """Points (s, k), each possibly moved exactly onto a rule's boundary,
    and a (rho, tau) pair that may equal one point's distance to a boundary."""
    n = draw(st.integers(1, 12))
    pts = []
    for _ in range(n):
        s = draw(st.floats(0, 60, allow_nan=False))
        k = draw(
            st.one_of(
                st.floats(-10, 100, allow_nan=False),
                st.sampled_from([1.0 + s, 3.0 + 1.5 * s, 1.0 + s - 0.15, 3.0 + 1.5 * s + 0.15]),
            )
        )
        pts.append((s, k))
    rho = draw(st.floats(0.01, 3.0, allow_nan=False))
    tau = draw(st.floats(0.01, 2.0, allow_nan=False))
    s, k = draw(st.sampled_from(pts))
    curve = np.asarray(weibull_curve(), dtype=float)
    edge = draw(st.sampled_from(["none", "normal", "uniform", "gamma", "weibull", "limit"]))
    if edge == "normal":
        rho = metric1(s, k) or rho
    elif edge == "uniform":
        rho = metric2(s, k) or rho
    elif edge == "gamma":
        tau = abs(k - (3.0 + 1.5 * s)) or tau
    elif edge == "weibull":
        tau = reference_polyline_distance(s, k, curve) or tau
    elif edge == "limit":
        tau = (1.0 + s - k) if 1.0 + s > k else tau
    return pts, rho, tau


class TestClassifyZones:
    @given(points_on_and_off_boundaries(), st.sampled_from([1, 3, momentplane.POINT_BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_equal_to_per_point_rules(self, case, block):
        pts, rho, tau = case
        s, k = (np.array(c) for c in zip(*pts))
        with mock.patch.object(momentplane, "POINT_BLOCK", block):
            got = zones(s, k, rho, tau)
        assert got == [reference_zone(a, b, rho, tau) for a, b in pts]
        assert [zone(a, b, rho, tau) for a, b in pts] == got

    def test_boundaries_are_inclusive(self):
        assert zone(0.0, 3.5, rho=0.5) == "normal_vicinity"
        assert zone(0.0, 3.5, rho=0.4999999999999999) != "normal_vicinity"
        assert zone(0.5, 1.8, rho=0.5) == "uniform_vicinity"
        assert zone(1.0, 4.75, tau=0.25) == "gamma_line"
        assert zone(1.0, 1.75, tau=0.25) != "infeasible"
        assert zone(1.0, 1.7499999999999998, tau=0.25) == "infeasible"

    def test_every_zone_in_one_call(self):
        pts = [(1.0, 1.0), (0.0, 3.0), (0.0, 1.8), (4.0, 9.0), weibull_landmark(2.0), (0.0, 15.0 / 7.0), (0.5, 6.0)]
        s, k = (np.array(c) for c in zip(*pts))
        assert zones(s, k) == [
            "infeasible",
            "normal_vicinity",
            "uniform_vicinity",
            "gamma_line",
            "weibull_band",
            "beta_zone",
            "other",
        ]
        assert zones(np.empty(0), np.empty(0)) == []


class TestMetricSeries:
    """The per-window metric series of ``export_plane``: one point per window
    in time order, null metrics marking degenerate windows."""

    def test_single_normal_window(self):
        (p,) = plane_doc(table(window_at(1000)))["points"]
        assert (p["t_mid_ms"], p["metric1"], p["metric2"]) == (1000, 0.0, 1.2)

    def test_degenerate_markers_keep_alignment(self):
        wins = table(window_at(1000), window_at(2000, degenerate=True), window_at(3000, kurt=4.0))
        out = plane_doc(wins)["points"]
        assert [p["t_mid_ms"] for p in out] == [1000, 2000, 3000]
        assert out[1]["metric1"] is None and out[1]["metric2"] is None
        assert out[2]["metric1"] == 1.0

    def test_all_degenerate(self):
        out = plane_doc(table(window_at(1000, degenerate=True)))["points"]
        assert out == [{"t_mid_ms": 1000, "s": None, "k": None, "zone": None, "metric1": None, "metric2": None}]


class TestExportPlane:
    def test_structure_and_json(self, rng):
        wins = table(window_at(1000), window_at(2000, degenerate=True))
        cloud = bootstrap(rng.normal(0, 1, 64), B=5, seed=1)
        back = plane_doc(wins, cloud=cloud)
        assert set(back) == {"landmarks", "rho", "tau", "points", "bootstrap_cloud"}
        assert back["landmarks"]["normal"] == [0.0, 3.0]
        assert back["landmarks"]["uniform"] == [0.0, 1.8]
        assert back["landmarks"]["gamma_line"] == {"intercept": 3.0, "slope": 1.5}
        assert back["landmarks"]["limit_line"] == {"intercept": 1.0, "slope": 1.0}
        assert back["landmarks"]["weibull_curve"] == [list(p) for p in weibull_curve()]
        assert back["points"][0]["zone"] == "normal_vicinity"
        assert back["points"][0]["metric2"] == 1.2
        assert back["points"][1]["s"] is None and back["points"][1]["zone"] is None
        assert len(back["bootstrap_cloud"]) == 5


def reference_doc(windows, rho, tau, cloud) -> dict:
    """The plane document as a dict, built row by row in Python floats."""
    points = []
    rows = zip(windows.t_start_ms.tolist(), windows.t_end_ms.tolist(), windows.skewness.tolist(), windows.kurtosis.tolist())
    for t0, t1, g, k in rows:
        point = {"t_mid_ms": (t0 + t1) // 2, "s": None, "k": None, "zone": None, "metric1": None, "metric2": None}
        if not math.isnan(g):
            s = g * g
            point.update(s=s, k=k, zone=reference_zone(s, k, rho, tau), metric1=metric1(s, k), metric2=metric2(s, k))
        points.append(point)
    entries = []
    if cloud is not None:
        for mean, std, g, k in zip(cloud.mean.tolist(), cloud.std.tolist(), cloud.skewness.tolist(), cloud.kurtosis.tolist()):
            entries.append({"s": g * g, "k": k, "mean": mean, "std": std, "skewness": g})
    landmarks = {
        "normal": [0.0, 3.0],
        "uniform": [0.0, 1.8],
        "gamma_line": {"intercept": 3.0, "slope": 1.5},
        "limit_line": {"intercept": 1.0, "slope": 1.0},
        "weibull_curve": [list(p) for p in weibull_curve()],
    }
    return {"landmarks": landmarks, "rho": rho, "tau": tau, "points": points, "bootstrap_cloud": entries}


#: Finite floats where ``repr`` is most likely to part from json: signed
#: zero, subnormals, and both sides of the switches to exponent form.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -1e-310, 1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05, -1e-5]


def finite(limit):
    return st.one_of(st.floats(-limit, limit, allow_nan=False), st.sampled_from(EDGE_FLOATS))


@st.composite
def plane_inputs(draw):
    """A window table with null points among finite ones, and a cloud that
    may be absent or empty; |skewness| stays small enough that s is finite."""
    n = draw(st.integers(0, 9))
    t0, span = (draw(st.lists(st.integers(0, 2**62 - 1), min_size=n, max_size=n)) for _ in range(2))
    skew = [g if draw(st.booleans()) else math.nan for g in draw(st.lists(finite(1e100), min_size=n, max_size=n))]
    kurt = [k if not math.isnan(g) else math.nan for g, k in zip(skew, draw(st.lists(finite(1e100), min_size=n, max_size=n)))]
    mean, std = (draw(st.lists(finite(1e300), min_size=n, max_size=n)) for _ in range(2))
    windows = WindowTable(
        300,
        np.array(mean, dtype=float),
        np.array(std, dtype=float),
        np.array(skew, dtype=float),
        np.array(kurt, dtype=float),
        start=np.zeros(n, dtype=np.int64),
        t_start_ms=np.array(t0, dtype=np.int64),
        t_end_ms=np.array([a + b for a, b in zip(t0, span)], dtype=np.int64),
    )
    cloud = None
    if draw(st.booleans()):
        m = draw(st.integers(0, 9))
        cols = [draw(st.lists(finite(lim), min_size=m, max_size=m)) for lim in (1e300, 1e300, 1e100, 1e100)]
        cloud = MomentColumns(64, *(np.array(c, dtype=float) for c in cols))
    return windows, cloud


class TestPlaneTemplates:
    """The streamed templates write the bytes of ``json.dump(indent=1)``."""

    @given(plane_inputs(), st.sampled_from([0.3, 1e-4, 1e16]), st.sampled_from([0.15, 2.5]), st.sampled_from([1, 3, ingest.CHUNK_ROWS]))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps(self, case, rho, tau, block):
        windows, cloud = case
        with tempfile.TemporaryDirectory() as d, mock.patch.object(ingest, "CHUNK_ROWS", block):
            path = os.path.join(d, "plane.json")
            export_plane(path, windows, rho, tau, cloud)
            with open(path, "rb") as fh:
                got = fh.read()
        want = json.dumps(reference_doc(windows, rho, tau, cloud), indent=1) + "\n"
        assert got == want.encode("utf-8")
