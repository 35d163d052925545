import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadlens import momentplane
from loadlens.errors import DegenerateMoments, NonPositiveShape
from loadlens.momentplane import (
    PlanePoint,
    Zone,
    classify_zone,
    classify_zones,
    export_plane,
    metric1,
    metric2,
    to_plane,
    weibull_curve,
    weibull_landmark,
)
from loadlens.stats import Moments, SampleWindow, bootstrap, moments


def window_at(t, mean=0.0, std=1.0, skew=0.0, kurt=3.0, degenerate=False):
    m = Moments(300, mean, std, math.nan if degenerate else skew, math.nan if degenerate else kurt)
    return SampleWindow(0, 300, t - 150, t + 150, m)


class TestToPlane:
    def test_normal_landmark(self):
        p = to_plane(Moments(100, 0.0, 1.0, 0.0, 3.0), t_mid_ms=5)
        assert (p.s, p.k, p.t_mid_ms) == (0.0, 3.0, 5)

    def test_squaring_kills_sign(self):
        p = to_plane(Moments(100, 0.0, 1.0, -2.0, 9.0))
        assert (p.s, p.k) == (4.0, 9.0)

    def test_uniform_draws_near_landmark(self):
        x = np.random.default_rng(0).uniform(0, 1, 10_000)
        p = to_plane(moments(x))
        assert math.hypot(p.s, p.k - 1.8) < 0.1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMoments):
            to_plane(Moments(100, 1.0, 0.0, math.nan, math.nan))

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            PlanePoint(-0.5, 3.0)

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=6, max_size=64))
    @settings(max_examples=100)
    def test_pearson_feasibility_inherited(self, values):
        arr = np.asarray(values)
        if arr.std() <= 1e-3 * (1 + abs(arr.mean())):
            return
        p = to_plane(moments(arr))
        assert p.k >= p.s + 1.0 - 1e-12


class TestMetrics:
    def test_landmark_identities(self):
        assert metric1(PlanePoint(0.0, 3.0)) == 0.0
        assert metric2(PlanePoint(0.0, 3.0)) == 1.2
        assert metric2(PlanePoint(0.0, 1.8)) == 0.0
        assert metric1(PlanePoint(0.0, 1.8)) == 1.2

    def test_exponential_landmark_distance(self):
        # hand computation: sqrt(4^2 + (9-3)^2) = sqrt(52)
        assert metric1(PlanePoint(4.0, 9.0)) == pytest.approx(math.sqrt(52.0), rel=1e-15)

    @given(st.floats(0, 50, allow_nan=False), st.floats(-5, 60, allow_nan=False))
    def test_non_negative_and_zero_only_at_landmark(self, s, k):
        p = PlanePoint(s, k)
        assert metric1(p) >= 0.0 and metric2(p) >= 0.0
        if metric1(p) == 0.0:
            assert (s, k) == (0.0, 3.0)
        if metric2(p) == 0.0:
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
        m = moments(x)
        s, k = weibull_landmark(2.0)
        assert m.skewness**2 == pytest.approx(s, abs=0.01)
        assert m.kurtosis == pytest.approx(k, abs=0.05)

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
        with pytest.raises(NonPositiveShape):
            weibull_landmark(0.0)
        with pytest.raises(NonPositiveShape):
            weibull_landmark(-2.0)

    def test_curve_grid_monotone_and_feasible(self):
        curve = weibull_curve()
        assert len(curve) == 200
        for s, k in curve:
            assert k >= s + 1.0 - 1e-9


class TestClassifyZone:
    def test_normal_landmark(self):
        assert classify_zone(PlanePoint(0.0, 3.0)) is Zone.NORMAL_VICINITY

    def test_uniform_draws(self):
        x = np.random.default_rng(0).uniform(0, 1, 10_000)
        assert classify_zone(to_plane(moments(x))) is Zone.UNIFORM_VICINITY

    def test_beta22_windows(self):
        # population landmark (0, 15/7) sits inside the beta zone
        assert classify_zone(PlanePoint(0.0, 15.0 / 7.0)) is Zone.BETA_ZONE
        rng = np.random.default_rng(2024)
        hits = sum(
            classify_zone(to_plane(moments(rng.beta(2, 2, 10_000)))) is Zone.BETA_ZONE
            for _ in range(100)
        )
        assert hits >= 90

    def test_exponential_reads_as_gamma(self):
        x = np.random.default_rng(5).exponential(1.0, 10_000)
        p = to_plane(moments(x))
        assert math.hypot(p.s - 4.0, p.k - 9.0) < 0.1
        assert classify_zone(p) is Zone.GAMMA_LINE

    def test_rayleigh_reads_as_weibull(self):
        x = np.random.default_rng(1).weibull(2.0, 10_000)
        assert classify_zone(to_plane(moments(x))) is Zone.WEIBULL_BAND

    def test_infeasible_and_other(self):
        assert classify_zone(PlanePoint(1.0, 1.0)) is Zone.INFEASIBLE
        assert classify_zone(PlanePoint(0.5, 6.0)) is Zone.OTHER

    @given(st.floats(0, 60, allow_nan=False), st.floats(-10, 100, allow_nan=False))
    @settings(max_examples=200)
    def test_total_and_deterministic(self, s, k):
        p = PlanePoint(s, k)
        z = classify_zone(p)
        assert isinstance(z, Zone)
        assert classify_zone(p) is z


def reference_polyline_distance(p, curve):
    """Distance to the Weibull polyline, one point at a time (the reference
    for the array classifier)."""
    q = np.array([p.s, p.k])
    a = curve[:-1]
    ab = curve[1:] - a
    denom = (ab * ab).sum(axis=1)
    t = np.where(denom > 0, ((q - a) * ab).sum(axis=1) / np.where(denom > 0, denom, 1.0), 0.0)
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return float(np.hypot(proj[:, 0] - q[0], proj[:, 1] - q[1]).min())


def reference_zone(p, rho, tau):
    """The per-point rules, in order, as one scalar function."""
    curve = np.asarray(weibull_curve(), dtype=float)
    if p.k < 1.0 + 1.0 * p.s - tau:
        return Zone.INFEASIBLE
    if metric1(p) <= rho:
        return Zone.NORMAL_VICINITY
    if metric2(p) <= rho:
        return Zone.UNIFORM_VICINITY
    if abs(p.k - (3.0 + 1.5 * p.s)) <= tau:
        return Zone.GAMMA_LINE
    if reference_polyline_distance(p, curve) <= tau:
        return Zone.WEIBULL_BAND
    if 1.0 + 1.0 * p.s <= p.k <= 3.0 + 1.5 * p.s:
        return Zone.BETA_ZONE
    return Zone.OTHER


@st.composite
def points_on_and_off_boundaries(draw):
    """Points, each possibly moved exactly onto a rule's boundary, and a
    (rho, tau) pair that may equal one point's distance to a boundary."""
    n = draw(st.integers(1, 12))
    pts = []
    for _ in range(n):
        s = draw(st.floats(0, 30, allow_nan=False))
        k = draw(
            st.one_of(
                st.floats(-5, 60, allow_nan=False),
                st.sampled_from([1.0 + s, 3.0 + 1.5 * s, 1.0 + s - 0.15, 3.0 + 1.5 * s + 0.15]),
            )
        )
        pts.append(PlanePoint(s, k))
    rho = draw(st.floats(0.01, 3.0, allow_nan=False))
    tau = draw(st.floats(0.01, 2.0, allow_nan=False))
    p = draw(st.sampled_from(pts))
    curve = np.asarray(weibull_curve(), dtype=float)
    edge = draw(st.sampled_from(["none", "normal", "uniform", "gamma", "weibull", "limit"]))
    if edge == "normal":
        rho = metric1(p) or rho
    elif edge == "uniform":
        rho = metric2(p) or rho
    elif edge == "gamma":
        tau = abs(p.k - (3.0 + 1.5 * p.s)) or tau
    elif edge == "weibull":
        tau = reference_polyline_distance(p, curve) or tau
    elif edge == "limit":
        tau = (1.0 + p.s - p.k) if 1.0 + p.s > p.k else tau
    return pts, rho, tau


class TestClassifyZones:
    @given(points_on_and_off_boundaries(), st.sampled_from([1, 3, momentplane.POINT_BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_equal_to_per_point_rules(self, case, block):
        pts, rho, tau = case
        with mock.patch.object(momentplane, "POINT_BLOCK", block):
            got = classify_zones(pts, rho, tau)
        assert got == [reference_zone(p, rho, tau) for p in pts]
        assert [classify_zone(p, rho, tau) for p in pts] == got

    def test_boundaries_are_inclusive(self):
        assert classify_zone(PlanePoint(0.0, 3.5), rho=0.5) is Zone.NORMAL_VICINITY
        assert classify_zone(PlanePoint(0.0, 3.5), rho=0.4999999999999999) is not Zone.NORMAL_VICINITY
        assert classify_zone(PlanePoint(0.5, 1.8), rho=0.5) is Zone.UNIFORM_VICINITY
        assert classify_zone(PlanePoint(1.0, 4.75), tau=0.25) is Zone.GAMMA_LINE
        assert classify_zone(PlanePoint(1.0, 1.75), tau=0.25) is not Zone.INFEASIBLE
        assert classify_zone(PlanePoint(1.0, 1.7499999999999998), tau=0.25) is Zone.INFEASIBLE

    def test_every_zone_in_one_call(self):
        pts = [
            PlanePoint(1.0, 1.0),
            PlanePoint(0.0, 3.0),
            PlanePoint(0.0, 1.8),
            PlanePoint(4.0, 9.0),
            PlanePoint(*weibull_landmark(2.0)),
            PlanePoint(0.0, 15.0 / 7.0),
            PlanePoint(0.5, 6.0),
        ]
        assert classify_zones(pts) == [
            Zone.INFEASIBLE,
            Zone.NORMAL_VICINITY,
            Zone.UNIFORM_VICINITY,
            Zone.GAMMA_LINE,
            Zone.WEIBULL_BAND,
            Zone.BETA_ZONE,
            Zone.OTHER,
        ]
        assert classify_zones([]) == []


class TestMetricSeries:
    """The per-window metric series of ``export_plane``: one point per window
    in time order, null metrics marking degenerate windows."""

    def test_single_normal_window(self):
        (p,) = export_plane([window_at(1000)])["points"]
        assert (p["t_mid_ms"], p["metric1"], p["metric2"]) == (1000, 0.0, 1.2)

    def test_degenerate_markers_keep_alignment(self):
        wins = [window_at(1000), window_at(2000, degenerate=True), window_at(3000, kurt=4.0)]
        out = export_plane(wins)["points"]
        assert [p["t_mid_ms"] for p in out] == [1000, 2000, 3000]
        assert out[1]["metric1"] is None and out[1]["metric2"] is None
        assert out[2]["metric1"] == 1.0

    def test_all_degenerate(self):
        out = export_plane([window_at(1000, degenerate=True)])["points"]
        assert out == [{"t_mid_ms": 1000, "s": None, "k": None, "zone": None, "metric1": None, "metric2": None}]


class TestExportPlane:
    def test_structure_and_json(self, rng):
        wins = [window_at(1000), window_at(2000, degenerate=True)]
        cloud = bootstrap(rng.normal(0, 1, 64), B=5, seed=1)
        doc = export_plane(wins, bootstrap_cloud=cloud)
        text = json.dumps(doc)
        back = json.loads(text)
        assert set(back) == {"landmarks", "rho", "tau", "points", "bootstrap_cloud", "phase_marks"}
        assert back["landmarks"]["normal"] == [0.0, 3.0]
        assert back["landmarks"]["uniform"] == [0.0, 1.8]
        assert back["landmarks"]["gamma_line"] == {"intercept": 3.0, "slope": 1.5}
        assert back["landmarks"]["limit_line"] == {"intercept": 1.0, "slope": 1.0}
        assert back["landmarks"]["weibull_curve"] == [list(p) for p in weibull_curve()]
        assert back["points"][0]["zone"] == "normal_vicinity"
        assert back["points"][0]["metric2"] == 1.2
        assert back["points"][1]["s"] is None and back["points"][1]["zone"] is None
        assert len(back["bootstrap_cloud"]) == 5
        assert back["phase_marks"] == []
