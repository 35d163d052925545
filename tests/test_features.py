import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loadlens.cli import main
from loadlens.errors import MalformedRow, MissingChannel, MomentOverflow, TooFewRows
from loadlens.features import (
    ALL_FEATURES,
    FeatureTable,
    correlation_matrix,
    extract_features,
    read_features_csv,
    write_correlation_csv,
    write_features_csv,
)
from loadlens.ingest import Channel, SessionMeta, accel_magnitude
from loadlens.learn.models import LinearModel, Standardizer, save_model
from loadlens.synth import GenConfig, gen_accel, gen_rr, session_protocol
from tests.conftest import make_rows


def series(values):
    return Channel(np.arange(len(values)) * 10, np.asarray(values, dtype=float))


def rr_list(values):
    return Channel(np.arange(len(values)) * 100, np.asarray(values, dtype=float))


class TestExtractFeatures:
    def test_pace_arithmetic(self, rng):
        meta = SessionMeta("s1", "walking", 5.0, 30.0)
        fv = extract_features(meta, series(rng.normal(9.8, 1, 50)), rr_list(800 + rng.normal(0, 20, 40)))
        assert tuple(fv) == ALL_FEATURES
        assert fv["velocity"] == 10.0
        assert fv["pace"] == 6.0
        assert fv["metricD"] == 36.0

    def test_constant_channels_flag_missing(self):
        meta = SessionMeta("s1", "walking", 5.0, 30.0)
        fv = extract_features(meta, series([9.81] * 50), rr_list([800.0] * 40))
        assert fv["ahr"] == 75.0 and fv["mhr"] == 75.0
        assert fv["acc_mean"] == 9.81 and fv["acc_std"] == 0.0
        assert math.isnan(fv["acc_skewness"]) and math.isnan(fv["acc_kurtosis"])
        assert math.isnan(fv["metric1"]) and math.isnan(fv["metric2"])

    def test_zero_distance_marks_pace_missing(self, rng):
        meta = SessionMeta("s1", "walking", 0.0, 30.0)
        fv = extract_features(meta, series(rng.normal(9.8, 1, 50)), rr_list(800 + rng.normal(0, 20, 40)))
        assert math.isnan(fv["velocity"])
        assert math.isnan(fv["pace"])
        assert math.isnan(fv["metricD"])
        assert fv["ahr"] > 0

    def test_missing_channels(self, rng):
        meta = SessionMeta("s1", "walking", 5.0, 30.0)
        with pytest.raises(MissingChannel):
            extract_features(meta, series(rng.normal(0, 1, 50)), rr_list([]))
        with pytest.raises(MissingChannel):
            extract_features(meta, series([1.0, 2.0, 3.0]), rr_list([800.0] * 10))
        raw_axes = Channel(np.arange(50) * 10, rng.normal(0, 1, (50, 3)))
        with pytest.raises(ValueError):
            extract_features(meta, raw_axes, rr_list([800.0] * 10))

    def test_subnormal_rr_overflows_the_heart_rate(self, rng):
        meta = SessionMeta("s1", "walking", 5.0, 30.0)
        accel = series(rng.normal(0, 1, 50))
        for rr in ([800.0, 1e-320, 810.0, 790.0, 805.0], [1e-303] * 5):
            with pytest.raises(MomentOverflow, match="heart rate"):
                extract_features(meta, accel, rr_list(rr))

    @pytest.mark.parametrize("distance,duration", [(5.0, 1e-320), (1e-320, 30.0), (1e-160, 1.0)])
    def test_overflowing_pace_features_raise(self, rng, distance, duration):
        """velocity, pace and metricD in turn leave the finite floats."""
        meta = SessionMeta("s1", "walking", distance, duration)
        with pytest.raises(MomentOverflow, match="velocity, pace or metricD"):
            extract_features(meta, series(rng.normal(0, 1, 50)), rr_list(800 + rng.normal(0, 20, 40)))

    def test_non_positive_rr_is_missing_channel(self, rng):
        meta = SessionMeta("s1", "walking", 5.0, 30.0)
        accel = series(rng.normal(0, 1, 50))
        for rr in ([800.0, 0.0, 810.0, 790.0, 805.0], [800.0, 810.0, -790.0, 805.0]):
            with pytest.raises(MissingChannel, match="rr_ms must be > 0"):
                extract_features(meta, accel, rr_list(rr))

    def test_against_independent_recomputation(self):
        # oracle: standalone numpy recomputation of every feature
        meta = SessionMeta("r1", "running", 8.0, 44.0)
        accel_samples = gen_accel("active", 60.0, GenConfig(seed=77))
        rr_samples = gen_rr(session_protocol(44.0, 0.6), GenConfig(seed=78))
        fv = extract_features(meta, accel_magnitude(accel_samples), rr_samples)

        hr = 60000.0 / np.array(rr_samples.values.tolist())
        assert fv["ahr"] == pytest.approx(hr.mean(), rel=1e-9)
        assert fv["mhr"] == pytest.approx(hr.max(), rel=1e-9)

        mag = np.sqrt(np.array([ax**2 + ay**2 + az**2 for ax, ay, az in accel_samples.values.tolist()]))
        d = mag - mag.mean()
        m2 = (d**2).mean()
        assert fv["acc_mean"] == pytest.approx(mag.mean(), rel=1e-9)
        assert fv["acc_std"] == pytest.approx(math.sqrt(m2), rel=1e-9)
        assert fv["acc_skewness"] == pytest.approx((d**3).mean() / m2**1.5, rel=1e-9)
        assert fv["acc_kurtosis"] == pytest.approx((d**4).mean() / m2**2, rel=1e-9)

        rr = np.array(rr_samples.values.tolist())
        dr = rr - rr.mean()
        r2 = (dr**2).mean()
        s_coord = ((dr**3).mean() / r2**1.5) ** 2
        k_coord = (dr**4).mean() / r2**2
        assert fv["metric1"] == pytest.approx(math.hypot(s_coord, k_coord - 3.0), rel=1e-9)
        assert fv["metric2"] == pytest.approx(math.hypot(s_coord, k_coord - 1.8), rel=1e-9)

        assert fv["velocity"] == pytest.approx(60.0 * 8.0 / 44.0, rel=1e-12)
        assert fv["pace"] == pytest.approx(44.0 / 8.0, rel=1e-12)
        assert fv["metricD"] == pytest.approx((44.0 / 8.0) ** 2, rel=1e-12)

    def test_order_invariance_after_time_sort(self, rng):
        meta = SessionMeta("s1", "walking", 5.0, 30.0)
        acc = series(rng.normal(9.8, 1, 50))
        rr = rr_list(800 + rng.normal(0, 20, 40))
        a = extract_features(meta, acc, rr)
        b = extract_features(meta, acc, rr)
        assert a == b


class TestCorrelationMatrix:
    def test_self_correlation(self, rng):
        rows = make_rows(rng.normal(0, 1, (20, 2)), [0] * 20, ["ahr", "mhr"])
        r = correlation_matrix(rows, ["ahr", "mhr"])
        assert r[0, 0] == 1.0

    def test_perfect_anticorrelation(self, rng):
        x = rng.normal(0, 1, 30)
        rows = make_rows(np.column_stack([x, -3 * x + 7]), [0] * 30, ["ahr", "mhr"])
        r = correlation_matrix(rows, ["ahr", "mhr"])
        assert r[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_constructed_distance_duration_link(self, rng):
        # oracle: duration built from distance * class pace + noise, with the
        # faster classes covering proportionally longer distances
        pace_class = np.repeat([11.5, 5.75, 4.15], 67)[:200]
        lo = np.repeat([2.0, 7.0, 14.0], 67)[:200]
        hi = np.repeat([5.0, 13.0, 26.0], 67)[:200]
        distance = rng.uniform(lo, hi)
        duration = distance * pace_class + rng.normal(0, 3, 200)
        rows = make_rows(np.column_stack([distance, duration]), [0] * 200, ["distance", "duration"])
        r = correlation_matrix(rows, ["distance", "duration"])
        assert r[0, 1] > 0.8

    def test_zero_variance_marks_row_and_diagonal(self, rng):
        X = np.column_stack([rng.normal(0, 1, 10), np.full(10, 2.5)])
        rows = make_rows(X, [0] * 10, ["ahr", "mhr"])
        r = correlation_matrix(rows, ["ahr", "mhr"])
        assert math.isnan(r[1, 1])
        assert math.isnan(r[0, 1])
        assert r[0, 0] == 1.0

    def test_pairwise_deletion(self, rng):
        X = rng.normal(0, 1, (10, 2))
        X[:8, 0] = np.nan  # only 2 complete pairs -> undefined
        rows = make_rows(X, [0] * 10, ["ahr", "mhr"])
        r = correlation_matrix(rows, ["ahr", "mhr"])
        assert math.isnan(r[0, 1])
        assert r[1, 1] == 1.0

    def test_too_few_rows(self, rng):
        rows = make_rows(rng.normal(0, 1, (2, 2)), [0, 0], ["ahr", "mhr"])
        with pytest.raises(TooFewRows):
            correlation_matrix(rows, ["ahr", "mhr"])

    @pytest.mark.parametrize("scale", [[1e200, 1.0], [1.0, 1e200]], ids=["first", "second"])
    def test_overflowing_variance_raises(self, rng, scale):
        """Either column's overflow raises, the second's though its pair is
        computed before its std is; r is never left empty."""
        X = rng.normal(0, 1, (30, 2)) * scale
        rows = make_rows(X, [0] * 30, ["ahr", "mhr"])
        with pytest.raises(MomentOverflow, match="mean or std overflows"):
            correlation_matrix(rows, ["ahr", "mhr"])

    def test_large_finite_values_keep_r(self, rng):
        X = rng.normal(0, 1, (30, 2))
        X[:, 1] += X[:, 0]
        small = correlation_matrix(make_rows(X, [0] * 30, ["ahr", "mhr"]), ["ahr", "mhr"])
        large = correlation_matrix(make_rows(X * 1e150, [0] * 30, ["ahr", "mhr"]), ["ahr", "mhr"])
        assert large[0, 1] == pytest.approx(small[0, 1], rel=1e-12)

    def test_symmetry_and_bounds(self, rng):
        rows = make_rows(rng.normal(0, 1, (40, 4)), [0] * 40, ["ahr", "mhr", "acc_std", "metric1"])
        r = correlation_matrix(rows, ["ahr", "mhr", "acc_std", "metric1"])
        assert np.allclose(r, r.T, equal_nan=True)
        finite = np.isfinite(r)
        assert (np.abs(r[finite]) <= 1 + 1e-12).all()

    @given(
        st.floats(0.1, 10, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_affine_invariance_and_sign_flip(self, a, b, flip):
        gen = np.random.default_rng(17)
        x = gen.normal(0, 1, 25)
        y = gen.normal(0, 1, 25) + 0.5 * x
        assume(x.std() > 1e-6 and y.std() > 1e-6)
        rows0 = make_rows(np.column_stack([x, y]), [0] * 25, ["ahr", "mhr"])
        base = correlation_matrix(rows0, ["ahr", "mhr"])[0, 1]
        scale = -a if flip else a
        rows1 = make_rows(np.column_stack([scale * x + b, y]), [0] * 25, ["ahr", "mhr"])
        transformed = correlation_matrix(rows1, ["ahr", "mhr"])[0, 1]
        expected = -base if flip else base
        assert transformed == pytest.approx(expected, abs=1e-9)


class TestFeatureCsv:
    def test_roundtrip_with_missing(self, rng, tmp_path):
        values = rng.normal(5, 2, (4, len(ALL_FEATURES)))
        # puncture one value to exercise the missing marker
        values[1, ALL_FEATURES.index("metric1")] = math.nan
        # ids that csv.writer must quote: a comma, a quote, line breaks
        ids = ("run 1, hill", 'say "hi"', "two\r\nlines", "cr\rlf\n")
        table = FeatureTable(ids, ("walking", "running", "skiing", "walking"), values)
        path = tmp_path / "features.csv"
        write_features_csv(path, table)
        back = read_features_csv(path)
        assert (back.session_id, back.activity) == (table.session_id, table.activity)
        assert back.values.tobytes() == table.values.tobytes()
        # predict carries the ids through to predict.csv
        model = LinearModel(("ahr",), Standardizer(np.zeros(1), np.ones(1)), np.ones(1), 0.0)
        save_model(model, tmp_path / "model.json")
        out = tmp_path / "predict.csv"
        assert main(["predict", "--model", str(tmp_path / "model.json"), "--features", str(path), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header[0] == "session_id"
        assert [r[0] for r in rows] == list(ids)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_cell_is_malformed(self, rng, tmp_path, cell):
        rows = make_rows(rng.normal(5, 2, (4, 2)), [0, 1, 2, 0], ["velocity", "ahr"])
        path = tmp_path / "features.csv"
        write_features_csv(path, rows)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        table[3][table[0].index("velocity_kmh")] = cell
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        with pytest.raises(MalformedRow, match=f"^data row 3: non-finite velocity_kmh {float(cell)!r}$"):
            read_features_csv(path)

    def test_repeated_session_id_is_malformed(self, rng, tmp_path):
        rows = make_rows(rng.normal(5, 2, (4, 2)), [0, 1, 2, 0], ["velocity", "ahr"])
        path = tmp_path / "features.csv"
        write_features_csv(path, rows.take([0, 1, 2, 3, 2]))
        with pytest.raises(MalformedRow, match="^data row 5: duplicate session_id 's0002'$"):
            read_features_csv(path)

    def test_correlation_csv_roundtrip(self, tmp_path, rng):
        rows = make_rows(rng.normal(0, 1, (12, 3)), [0] * 12, ["ahr", "mhr", "acc_std"])
        names = ("ahr", "mhr", "acc_std")
        r = correlation_matrix(rows, names)
        p = tmp_path / "corr.csv"
        write_correlation_csv(p, names, r)
        with open(p, newline="", encoding="utf-8") as fh:
            header, *table = csv.reader(fh)
        assert header == ["feature", *names]
        assert [row[0] for row in table] == list(names)
        back = np.array([[math.nan if t == "" else float(t) for t in row[1:]] for row in table])
        assert back.tobytes() == r.tobytes()


class TestFeatureTable:
    def test_columns_by_name(self):
        table = make_rows([[1.0, 2.0]], [0], ["ahr", "mhr"])
        assert table.columns(["mhr", "ahr"]).tolist() == [[2.0, 1.0]]
        with pytest.raises(ValueError):
            table.columns(["nope"])

    def test_columns_of_no_rows(self):
        table = make_rows(np.zeros((0, 2)), [], ["ahr", "mhr"])
        assert table.columns(["mhr", "ahr"]).shape == (0, 2)
        assert table.columns(()).shape == (0, 0)

    def test_take_keeps_order_and_repeats(self, rng):
        table = make_rows(rng.normal(0, 1, (4, 2)), [0, 1, 2, 0], ["ahr", "mhr"])
        part = table.take([2, 0, 2])
        assert part.session_id == ("s0002", "s0000", "s0002")
        assert part.activity == ("skiing", "walking", "skiing")
        assert part.values.tobytes() == table.values[[2, 0, 2]].tobytes()
        assert table.take([]).values.shape == (0, len(ALL_FEATURES))

    def test_values_are_read_only(self):
        values = np.zeros((1, len(ALL_FEATURES)))
        table = FeatureTable(["a"], ["walking"], values)
        with pytest.raises(ValueError):
            table.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.take([0]).values[0, 0] = 1.0

    @pytest.mark.parametrize(
        "ids,activity,shape",
        [(["a", "b"], ["walking"], (2, 13)), (["a"], ["walking"], (2, 13)), (["a"], ["walking"], (1, 12))],
        ids=["activity", "rows", "columns"],
    )
    def test_unequal_lengths_are_rejected(self, ids, activity, shape):
        with pytest.raises(ValueError, match="expected"):
            FeatureTable(ids, activity, np.zeros(shape))
