import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loadlens.errors import DegenerateSample, SeriesTooShort, TooFewSamples
from loadlens.ingest import Channel
from loadlens.stats import (
    BootstrapCloud,
    bootstrap,
    moments,
    sliding_windows,
    write_windows_csv,
)


def naive_moments(values):
    """Two-pass pure-Python oracle: mean first, then central sums."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = m3 = m4 = 0.0
    for x in values:
        d = x - mean
        d2 = d * d
        m2 += d2
        m3 += d2 * d
        m4 += d2 * d2
    m2, m3, m4 = m2 / n, m3 / n, m4 / n
    return mean, math.sqrt(m2), m3 / m2**1.5, m4 / (m2 * m2)


def series_of(values):
    return Channel(np.arange(len(values)) * 10, np.asarray(values, dtype=float))


class TestMoments:
    def test_one_to_five(self):
        m = moments([1, 2, 3, 4, 5])
        assert m.n == 5
        assert m.mean == 3.0
        assert m.std == math.sqrt(2.0)
        assert m.skewness == 0.0
        # m4 = (16+1+0+1+16)/5 = 6.8, m2^2 = 4 -> 1.7
        assert m.kurtosis == pytest.approx(1.7, abs=1e-15)

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateSample):
            moments([4.2, 4.2, 4.2, 4.2])

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            moments([1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            moments([1.0, 2.0, math.inf, 3.0])

    def test_normal_draws_kurtosis(self):
        x = np.random.default_rng(42).standard_normal(100_000)
        m = moments(x)
        assert abs(m.kurtosis - 3.0) < 0.1
        assert abs(m.skewness) < 0.05

    def test_matches_naive_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 500))
            x = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 5), n)
            m = moments(x)
            mean, std, skew, kurt = naive_moments([float(v) for v in x])
            assert m.mean == pytest.approx(mean, rel=1e-9)
            assert m.std == pytest.approx(std, rel=1e-9)
            assert m.skewness == pytest.approx(skew, rel=1e-9, abs=1e-9)
            assert m.kurtosis == pytest.approx(kurt, rel=1e-9)

    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=64),
        st.floats(0.1, 10, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_affine_invariance(self, values, a, b):
        arr = np.asarray(values)
        assume(arr.std() > 1e-3 * (1 + abs(arr.mean())))
        base = moments(arr)
        scaled = moments(a * arr + b)
        assert scaled.skewness == pytest.approx(base.skewness, abs=1e-9 * (1 + abs(base.skewness)))
        assert scaled.kurtosis == pytest.approx(base.kurtosis, abs=1e-9 * (1 + base.kurtosis))
        assert scaled.mean == pytest.approx(a * base.mean + b, rel=1e-9, abs=1e-9)
        assert scaled.std == pytest.approx(a * base.std, rel=1e-9)

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=64))
    @settings(max_examples=150)
    def test_sign_flip_and_pearson_inequality(self, values):
        arr = np.asarray(values)
        assume(arr.std() > 1e-3 * (1 + abs(arr.mean())))
        m = moments(arr)
        flipped = moments(-arr)
        assert flipped.skewness == pytest.approx(-m.skewness, abs=1e-9 * (1 + abs(m.skewness)))
        assert flipped.kurtosis == pytest.approx(m.kurtosis, rel=1e-9)
        assert m.kurtosis >= m.skewness**2 + 1.0 - 1e-12


class TestSlidingWindows:
    def test_offsets_10_4_3(self):
        wins = sliding_windows(series_of(range(10)), window=4, stride=3)
        assert [w.start_index for w in wins] == [0, 3, 6]

    def test_single_window_boundary(self):
        wins = sliding_windows(series_of(range(4)), window=4, stride=1)
        assert len(wins) == 1
        assert wins[0].t_start_ms == 0 and wins[0].t_end_ms == 30

    def test_count_1000_300_30(self, rng):
        # oracle: enumerate offsets directly
        n, w, s = 1000, 300, 30
        expected = len(range(0, n - w + 1, s))
        assert expected == 24
        wins = sliding_windows(series_of(rng.normal(0, 1, n)), window=w, stride=s)
        assert len(wins) == expected

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            sliding_windows(series_of(range(5)), window=6, stride=1)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            sliding_windows(series_of(range(10)), window=3, stride=1)
        with pytest.raises(ValueError):
            sliding_windows(series_of(range(10)), window=4, stride=0)
        with pytest.raises(ValueError):
            sliding_windows(Channel(np.arange(10), np.ones((10, 3))), window=4, stride=1)

    def test_degenerate_window_flagged_not_dropped(self, rng):
        values = list(rng.normal(0, 1, 8)) + [5.0] * 8 + list(rng.normal(0, 1, 8))
        wins = sliding_windows(series_of(values), window=8, stride=8)
        assert len(wins) == 3
        assert [w.degenerate for w in wins] == [False, True, False]
        assert math.isnan(wins[1].moments.skewness)
        assert wins[1].moments.mean == 5.0

    def test_window_times_and_moments(self, rng):
        values = rng.normal(0, 1, 100)
        wins = sliding_windows(series_of(values), window=10, stride=7)
        for w in wins:
            assert w.t_start_ms == 10 * w.start_index
            assert w.t_end_ms == 10 * (w.start_index + w.length - 1)
            ref = moments(values[w.start_index : w.start_index + 10])
            assert w.moments == ref


class TestBootstrap:
    def test_structural_single_resample(self):
        cloud = bootstrap([1.0, 2.0, 3.0, 4.0, 5.0], B=1, seed=11)
        assert len(cloud) == 1
        m = cloud.points[0]
        assert m.kurtosis >= m.skewness**2 + 1.0 - 1e-12

    def test_determinism(self, rng):
        x = rng.normal(0, 1, 64)
        a = bootstrap(x, B=25, seed=7)
        b = bootstrap(x, B=25, seed=7)
        assert a == b
        c = bootstrap(x, B=25, seed=8)
        assert a != c

    def test_standard_error_of_mean(self):
        # oracle: classical standard error m2^0.5 / sqrt(n)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        cloud = bootstrap(x, B=1000, seed=3)
        boot_means = np.array([p.mean for p in cloud.points])
        se = x.std() / math.sqrt(500)
        assert abs(boot_means.std() - se) / se < 0.2

    def test_validation(self):
        with pytest.raises(TooFewSamples):
            bootstrap([1.0, 2.0], B=10, seed=0)
        with pytest.raises(ValueError):
            bootstrap([1.0, 2.0, 3.0, 4.0], B=0, seed=0)


class TestWindowCsv:
    def test_export_columns_and_missing_cells(self, tmp_path, rng):
        values = list(rng.normal(0, 1, 8)) + [2.0] * 8
        wins = sliding_windows(series_of(values), window=8, stride=8)
        path = tmp_path / "windows.csv"
        write_windows_csv(path, wins)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "start_index",
            "t_start_ms",
            "t_end_ms",
            "n",
            "mean",
            "std",
            "skewness",
            "kurtosis",
            "degenerate",
        ]
        assert len(rows) == 3
        assert rows[1][-1] == "false" and rows[2][-1] == "true"
        assert rows[2][6] == "" and rows[2][7] == ""
        assert float(rows[1][4]) == wins[0].moments.mean
