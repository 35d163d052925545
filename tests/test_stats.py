import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from loadlens import ingest, stats, synth
from loadlens.errors import ConfigError, MomentOverflow, SeriesTooShort
from loadlens.ingest import Channel
from loadlens.stats import (
    DEGENERACY_EPS,
    MomentColumns,
    WindowTable,
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
    return mean, math.sqrt(m2), m3 / (m2 * math.sqrt(m2)), m4 / (m2 * m2)


@dataclass(frozen=True)
class MomentRow:
    """One sample's moments in Python floats: the per-sample record of these
    tests' references, and one row of a moment table."""

    n: int
    mean: float
    std: float
    skewness: float
    kurtosis: float

    @property
    def degenerate(self) -> bool:
        return math.isnan(self.skewness)


def reference_moments(arr) -> MomentRow:
    """One 1-D sample at a time, as before the block kernel: the bitwise
    reference for every kernel caller."""
    n = arr.size
    mean = float(arr.mean())
    d = arr - mean
    d2 = d * d
    m2 = float(d2.mean())
    m3 = float((d2 * d).mean())
    m4 = float((d2 * d2).mean())
    if m2 < DEGENERACY_EPS * (1.0 + mean * mean):
        return MomentRow(n, mean, math.sqrt(m2), math.nan, math.nan)
    return MomentRow(n, mean, math.sqrt(m2), m3 / (m2 * math.sqrt(m2)), m4 / (m2 * m2))


def reference_windows(values, t_ms, window, stride):
    """(start, t_start_ms, t_end_ms, MomentRow) of each window, one at a time."""
    return [
        (start, int(t_ms[start]), int(t_ms[start + window - 1]), reference_moments(values[start : start + window]))
        for start in range(0, len(values) - window + 1, stride)
    ]


def table_rows(table) -> list[MomentRow]:
    """The rows of a moment table, for the per-sample references."""
    cols = (table.mean, table.std, table.skewness, table.kurtosis)
    return [MomentRow(table.n, *row) for row in zip(*(c.tolist() for c in cols))]


def moments_row(values) -> MomentRow:
    """The one row of ``moments(values)``."""
    (m,) = table_rows(moments(values))
    return m


def reference_bootstrap(arr, B, seed, block_values):
    """Returns the cloud's points and the number of redrawn resamples. The
    resamples of each block of ``block_values // n`` (at least one) draw
    from ``default_rng([seed, first])``, first the block's whole draw, then
    each degenerate resample's redraws in row order; moments come one
    resample at a time."""
    n = arr.size
    step = max(1, block_values // n)
    points, redraws = [], 0
    for first in range(0, B, step):
        rng = np.random.default_rng([seed, first])
        for idx in rng.integers(0, n, size=(min(step, B - first), n)):
            m = reference_moments(arr[idx])
            while m.degenerate:
                redraws += 1
                m = reference_moments(arr[rng.integers(0, n, size=n)])
            points.append(m)
    return points, redraws


def bits(m: MomentRow) -> tuple:
    """Every field of m, floats by their exact bits (NaN equals NaN)."""
    return (m.n,) + tuple(float.hex(v) for v in (m.mean, m.std, m.skewness, m.kurtosis))


def block_values():
    """Kernel block sizes from one row per block up to the default."""
    return st.sampled_from([1, 7, 64, 1000, stats.BLOCK_VALUES])


def series_of(values):
    return Channel(np.arange(len(values)) * 10, np.asarray(values, dtype=float))


class TestMoments:
    def test_one_to_five(self):
        table = moments([1, 2, 3, 4, 5])
        assert isinstance(table, MomentColumns) and len(table) == 1
        assert table.degenerate.tolist() == [False]
        m = moments_row([1, 2, 3, 4, 5])
        assert m.n == 5
        assert m.mean == 3.0
        assert m.std == math.sqrt(2.0)
        assert m.skewness == 0.0
        # m4 = (16+1+0+1+16)/5 = 6.8, m2^2 = 4 -> 1.7
        assert m.kurtosis == pytest.approx(1.7, abs=1e-15)

    def test_constant_sample_degenerate(self):
        m = moments_row([4.2, 4.2, 4.2, 4.2])
        assert m.degenerate
        assert math.isnan(m.skewness) and math.isnan(m.kurtosis)
        assert m.n == 4 and m.mean == pytest.approx(4.2, rel=1e-15) and m.std < 1e-15

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.integers(4, 3000),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-12, 1e-9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_degenerate_mean_and_std_are_numpys(self, level, n, seed, jitter):
        # features.extract_features reads mean and std of a degenerate accel
        # channel from moments(); they must be the bits numpy gives.
        x = level + jitter * np.random.default_rng(seed).standard_normal(n)
        m = moments_row(x)
        assert m.degenerate
        assert float.hex(m.mean) == float.hex(float(x.mean()))
        assert float.hex(m.std) == float.hex(float(x.std()))

    def test_too_few(self):
        with pytest.raises(ValueError, match="need at least 4 samples, got 3"):
            moments([1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            moments([1.0, 2.0, math.inf, 3.0])

    def test_normal_draws_kurtosis(self):
        x = np.random.default_rng(42).standard_normal(100_000)
        m = moments_row(x)
        assert abs(m.kurtosis - 3.0) < 0.1
        assert abs(m.skewness) < 0.05

    def test_matches_naive_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 500))
            x = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 5), n)
            m = moments_row(x)
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
        base = moments_row(arr)
        scaled = moments_row(a * arr + b)
        assert scaled.skewness == pytest.approx(base.skewness, abs=1e-9 * (1 + abs(base.skewness)))
        assert scaled.kurtosis == pytest.approx(base.kurtosis, abs=1e-9 * (1 + base.kurtosis))
        assert scaled.mean == pytest.approx(a * base.mean + b, rel=1e-9, abs=1e-9)
        assert scaled.std == pytest.approx(a * base.std, rel=1e-9)

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=64))
    @settings(max_examples=150)
    def test_sign_flip_and_pearson_inequality(self, values):
        arr = np.asarray(values)
        assume(arr.std() > 1e-3 * (1 + abs(arr.mean())))
        m = moments_row(arr)
        flipped = moments_row(-arr)
        assert flipped.skewness == pytest.approx(-m.skewness, abs=1e-9 * (1 + abs(m.skewness)))
        assert flipped.kurtosis == pytest.approx(m.kurtosis, rel=1e-9)
        assert m.kurtosis >= m.skewness**2 + 1.0 - 1e-12


class TestSlidingWindows:
    def test_offsets_10_4_3(self):
        wins = sliding_windows(series_of(range(10)), window=4, stride=3)
        assert wins.start.tolist() == [0, 3, 6]

    def test_single_window_boundary(self):
        wins = sliding_windows(series_of(range(4)), window=4, stride=1)
        assert len(wins) == 1
        assert wins.t_start_ms.tolist() == [0] and wins.t_end_ms.tolist() == [30]
        assert wins.t_mid_ms.tolist() == [15]

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
        with pytest.raises(ConfigError, match="window must be >= 4"):
            sliding_windows(series_of(range(10)), window=3, stride=1)
        with pytest.raises(ConfigError, match="stride must be >= 1"):
            sliding_windows(series_of(range(10)), window=4, stride=0)
        with pytest.raises(ValueError):
            sliding_windows(Channel(np.arange(10), np.ones((10, 3))), window=4, stride=1)

    def test_degenerate_window_flagged_not_dropped(self, rng):
        values = list(rng.normal(0, 1, 8)) + [5.0] * 8 + list(rng.normal(0, 1, 8))
        wins = sliding_windows(series_of(values), window=8, stride=8)
        assert len(wins) == 3
        assert wins.degenerate.tolist() == [False, True, False]
        assert math.isnan(wins.skewness[1]) and math.isnan(wins.kurtosis[1])
        assert wins.mean[1] == 5.0

    def test_window_times_and_moments(self, rng):
        values = rng.normal(0, 1, 100)
        wins = sliding_windows(series_of(values), window=10, stride=7)
        assert wins.n == 10
        for start, t0, t1, m in zip(wins.start.tolist(), wins.t_start_ms, wins.t_end_ms, table_rows(wins)):
            assert t0 == 10 * start
            assert t1 == 10 * (start + wins.n - 1)
            assert m == moments_row(values[start : start + 10])

    def test_columns_are_typed_and_read_only(self, rng):
        wins = sliding_windows(series_of(rng.normal(0, 1, 50)), window=8, stride=3)
        assert isinstance(wins, WindowTable) and isinstance(wins, MomentColumns)
        for col in (wins.start, wins.t_start_ms, wins.t_end_ms):
            assert col.dtype == np.int64 and col.shape == (len(wins),)
        for col in (wins.mean, wins.std, wins.skewness, wins.kurtosis):
            assert col.dtype == np.float64 and col.shape == (len(wins),)
            with pytest.raises(ValueError):
                col[0] = 0.0

    def test_midpoint_does_not_overflow(self):
        t = np.array([2**62, 2**62 + 1, 2**63 - 3, 2**63 - 1], dtype=np.int64)
        wins = sliding_windows(Channel(t, [1.0, 2.0, 4.0, 8.0]), window=4, stride=1)
        assert wins.t_mid_ms.tolist() == [(2**62 + 2**63 - 1) // 2]


class TestKernelBits:
    """The block kernel gives the bits of one 1-D reduction per sample."""

    @given(
        st.integers(4, 20_000),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal", "lognormal", "integers"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_one_dimensional(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            x = rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(1e-3, 1e2), (3, n))
        elif kind == "lognormal":
            x = rng.lognormal(0.0, 2.0, (3, n))
        else:
            x = rng.integers(0, 3, (3, n)).astype(float)
        rows = table_rows(MomentColumns(n, *stats._block_moments(x)))
        assert [bits(m) for m in rows] == [bits(reference_moments(x[i].copy())) for i in range(3)]
        assert bits(moments_row(x[0])) == bits(rows[0])

    def test_long_rows_past_the_buffer_size(self):
        x = np.random.default_rng(1).lognormal(0.0, 1.5, 70_001)
        assert bits(moments_row(x)) == bits(reference_moments(x))


def exact_shapes(values, window):
    """The correctly rounded (skewness^2, kurtosis) of each stride-1 window
    of whole-number values: with the power sums S_r of a window of n
    values, n^r times its r-th central moment is an integer a_r, and
    s = a3^2 / a2^3, k = a4 / a2^2. The sums come from int64 prefix sums
    (exact while len(values) * max(values)^4 fits int64), their products
    are Python ints, and ``float(Fraction(...))`` rounds once."""
    xi = values.astype(np.int64)
    assert (xi == values).all() and len(xi) * int(xi.max()) ** 4 < 2**63
    sums = [np.concatenate([[0], np.cumsum(xi**r)]).tolist() for r in (1, 2, 3, 4)]
    n = window
    for i in range(len(xi) - n + 1):
        s1, s2, s3, s4 = (c[i + n] - c[i] for c in sums)
        a2 = n * s2 - s1 * s1
        a3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
        a4 = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
        yield float(Fraction(a3 * a3, a2**3)), float(Fraction(a4, a2 * a2))


class TestExactMoments:
    """The kernel against exact moments, on the 2,218 rr windows (300 beats,
    stride 1) of the ``staircase`` and ``rest`` presets, seeds 0-3. Bound:
    kurtosis within 16 ulp of the exact k, and the plane coordinate
    s = skewness^2 within 8 * eps * k of the exact s. Measured: 10 ulp
    and 6.854 * eps * k with skewness m3 / m2**1.5, 10 ulp and
    6.895 * eps * k with m3 / (m2 * sqrt(m2)). The error of s comes from
    the cancellation in m3, not from the power. Errors depend on each
    window's conditioning, so the bound holds for this fixed set, not for
    any data."""

    def test_windows_within_the_bound(self):
        eps = np.finfo(float).eps
        count = worst_k = worst_s = 0
        for preset in ("staircase", "rest"):
            for seed in range(4):
                rr = synth.gen_rr(synth.PROTOCOL_PRESETS[preset], synth.GenConfig(seed=seed))
                wins = sliding_windows(rr, 300, 1)
                got = zip(wins.skewness.tolist(), wins.kurtosis.tolist())
                for (g1, k), (s_exact, k_exact) in zip(got, exact_shapes(rr.values, 300), strict=True):
                    worst_k = max(worst_k, abs(k - k_exact) / math.ulp(k_exact))
                    worst_s = max(worst_s, abs(g1 * g1 - s_exact) / (eps * k_exact))
                    count += 1
        assert count == 2218
        assert worst_k <= 16 and worst_s <= 8, (worst_k, worst_s)


class TestMomentOverflow:
    """A central moment beyond float64 raises instead of yielding inf/NaN
    statistics that look like data."""

    BIG = np.random.default_rng(0).uniform(1e79, 3e80, 40)

    def test_every_kernel_caller_raises(self, recwarn):
        with pytest.raises(MomentOverflow):
            moments(self.BIG)
        with pytest.raises(MomentOverflow):
            sliding_windows(series_of(self.BIG), window=20, stride=5)
        with pytest.raises(MomentOverflow):
            bootstrap(self.BIG, 10, 0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_large_values_below_the_limit_are_finite(self):
        m = moments_row(self.BIG * 1e-5)
        assert all(math.isfinite(v) for v in (m.mean, m.std, m.skewness, m.kurtosis))


@st.composite
def channels_with_flat_runs(draw):
    """Values with an optional constant run (degenerate windows) on a
    strictly increasing clock."""
    n = draw(st.integers(4, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(800.0, draw(st.sampled_from([1e-3, 1.0, 50.0])), n)
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        values[start : start + draw(st.integers(1, n))] = draw(st.sampled_from([0.0, 750.0, -3.5]))
    t_ms = np.cumsum(rng.integers(1, 2000, n))
    return t_ms, values


class TestWindowBits:
    @given(channels_with_flat_runs(), st.integers(4, 120), st.integers(1, 40), block_values())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_equal_to_per_window_reference(self, channel, window, stride, block):
        t_ms, values = channel
        assume(window <= len(values))
        with mock.patch.object(stats, "BLOCK_VALUES", block):
            got = sliding_windows(Channel(t_ms, values), window, stride)
        want = reference_windows(values, t_ms, window, stride)
        assert got.n == window
        assert list(zip(got.start.tolist(), got.t_start_ms.tolist(), got.t_end_ms.tolist(), got.degenerate.tolist())) == [
            (start, t0, t1, m.degenerate) for start, t0, t1, m in want
        ]
        assert [bits(m) for m in table_rows(got)] == [bits(m) for *_, m in want]


#: Seeds of one to seven 32-bit words.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**200)


def seeds():
    return st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**200))


class TestBootstrapBits:
    @given(
        st.integers(4, 400),
        st.integers(1, 300),
        seeds(),
        st.booleans(),
        block_values(),
    )
    @example(50, 20, 2**200, False, stats.BLOCK_VALUES)
    @example(300, 30, 7, True, 1)
    @example(40, 25, 1, False, 7)
    @example(9, 50, 2**64 + 5, True, 64)
    @example(12, 300, 0, True, 1000)
    @settings(max_examples=40, deadline=None)
    def test_equal_to_per_resample_reference(self, n, B, seed, mostly_constant, block):
        rng = np.random.default_rng(seed)
        if mostly_constant:
            x = np.full(n, 3.0)
            x[rng.integers(0, n)] = 4.0
        else:
            x = rng.normal(0.0, 1.0, n)
        with mock.patch.object(stats, "BLOCK_VALUES", block):
            cloud = bootstrap(x, B, seed)
        want, _ = reference_bootstrap(x, B, seed, block)
        assert len(cloud) == B
        assert [bits(m) for m in table_rows(cloud)] == [bits(m) for m in want]

    def test_redraws_come_from_the_resample_stream(self):
        x = np.array([3.0, 3.0, 3.0, 4.0])
        for seed in (5, 2**200 + 5):
            for block in (1, 4, 12, stats.BLOCK_VALUES):
                want, redraws = reference_bootstrap(x, 200, seed, block)
                assert redraws > 20
                with mock.patch.object(stats, "BLOCK_VALUES", block):
                    assert [bits(m) for m in table_rows(bootstrap(x, 200, seed))] == [bits(m) for m in want]


class TestBootstrap:
    def test_structural_single_resample(self):
        cloud = bootstrap([1.0, 2.0, 3.0, 4.0, 5.0], B=1, seed=11)
        assert len(cloud) == 1
        (m,) = table_rows(cloud)
        assert m.kurtosis >= m.skewness**2 + 1.0 - 1e-12

    def test_determinism(self, rng):
        x = rng.normal(0, 1, 64)
        a = table_rows(bootstrap(x, B=25, seed=7))
        b = table_rows(bootstrap(x, B=25, seed=7))
        assert [bits(m) for m in a] == [bits(m) for m in b]
        c = table_rows(bootstrap(x, B=25, seed=8))
        assert [bits(m) for m in a] != [bits(m) for m in c]

    def test_standard_error_of_mean(self):
        # oracle: classical standard error m2^0.5 / sqrt(n)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        cloud = bootstrap(x, B=1000, seed=3)
        boot_means = cloud.mean
        se = x.std() / math.sqrt(500)
        assert abs(boot_means.std() - se) / se < 0.2

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least 4 samples, got 2"):
            bootstrap([1.0, 2.0], B=10, seed=0)
        with pytest.raises(ValueError):
            bootstrap([1.0, 2.0, 3.0, 4.0], B=0, seed=0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            bootstrap([1.0, 2.0, 3.0, 4.0], B=1, seed=-1)

    def test_degenerate_sample_is_config_error(self):
        """Every resample of a constant sample is constant: the redraws
        would never end. The error comes before any generator is made."""
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("a generator was made")):
            with pytest.raises(ConfigError, match="zero variance"):
                bootstrap([800.0] * 6, B=5, seed=0)


class TestWindowCsv:
    def test_export_columns_and_missing_cells(self, tmp_path, rng):
        values = list(rng.normal(0, 1, 8)) + [2.0] * 8
        wins = sliding_windows(series_of(values), window=8, stride=8)
        path = tmp_path / "windows.csv"
        write_windows_csv(path, wins)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["start_index", "t_start_ms", "t_end_ms", "mean", "std", "skewness", "kurtosis"]
        assert len(rows) == 3
        assert rows[1][5] != "" and rows[1][6] != ""
        assert rows[2][5] == "" and rows[2][6] == ""
        assert float(rows[1][3]) == wins.mean[0]

    @pytest.mark.parametrize("chunk", [1, 4, 5, ingest.CHUNK_ROWS])
    def test_table_spanning_several_chunks(self, tmp_path, rng, chunk):
        values = np.concatenate([rng.normal(0, 1, 40), np.full(20, 2.0), rng.lognormal(0, 1, 40)])
        wins = sliding_windows(series_of(values), window=8, stride=3)
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
            write_windows_csv(tmp_path / "w.csv", wins)
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(stats.WINDOW_CSV_HEADER)
        for start, t0, t1, m in zip(wins.start.tolist(), wins.t_start_ms.tolist(), wins.t_end_ms.tolist(), table_rows(wins)):
            shape = ["", ""] if m.degenerate else [repr(m.skewness), repr(m.kurtosis)]
            w.writerow([start, t0, t1, repr(m.mean), repr(m.std)] + shape)
        assert wins.degenerate.sum() > 0
        assert (tmp_path / "w.csv").read_bytes() == ref.getvalue().encode()
