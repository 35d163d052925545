import csv
import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loadlens.errors import (
    EmptyFile,
    InvalidRr,
    MalformedRow,
    NonMonotonicTime,
    ParseError,
    UnknownLabel,
)
from loadlens import ingest, manifest
from loadlens.features import extract_features
from loadlens.ingest import (
    DEFAULT_ACTIVITIES,
    Channel,
    SessionMeta,
    accel_magnitude,
    parse_accel_csv,
    parse_rr_csv,
    parse_sessions_csv,
    write_accel_csv,
    write_rr_csv,
    write_sessions_csv,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


#: Rows per block of the channel readers, fault check and writers: boundaries
#: between most rows, and the default. A property draws one per example.
_blocks = st.sampled_from([1, 3, ingest.CHUNK_ROWS])


def _accel(rows):
    """Tri-axial channel from (t_ms, ax, ay, az) tuples."""
    return Channel(np.array([r[0] for r in rows], dtype=np.int64), np.array([r[1:] for r in rows], dtype=float))


def assert_same_channel(a, b):
    """Equal times and bitwise-equal values (so -0.0 differs from 0.0)."""
    assert a.t_ms.dtype == b.t_ms.dtype == np.int64
    assert a.values.dtype == b.values.dtype == np.float64
    assert np.array_equal(a.t_ms, b.t_ms)
    assert a.values.shape == b.values.shape
    assert a.values.tobytes() == b.values.tobytes()


class TestParseAccel:
    def test_gravity_rest_rows(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t_ms,ax,ay,az\n0,0,0,9.81\n10,0,0,9.81\n")
        samples = parse_accel_csv(p)
        assert len(samples) == 2
        assert samples.values.shape == (2, 3)
        mags = accel_magnitude(samples)
        assert mags.values.tolist() == [9.81, 9.81]
        assert mags.t_ms.tolist() == [0, 10]

    def test_duplicate_timestamp_row_number(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t_ms,ax,ay,az\n0,0,0,1\n10,0,0,1\n10,0,0,1\n")
        with pytest.raises(NonMonotonicTime) as ei:
            parse_accel_csv(p)
        assert ei.value.row == 3

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            parse_accel_csv(_write(tmp_path / "e.csv", ""))
        with pytest.raises(EmptyFile):
            parse_accel_csv(_write(tmp_path / "h.csv", "t_ms,ax,ay,az\n"))

    def test_malformed_rows(self, tmp_path):
        with pytest.raises(MalformedRow) as ei:
            parse_accel_csv(_write(tmp_path / "b.csv", "t_ms,ax,ay,az\n0,a,0,0\n"))
        assert ei.value.row == 1
        with pytest.raises(MalformedRow):
            parse_accel_csv(_write(tmp_path / "c.csv", "t_ms,ax,ay,az\n0,1,2\n"))
        with pytest.raises(MalformedRow):
            parse_accel_csv(_write(tmp_path / "d.csv", "wrong,header,x,y\n0,1,2,3\n"))
        with pytest.raises(MalformedRow):
            parse_accel_csv(_write(tmp_path / "f.csv", "t_ms,ax,ay,az\n-5,1,2,3\n"))
        with pytest.raises(MalformedRow):
            parse_accel_csv(_write(tmp_path / "g.csv", "t_ms,ax,ay,az\n0,nan,2,3\n"))


class TestParseRr:
    def test_single_row(self, tmp_path):
        p = _write(tmp_path / "rr.csv", "t_ms,rr_ms\n0,800.0\n")
        samples = parse_rr_csv(p)
        assert samples.t_ms.tolist() == [0]
        assert samples.values.tolist() == [800.0]

    def test_negative_rr(self, tmp_path):
        with pytest.raises(InvalidRr) as ei:
            parse_rr_csv(_write(tmp_path / "rr.csv", "t_ms,rr_ms\n0,-5\n"))
        assert ei.value.row == 1

    def test_nan_rr(self, tmp_path):
        with pytest.raises(InvalidRr):
            parse_rr_csv(_write(tmp_path / "rr.csv", "t_ms,rr_ms\n0,nan\n"))


class TestSessions:
    def test_roundtrip(self, tmp_path):
        metas = [
            SessionMeta("w001", "walking", 3.5, 40.0, "w001_a.csv", "w001_r.csv"),
            SessionMeta("r001", "running", 10.0, 55.0, "r001_a.csv", "r001_r.csv"),
        ]
        p = tmp_path / "sessions.csv"
        write_sessions_csv(p, metas)
        assert parse_sessions_csv(p) == metas

    def test_unknown_label(self, tmp_path):
        p = _write(
            tmp_path / "s.csv",
            "session_id,activity,distance_km,duration_min,accel_file,rr_file\n"
            "x,flying,1.0,10.0,a.csv,r.csv\n",
        )
        with pytest.raises(UnknownLabel):
            parse_sessions_csv(p)

    def test_bad_duration(self, tmp_path):
        p = _write(
            tmp_path / "s.csv",
            "session_id,activity,distance_km,duration_min,accel_file,rr_file\n"
            "x,walking,1.0,0,a.csv,r.csv\n",
        )
        with pytest.raises(MalformedRow):
            parse_sessions_csv(p)

    def test_meta_invariants(self):
        with pytest.raises(ValueError):
            SessionMeta("x", "walking", -1.0, 10.0)
        with pytest.raises(ValueError):
            SessionMeta("x", "walking", 1.0, 0.0)
        for args in ((" x", "walking"), ("x", "walking\n"), ("x", "walking", "a.csv\t"), ("x", "walking", "a.csv", "\u3000r.csv")):
            with pytest.raises(ValueError, match="white space"):
                SessionMeta(args[0], args[1], 1.0, 10.0, *args[2:])

    def test_duplicate_session_id(self, tmp_path):
        p = _write(
            tmp_path / "s.csv",
            "session_id,activity,distance_km,duration_min,accel_file,rr_file\n"
            "w1,walking,1.0,10.0,a.csv,r.csv\n"
            "r1,running,5.0,30.0,b.csv,q.csv\n"
            " w1 ,skiing,9.0,40.0,c.csv,s.csv\n",
        )
        with pytest.raises(MalformedRow) as ei:
            parse_sessions_csv(p)
        assert ei.value.row == 3
        assert "duplicate session_id 'w1'" in str(ei.value)


class TestMagnitude:
    def test_three_four_five(self):
        mags = accel_magnitude(_accel([(0, 3.0, 4.0, 0.0)]))
        assert mags.values.tolist() == [5.0]

    def test_center_constant_is_zero(self):
        samples = _accel([(t, 0.0, 0.0, 9.81) for t in range(0, 50, 10)])
        mags = accel_magnitude(samples, center=True)
        assert all(v == 0.0 for v in mags.values)

    def test_centered_mean_is_zero(self, rng):
        samples = Channel(np.arange(100) * 10, rng.normal(0, 2, (100, 3)))
        centered = accel_magnitude(samples, center=True)
        # oracle: direct mean of the output
        assert abs(math.fsum(centered.values.tolist()) / 100) < 1e-12

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            accel_magnitude(Channel(np.zeros(0, dtype=np.int64), np.zeros((0, 3))))

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        ),
        st.permutations([0, 1, 2]),
    )
    def test_axis_permutation_invariance(self, triples, perm):
        base = _accel([(i, *t) for i, t in enumerate(triples)])
        permuted = _accel([(i, t[perm[0]], t[perm[1]], t[perm[2]]) for i, t in enumerate(triples)])
        for a, b in zip(accel_magnitude(base).values, accel_magnitude(permuted).values):
            assert a == pytest.approx(b, rel=1e-12)


class TestChannel:
    def test_invariants_hold_on_valid_input(self):
        ch = Channel([0, 5, 9], [1.0, -0.0, 2.5])
        assert len(ch) == 3
        assert ch.t_ms.dtype == np.int64 and ch.values.dtype == np.float64
        with pytest.raises(ValueError):
            ch.values[0] = 3.0  # read-only

    def test_caller_array_stays_writable(self):
        t = np.arange(4, dtype=np.int64)
        Channel(t, np.ones(4))
        t[0] = 0  # only the channel's own view is read-only

    @given(st.integers(1, 30), _blocks, st.data())
    def test_rejects_nan_and_infinite_values(self, n, block, data):
        values = np.ones((n, 3)) if data.draw(st.booleans()) else np.ones(n)
        i = data.draw(st.integers(0, n - 1))
        values.flat[i * (values.size // n)] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with mock.patch.object(ingest, "CHUNK_ROWS", block):
            with pytest.raises(ValueError, match=f"non-finite value at row {i + 1}"):
                Channel(np.arange(n) * 10, values)

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=30, unique=True), _blocks, st.data())
    def test_rejects_non_monotonic_times(self, times, block, data):
        times = sorted(times)
        i = data.draw(st.integers(1, len(times) - 1))
        times[i] = times[i - 1] - data.draw(st.integers(0, 3))
        assume(times[i] >= 0)
        with mock.patch.object(ingest, "CHUNK_ROWS", block):
            with pytest.raises(ValueError, match=f"t_ms not strictly increasing at row {i + 1}"):
                Channel(times, np.zeros(len(times)))

    def test_rejects_bad_shapes_and_types(self):
        with pytest.raises(ValueError, match="negative t_ms at row 1"):
            Channel([-1, 3], [1.0, 2.0])
        with pytest.raises(ValueError):
            Channel([0, 1], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Channel([0, 1], np.ones((2, 2)))
        with pytest.raises(TypeError):
            Channel([0.0, 1.0], [1.0, 2.0])


def _times():
    """Strictly increasing t_ms lists, some straddling 2**53 (where a float
    would no longer hold every integer)."""
    near = st.integers(2**53 - 64, 2**53 + 64)
    return st.lists(st.one_of(st.integers(0, 10**6), near), min_size=1, max_size=25, unique=True).map(sorted)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_edge_values = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])


def _round_trip(write, parse, channel):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ch.csv")
        write(path, channel)
        return parse(path)


def _parse_text(parse, text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ch.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return parse(path)


#: Cell text the sessions.csv writer must quote or escape, mixed with any
#: character UTF-8 can encode (so no lone surrogate). Inner white space
#: stays; outer white space is what SessionMeta rejects.
_cell_text = st.text(
    st.one_of(st.sampled_from(',"\'\r\n \t;é日\ufeff\u3000'), st.characters(exclude_categories=["Cs"]))
).map(str.strip)
_distance = st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False))
#: SessionMeta arguments: (session_id, activity, distance_km, duration_min, accel_file, rr_file).
_session_args = st.tuples(_cell_text, st.sampled_from(DEFAULT_ACTIVITIES), _distance, _positive, _cell_text, _cell_text)
#: Every character ``str.strip`` removes (U+3000 is the highest).
_white_space = st.text(st.sampled_from([c for c in map(chr, range(0x3001)) if c.isspace()]), min_size=1)


def _float_bits(metas) -> list[bytes]:
    return [struct.pack("<dd", m.distance_km, m.duration_min) for m in metas]


class TestSessionsCsvProperties:
    @given(st.lists(_session_args, min_size=1, max_size=8, unique_by=lambda args: args[0]))
    def test_round_trip_keeps_text_and_float_bits(self, drawn):
        metas = [SessionMeta(*args) for args in drawn]
        parsed = _round_trip(write_sessions_csv, parse_sessions_csv, metas)
        assert parsed == metas
        assert _float_bits(parsed) == _float_bits(metas)

    @given(_session_args, st.sampled_from([0, 1, 4, 5]), _white_space, st.sampled_from(["lead", "trail", "both"]))
    def test_outer_white_space_is_rejected(self, args, field, pad, side):
        """The stripping parser could not give such text back."""
        args = list(args)
        text = args[field]
        args[field] = pad + text + pad if side == "both" else (pad + text if side == "lead" else text + pad)
        with pytest.raises(ValueError, match="white space"):
            SessionMeta(*args)


#: name -> (header, parser, row text of (t, value list))
_FORMATS = {
    "accel": ("t_ms,ax,ay,az", parse_accel_csv, lambda t, v: ",".join([str(t)] + [repr(x) for x in v])),
    "rr": ("t_ms,rr_ms", parse_rr_csv, lambda t, v: f"{t},{v[0]!r}"),
}

#: fault -> {format: expected error class}; each fault breaks one row.
_FAULTS = {
    "bad_text": {"accel": MalformedRow, "rr": MalformedRow},
    "non_integer_t": {"accel": MalformedRow, "rr": MalformedRow},
    "negative_t": {"accel": MalformedRow, "rr": MalformedRow},
    "non_monotonic_t": {"accel": NonMonotonicTime, "rr": NonMonotonicTime},
    "non_finite": {"accel": MalformedRow, "rr": InvalidRr},
    "rr_not_positive": {"rr": InvalidRr},
    "field_count": {"accel": MalformedRow, "rr": MalformedRow},
}


def _inject(fault, fields, prev_t, data):
    """Break one row (a list of field texts) in the named way."""
    fields = list(fields)
    col = data.draw(st.integers(1, len(fields) - 1))
    if fault == "bad_text":
        fields[col] = data.draw(st.sampled_from(["abc", "", "1.2.3", "0x10"]))
    elif fault == "non_integer_t":
        fields[0] = data.draw(st.sampled_from(["1.0", "1e3", "7.5", "nan"]))
    elif fault == "negative_t":
        fields[0] = str(-data.draw(st.integers(1, 10**6)))
    elif fault == "non_monotonic_t":
        fields[0] = str(prev_t - data.draw(st.integers(0, min(prev_t, 5))))
    elif fault == "non_finite":
        fields[col] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "NaN"]))
    elif fault == "rr_not_positive":
        fields[1] = data.draw(st.sampled_from(["0", "-0.0", "-1.5", "-5e-324"]))
    else:
        fields = fields[:-1] if data.draw(st.booleans()) else fields + ["1"]
    return fields


class TestChannelCsvProperties:
    @given(_times(), _blocks, st.data())
    def test_accel_round_trip_is_bitwise(self, times, block, data):
        row = st.tuples(*[st.one_of(_finite, _edge_values)] * 3)
        values = data.draw(st.lists(row, min_size=len(times), max_size=len(times)))
        ch = Channel(times, values)
        with mock.patch.object(ingest, "CHUNK_ROWS", block):
            assert_same_channel(_round_trip(write_accel_csv, parse_accel_csv, ch), ch)

    @given(_times(), _blocks, st.data())
    def test_rr_round_trip_is_bitwise(self, times, block, data):
        values = data.draw(st.lists(st.one_of(_positive, st.just(5e-324)), min_size=len(times), max_size=len(times)))
        ch = Channel(times, values)
        with mock.patch.object(ingest, "CHUNK_ROWS", block):
            assert_same_channel(_round_trip(write_rr_csv, parse_rr_csv, ch), ch)

    def test_writer_bytes(self, tmp_path):
        p = tmp_path / "a.csv"
        write_accel_csv(p, _accel([(0, -0.0, 5e-324, 9.81), (2**53 + 1, 1e16, 0.1, -2.5)]))
        assert p.read_bytes() == (
            b"t_ms,ax,ay,az\r\n0,-0.0,5e-324,9.81\r\n9007199254740993,1e+16,0.1,-2.5\r\n"
        )

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(_FORMATS)), st.sampled_from(sorted(_FAULTS)), st.integers(2, 12), _blocks, st.data())
    def test_single_fault_class_and_row(self, fmt, fault, n, block, data):
        assume(fmt in _FAULTS[fault])
        header, parse, row_text = _FORMATS[fmt]
        rows = [row_text(10 * i, [1.5] * (3 if fmt == "accel" else 1)).split(",") for i in range(n)]
        r = data.draw(st.integers(1 if fault == "non_monotonic_t" else 0, n - 1))
        rows[r] = _inject(fault, rows[r], 10 * (r - 1), data)
        text = header + "\n" + "".join(",".join(f) + "\n" for f in rows)
        with mock.patch.object(ingest, "CHUNK_ROWS", block), pytest.raises(_FAULTS[fault][fmt]) as ei:
            _parse_text(parse, text)
        assert ei.value.row == r + 1
        # a valid row only float() reads sends the file to the field-by-field
        # parser, which must report the same fault in the same words
        underscored = row_text(10 * n, [1.5] * (3 if fmt == "accel" else 1)).replace("1.5", "1_0.5", 1)
        with mock.patch.object(ingest, "CHUNK_ROWS", block), pytest.raises(type(ei.value)) as fallback:
            _parse_text(parse, text + underscored + "\n")
        assert (fallback.value.row, str(fallback.value)) == (ei.value.row, str(ei.value))

    @settings(max_examples=100)
    @given(st.sampled_from(sorted(_FORMATS)), _blocks, st.data())
    def test_two_faults_lower_row_wins(self, fmt, block, data):
        header, parse, row_text = _FORMATS[fmt]
        n = data.draw(st.integers(3, 12))
        rows = [row_text(10 * i, [2.0] * (3 if fmt == "accel" else 1)).split(",") for i in range(n)]
        faults = [f for f in sorted(_FAULTS) if fmt in _FAULTS[f]]
        r1, r2 = sorted(data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True)))
        f1, f2 = data.draw(st.sampled_from(faults)), data.draw(st.sampled_from(faults))
        rows[r2] = _inject(f2, rows[r2], 10 * (r2 - 1), data)
        rows[r1] = _inject(f1, rows[r1], 10 * (r1 - 1), data)
        with mock.patch.object(ingest, "CHUNK_ROWS", block), pytest.raises(_FAULTS[f1][fmt]) as ei:
            _parse_text(parse, header + "\n" + "".join(",".join(f) + "\n" for f in rows))
        assert ei.value.row == r1 + 1

    @given(st.sampled_from(sorted(_FORMATS)), _times(), _blocks, st.data())
    def test_quoted_fields_and_blank_lines(self, fmt, times, block, data):
        header, parse, row_text = _FORMATS[fmt]
        width = 3 if fmt == "accel" else 1
        row = st.lists(_positive, min_size=width, max_size=width)
        values = data.draw(st.lists(row, min_size=len(times), max_size=len(times)))
        plain, decorated = [header], [header]
        for t, v in zip(times, values):
            fields = row_text(t, v).split(",")
            plain.append(",".join(fields))
            quoted = [f'"{f}"' if data.draw(st.booleans()) else f for f in fields]
            decorated.append("\n" * data.draw(st.integers(0, 2)) + ",".join(quoted))
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        with mock.patch.object(ingest, "CHUNK_ROWS", block):
            a = _parse_text(parse, end.join(plain) + end)
            b = _parse_text(parse, end.join(decorated) + end + end)
        assert_same_channel(a, b)

    def test_python_number_syntax_still_parses(self, tmp_path):
        # int()/float() accept underscores; np.loadtxt does not, so these rows
        # go through the field-by-field parser with the same result.
        ch = parse_rr_csv(_write(tmp_path / "u.csv", "t_ms,rr_ms\n1_000,8_00.5\n"))
        assert ch.t_ms.tolist() == [1000] and ch.values.tolist() == [800.5]

    @pytest.mark.parametrize("text", ["0,\x1c3\n", "0,\u01fe3\n", "\u01fe3,800\n"])
    def test_characters_loadtxt_would_misread(self, tmp_path, text):
        # np.loadtxt skips \x1c as whitespace and reads some non-ASCII letters
        # as digits; float()/int() reject both.
        with pytest.raises(MalformedRow) as ei:
            parse_rr_csv(_write(tmp_path / "x.csv", "t_ms,rr_ms\n" + text))
        assert ei.value.row == 1

    def test_bom_header(self, tmp_path):
        ch = parse_rr_csv(_write(tmp_path / "b.csv", "\ufefft_ms,rr_ms\r\n0,800.0\r\n"))
        assert ch.values.tolist() == [800.0]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("t_ms,\rrr_ms\n0,800.5\n10,801.5\n", (MalformedRow, 0, "data row 0: expected header t_ms,rr_ms")),
            ("t_ms,rr_ms\r\r\n0,800.5\n10,801.5\n", ([0, 10], [800.5, 801.5])),
            ('"t_ms","rr_ms"\n0,800.5\n10,801.5\n', ([0, 10], [800.5, 801.5])),
            (" t_ms , rr_ms \n0,800.5\n", ([0], [800.5])),
            ("t_ms" + " " * 131_068 + ",rr_ms\n0,800.5\n", ([0], [800.5])),
            ("t_ms" + " " * 131_069 + ",rr_ms\n0,800.5\n", (ParseError, None, "{path}: field larger than field limit (131072)")),
        ],
        ids=["cr_in_line", "cr_cr_lf", "quoted", "spaced", "field_at_csv_limit", "field_beyond_csv_limit"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_header_line_reads_as_the_csv_module_reads_it(self, tmp_path, monkeypatch, text, expected, workers):
        """The byte scan takes a header line only where the csv module reads
        the same names from it: a ``\\r`` anywhere but just before the
        ``\\n``, quotes, or a field longer than the csv module's limit send
        the file to the field-by-field parser. In one process or split, each
        file gives its columns or its error."""
        monkeypatch.setattr(manifest, "SPLIT_ROWS", 1)
        path = _write(tmp_path / "h.csv", text)
        result, _ = _read_in(workers, parse_rr_csv, path)
        if isinstance(result, Channel):
            result = (result.t_ms.tolist(), result.values.tolist())
        if len(expected) == 3:
            expected = (*expected[:2], expected[2].format(path=path))
        assert result == expected


def _rr_row(t, value="800.5"):
    return f"{t},{value}"


def _accel_row(t, value="0.5"):
    return f"{t},1.5,{value},-2.5"


#: fault -> (row text from (row function, previous t), {format: error class}).
_BOUNDARY_FAULTS = {
    "non_finite": (lambda row, prev_t: row(prev_t + 10, "nan"), {"accel": MalformedRow, "rr": InvalidRr}),
    "bad_text": (lambda row, prev_t: row(prev_t + 10, "abc"), {"accel": MalformedRow, "rr": MalformedRow}),
    "order": (lambda row, prev_t: row(prev_t), {"accel": NonMonotonicTime, "rr": NonMonotonicTime}),
    "negative_t": (lambda row, prev_t: row(-5), {"accel": MalformedRow, "rr": MalformedRow}),
}


class TestBlockBoundaries:
    """What falls on or across a boundary of the reader's 3-row blocks reads
    as it would in one block."""

    @pytest.fixture(autouse=True)
    def three_rows(self, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", 3)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("n", [3, 7])
    def test_no_final_line_end(self, end, n):
        """A bare ``\\r`` line end fails the block that holds it, and the
        field-by-field parser reads the file."""
        ch = _parse_text(parse_rr_csv, "t_ms,rr_ms" + end + end.join(_rr_row(10 * i, f"{800 + i}.5") for i in range(n)))
        assert ch.t_ms.tolist() == [10 * i for i in range(n)]
        assert ch.values.tolist() == [800.5 + i for i in range(n)]

    @pytest.mark.parametrize("head, end", [(h, e) for h in ("\n", "\r\n", "\r") for e in ("\n", "\r\n", "\r") if h != e])
    def test_a_header_line_end_unlike_the_body(self, head, end):
        """The header is read as text, where a bare ``\\r`` ends a line too;
        the first data row is read wherever the header ends."""
        ch = _parse_text(parse_rr_csv, "t_ms,rr_ms" + head + "".join(_rr_row(10 * i, f"{800 + i}.5") + end for i in range(7)))
        assert ch.t_ms.tolist() == [10 * i for i in range(7)]
        assert ch.values.tolist() == [800.5 + i for i in range(7)]

    @pytest.mark.parametrize("fmt", ["accel", "rr"])
    @pytest.mark.parametrize(
        "last, first", [(a, b) for a, b in itertools.product([None, *_BOUNDARY_FAULTS], repeat=2) if a or b]
    )
    def test_faults_either_side_of_a_boundary(self, fmt, last, first):
        """Rows 3 and 4 end one block and start the next; the lower faulty
        row wins, and a t_ms is compared with the last one of the block before."""
        row = {"accel": _accel_row, "rr": _rr_row}[fmt]
        lines = [row(10 * i) for i in range(6)]
        for i, fault in ((2, last), (3, first)):
            if fault:
                lines[i] = _BOUNDARY_FAULTS[fault][0](row, int(lines[i - 1].split(",")[0]))
        header = {"accel": "t_ms,ax,ay,az", "rr": "t_ms,rr_ms"}[fmt]
        with pytest.raises(_BOUNDARY_FAULTS[last or first][1][fmt]) as ei:
            _parse_text(_FORMATS[fmt][1], header + "\n" + "".join(line + "\n" for line in lines))
        assert ei.value.row == (3 if last else 4)

    @staticmethod
    def parse_with_a_row_beyond_the_first_scan_read(line):
        """Parse an rr file whose data row 90,000, past the first scan read
        and the first block, is ``line``; returns the MalformedRow raised."""
        lines = ["t_ms,rr_ms"] + [_rr_row(10 * i) for i in range(100_000)]
        lines[90_000] = line
        assert len("\r\n".join(lines[:90_000]).encode()) > ingest._SCAN_BYTES
        with pytest.raises(MalformedRow) as ei:
            _parse_text(parse_rr_csv, "\r\n".join(lines) + "\r\n")
        assert ei.value.row == 90_000
        return ei.value

    def test_non_ascii_after_the_first_scan_read(self):
        """The loadtxt check covers the whole file: a digit look-alike
        beyond the first read and the first block still takes the
        field-by-field parser, with its error and row."""
        error = self.parse_with_a_row_beyond_the_first_scan_read("\u01fe3,800")
        assert str(error) == "data row 90000: bad t_ms '\u01fe3'"

    def test_separator_loadtxt_skips_after_the_first_scan_read(self):
        """``np.loadtxt`` would read this row as valid, skipping the
        ``\\x1c``: only the check over every scan read sends the file to
        the field-by-field parser, which rejects the row."""
        error = self.parse_with_a_row_beyond_the_first_scan_read(_rr_row(899_990, "\x1c800.5"))
        assert str(error) == "data row 90000: bad rr_ms '\\x1c800.5'"

    def test_quoted_line_end_across_a_boundary(self):
        """Row 3 holds a quoted line end, which a block boundary would cut:
        the quote fails the block that holds it, and the field-by-field
        parser reads the file as the csv module does."""
        plain = "t_ms,rr_ms\n" + "".join(_rr_row(10 * i) + "\n" for i in range(5))
        quoted = plain.replace('20,800.5\n', '20,"800.5\n"\n')
        assert_same_channel(_parse_text(parse_rr_csv, quoted), _parse_text(parse_rr_csv, plain))

    def test_quote_cut_by_a_boundary_is_not_read_as_a_field(self):
        """Cut after its third line, this body would read as two valid
        blocks, (0, 5, 20) and (30,): the fourth line would close no quote
        but open one. Read whole, the fifth line holds a bare quote."""
        body = '0,800.5\n5,800.5\n20,"800.5\n"\n30",810\n'
        with pytest.raises(MalformedRow) as ei:
            _parse_text(parse_rr_csv, "t_ms,rr_ms\n" + body)
        assert ei.value.row == 4
        assert str(ei.value) == "data row 4: bad t_ms '30\"'"


def _read_in(workers, parse, path):
    """``parse(path)`` with ``workers`` CPUs, and whether it forked: the
    channel, or the class, row and message of the error it raised."""
    forks = []
    with (
        mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(workers))),
        mock.patch.object(os, "fork", lambda fork=os.fork: forks.append(1) or fork()),
    ):
        try:
            result = parse(path)
        except ParseError as e:
            result = (type(e), getattr(e, "row", None), str(e))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result, bool(forks)


def _assert_same_read(a, b):
    if isinstance(a, Channel):
        assert_same_channel(a, b)
    else:
        assert a == b


class TestSplitRead:
    """A body of at least ``SPLIT_ROWS`` lines per process is parsed in one
    range of lines per process; whatever a range holds, the file reads as
    it reads in one process, and no child is left."""

    @pytest.mark.parametrize("fault", ["malformed", "non_monotonic", "blank", "bare_cr"])
    def test_a_fault_in_the_last_section(self, tmp_path, monkeypatch, fault):
        """Three blocks, one per process at three workers."""
        monkeypatch.setattr(manifest, "SPLIT_ROWS", ingest.CHUNK_ROWS)
        n = 3 * ingest.CHUNK_ROWS + 10
        lines = [_accel_row(20 * i, repr(0.25 * i)) for i in range(n)]
        i = n - 5
        if fault == "malformed":
            lines[i] = _accel_row(20 * i, "x")
        elif fault == "non_monotonic":
            lines[i] = _accel_row(20 * (i - 2))
        elif fault == "blank":
            lines[i] = "\r\n" + lines[i]
        else:
            lines[i] += "\r" + lines.pop(i + 1)
        path = _write(tmp_path / "a.csv", "t_ms,ax,ay,az\r\n" + "".join(line + "\r\n" for line in lines))
        serial, forked = _read_in(1, parse_accel_csv, path)
        assert not forked
        if fault in ("malformed", "non_monotonic"):
            assert serial[:2] == ({"malformed": MalformedRow, "non_monotonic": NonMonotonicTime}[fault], i + 1)
        else:
            assert len(serial) == n
        for workers in (2, 3):
            split, forked = _read_in(workers, parse_accel_csv, path)
            assert forked
            _assert_same_read(split, serial)

    def test_a_cut_in_an_unterminated_last_line(self, tmp_path, monkeypatch):
        """The second range would start at the end of the file: the first
        range reads the long last line, which has no line end."""
        monkeypatch.setattr(manifest, "SPLIT_ROWS", 1)
        path = _write(tmp_path / "r.csv", "t_ms,rr_ms\n0,800.5\n10,8" + "0" * 200 + ".5")
        serial, _ = _read_in(1, parse_rr_csv, path)
        assert serial.t_ms.tolist() == [0, 10]
        _assert_same_read(_read_in(2, parse_rr_csv, path)[0], serial)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(_FORMATS)), st.integers(2, 14), st.sampled_from([1, 3]), st.integers(2, 3), st.data())
    def test_any_body_reads_as_in_one_process(self, fmt, n, block, workers, data):
        """The header and each line may end in a bare ``\\r``, and each line
        may be faulty, quoted or follow a blank line; ranges of one line and
        more are cut anywhere."""
        header, parse, row_text = _FORMATS[fmt]
        width = 3 if fmt == "accel" else 1
        text = header + data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        for i in range(n):
            fields = row_text(10 * i, [1.5 + i] * width).split(",")
            kind = data.draw(st.sampled_from(["plain"] * 4 + ["fault", "quote", "blank", "bare_cr"]))
            if kind == "fault":
                faults = [f for f in sorted(_FAULTS) if fmt in _FAULTS[f] and (i or f != "non_monotonic_t")]
                fields = _inject(data.draw(st.sampled_from(faults)), fields, 10 * (i - 1), data)
            elif kind == "quote":
                fields[0] = f'"{fields[0]}"'
            text += ("\n" if kind == "blank" else "") + ",".join(fields) + ("\r" if kind == "bare_cr" else "\n")
        with tempfile.TemporaryDirectory() as d, mock.patch.object(manifest, "SPLIT_ROWS", 1), mock.patch.object(ingest, "CHUNK_ROWS", block):
            path = os.path.join(d, "ch.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            serial, _ = _read_in(1, parse, path)
            split, _ = _read_in(workers, parse, path)
        _assert_same_read(split, serial)


class TestBoundedMemory:
    """numpy registers its buffers with tracemalloc, so these peaks repeat
    exactly. tracemalloc sees only this process, so it parses on one CPU,
    in one process; a split parse is bounded by the peak RSS of fresh
    processes."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    #: Two scan reads alive at once, or one block's lines and parse buffers
    #: (0.58 MiB measured with 2,048-row blocks at 100,000 and 200,000 rows).
    ALLOWANCE = 2 * ingest._SCAN_BYTES

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_parse_peaks_at_its_columns_and_an_allowance(self, tmp_path, n):
        rng = np.random.default_rng(n)
        write_accel_csv(tmp_path / "a.csv", Channel(np.arange(n) * 20, rng.normal(0, 3, (n, 3))))
        ch, peak = self.traced_peak(parse_accel_csv, tmp_path / "a.csv")
        assert len(ch) == n
        assert peak <= ch.t_ms.nbytes + ch.values.nbytes + self.ALLOWANCE

    #: Parses ``argv[1]`` with ``argv[2]`` CPUs; prints the forks made, and
    #: the peak RSS in KiB of this process (VmHWM: ``ru_maxrss`` would start
    #: from the peak of the process that started it) and of its largest child.
    RSS_PROBE = """
import os, resource, sys
from loadlens import ingest
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
ingest.parse_accel_csv(sys.argv[1])
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(len(forks), hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

    def test_a_split_parse_peaks_as_one_process_does(self, tmp_path):
        """The ranges go straight into the caller's columns: split over two
        processes, no process peaks 1 MiB above the one-process parse, in
        fresh processes (100,000 rows: 3.2 MB of columns)."""
        n = 100_000
        write_accel_csv(tmp_path / "a.csv", Channel(np.arange(n) * 20, np.random.default_rng(n).normal(0, 3, (n, 3))))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ingest.__file__))}
        forks, peaks = {}, {}
        for cpus in (1, 2):
            argv = [sys.executable, "-c", self.RSS_PROBE, str(tmp_path / "a.csv"), str(cpus)]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            forks[cpus], *rss = map(int, proc.stdout.split())
            peaks[cpus] = max(rss)
        assert forks == {1: 0, 2: 1}
        assert peaks[2] <= peaks[1] + 1024

    def test_centred_magnitude_needs_at_most_two_outputs(self):
        n = 100_000
        samples = Channel(np.arange(n) * 20, np.random.default_rng(0).normal(0, 3, (n, 3)))
        mags, peak = self.traced_peak(accel_magnitude, samples, True)
        assert peak <= 2 * mags.values.nbytes


#: ``np.loadtxt`` arguments of the channel reader.
_LOADTXT = {"delimiter": ",", "comments": None, "dtype": ingest._RR_DTYPE, "ndmin": 1}


class TestLoadtxtContract:
    """What the channel reader relies on ``np.loadtxt`` to do with a block of
    lines. pyproject.toml allows numpy >= 1.24; these pin the behaviour for
    whichever version runs them."""

    #: CRLF line ends and blank lines.
    BODY = "0,800.5\r\n\r\n10,801.5\r\n20,802.5\r\n\r\n30,803.5\r\n"
    ROWS = [(0, 800.5), (10, 801.5), (20, 802.5), (30, 803.5)]

    def test_islice_parses_k_lines_and_leaves_the_rest(self, tmp_path):
        path = _write(tmp_path / "r.csv", "t_ms,rr_ms\r\n" + self.BODY)
        with open(path, "rb") as fh:
            next(fh)
            head = np.loadtxt(itertools.islice(fh, 3), **_LOADTXT)
            assert next(fh) == b"20,802.5\r\n"
        assert head.tolist() == self.ROWS[:2]

    @pytest.mark.parametrize("end", ["\r\n", "\n", "\r"])
    def test_lines_read_as_the_file_reads(self, tmp_path, end):
        """The reader's lines, split at ``\\n`` only, read as the text file
        reads with either ``\\n`` line end. With bare ``\\r`` line ends the
        body is one line, and its block fails instead of losing or merging
        rows."""
        path = _write(tmp_path / "r.csv", self.BODY.replace("\r\n", end))
        with open(path, "rb") as fh:
            lines = list(fh)
        if end == "\r":
            with pytest.raises(ValueError):
                np.loadtxt(lines, **_LOADTXT)
            return
        with open(path, newline="", encoding="utf-8") as fh:
            whole = np.loadtxt(fh, **_LOADTXT)
        assert np.loadtxt(lines, **_LOADTXT).tolist() == whole.tolist() == self.ROWS

    def test_blank_lines_read_as_no_rows_with_a_warning(self):
        with pytest.warns(UserWarning):
            assert np.loadtxt(["\r\n", "\n"], **_LOADTXT).shape == (0,)

    @pytest.mark.parametrize("line", ['0,8"00\n', '0,800"\n', '0,"8""00"\n', '"0"",800\n'])
    def test_a_converted_field_holds_its_quotes_in_pairs(self, line):
        """A quote character fails the field that holds it, paired or not,
        so no block with quotes parses into numbers, and the reader sends a
        file with quotes to ``_parse_rows``."""
        with pytest.raises(ValueError):
            np.loadtxt([line], **_LOADTXT)


class TestChunkedWriter:
    """The channel writers convert and write CHUNK_ROWS rows at a
    time; the bytes equal one line per sample."""

    @staticmethod
    def reference(header, rows) -> bytes:
        return (",".join(header) + "\r\n" + "".join(",".join(map(repr, r)) + "\r\n" for r in rows)).encode()

    @pytest.mark.parametrize("chunk", [1, 7, 30, 31, ingest.CHUNK_ROWS])
    def test_tables_spanning_several_chunks(self, tmp_path, chunk):
        rng = np.random.default_rng(chunk)
        t = np.cumsum(rng.integers(1, 50, 30))
        accel = Channel(t, rng.normal(0, 3, (30, 3)))
        rr = Channel(t, rng.uniform(300, 1200, 30))
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
            write_accel_csv(tmp_path / "a.csv", accel)
            write_rr_csv(tmp_path / "r.csv", rr)
        rows = zip(t.tolist(), *accel.values.T.tolist())
        assert (tmp_path / "a.csv").read_bytes() == self.reference(("t_ms", "ax", "ay", "az"), rows)
        rows = zip(t.tolist(), rr.values.tolist())
        assert (tmp_path / "r.csv").read_bytes() == self.reference(("t_ms", "rr_ms"), rows)

    def test_default_chunk_boundaries(self, tmp_path):
        n = 2 * ingest.CHUNK_ROWS + 3
        rr = Channel(np.arange(n) * 800, np.random.default_rng(0).uniform(300, 1200, n))
        write_rr_csv(tmp_path / "r.csv", rr)
        rows = zip(rr.t_ms.tolist(), rr.values.tolist())
        assert (tmp_path / "r.csv").read_bytes() == self.reference(("t_ms", "rr_ms"), rows)
        assert_same_channel(parse_rr_csv(tmp_path / "r.csv"), rr)


class TestOutputWriters:
    """``_write_csv`` and ``_write_json`` write what ``csv.writer`` and
    ``json.dump`` write to an open file."""

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(st.text(), st.floats(), st.integers()), max_size=5))
    def test_csv_bytes_equal_csv_writer(self, rows):
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(("text", "float", "int"))
        w.writerows(rows)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            manifest._write_csv(path, ("text", "float", "int"), rows)
            with open(path, "rb") as fh:
                assert fh.read() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_json_bytes_equal_json_dump(self, tmp_path, sort_keys):
        doc = {"z": [1.5, -0.0, 1e300, None], "a": {"k": "caf\u00e9 \"q\"", "n": []}, "m": 7}
        manifest._write_json(tmp_path / "d.json", doc, sort_keys=sort_keys)
        assert (tmp_path / "d.json").read_bytes() == (json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n").encode()
        assert manifest._read_json(tmp_path / "d.json", "doc") == doc


class TestHeartRate:
    """Heart rate from parsed RR intervals, as ``features.extract_features``
    computes it: 60000 / rr_ms, unrounded."""

    @staticmethod
    def features(rr_ms):
        rr = Channel(np.arange(len(rr_ms)) * 1000, np.asarray(rr_ms, dtype=float))
        accel = Channel(np.arange(4), np.array([1.0, 2.0, 3.0, 5.0]))
        return extract_features(SessionMeta("s1", "walking", 1.0, 10.0), accel, rr)

    def test_exact_divisions(self):
        f = self.features([800.0, 1000.0])
        assert (f["ahr"], f["mhr"]) == (67.5, 75.0)

    def test_typical_value_against_long_division(self):
        # oracle: decimal long division, frozen to double precision
        expected = float(Decimal(60000) / Decimal("812.3"))
        f = self.features([812.3])
        assert f["ahr"] == pytest.approx(expected, abs=1e-12)
        assert 73.86 < f["ahr"] < 73.87

    def test_round_half_to_even(self):
        # a watch display would round 74.5 bpm half to even (74); the
        # features keep the unrounded rate
        f = self.features([60000.0 / 74.5])
        assert f["mhr"] == pytest.approx(74.5, abs=1e-12)

    def test_non_positive(self, tmp_path):
        # no heart rate is computed from rr <= 0: parsing rejects the row
        for rr in ("0", "0.0", "-800.0"):
            with pytest.raises(InvalidRr) as ei:
                parse_rr_csv(_write(tmp_path / "rr.csv", f"t_ms,rr_ms\n0,800.0\n900,{rr}\n"))
            assert ei.value.row == 2

    @given(st.floats(20.0, 250.0, allow_nan=False))
    @settings(max_examples=200)
    def test_round_trip(self, h):
        assert self.features([60000.0 / h])["mhr"] == pytest.approx(h, abs=1e-9)
