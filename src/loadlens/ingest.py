"""Raw sensor CSV parsing and normalization.

File formats (UTF-8, comma-separated, dot decimal, one header row):

* ``accel.csv``    -- ``t_ms,ax,ay,az``
* ``rr.csv``       -- ``t_ms,rr_ms``
* ``sessions.csv`` -- ``session_id,activity,distance_km,duration_min,accel_file,rr_file``

Timestamps are integer milliseconds since session start and must be strictly
increasing within a file. RR intervals stay real-valued: the millisecond
heartbeat carries 3-4 significant digits, an order more precision than the
rounded integer heart rate derived from it.

In memory one recording is a :class:`Channel`, a pair of numpy arrays:

* ``t_ms``   -- int64, shape (n,): milliseconds, >= 0 and strictly increasing;
* ``values`` -- float64, all finite; shape (n, 3) for the raw accelerometer
  axes ``ax, ay, az``, shape (n,) for a univariate series (``rr_ms``, or the
  accel magnitude).

``Channel(t_ms, values)`` is the only way to build a channel. It checks
these invariants, so no consumer re-checks them; the channel readers and
``accel_magnitude`` build their channels through it too. Both arrays are
read-only views.

A channel file is read in two passes:

1. ``_scan`` reads its bytes 1 MB at a time into a sha256 (the digest the
   manifest records), a count of ``\\n`` bytes per read, and a check that
   ``np.loadtxt`` reads every field as ``int()``/``float()`` do. It checks
   the header line too, and returns the byte offset where the body starts.
2. ``_read_body`` parses the body from that offset, ``CHUNK_ROWS`` lines at
   a time with ``np.loadtxt`` into columns preallocated from the newline
   count, which ``Channel`` takes without a copy. ``manifest._runs`` cuts
   a long body at about equal byte offsets into one range of lines per
   CPU; the counts of the scan place each range's first row, and
   ``manifest._fork_map`` parses the ranges in parallel, each in its own
   process, into columns in shared memory.

The reader makes one decision: safe bytes are read in blocks into a
``Channel``, and anything else goes to the field-by-field parser
``_parse_rows``, which reads the file again and raises the error of its
first faulty row. Anything else is a file whose check fails, a header line
the scan cannot match (quoted, longer than the csv module's field limit,
or with a ``\\r`` anywhere but just before its ``\\n``: the scan ends
lines at ``\\n`` only, the csv module at a bare ``\\r`` too), a block that
does not parse (a bare ``\\r`` within a line fails it), a range but the
last whose lines are not all rows (a blank line), rows that outgrow the
columns, an empty body, an rr value <= 0, or columns the constructor
rejects (a non-finite value, a t_ms below 0 or not increasing). A quote
character fails every field that holds it (``TestLoadtxtContract`` in
``tests/test_ingest.py`` pins that), so a file with quotes takes the
failure route as well, whichever range the quote falls in. So
``_parse_rows`` is the one place that builds a channel-file error, and no
check depends on where the blocks or ranges fall.

The columnar read holds the columns (32 B per accel row, 16 B per rr row)
and one block of lines in each process, after a scan that holds two 1 MB
reads; ``accel_magnitude`` adds its 8 B per row. Reading the whole text
first would hold the text too: parsing the 11.9 MB file of an hour of 50 Hz
accel samples peaks at 38.5 MB of RSS in a fresh process by blocks, 94 MB
through ``np.loadtxt`` over the decoded text and 73 MB over its
``splitlines()``, as the CHANGES.md line "Channel files read in fixed row
blocks and hashed on the way" records.

Files are written through the output sink in ``loadlens.manifest``.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import hashlib
import itertools
import math
import mmap
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import manifest
from .errors import (
    EmptyFile,
    InvalidRr,
    MalformedRow,
    MomentOverflow,
    NonMonotonicTime,
    ParseError,
    UnknownLabel,
)

#: Default activity label registry, ordinal order fixed (walking < running < skiing).
DEFAULT_ACTIVITIES = ("walking", "running", "skiing")

ACCEL_HEADER = ("t_ms", "ax", "ay", "az")
RR_HEADER = ("t_ms", "rr_ms")

#: Row templates of the channel files (``_rows``), read back bit-exact.
ACCEL_ROW = "%r,%r,%r,%r\r\n"
RR_ROW = "%r,%r\r\n"
SESSIONS_HEADER = (
    "session_id",
    "activity",
    "distance_km",
    "duration_min",
    "accel_file",
    "rr_file",
)

#: Body layouts for ``np.loadtxt``; the integer field keeps ``t_ms`` strict
#: ("1.0" and "1e3" do not parse).
_ACCEL_DTYPE = np.dtype([("t", "<i8"), ("v", "<f8", (3,))])
_RR_DTYPE = np.dtype([("t", "<i8"), ("v", "<f8")])

#: Rows that the channel readers parse, ``accel_magnitude`` computes and the
#: table writers convert, format and write at a time, so their memory does
#: not grow with the table. Larger blocks parse and write no faster, and
#: 8,192 rows of window lines add about 1 MB to the peak of an accel
#: ``moments`` run, as the CHANGES.md line "One model of each concept"
#: records.
CHUNK_ROWS = 2048


def _first_fault(t_ms: np.ndarray, values: np.ndarray) -> str | None:
    """The fault of the first row that breaks the channel invariants, as
    ``"<fault> at row <i>"`` (1-based), or None.

    The fault is ``negative t_ms``, ``t_ms not strictly increasing`` (not
    above its predecessor) or ``non-finite value``; within a row the time
    checks come first. Rows are checked ``CHUNK_ROWS`` at a time, so the
    check's memory does not grow with the channel.
    """
    n = len(t_ms)
    cols = values if values.ndim == 2 else values[:, None]
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        order = np.zeros(hi - lo, dtype=bool)
        first = max(lo, 1)
        np.less_equal(t_ms[first:hi], t_ms[first - 1 : hi - 1], out=order[first - lo :])
        rows = np.flatnonzero((t_ms[lo:hi] < 0) | order | ~np.isfinite(cols[lo:hi]).all(axis=1))
        if rows.size:
            i = int(rows[0])
            if t_ms[lo + i] < 0:
                what = "negative t_ms"
            else:
                what = "t_ms not strictly increasing" if order[i] else "non-finite value"
            return f"{what} at row {lo + i + 1}"
    return None


@dataclass(frozen=True, eq=False)
class Channel:
    """One recording: times ``t_ms`` (int64, (n,)) and ``values`` (float64,
    (n,) or (n, 3)); see the module docstring for the invariants.

    This constructor is the only way to build a channel, and it checks the
    invariants of every channel, the parsed ones included.
    """

    t_ms: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_ms)
        if t.size == 0:
            t = t.astype(np.int64)
        if t.dtype.kind not in "iu":
            raise TypeError(f"t_ms must hold integers, got dtype {t.dtype}")
        t = np.ascontiguousarray(t, dtype=np.int64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if t.ndim != 1:
            raise ValueError(f"t_ms must have shape (n,), got {t.shape}")
        if v.shape not in ((len(t),), (len(t), 3)):
            raise ValueError(f"values must have shape ({len(t)},) or ({len(t)}, 3), got {v.shape}")
        fault = _first_fault(t, v)
        if fault is not None:
            raise ValueError(fault)
        t, v = t.view(), v.view()
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "t_ms", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.t_ms)


@dataclass(frozen=True)
class SessionMeta:
    """Descriptive record for one exercise session.

    Text fields may not start or end with white space: ``sessions.csv``
    cells are stripped when parsed, so such text would not come back.
    """

    session_id: str
    activity: str
    distance_km: float
    duration_min: float
    accel_file: str = ""
    rr_file: str = ""

    def __post_init__(self):
        for name in ("session_id", "activity", "accel_file", "rr_file"):
            text = getattr(self, name)
            if text != text.strip():
                raise ValueError(f"{name} must not start or end with white space, got {text!r}")
        if self.distance_km < 0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if self.duration_min <= 0:
            raise ValueError(f"duration_min must be > 0, got {self.duration_min}")


def _parse_float(text: str, row: int, field: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise MalformedRow(row, f"bad {field} {text!r}") from None
    if not math.isfinite(v):
        raise MalformedRow(row, f"non-finite {field} {v!r}")
    return v


def _parse_t(text: str, row: int) -> int:
    try:
        t = int(text)
    except ValueError:
        raise MalformedRow(row, f"bad t_ms {text!r}") from None
    if t < 0:
        raise MalformedRow(row, f"negative t_ms {t}")
    if t >= 2**63:
        raise MalformedRow(row, f"t_ms out of range {t}")
    return t


def _parse_rr(text: str, row: int) -> float:
    try:
        rr = float(text)
    except ValueError:
        raise MalformedRow(row, f"bad rr_ms {text!r}") from None
    if not math.isfinite(rr) or rr <= 0:
        raise InvalidRr(row, rr)
    return rr


def _read_rows(path, expected_header):
    """Yield (data_row_index, fields) after validating the header; row
    indices count non-blank data rows from 1. Bytes that are not UTF-8, and
    cells longer than the csv module's field limit, raise ParseError naming
    the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyFile(f"{path}: empty file")
            if tuple(h.strip() for h in header) != expected_header:
                raise MalformedRow(0, f"expected header {','.join(expected_header)}")
            row = 0
            for fields in reader:
                if not fields:
                    continue
                row += 1
                if len(fields) != len(expected_header):
                    raise MalformedRow(row, f"expected {len(expected_header)} fields")
                yield row, fields
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"{path}: {e}") from None


def _parse_rows(path, header, rr: bool) -> Channel:
    """Field-by-field parse: raises the error of the first faulty row, or
    EmptyFile when no row holds data, else returns the channel.

    Runs only when the columnar read cannot decide the file (see the module
    docstring), so it also accepts whatever ``int()``/``float()`` accept and
    ``np.loadtxt`` does not, such as ``1_000``.
    """
    ts, vs = [], []
    prev_t = -1
    for row, fields in _read_rows(path, header):
        t = _parse_t(fields[0], row)
        if t <= prev_t:
            raise NonMonotonicTime(row)
        prev_t = t
        ts.append(t)
        if rr:
            vs.append(_parse_rr(fields[1], row))
        else:
            vs.append([_parse_float(text, row, name) for text, name in zip(fields[1:], header[1:])])
    if not ts:
        raise EmptyFile(f"{path}: no data rows")
    return Channel(ts, vs)


#: ASCII separators that ``np.loadtxt`` skips as whitespace and ``float()``
#: rejects. Outside ASCII the two disagree more widely (``np.loadtxt`` reads
#: some non-digits as digits).
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_reads_like_python(data: bytes) -> bool:
    """True when ``np.loadtxt`` would read every field in ``data`` as
    ``int()``/``float()`` do: ASCII only, and none of ``_LOADTXT_ONLY_SPACE``."""
    return data.isascii() and not any(c in data for c in _LOADTXT_ONLY_SPACE)


#: Bytes that ``_scan`` reads at a time. Smaller reads hash and count no
#: faster. Freeing a 1 MB read buffer also raises glibc's mmap threshold, so
#: the 0.6 MB temporaries of the window kernel in ``stats`` come from the
#: heap; after 64 KB reads they were mapped afresh for every block (about
#: 21,000 page faults and twice the time for the ``plane`` input's windows,
#: as the CHANGES.md line "Channel files read in fixed row blocks and hashed
#: on the way" records).
_SCAN_BYTES = 1 << 20


def _scan(path, header):
    """One pass over the bytes of ``path``, ``_SCAN_BYTES`` at a time.

    Returns ``(sha256, marks, body)``: the file's hex digest; the count of
    ``\\n`` bytes before each multiple of ``_SCAN_BYTES`` up to the end, so
    ``marks[-1]``, the file's count, bounds the data rows unless a line ends
    in a bare ``\\r``; and the byte offset after the header line, the
    first line ended by ``\\n``. That offset is None unless the line, past
    an optional BOM and less a ``\\r`` before its ``\\n``, holds no
    ``\\r`` and at most ``csv.field_size_limit()`` bytes, its
    comma-separated fields, stripped, are ``header``, and
    ``_loadtxt_reads_like_python`` holds for the file after the BOM.
    """
    digest = hashlib.sha256()
    marks = [0]
    with open(path, "rb") as fh:
        chunk = fh.read(_SCAN_BYTES)
        end = chunk.find(b"\n") + 1
        line = chunk[:end].removeprefix(codecs.BOM_UTF8).removesuffix(b"\n").removesuffix(b"\r")
        fields = [f.strip() for f in line.split(b",")]
        # the csv module reads a longer line only if no field exceeds its limit
        matched = end and len(line) <= csv.field_size_limit() and b"\r" not in line and fields == [h.encode() for h in header]
        safe = _loadtxt_reads_like_python(chunk.removeprefix(codecs.BOM_UTF8))
        while chunk:
            digest.update(chunk)
            marks.append(marks[-1] + chunk.count(b"\n"))
            chunk = fh.read(_SCAN_BYTES)
            safe = safe and _loadtxt_reads_like_python(chunk)
    return digest.hexdigest(), marks, end if matched and safe else None


def _empty(shape: tuple, dtype, shared: bool) -> np.ndarray:
    """``np.empty(shape, dtype)``, in memory that forked children share
    when ``shared``: what a ``manifest._fork_map`` task writes there, its
    caller sees."""
    if not shared:
        return np.empty(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize), dtype).reshape(shape)


def _line_start(fh, marks, target: int) -> tuple[int, int]:
    """``(offset, lines)`` of the first line of the binary file ``fh`` that
    starts at or after byte ``target`` (>= 1): its byte offset, or the file's
    length when there is none, and the count of ``\\n`` bytes before it,
    found from the ``_scan`` ``marks`` and a read of less than
    ``_SCAN_BYTES``. The read comes before the columns exist, so it stays
    under the two reads the scan holds at once."""
    base = (target - 1) // _SCAN_BYTES * _SCAN_BYTES
    fh.seek(base)
    lines = marks[base // _SCAN_BYTES] + fh.read(target - 1 - base).count(b"\n")
    rest = fh.readline()
    return target - 1 + len(rest), lines + rest.endswith(b"\n")


def _read_lines(path, offset: int, row: int, count: int | None, dtype, t, values) -> int | None:
    """Parse ``count`` lines of ``path`` (every line to its end when None)
    from byte ``offset``, ``CHUNK_ROWS`` lines at a time with
    ``np.loadtxt``, into the columns ``t`` and ``values`` from row ``row``
    on. Returns the rows parsed, or None when a block does not parse or the
    rows outgrow the columns. A bare ``\\r`` within a line fails its block."""
    i = row
    with open(path, "rb") as fh, warnings.catch_warnings():
        # A block of blank lines warns; an empty body is the caller's EmptyFile.
        warnings.simplefilter("ignore", UserWarning)
        fh.seek(offset)
        lines = itertools.islice(fh, count)
        while block := list(itertools.islice(lines, CHUNK_ROWS)):
            try:
                parsed = np.loadtxt(block, delimiter=",", comments=None, dtype=dtype, ndmin=1)
            except ValueError:
                return None
            if i + len(parsed) > len(t):
                return None
            t[i : i + len(parsed)] = parsed["t"]
            values[i : i + len(parsed)] = parsed["v"]
            i += len(parsed)
    return i - row


def _read_body(path, marks, body: int, dtype):
    """Columnar read of the channel body, the lines from byte ``body`` on,
    into columns preallocated for the file's ``marks[-1]`` newlines.

    ``manifest._runs`` cuts the body's bytes into one run per worker, and
    ``manifest._fork_map`` parses the lines that start in each run
    (``_read_lines``) in its own process straight into columns in shared
    memory. Returns ``(t_ms, values)``, contiguous slices of the columns,
    or None when a range fails or a range but the last has fewer rows than
    lines (a blank line)."""
    rows = marks[-1]
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        starts = [_line_start(fh, marks, run.start) for run in manifest._runs(range(body, size), rows)]
    # a range that would start at the end is dropped, so the one before it
    # reads the last line, which may have no line end
    starts = starts[:1] + [start for start in starts[1:] if start[0] < size]
    # two arrays, not one record array: accel_magnitude keeps t_ms and frees the axes
    t = _empty((rows,), np.int64, shared=len(starts) > 1)
    values = _empty((rows, *dtype["v"].shape), np.float64, shared=len(starts) > 1)
    ends = [lines for _, lines in starts[1:]] + [None]
    ranges = [(offset, lines - 1, None if end is None else end - lines) for (offset, lines), end in zip(starts, ends)]
    parsed = manifest._fork_map(lambda r: _read_lines(path, *r, dtype, t, values), ranges)
    if None in parsed or any(n != count for n, (_, _, count) in zip(parsed[:-1], ranges)):
        return None
    n = ranges[-1][1] + parsed[-1]
    return t[:n], values[:n]


def _parse_channel(path, header, dtype, rr: bool, digests) -> Channel:
    sha256, marks, body = _scan(path, header)
    if digests is not None:
        digests[str(path)] = sha256
    if body is not None:
        columns = _read_body(path, marks, body, dtype)
        if columns is not None and len(columns[0]) and not (rr and columns[1].min() <= 0):
            with contextlib.suppress(ValueError):
                return Channel(*columns)
    return _parse_rows(path, header, rr)


def parse_accel_csv(path, digests: dict | None = None) -> Channel:
    """Parse an accelerometer CSV into a channel with (n, 3) values.

    Raises MalformedRow, NonMonotonicTime or EmptyFile; row numbers count
    non-blank data rows from 1, header excluded. With several faults the
    lowest row wins, then the field order. ``digests``, when given, receives
    the file's sha256 under ``str(path)``.
    """
    return _parse_channel(path, ACCEL_HEADER, _ACCEL_DTYPE, rr=False, digests=digests)


def parse_rr_csv(path, digests: dict | None = None) -> Channel:
    """Parse a heartbeat-interval CSV into a channel with (n,) values.
    rr_ms must be finite and > 0 (InvalidRr otherwise). ``digests`` as for
    ``parse_accel_csv``."""
    return _parse_channel(path, RR_HEADER, _RR_DTYPE, rr=True, digests=digests)


def _check_session_key(row: int, session_id: str, activity: str, seen: set[str]) -> None:
    """Check one row of ``sessions.csv`` or ``features.csv``: a repeated
    ``session_id`` (one in ``seen``, to which it is added) raises
    MalformedRow, then an unknown activity raises UnknownLabel."""
    if session_id in seen:
        raise MalformedRow(row, f"duplicate session_id {session_id!r}")
    seen.add(session_id)
    if activity not in DEFAULT_ACTIVITIES:
        raise UnknownLabel(activity)


def parse_sessions_csv(path) -> list[SessionMeta]:
    """Parse the session registry CSV.

    Activity labels are checked against ``DEFAULT_ACTIVITIES``. A repeated
    ``session_id`` is a MalformedRow.
    """
    metas: list[SessionMeta] = []
    seen: set[str] = set()
    for row, fields in _read_rows(path, SESSIONS_HEADER):
        session_id, activity = fields[0].strip(), fields[1].strip()
        _check_session_key(row, session_id, activity, seen)
        distance = _parse_float(fields[2], row, "distance_km")
        duration = _parse_float(fields[3], row, "duration_min")
        if distance < 0:
            raise MalformedRow(row, f"negative distance_km {distance}")
        if duration <= 0:
            raise MalformedRow(row, f"non-positive duration_min {duration}")
        metas.append(
            SessionMeta(session_id, activity, distance, duration, fields[4].strip(), fields[5].strip())
        )
    if not metas:
        raise EmptyFile(f"{path}: no data rows")
    return metas


def _rows(template: str, columns, blocks, sep: str = "", null: str | None = None):
    """The rows of ``columns`` (equal-length 1-D arrays) as text, one part
    per ``CHUNK_ROWS`` block starting at each index of ``blocks``: one ``%``
    of the block's cells, in row order, into ``template`` per row, rows
    joined by ``sep`` (also before each block but the table's first). A row
    with a NaN cell takes the ``null`` template, which consumes the cells it
    leaves out with ``%.0s``. The one place that spells a table row."""
    width = len(columns)
    floats = [col for col in columns if col.dtype.kind == "f"] if null is not None else []
    for i in blocks:
        block = [col[i : i + CHUNK_ROWS].tolist() for col in columns]
        cells = [None] * (len(block[0]) * width)
        for j, col in enumerate(block):
            cells[j::width] = col
        rows = [template] * len(block[0])
        if floats:
            for r in np.flatnonzero(np.isnan([col[i : i + CHUNK_ROWS] for col in floats]).any(axis=0)).tolist():
                rows[r] = null
        yield (sep if i else "") + sep.join(rows) % tuple(cells)


def _write_table(path, header, template, *columns, null: str | None = None) -> None:
    """Write a numeric CSV table: the header, then the rows of ``columns``
    as ``_rows`` spells them with ``template`` and ``null``. The blocks are
    cut into one section per worker (``manifest._runs``), which
    ``manifest._write_text`` writes in parallel."""
    n = len(columns[0])
    sections = [_rows(template, columns, run, null=null) for run in manifest._runs(range(0, n, CHUNK_ROWS), n)]
    manifest._write_text(path, itertools.chain([",".join(header) + "\r\n"], sections[0]), *sections[1:])


def write_accel_csv(path, samples: Channel) -> None:
    _write_table(path, ACCEL_HEADER, ACCEL_ROW, samples.t_ms, *samples.values.T)


def write_rr_csv(path, samples: Channel) -> None:
    _write_table(path, RR_HEADER, RR_ROW, samples.t_ms, samples.values)


def write_sessions_csv(path, metas: list[SessionMeta]) -> None:
    body = ([m.session_id, m.activity, m.distance_km, m.duration_min, m.accel_file, m.rr_file] for m in metas)
    manifest._write_csv(path, SESSIONS_HEADER, body)


def accel_magnitude(samples: Channel, center: bool = False) -> Channel:
    """Reduce a tri-axial channel to the Euclidean magnitude sqrt(ax^2+ay^2+az^2).

    The magnitude is orientation-invariant, so no axis calibration is needed.
    With ``center=True`` the series mean is subtracted from every value
    (crude gravity removal); default is the raw magnitude.

    An axis value beyond about 1.3e154 overflows the sum of squares; that
    raises ``MomentOverflow``.
    """
    if not len(samples):
        raise ValueError("accel_magnitude needs at least one sample")
    if samples.values.ndim != 2:
        raise ValueError("accel_magnitude needs a tri-axial channel")
    n = len(samples)
    values = np.empty(n)
    with np.errstate(over="ignore"):
        for i in range(0, n, CHUNK_ROWS):
            ax, ay, az = samples.values[i : i + CHUNK_ROWS].T
            np.sqrt(ax * ax + ay * ay + az * az, out=values[i : i + CHUNK_ROWS])
    if not np.isfinite(values).all():
        raise MomentOverflow("accel magnitude overflows float64: an axis value lies beyond about 1.3e154")
    if center:
        blocks = (values[i : i + CHUNK_ROWS].tolist() for i in range(0, n, CHUNK_ROWS))
        values -= math.fsum(itertools.chain.from_iterable(blocks)) / n
    return Channel(samples.t_ms, values)


def resolve_channel_path(sessions_path, channel_file: str) -> str:
    """Channel files are stored relative to the sessions.csv directory."""
    if os.path.isabs(channel_file):
        return channel_file
    return os.path.join(os.path.dirname(os.path.abspath(sessions_path)), channel_file)
