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

The constructor checks these invariants once, so no consumer re-checks them.
The channel readers and ``accel_magnitude`` check them on the way, to raise
their own errors, and build the channel without a second check.
Both arrays are read-only views.

A channel file is read in two passes, whatever its length:

1. ``_scan`` reads its bytes 1 MB at a time into a sha256 (the digest the
   manifest records), a count of ``\\n`` bytes, a check that ``np.loadtxt``
   reads every field as ``int()``/``float()`` do, and a note of any quote
   character.
2. ``_read_body`` parses the body ``CHUNK_ROWS`` lines at a time with
   ``np.loadtxt`` into columns preallocated from that count, which
   ``Channel`` takes without a copy.

When the check fails, the file holds a quote character (no writer puts one
in a channel file), a block does not parse, or lines ending in a bare
``\\r`` outgrow the columns, the field-by-field parser ``_parse_rows`` reads
the file instead and raises the error of its first faulty row. Faults in
rows the columnar read accepts (non-finite values, t_ms below 0 or not
increasing) are found by ``_first_fault`` over the whole columns. Neither
depends on where the blocks fall.

The columnar read holds the columns (32 B per accel row, 16 B per rr row)
and one block of lines (about 0.6 MB), after a scan that holds two 1 MB
reads; ``accel_magnitude`` adds its 8 B per row. Reading the whole text first would hold the text too: parsing the
11.9 MB file of an hour of 50 Hz accel samples peaks at 38.5 MB of RSS in a
fresh process by blocks, 94 MB through ``np.loadtxt`` over the decoded text
and 73 MB over its ``splitlines()``.

Files are written through the output sink in ``loadlens.manifest``.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import hashlib
import itertools
import math
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
#: ``moments`` run.
CHUNK_ROWS = 2048


def _first_fault(t_ms: np.ndarray, values: np.ndarray, positive: bool = False):
    """First row that breaks the channel invariants, or None.

    Returns ``(index, field)``: field is ``"negative"`` for t_ms < 0,
    ``"order"`` for a t_ms not above its predecessor, else the value column
    holding a non-finite value (with ``positive``, also one <= 0). Within a
    row the time checks come first, then the columns left to right. Rows
    are checked ``CHUNK_ROWS`` at a time, so the check's memory does not
    grow with the channel.
    """
    n = len(t_ms)
    cols = values if values.ndim == 2 else values[:, None]
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        order = np.zeros(hi - lo, dtype=bool)
        first = max(lo, 1)
        np.less_equal(t_ms[first:hi], t_ms[first - 1 : hi - 1], out=order[first - lo :])
        bad = ~np.isfinite(cols[lo:hi])
        if positive:
            bad |= cols[lo:hi] <= 0
        rows = np.flatnonzero((t_ms[lo:hi] < 0) | order | bad.any(axis=1))
        if rows.size:
            i = int(rows[0])
            if t_ms[lo + i] < 0:
                return lo + i, "negative"
            if order[i]:
                return lo + i, "order"
            return lo + i, int(np.argmax(bad[i]))
    return None


@dataclass(frozen=True, eq=False)
class Channel:
    """One recording: times ``t_ms`` (int64, (n,)) and ``values`` (float64,
    (n,) or (n, 3)); see the module docstring for the invariants."""

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
            i, field = fault
            what = {"negative": "negative t_ms", "order": "t_ms not strictly increasing"}.get(field, "non-finite value")
            raise ValueError(f"{what} at row {i + 1}")
        self._set_columns(t, v)

    @classmethod
    def _checked(cls, t_ms, values) -> Channel:
        """A channel of columns whose invariants the caller has already
        checked, as the channel readers and ``accel_magnitude`` do, built
        without checking them again."""
        channel = object.__new__(cls)
        channel._set_columns(np.ascontiguousarray(t_ms, dtype=np.int64), np.ascontiguousarray(values, dtype=np.float64))
        return channel

    def _set_columns(self, t: np.ndarray, v: np.ndarray) -> None:
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


@contextlib.contextmanager
def _open_csv(path):
    """Open a CSV file for reading. Bytes that are not UTF-8, and cells
    longer than the csv module's field limit, raise ParseError naming the
    file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"{path}: {e}") from None


def _read_header(fh, path, expected_header) -> None:
    """Consume and check the header row, leaving ``fh`` at the first data line."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise EmptyFile(f"{path}: empty file") from None
    if tuple(h.strip() for h in header) != expected_header:
        raise MalformedRow(0, f"expected header {','.join(expected_header)}")


def _read_rows(path, expected_header):
    """Yield (data_row_index, fields) after validating the header; row
    indices count non-blank data rows from 1."""
    with _open_csv(path) as fh:
        _read_header(fh, path, expected_header)
        row = 0
        for fields in csv.reader(fh):
            if not fields:
                continue
            row += 1
            if len(fields) != len(expected_header):
                raise MalformedRow(row, f"expected {len(expected_header)} fields")
            yield row, fields


def _parse_rows(path, header, rr: bool):
    """Field-by-field parse: raises the error of the first faulty row, or
    returns (t_ms list, values list).

    Runs only when the columnar read cannot decide the file, so it also
    accepts whatever ``int()``/``float()`` accept and ``np.loadtxt`` does
    not (such as ``1_000``).
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
    return ts, vs


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
#: heap; after 64 KB reads they were mapped afresh for every block (21,000
#: page faults and 2x the time for 13,000 windows).
_SCAN_BYTES = 1 << 20


def _scan(path):
    """One pass over the bytes of ``path``, ``_SCAN_BYTES`` at a time.

    Returns ``(sha256, newlines, loadtxt_safe, quoted)``: the file's hex
    digest; the count of ``\\n`` bytes, which bounds the data rows unless a
    line ends in a bare ``\\r``; whether ``_loadtxt_reads_like_python`` holds
    for the file after an optional BOM; and whether it holds a quote
    character, which sends it to ``_parse_rows`` (``np.loadtxt`` reads
    quoting otherwise than the csv module).
    """
    digest = hashlib.sha256()
    newlines = 0
    quoted = False
    with open(path, "rb") as fh:
        chunk = fh.read(_SCAN_BYTES)
        safe = _loadtxt_reads_like_python(chunk.removeprefix(codecs.BOM_UTF8))
        while chunk:
            digest.update(chunk)
            newlines += chunk.count(b"\n")
            quoted = quoted or b'"' in chunk
            chunk = fh.read(_SCAN_BYTES)
            safe = safe and _loadtxt_reads_like_python(chunk)
    return digest.hexdigest(), newlines, safe, quoted


def _read_body(fh, rows: int, dtype):
    """Columnar read of the unquoted channel body left in ``fh``,
    ``CHUNK_ROWS`` lines at a time, into columns preallocated for ``rows``
    rows. Returns ``(t_ms, values)``, contiguous slices of those
    columns, or None when ``np.loadtxt`` fails on any block or the body
    holds more than ``rows`` rows."""
    t = np.empty(rows, dtype=np.int64)
    values = np.empty((rows, *dtype["v"].shape))
    n = 0
    with warnings.catch_warnings():
        # A block of blank lines warns; an empty body is the caller's EmptyFile.
        warnings.simplefilter("ignore", UserWarning)
        while lines := list(itertools.islice(fh, CHUNK_ROWS)):
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=1)
            except ValueError:
                return None
            if n + len(block) > rows:
                return None
            t[n : n + len(block)] = block["t"]
            values[n : n + len(block)] = block["v"]
            n += len(block)
    return t[:n], values[:n]


def _parse_channel(path, header, dtype, rr: bool, digests) -> Channel:
    sha256, newlines, loadtxt_safe, quoted = _scan(path)
    if digests is not None:
        digests[str(path)] = sha256
    body = None
    if loadtxt_safe and not quoted:
        with _open_csv(path) as fh:
            _read_header(fh, path, header)
            body = _read_body(fh, newlines, dtype)
    if body is None:
        t, values = _parse_rows(path, header, rr)
    else:
        t, values = body
        fault = _first_fault(t, values, positive=rr)
        if fault is not None:
            i, field = fault
            if field == "negative":
                raise MalformedRow(i + 1, f"negative t_ms {int(t[i])}")
            if field == "order":
                raise NonMonotonicTime(i + 1)
            value = float(values[i, field] if values.ndim == 2 else values[i])
            if rr:
                raise InvalidRr(i + 1, value)
            raise MalformedRow(i + 1, f"non-finite {header[1 + field]} {value!r}")
    if not len(t):
        raise EmptyFile(f"{path}: no data rows")
    return Channel._checked(t, values)


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


def parse_sessions_csv(path) -> list[SessionMeta]:
    """Parse the session registry CSV.

    Activity labels are checked against ``DEFAULT_ACTIVITIES``. A repeated
    ``session_id`` is a MalformedRow.
    """
    metas: list[SessionMeta] = []
    seen: set[str] = set()
    for row, fields in _read_rows(path, SESSIONS_HEADER):
        session_id = fields[0].strip()
        if session_id in seen:
            raise MalformedRow(row, f"duplicate session_id {session_id!r}")
        seen.add(session_id)
        activity = fields[1].strip()
        if activity not in DEFAULT_ACTIVITIES:
            raise UnknownLabel(activity)
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


def _write_table(path, header, lines, *columns) -> None:
    """Write a numeric CSV table: the header, then the rows of ``columns``
    (equal-length sequences) ``CHUNK_ROWS`` at a time, each block
    formatted by ``lines(*block_columns)`` into ``\r\n``-ended lines."""
    blocks = (
        "".join(lines(*(col[i : i + CHUNK_ROWS] for col in columns)))
        for i in range(0, len(columns[0]), CHUNK_ROWS)
    )
    manifest._write_text(path, itertools.chain([",".join(header) + "\r\n"], blocks))


def _accel_lines(t_ms: np.ndarray, values: np.ndarray) -> list[str]:
    rows = zip(t_ms.tolist(), *values.T.tolist())
    return [f"{t},{x!r},{y!r},{z!r}\r\n" for t, x, y, z in rows]


def _rr_lines(t_ms: np.ndarray, values: np.ndarray) -> list[str]:
    return [f"{t},{rr!r}\r\n" for t, rr in zip(t_ms.tolist(), values.tolist())]


def write_accel_csv(path, samples: Channel) -> None:
    _write_table(path, ACCEL_HEADER, _accel_lines, samples.t_ms, samples.values)


def write_rr_csv(path, samples: Channel) -> None:
    _write_table(path, RR_HEADER, _rr_lines, samples.t_ms, samples.values)


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
    return Channel._checked(samples.t_ms, values)


def resolve_channel_path(sessions_path, channel_file: str) -> str:
    """Channel files are stored relative to the sessions.csv directory."""
    if os.path.isabs(channel_file):
        return channel_file
    return os.path.join(os.path.dirname(os.path.abspath(sessions_path)), channel_file)


def _worker_count(n_sessions: int) -> int:
    """Worker processes for ``n_sessions`` sessions: one per CPU this process
    may run on, and no more than there are sessions."""
    return min(len(os.sched_getaffinity(0)), n_sessions)


def _map_sessions(fn, tasks: list) -> list:
    """``[fn(task) for task in tasks]``, computed in worker processes.

    Sessions share no state, so any worker may run any task; the results
    come back in task order. When tasks fail, the error of the first failing
    one in task order is raised, as a loop over the tasks would raise it,
    though later tasks may have run. ``fn`` must be a module-level function:
    workers receive it, the tasks and the results pickled.

    The workers are forked, so they start with every module the parent
    imported instead of importing numpy and loadlens again. The pool forks
    them before it starts its own management thread.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(_worker_count(len(tasks)), mp_context=context) as pool:
        return list(pool.map(fn, tasks))
