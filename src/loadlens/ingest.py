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
Both arrays are read-only views.

Files are written through the output sink in ``loadlens.manifest``.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
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


def _first_fault(t_ms: np.ndarray, values: np.ndarray, positive: bool = False):
    """First row that breaks the channel invariants, or None.

    Returns ``(index, field)``: field is ``"negative"`` for t_ms < 0,
    ``"order"`` for a t_ms not above its predecessor, else the value column
    holding a non-finite value (with ``positive``, also one <= 0). Within a
    row the time checks come first, then the columns left to right.
    """
    n = len(t_ms)
    order = np.zeros(n, dtype=bool)
    np.less_equal(t_ms[1:], t_ms[:-1], out=order[1:])
    cols = values if values.ndim == 2 else values[:, None]
    bad = ~np.isfinite(cols)
    if positive:
        bad |= cols <= 0
    rows = np.flatnonzero((t_ms < 0) | order | bad.any(axis=1))
    if not rows.size:
        return None
    i = int(rows[0])
    if t_ms[i] < 0:
        return i, "negative"
    if order[i]:
        return i, "order"
    return i, int(np.argmax(bad[i]))


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
        t = np.ascontiguousarray(t, dtype=np.int64).view()
        v = np.ascontiguousarray(self.values, dtype=np.float64).view()
        if t.ndim != 1:
            raise ValueError(f"t_ms must have shape (n,), got {t.shape}")
        if v.shape not in ((len(t),), (len(t), 3)):
            raise ValueError(f"values must have shape ({len(t)},) or ({len(t)}, 3), got {v.shape}")
        fault = _first_fault(t, v)
        if fault is not None:
            i, field = fault
            what = {"negative": "negative t_ms", "order": "t_ms not strictly increasing"}.get(field, "non-finite value")
            raise ValueError(f"{what} at row {i + 1}")
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
        raise MalformedRow(row, f"non-finite {field} {text!r}")
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


def _loadtxt_reads_like_python(path) -> bool:
    """True when ``np.loadtxt`` would read every field of the file as
    ``int()``/``float()`` do: ASCII only after an optional BOM, and none of
    ``_LOADTXT_ONLY_SPACE``."""
    with open(path, "rb") as fh:
        chunk = fh.read(1 << 20).removeprefix(codecs.BOM_UTF8)
        while chunk:
            if not chunk.isascii() or any(c in chunk for c in _LOADTXT_ONLY_SPACE):
                return False
            chunk = fh.read(1 << 20)
    return True


def _read_body(path, header, dtype):
    """Columnar read of a channel CSV after checking its header.

    Returns the structured body array, or None when ``np.loadtxt`` fails
    or might read the file differently from ``int()``/``float()``.
    """
    if not _loadtxt_reads_like_python(path):
        return None
    with _open_csv(path) as fh:
        _read_header(fh, path, header)
        try:
            with warnings.catch_warnings():
                # An empty body warns; the caller reports it as EmptyFile.
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', dtype=dtype, ndmin=1)
        except ValueError:
            return None


def _parse_channel(path, header, dtype, rr: bool) -> Channel:
    body = _read_body(path, header, dtype)
    if body is None:
        t, values = _parse_rows(path, header, rr)
    else:
        t, values = body["t"], body["v"]
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
    return Channel(t, values)


def parse_accel_csv(path) -> Channel:
    """Parse an accelerometer CSV into a channel with (n, 3) values.

    Raises MalformedRow, NonMonotonicTime or EmptyFile; row numbers count
    non-blank data rows from 1, header excluded. With several faults the
    lowest row wins, then the field order.
    """
    return _parse_channel(path, ACCEL_HEADER, _ACCEL_DTYPE, rr=False)


def parse_rr_csv(path) -> Channel:
    """Parse a heartbeat-interval CSV into a channel with (n,) values.
    rr_ms must be finite and > 0 (InvalidRr otherwise)."""
    return _parse_channel(path, RR_HEADER, _RR_DTYPE, rr=True)


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


#: Rows that ``_write_table`` converts, formats and writes at a time, so a
#: writer's memory does not grow with the table. Larger blocks write no
#: faster, and 8,192 rows of window lines add about 1 MB to the peak of an
#: accel ``moments`` run.
WRITE_CHUNK_ROWS = 2048


def _write_table(path, header, lines, *columns) -> None:
    """Write a numeric CSV table: the header, then the rows of ``columns``
    (equal-length sequences) ``WRITE_CHUNK_ROWS`` at a time, each block
    formatted by ``lines(*block_columns)`` into ``\r\n``-ended lines."""
    blocks = (
        "".join(lines(*(col[i : i + WRITE_CHUNK_ROWS] for col in columns)))
        for i in range(0, len(columns[0]), WRITE_CHUNK_ROWS)
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
    ax, ay, az = samples.values.T
    with np.errstate(over="ignore"):
        values = np.sqrt(ax * ax + ay * ay + az * az)
    if not np.isfinite(values).all():
        raise MomentOverflow("accel magnitude overflows float64: an axis value lies beyond about 1.3e154")
    if center:
        values = values - math.fsum(values.tolist()) / len(values)
    return Channel(samples.t_ms, values)


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
