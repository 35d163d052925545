"""Run manifests: recorded provenance for every CLI output, and the one
output sink every command writes through.

A manifest carries the resolved configuration, input digests, and output
paths of one command invocation. Re-running a command with an identical
manifest (timestamp aside) must reproduce its outputs byte-for-byte; the
``created_utc`` field is the only part excluded from that contract.

``cli.main`` is the one caller of ``write_manifest``. It writes the
manifest after the command has returned, so after every output, from the
run record the command returns (config, inputs, digests and, for commands
that write several files, outputs), adding the command name and seed from
the parsed arguments. A manifest sits at ``manifest_path_for`` of the
single output or of the command's stem: ``<out-dir>/<model>_<preset>`` for
``train``, ``<out-dir>/run`` for ``synth sessions``.

Input digests come from the pass that read the input where there is one:
the channel readers (``ingest.parse_accel_csv``/``parse_rr_csv``) hash each
accel and rr file in the scan that precedes their parse, and ``moments``,
``plane`` and ``features`` return those digests in their run record. Every
other input (``sessions.csv``, ``features.csv``, models, reports) is read
again by ``sha256_file`` when the manifest is written.

Every output file is opened in one place, ``_write_text``, which writes text
parts as UTF-8 with line ends as given, to a temporary file beside the
target that replaces it only after the last part: an interrupted or failed
write leaves the earlier target, or none, never a cut file. It takes the
text in ordered sections: the calling process writes the first, and forked
children write the later ones to part files beside the temporary file, which
are appended in order before the rename. ``ingest._write_table`` feeds it
the numeric tables (accel, rr, windows), cut into one section per CPU at
``ingest.CHUNK_ROWS`` boundaries, and ``momentplane.export_plane`` streams
``plane.json``, its bootstrap cloud in a section of its own. ``ingest._rows``
spells the rows of both into a template built from the table's names: one
cell per header name (``_write_table``), one member per key
(``momentplane._json_list``); a NaN is an empty cell or null. ``_write_csv``
writes the tables that hold text (sessions, features, correlations,
predictions, loss curves) through ``csv.writer``, which quotes text cells;
``_write_json`` every other JSON file. ``_read_json`` is the one JSON reader.
Floats are written by ``repr``, so a write -> parse round trip is
bit-exact. CSV lines end in ``\\r\\n``.
Both CSV writers stay: a row template cannot quote text, and ``csv.writer`` is
slower on numeric tables (timed on 180,000 accel rows and 35,941 window
rows, as the CHANGES.md line "Fit and score the network in fewer numpy
calls" records).
The sink needs only the standard library, so ``report``, which only copies
JSON, runs without numpy.

``_fork_map`` is the one way work is spread over processes: the sessions
of ``synth sessions`` and ``features``, the line ranges of a long channel
read, the kernel blocks of many windows, the sections of a write. It forks
one child per CPU but one and runs a share of the tasks in the calling
process; a call made inside a task runs in that task's process, so
per-session tasks never fork again. ``_runs`` is the one split rule: it cuts
one large piece of work (a channel body, a table write, many windows) into
one run per worker once each gets ``SPLIT_ROWS`` rows, else one run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import os
import shutil
from datetime import datetime, timezone
from types import SimpleNamespace

from . import __version__
from .errors import ParseError

MANIFEST_SUFFIX = ".manifest.json"

#: Manifest key excluded from the determinism contract.
TIMESTAMP_KEY = "created_utc"


#: Rows each process must get for a channel read, a table write or the
#: moments of many windows to be split over processes (``_runs``). A split
#: costs about 4 ms of forking and reaping, and two processes ran a parse or
#: a write only 1.2 to 1.8 times as fast as one on a 2-vCPU machine; split,
#: the 13,000-row rr file and window table of a 2-hour session ran no
#: faster, so they stay in one process (as the CHANGES.md line "Both CPUs
#: for one large file" records).
SPLIT_ROWS = 8192

#: True while ``_fork_map`` runs tasks, in the calling process and in the
#: children it forked.
_busy = False


def _worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` tasks in: one per CPU this process may
    run on and no more than there are tasks, or this one alone while
    ``_fork_map`` tasks already run."""
    return 1 if _busy else min(len(os.sched_getaffinity(0)), max(n_tasks, 1))


def _runs(items, rows: int) -> list:
    """The sequence ``items`` cut into ``_worker_count(rows // SPLIT_ROWS)``
    contiguous runs, in order and about equal in length, for work of
    ``rows`` rows (table rows, file lines or windows)."""
    workers = _worker_count(rows // SPLIT_ROWS)
    return [items[len(items) * k // workers : len(items) * (k + 1) // workers] for k in range(workers)]


def _fork_map(fn, tasks: list) -> list:
    """``[fn(task) for task in tasks]``, run in ``_worker_count`` processes.

    The calling process runs tasks 0, w, 2w ... of w processes, and each of
    w - 1 forked children runs tasks k, k + w ...; each stops at its first
    failing task. The results come back in task order. When tasks fail, the
    error of the first failing one in task order is raised, as the loop
    would raise it, though later tasks may have run. A child sends its
    results, or its error, pickled through a pipe and leaves by
    ``os._exit``; every child is reaped before the call returns or raises.
    A child that dies, or leaves a result that cannot be read, fails its
    tasks with ``ChildProcessError``.

    Children start with the caller's memory, modules and open files, so
    ``fn`` may be a closure, but what a task changes in memory stays in its
    process: it returns its result or writes it to a file or to shared
    memory. A call made while tasks run, in the caller or in a child, runs
    its tasks in its own process, so tasks never fork again.
    """
    global _busy
    workers = _worker_count(len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    import pickle
    import signal

    def share(k):
        """``(results, None)``, or ``(None, (task index, error))`` at the first
        failing task of share ``k``."""
        done = []
        for i in range(k, len(tasks), workers):
            try:
                done.append(fn(tasks[i]))
            except Exception as e:
                return None, (i, e)
        return done, None

    children, shares = [], {}
    _busy = True
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        data = pickle.dumps(share(k))
                    except Exception as e:
                        data = pickle.dumps((None, (k, e)))
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((k, pid, open(r, "rb")))
        shares[0] = share(0)
        while children:
            k, pid, pipe = children[0]
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            pipe.close()
            try:
                shares[k] = pickle.loads(data)
            # a child cut while it writes leaves a truncated pickle, or none
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(status)
                left = "a result that could not be read" if data else "no result"
                shares[k] = None, (k, ChildProcessError(f"worker process {pid} exited with code {code} and {left}"))
    finally:
        _busy = False
        for _, pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in shares.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(tasks)
    for k, (done, _) in shares.items():
        results[k::workers] = done
    return results


def _write_text(path, *sections) -> None:
    """Write the text ``sections``, iterables of text parts consumed as they
    are written, one after another to ``path``; the one place where an
    output file is opened.

    The text goes to a temporary file beside the file ``path`` names
    (through any symlink), which ``os.replace`` moves onto it after the last
    section. The calling process writes the first section there while
    ``_fork_map`` writes the later ones, in children as it shares them out,
    to part files beside it, which are then appended in order. A raise, in
    any section, removes the temporary and part files, and an OSError about
    one of them names ``path``. So a write leaves the whole new file or the
    earlier one, with the file mode and the messages of ``open(path, "w")``.
    With one worker (``_worker_count``) the calling process writes every
    section there in order; a ``path`` that exists but is not a regular
    file, such as ``/dev/null``, it writes so in place.
    """
    target = os.path.realpath(path)
    stem = f"{target}.{os.getpid()}"
    tmp = f"{stem}.tmp" if os.path.isfile(target) or not os.path.exists(target) else target
    if tmp == target or _worker_count(len(sections)) == 1:
        sections = (itertools.chain(*sections),)
    parts = [f"{stem}.{i}.part" for i in range(1, len(sections))]
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:

            def write(i):
                with open(parts[i - 1], "w", newline="", encoding="utf-8") if i else contextlib.nullcontext(fh) as out:
                    out.writelines(sections[i])

            _fork_map(write, list(range(len(sections))))
            fh.flush()
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
        os.replace(tmp, target)
    except BaseException as e:
        if tmp != target and os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError) and tmp != target and e.filename in (tmp, *parts):
            raise type(e)(e.errno, e.strerror, os.fspath(path)) from None
        raise
    finally:
        for part in parts:
            if os.path.exists(part):
                os.remove(part)


def _write_json(path, doc, sort_keys: bool = False) -> None:
    """``doc`` as ``json.dump(doc, fh, indent=1)`` spells it, and a newline."""
    _write_text(path, (json.dumps(doc, indent=1, sort_keys=sort_keys), "\n"))


def _read_json(path, what: str):
    """The JSON document in ``path``; a file that is not UTF-8 JSON raises
    ParseError, naming the file and ``what`` it should have held."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as e:
        raise ParseError(f"{path}: not a JSON {what} ({e})") from None


def _write_csv(path, header, rows) -> None:
    """Write the ``header`` row and then ``rows`` through ``csv.writer``,
    whose ``writerow`` returns what its file's ``write`` returns: the line."""
    writerow = csv.writer(SimpleNamespace(write=str)).writerow
    _write_text(path, itertools.chain([writerow(header)], map(writerow, rows)))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(manifest_path, command: str, config: dict, inputs, outputs, seed=None, digests=None) -> None:
    """Write the manifest of one command. ``digests`` maps an input path, as
    ``str``, to the sha256 its reader computed; other inputs are hashed here."""
    digests = digests or {}
    doc = {
        "command": command,
        "version": __version__,
        TIMESTAMP_KEY: datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "inputs": [{"path": str(p), "sha256": digests.get(str(p)) or sha256_file(p)} for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    _write_json(manifest_path, doc, sort_keys=True)


def manifest_path_for(out_path) -> str:
    """Manifest location for a single-file output: alongside, suffixed."""
    return f"{out_path}{MANIFEST_SUFFIX}"
