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
write leaves the earlier target, or none, never a cut file.
``ingest._write_table`` feeds it the numeric tables (accel, rr, windows) as
f-string lines; ``_write_csv`` the tables that hold text (sessions,
features, correlations, predictions, loss curves) through ``csv.writer``,
which quotes text cells; ``_write_json`` every JSON file but ``plane.json``,
which ``momentplane.export_plane`` streams from templates. ``_read_json`` is
the one JSON reader. Floats are written by ``repr``, so a write -> parse
round trip is bit-exact. CSV lines end in ``\\r\\n``, but those of
``predict.csv`` and ``*.losses.csv`` in ``\\n``, as in JSON files. Both CSV
writers stay: f-strings cannot quote text, and ``csv.writer`` is slower on
numeric tables (timed on 180,000 accel rows and 35,941 window rows, as the
CHANGES.md line "Fit and score the network in fewer numpy calls" records).
The sink needs only the standard library, so ``report``, which only copies
JSON, runs without numpy.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
from datetime import datetime, timezone
from types import SimpleNamespace

from . import __version__
from .errors import ParseError

MANIFEST_SUFFIX = ".manifest.json"

#: Manifest key excluded from the determinism contract.
TIMESTAMP_KEY = "created_utc"


def _write_text(path, parts) -> None:
    """Write the text ``parts``, an iterable consumed as it is written, to
    ``path``; the one place where an output file is opened.

    The parts go to a temporary file beside the file ``path`` names
    (through any symlink), which ``os.replace`` moves onto it after the last
    part. A raise removes the temporary file, and an OSError about it names
    ``path``. So a write leaves the whole new file or the earlier one, with
    the file mode and the messages of ``open(path, "w")``. A ``path`` that
    exists but is not a regular file, such as ``/dev/null``, is written in
    place.
    """
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp" if os.path.isfile(target) or not os.path.exists(target) else target
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, target)
    except BaseException as e:
        if tmp != target and os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp != target:
            raise type(e)(e.errno, e.strerror, os.fspath(path)) from None
        raise


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


def _write_csv(path, header, rows, lineterminator: str = "\r\n") -> None:
    """Write the ``header`` row and then ``rows`` through ``csv.writer``,
    whose ``writerow`` returns what its file's ``write`` returns: the line."""
    writerow = csv.writer(SimpleNamespace(write=str), lineterminator=lineterminator).writerow
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
