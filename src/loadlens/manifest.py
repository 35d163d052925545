"""Run manifests: recorded provenance for every CLI output.

A manifest carries the resolved configuration, input digests, and output
paths of one command invocation. Re-running a command with an identical
manifest (timestamp aside) must reproduce its outputs byte-for-byte; the
``created_utc`` field is the only part excluded from that contract.
"""

from __future__ import annotations

import hashlib
import os
from datetime import datetime, timezone

from . import __version__
from .ingest import _write_json

MANIFEST_SUFFIX = ".manifest.json"
RUN_MANIFEST_NAME = "run.manifest.json"

#: Manifest key excluded from the determinism contract.
TIMESTAMP_KEY = "created_utc"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(manifest_path, command: str, config: dict, inputs, outputs, seed=None) -> None:
    doc = {
        "command": command,
        "version": __version__,
        TIMESTAMP_KEY: datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "inputs": [{"path": str(p), "sha256": sha256_file(p)} for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    _write_json(manifest_path, doc, sort_keys=True)


def manifest_path_for(out_path) -> str:
    """Manifest location for a single-file output: alongside, suffixed."""
    return f"{out_path}{MANIFEST_SUFFIX}"


def manifest_path_for_dir(out_dir) -> str:
    return os.path.join(out_dir, RUN_MANIFEST_NAME)

