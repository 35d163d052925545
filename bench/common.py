"""Workload definitions and output digests shared by the benchmark driver
and its traced child.

This module imports only the standard library: the timing driver loads it,
and the driver must stay small (see ``run.py``).

A workload is a list of ``Command``s run one after another in a fresh
repetition directory. Paths in the arguments are relative to that
directory; prepared inputs live in ``../in``. Running every repetition from
the same relative layout keeps the arguments, and so the outputs, identical
across repetitions, which is what makes byte-for-byte comparison possible.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass

WORKLOADS = ("sessions", "plane", "train")

#: Sessions per activity class at full scale (3 classes, so 120 sessions).
FULL_SCALE = 40

#: Feature presets of ``loadlens train --preset``.
PRESETS = ("all", "dist_dur_hr", "hr", "acc_with_metrics", "acc")

#: Full-scale plane recording: a 120-min skiing-class RR file, a 60-min
#: active accel trace and a 10000-point bootstrap cloud.
PLANE_RR_MIN = 120.0
PLANE_ACCEL_S = 3600.0
PLANE_BOOTSTRAP = 10000

#: CLI defaults of ``--window`` and ``train --epochs``; the output checks
#: rely on them.
WINDOW = 300
DEFAULT_EPOCHS = 200
TRAIN_EPOCHS = 1000

#: Placeholder for the absolute repetition directory inside manifests.
WORK_PLACEHOLDER = "<WORK>"
TIMESTAMP_KEY = "created_utc"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m loadlens.cli *argv``.

    ``stage`` groups commands for the per-stage times; ``reads`` are globs
    of the CSV files the command reads, used to count rows.
    """

    stage: str
    argv: tuple[str, ...]
    reads: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def plane_sizes(scale: int) -> dict:
    """Plane-workload input sizes, proportional to ``scale``."""
    f = scale / FULL_SCALE
    return {
        "rr_min": PLANE_RR_MIN * f,
        "accel_s": PLANE_ACCEL_S * f,
        "bootstrap": max(1, round(PLANE_BOOTSTRAP * f)),
    }


def commands(workload: str, seed: int, scale: int) -> list[Command]:
    s = str(seed)
    if workload == "sessions":
        return [
            Command("synth", ("synth", "sessions", "--n", str(scale), "--seed", s, "--out-dir", "data")),
            Command("features", ("features", "--sessions", "data/sessions.csv", "--out", "features.csv"), ("data/*.csv",)),
            Command("train", ("train", "--features", "features.csv", "--model", "lrm", "--seed", s, "--out-dir", "models"), ("features.csv",)),
            Command("train", ("train", "--features", "features.csv", "--model", "dnn", "--seed", s, "--out-dir", "models"), ("features.csv",)),
            Command("analyze", ("predict", "--model", "models/dnn_all.model.json", "--features", "features.csv", "--out", "predictions.csv"), ("features.csv",)),
        ]
    if workload == "plane":
        b = str(plane_sizes(scale)["bootstrap"])
        return [
            Command("plane", ("plane", "--input", "../in/rr.csv", "--stride", "1", "--bootstrap", b, "--seed", s, "--out", "plane.json"), ("../in/rr.csv",)),
            Command("moments", ("moments", "--input", "../in/rr.csv", "--channel", "rr", "--stride", "1", "--out", "rr_windows.csv"), ("../in/rr.csv",)),
            Command("moments", ("moments", "--input", "../in/accel.csv", "--channel", "accel", "--stride", "5", "--out", "accel_windows.csv"), ("../in/accel.csv",)),
        ]
    if workload == "train":
        feats = "../in/features.csv"
        out = []
        for preset in PRESETS:
            base = ("train", "--features", feats, "--preset", preset, "--seed", s, "--out-dir", "models")
            out.append(Command("train", base + ("--model", "lrm"), (feats,)))
            out.append(Command("train", base + ("--model", "dnn", "--epochs", str(TRAIN_EPOCHS)), (feats,)))
        out += [
            Command("analyze", ("report", "--in-dir", "models", "--out", "report.json")),
            Command("analyze", ("cluster", "--features", feats, "--seed", s, "--out", "cluster.json"), (feats,)),
            Command("analyze", ("correlate", "--features", feats, "--out", "correlation.csv"), (feats,)),
        ]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def list_files(root: str) -> set[str]:
    """Paths of every file under ``root``, relative to it."""
    out = set()
    for dirpath, _, files in os.walk(root):
        for f in files:
            out.add(os.path.relpath(os.path.join(dirpath, f), root))
    return out


def file_digest(path: str, work_dir: str) -> str:
    """sha256 of one output file.

    Manifests are compared without their ``created_utc`` stamp and with the
    absolute repetition directory replaced by a placeholder; every other
    file is hashed byte for byte.
    """
    h = hashlib.sha256()
    if path.endswith(".manifest.json"):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop(TIMESTAMP_KEY, None)
        text = json.dumps(doc, sort_keys=True)
        text = text.replace(os.path.abspath(work_dir) + os.sep, WORK_PLACEHOLDER + "/")
        h.update(text.encode("utf-8"))
        return h.hexdigest()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_new_files(work_dir: str, before: set[str]) -> tuple[set[str], dict[str, str]]:
    """Hash the files a command added to ``work_dir``.

    Returns the new listing and ``{relative path: sha256}`` of the added files.
    """
    after = list_files(work_dir)
    new = sorted(after - before)
    return after, {p: file_digest(os.path.join(work_dir, p), work_dir) for p in new}


def combined_digest(per_command: list[dict[str, str]]) -> str:
    """One digest over every output of one repetition."""
    h = hashlib.sha256()
    for outputs in per_command:
        for path in sorted(outputs):
            h.update(f"{path} {outputs[path]}\n".encode("utf-8"))
    return h.hexdigest()


def count_rows(path: str) -> int:
    """Data rows of a CSV file: its lines minus the header."""
    n = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
    return max(n - 1, 0)


def command_rows(cmd: Command, work_dir: str, outputs) -> int:
    """CSV data rows a command read (its ``reads`` globs) plus wrote."""
    paths = [p for pattern in cmd.reads for p in glob.glob(os.path.join(work_dir, pattern))]
    paths += [os.path.join(work_dir, p) for p in outputs if p.endswith(".csv")]
    return sum(count_rows(p) for p in paths)
