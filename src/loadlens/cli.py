"""Batch command-line front end.

Commands read the CSV/JSON formats declared by the backing modules and
write their outputs plus a provenance manifest alongside. Plot rendering is
out of scope: every figure-shaped result is served as data (CSV/JSON).

Each ``cmd_*`` writes its outputs and returns its run record: its
``config`` and ``inputs``, the ``digests`` its channel readers computed,
and, for ``train`` and ``synth sessions``, which write several files, its
``outputs`` and manifest ``stem``. ``main`` writes the one manifest from
that record after the command returns, so the manifest is written last: a
failed command leaves none, and a missing manifest marks an incomplete run,
whose report ``report`` rejects.
Each output file appears whole or not at all (``manifest._write_text``).

A command imports only the modules it runs, when it runs, and its
arguments are added to the parser only then; ``report`` runs without numpy.
Work is spread over forked processes, one per available CPU
(``manifest._fork_map``): ``synth sessions`` and ``features`` their
sessions; ``moments``, ``plane`` and ``synth`` the long channel files they
read or write and their many windows; ``plane`` its bootstrap cloud. No
output byte depends on how many.

Exit codes: 0 ok, 2 input error, 3 configuration error, 4 numeric failure;
``loadlens.errors`` holds the table of error bases and their codes.
"""

from __future__ import annotations

import argparse
import functools
import glob
import itertools
import math
import os
import sys

from . import __version__
from .errors import ConfigError, LoadlensError, NumericError, ParseError
from .manifest import _read_json, _write_csv, _write_json, manifest_path_for, write_manifest

DEFAULT_CLUSTER_COLUMNS = "acc_mean,acc_std,acc_skewness,acc_kurtosis"


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as configuration errors (exit 3).
    ``arguments``, a function adding a command's arguments, runs when that
    command is parsed, so the modules holding its defaults and choices load
    only when it runs."""

    def __init__(self, *args, arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            self._arguments(self)
            self._arguments = None
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def cmd_moments(args) -> dict:
    from . import ingest, stats

    digests = {}
    if args.channel == "accel":
        series = ingest.accel_magnitude(ingest.parse_accel_csv(args.input, digests), center=args.center)
    else:
        if args.center:
            raise ConfigError("--center applies to the accel channel only")
        series = ingest.parse_rr_csv(args.input, digests)
    windows = stats.sliding_windows(series, args.window, args.stride)
    stats.write_windows_csv(args.out, windows)
    config = {"channel": args.channel, "window": args.window, "stride": args.stride, "center": args.center}
    return {"config": config, "inputs": [args.input], "digests": digests}


def cmd_plane(args) -> dict:
    from . import ingest, momentplane, stats

    digests = {}
    rr = ingest.parse_rr_csv(args.input, digests)
    windows = stats.sliding_windows(rr, args.window, args.stride)
    cloud = None
    if args.bootstrap > 0:
        last = int(windows.start[-1])
        cloud = functools.partial(stats.bootstrap, rr.values[last : last + windows.n], args.bootstrap, args.seed)
    momentplane.export_plane(args.out, windows, args.rho, args.tau, cloud)
    config = {"window": args.window, "stride": args.stride, "bootstrap": args.bootstrap}
    return {"config": {**config, "rho": args.rho, "tau": args.tau}, "inputs": [args.input], "digests": digests}


def _session_features(task):
    """Parse one session's channel files and extract its features; returns
    their values in ``ALL_FEATURES`` order and the digests of the two files."""
    from . import features, ingest

    meta, accel_path, rr_path = task
    digests = {}
    accel = ingest.accel_magnitude(ingest.parse_accel_csv(accel_path, digests))
    rr = ingest.parse_rr_csv(rr_path, digests)
    return list(features.extract_features(meta, accel, rr).values()), digests


def cmd_features(args) -> dict:
    from .features import FeatureTable, write_features_csv
    from .ingest import parse_sessions_csv, resolve_channel_path
    from .manifest import _fork_map

    # forked workers start with the modules loaded here: load what extraction imports
    from . import momentplane, stats  # noqa: F401

    metas = parse_sessions_csv(args.sessions)
    tasks = [
        (meta, resolve_channel_path(args.sessions, meta.accel_file), resolve_channel_path(args.sessions, meta.rr_file))
        for meta in metas
    ]
    values, session_digests = zip(*_fork_map(_session_features, tasks))
    write_features_csv(args.out, FeatureTable([m.session_id for m in metas], [m.activity for m in metas], values))
    inputs = [args.sessions] + [path for _, accel_path, rr_path in tasks for path in (accel_path, rr_path)]
    digests = {path: sha256 for d in session_digests for path, sha256 in d.items()}
    return {"config": {}, "inputs": inputs, "digests": digests}


def _parse_columns(text: str) -> tuple[str, ...]:
    from .features import ALL_FEATURES

    cols = tuple(c.strip() for c in text.split(",") if c.strip())
    unknown = [c for c in cols if c not in ALL_FEATURES]
    if unknown:
        raise ConfigError(f"unknown feature columns: {', '.join(unknown)}")
    repeated = [c for c in dict.fromkeys(cols) if cols.count(c) > 1]
    if repeated:
        raise ConfigError(f"repeated feature columns: {', '.join(repeated)}")
    if not cols:
        raise ConfigError("no feature columns given")
    return cols


def cmd_correlate(args) -> dict:
    from .features import ALL_FEATURES, correlation_matrix, read_features_csv, write_correlation_csv

    table = read_features_csv(args.features)
    columns = ALL_FEATURES if args.columns is None else _parse_columns(args.columns)
    write_correlation_csv(args.out, columns, correlation_matrix(table, columns))
    return {"config": {"columns": list(columns)}, "inputs": [args.features]}


def cmd_cluster(args) -> dict:
    from .features import read_features_csv
    from .learn import cluster, data, models

    columns = _parse_columns(args.columns)
    X, _, kept = data.build_xy(read_features_csv(args.features), columns)
    std = models.Standardizer.fit(X)
    result = cluster.kmeans(std.transform(X), k=args.k, seed=args.seed, feature_names=columns)
    doc = {
        "k": result.k,
        "columns": list(columns),
        "inertia": result.inertia,
        "n_iter": result.n_iter,
        "centroids_standardized": result.centroids.tolist(),
        "centroids": (result.centroids * std.stds + std.means).tolist(),
        "intensity_labels": {str(c): v for c, v in result.intensity_labels.items()},
        "assignments": [
            {"session_id": session_id, "activity": activity, "cluster": c}
            for session_id, activity, c in zip(kept.session_id, kept.activity, result.assignments.tolist())
        ],
    }
    _write_json(args.out, doc)
    return {"config": {"k": args.k, "columns": list(columns)}, "inputs": [args.features]}


def cmd_train(args) -> dict:
    from dataclasses import asdict

    from .features import read_features_csv
    from .learn import evaluate, models

    config = models.DnnConfig(
        hidden=args.hidden,
        epochs=args.epochs,
        lr=args.lr,
        batch=args.batch,
        seed=args.seed,
    )
    model, report, losses = evaluate.run_training(read_features_csv(args.features), args.model, args.preset, config)
    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.join(args.out_dir, f"{args.model}_{args.preset}")
    model_path, report_path, losses_path = f"{stem}.model.json", f"{stem}.report.json", f"{stem}.losses.csv"
    models.save_model(model, model_path)
    _write_json(report_path, report)
    outputs = [model_path, report_path]
    if losses:
        _write_csv(losses_path, ("epoch", "train_loss", "val_loss"), zip(itertools.count(), *losses))
        outputs.append(losses_path)
    run_config = {"model": args.model, "preset": args.preset, **asdict(config)}
    return {"config": run_config, "inputs": [args.features], "outputs": outputs, "stem": stem}


def cmd_predict(args) -> dict:
    import numpy as np

    from .features import read_features_csv
    from .ingest import DEFAULT_ACTIVITIES
    from .learn import data, models

    model = models.load_model(args.model)
    X, y, kept = data.build_xy(read_features_csv(args.features), model.features)
    if not len(y):
        raise ParseError(f"{args.features}: no row has every model feature ({', '.join(model.features)})")
    with np.errstate(over="ignore", invalid="ignore"):
        yhat = model.predict(X)
    if not np.isfinite(yhat).all():
        raise NumericError(f"{args.model}: the model predicts a value that is not a finite float64")
    header = ("session_id", "activity", "y_pred", "predicted_activity")
    body = (
        (session_id, activity, yp, DEFAULT_ACTIVITIES[data.decode_prediction(yp)])
        for session_id, activity, yp in zip(kept.session_id, kept.activity, yhat.tolist())
    )
    _write_csv(args.out, header, body)
    config = {"model_features": list(model.features), "kind": model.kind}
    return {"config": config, "inputs": [args.model, args.features]}


def cmd_synth_sessions(args) -> dict:
    from .synth import gen_sessions

    metas = gen_sessions(args.n, args.seed, args.out_dir)
    files = ["sessions.csv"] + [f for m in metas for f in (m.accel_file, m.rr_file)]
    outputs = [os.path.join(args.out_dir, f) for f in files]
    return {"config": {"n": args.n}, "inputs": [], "outputs": outputs, "stem": os.path.join(args.out_dir, "run")}


def cmd_synth_rr(args) -> dict:
    from . import ingest, synth

    samples = synth.gen_rr(synth.PROTOCOL_PRESETS[args.preset], synth.GenConfig(seed=args.seed))
    ingest.write_rr_csv(args.out, samples)
    return {"config": {"preset": args.preset}, "inputs": []}


def cmd_synth_accel(args) -> dict:
    from . import ingest, synth

    samples = synth.gen_accel(args.activity_class, args.duration, synth.GenConfig(seed=args.seed))
    ingest.write_accel_csv(args.out, samples)
    return {"config": {"class": args.activity_class, "duration_s": args.duration}, "inputs": []}


#: Report fields ``report`` copies from each ``*.report.json``, in order.
REPORT_KEYS = ("model", "preset", "accuracy", "accuracy_val", "mae_val", "mrd_val", "mae_pred", "mrd_pred")


def cmd_report(args) -> dict:
    paths = sorted(glob.glob(os.path.join(args.in_dir, "*.report.json")))
    if not paths:
        raise FileNotFoundError(f"no *.report.json files in {args.in_dir}")
    entries = []
    for p in paths:
        doc = _read_json(p, "report")
        missing = [k for k in REPORT_KEYS if not isinstance(doc, dict) or k not in doc]
        if missing:
            raise ParseError(f"{p}: report lacks {', '.join(missing)}")
        manifest = manifest_path_for(p.removesuffix(".report.json"))
        if not os.path.exists(manifest):
            raise ParseError(f"{p}: no {os.path.basename(manifest)} beside it; the run that wrote it did not finish")
        entries.append({k: doc[k] for k in REPORT_KEYS})
    _write_json(args.out, {"entries": entries, "n": len(entries)})
    return {"config": {}, "inputs": paths}


def _positive_float(text: str) -> float:
    """argparse type for radii and widths: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


#: Longest ``synth accel --duration`` in seconds: one day, 4.32 M rows at 50 Hz
#: (125 MB of CSV, as the CHANGES.md line "Synthetic channels at sensor
#: resolution" records). Longer requests fail here, not in a huge allocation.
MAX_ACCEL_DURATION_S = 86_400.0


def _duration(text: str) -> float:
    from .synth import ACCEL_HZ

    value = _positive_float(text)
    if value > MAX_ACCEL_DURATION_S:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_ACCEL_DURATION_S:g} s, got {text}")
    if round(value * ACCEL_HZ) < 1:
        shortest = 0.5 / ACCEL_HZ
        raise argparse.ArgumentTypeError(f"must be over {shortest:g} s to hold one sample at {ACCEL_HZ} Hz, got {text}")
    return value


def _count(text: str) -> int:
    """argparse type for seeds, and sizes where 0 means none: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


#: Largest sizes of ``plane --bootstrap`` (about 2 s and 16 MB of
#: ``plane.json`` on a 2-vCPU x86-64 machine, as the CHANGES.md line "One
#: form per result" records), ``synth sessions --n`` (3,000 sessions, about
#: 1 GB of CSV, as the CHANGES.md line "One way into a ``Channel``"
#: records),
#: ``train --hidden`` (the fit's memory and time grow with the square of
#: the width) and ``train --epochs`` (100 times the benchmark's 1,000; on
#: the same machine about 21 s for 120 rows and the default layers, as the
#: CHANGES.md line "One pass shape for the network" records, and a 44 MB
#: peak with its 5.0 MB loss curve, as the CHANGES.md line "One row speller
#: for every streamed table" records).
#: Larger requests fail here, not in a huge allocation or a run of hours.
MAX_BOOTSTRAP = 100_000
MAX_EPOCHS = 100_000
MAX_SESSIONS_PER_CLASS = 1_000
MAX_HIDDEN_LAYERS = 8
MAX_HIDDEN_WIDTH = 256
HIDDEN_LIMIT = f"at most {MAX_HIDDEN_LAYERS} layers of at most {MAX_HIDDEN_WIDTH} units"


def _at_most(maximum: int):
    """argparse type for a size with a maximum: an int from 0 to ``maximum``."""

    def size(text: str) -> int:
        value = _count(text)
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum:,}, got {text}")
        return value

    return size


def _hidden(text: str) -> tuple[int, ...]:
    """argparse type for ``train --hidden``: comma-separated layer widths,
    ``HIDDEN_LIMIT``."""
    try:
        sizes = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if len(sizes) > MAX_HIDDEN_LAYERS or any(size > MAX_HIDDEN_WIDTH for size in sizes):
        raise argparse.ArgumentTypeError(f"must be {HIDDEN_LIMIT}, got {text}")
    return sizes


def _add_seed(p) -> None:
    p.add_argument("--seed", type=_count, default=0, help="RNG seed, >= 0 (default: 0)")


def build_parser() -> _Parser:
    """The parser of every command. Each function below adds one command's
    arguments, and runs only when that command is parsed."""
    parser = _Parser(prog="loadlens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"loadlens {__version__}")

    def moments(p):
        from .stats import DEFAULT_STRIDE, DEFAULT_WINDOW

        p.add_argument("--input", required=True)
        p.add_argument("--channel", choices=["accel", "rr"], required=True)
        p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
        p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
        p.add_argument("--center", action="store_true", help="subtract the series mean (accel only)")
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_moments)

    def plane(p):
        from .momentplane import DEFAULT_RHO, DEFAULT_TAU
        from .stats import DEFAULT_STRIDE, DEFAULT_WINDOW

        p.add_argument("--input", required=True, help="rr.csv")
        p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
        p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
        cloud = f"cloud size for the final window, at most {MAX_BOOTSTRAP:,}"
        p.add_argument("--bootstrap", type=_at_most(MAX_BOOTSTRAP), default=0, metavar="B", help=cloud)
        p.add_argument("--rho", type=_positive_float, default=DEFAULT_RHO, help="vicinity radius of the landmarks")
        p.add_argument("--tau", type=_positive_float, default=DEFAULT_TAU, help="half-width of the line and band zones")
        _add_seed(p)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_plane)

    def features(p):
        p.add_argument("--sessions", required=True, help="sessions.csv")
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_features)

    def correlate(p):
        p.add_argument("--features", required=True, help="features.csv")
        p.add_argument("--columns", default=None, help="comma-separated feature subset")
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_correlate)

    def cluster(p):
        p.add_argument("--features", required=True)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--columns", default=DEFAULT_CLUSTER_COLUMNS)
        _add_seed(p)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_cluster)

    def train(p):
        from .learn.data import PRESETS
        from .learn.models import DnnConfig

        p.add_argument("--features", required=True)
        p.add_argument("--model", choices=["lrm", "dnn"], required=True)
        p.add_argument("--preset", choices=sorted(PRESETS), default="all")
        epochs = f"training epochs, >= 1 and at most {MAX_EPOCHS:,}"
        p.add_argument("--epochs", type=_at_most(MAX_EPOCHS), default=DnnConfig.epochs, help=epochs)
        p.add_argument("--lr", type=float, default=DnnConfig.lr)
        p.add_argument("--batch", type=int, default=DnnConfig.batch)
        widths = f"comma-separated layer widths (default: {','.join(map(str, DnnConfig.hidden))}), {HIDDEN_LIMIT}"
        p.add_argument("--hidden", type=_hidden, default=DnnConfig.hidden, help=widths)
        _add_seed(p)
        p.add_argument("--out-dir", required=True)
        p.set_defaults(fn=cmd_train)

    def predict(p):
        p.add_argument("--model", required=True, help="model.json")
        p.add_argument("--features", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_predict)

    def synth_sessions(p):
        n = f"sessions per class, at most {MAX_SESSIONS_PER_CLASS:,}"
        p.add_argument("--n", type=_at_most(MAX_SESSIONS_PER_CLASS), required=True, help=n)
        _add_seed(p)
        p.add_argument("--out-dir", required=True)
        p.set_defaults(fn=cmd_synth_sessions)

    def synth_rr(p):
        from .synth import PROTOCOL_PRESETS

        p.add_argument("--preset", choices=sorted(PROTOCOL_PRESETS), required=True)
        _add_seed(p)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_synth_rr)

    def synth_accel(p):
        from .synth import ACCEL_CLASSES

        p.add_argument("--class", dest="activity_class", choices=sorted(ACCEL_CLASSES), required=True)
        limit = f"at most {MAX_ACCEL_DURATION_S:g} (one day, 4.32 M rows at 50 Hz)"
        p.add_argument("--duration", type=_duration, default=60.0, help=f"seconds, > 0 and {limit}")
        _add_seed(p)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_synth_accel)

    def report(p):
        p.add_argument("--in-dir", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_report)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("moments", help="sliding-window moment statistics to CSV", arguments=moments)
    sub.add_parser("plane", help="moments-plane export (landmarks, zones, metrics) to JSON", arguments=plane)
    sub.add_parser("features", help="per-session feature vectors to features.csv", arguments=features)
    sub.add_parser("correlate", help="Pearson correlation matrix to CSV", arguments=correlate)
    sub.add_parser("cluster", help="k-means intensity clustering to JSON", arguments=cluster)
    sub.add_parser("train", help="fit and evaluate one model on one preset", arguments=train)
    sub.add_parser("predict", help="apply a saved model to features.csv", arguments=predict)
    ssub = sub.add_parser("synth", help="deterministic synthetic data generators")
    ssub = ssub.add_subparsers(dest="synth_command", required=True)
    ssub.add_parser("sessions", help="full dataset: sessions.csv + channel files", arguments=synth_sessions)
    ssub.add_parser("rr", help="heartbeat protocol to rr.csv", arguments=synth_rr)
    ssub.add_parser("accel", help="accelerometer trace to accel.csv", arguments=synth_accel)
    sub.add_parser("report", help="merge train reports into one comparison JSON", arguments=report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run = args.fn(args)
        write_manifest(
            manifest_path_for(run.pop("stem", None) or args.out),
            f"synth {args.synth_command}" if args.command == "synth" else args.command,
            seed=getattr(args, "seed", None),
            outputs=run.pop("outputs", None) or [args.out],
            **run,
        )
    except LoadlensError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
