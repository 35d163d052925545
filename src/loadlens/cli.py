"""Batch command-line front end.

Commands read the CSV/JSON formats declared by the backing modules and
write their outputs plus a provenance manifest alongside. Plot rendering is
out of scope: every figure-shaped result is served as data (CSV/JSON).

``synth sessions`` and ``features`` spread their sessions over worker
processes, one per available CPU; no output byte depends on how many.

Exit codes: 0 ok, 2 input error, 3 configuration error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import LoadlensError, MomentOverflow, NonFiniteLoss, ParseError, UnknownLabel
from .features import (
    ALL_FEATURES,
    SessionFeatures,
    correlation_matrix,
    extract_features,
    feature_matrix,
    read_features_csv,
    write_correlation_csv,
    write_features_csv,
)
from .ingest import (
    DEFAULT_ACTIVITIES,
    _map_sessions,
    accel_magnitude,
    parse_accel_csv,
    parse_rr_csv,
    parse_sessions_csv,
    resolve_channel_path,
    write_accel_csv,
    write_rr_csv,
)
from .learn import (
    PRESETS,
    DnnConfig,
    Standardizer,
    build_xy,
    decode_prediction,
    kmeans,
    load_model,
    run_training,
    save_model,
)
from .manifest import (
    manifest_path_for,
    manifest_path_for_dir,
    write_manifest,
)
from .momentplane import export_plane
from .stats import DEFAULT_STRIDE, DEFAULT_WINDOW, bootstrap, sliding_windows, write_windows_csv
from .synth import ACCEL_CLASSES, PROTOCOL_PRESETS, GenConfig, gen_accel, gen_rr, gen_sessions

DEFAULT_CLUSTER_COLUMNS = "acc_mean,acc_std,acc_skewness,acc_kurtosis"


class _UsageError(Exception):
    """A command line argparse rejected; ``main`` returns 3 for it."""


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as configuration errors (exit 3)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def cmd_moments(args) -> None:
    if args.channel == "accel":
        series = accel_magnitude(parse_accel_csv(args.input), center=args.center)
    else:
        if args.center:
            raise ValueError("--center applies to the accel channel only")
        series = parse_rr_csv(args.input)
    windows = sliding_windows(series, args.window, args.stride)
    write_windows_csv(args.out, windows)
    write_manifest(
        manifest_path_for(args.out),
        "moments",
        {"channel": args.channel, "window": args.window, "stride": args.stride, "center": args.center},
        [args.input],
        [args.out],
    )


def cmd_plane(args) -> None:
    rr = parse_rr_csv(args.input)
    windows = sliding_windows(rr, args.window, args.stride)
    cloud = None
    if args.bootstrap > 0:
        last = int(windows.start[-1])
        cloud = bootstrap(rr.values[last : last + windows.n], args.bootstrap, args.seed)
    export_plane(args.out, windows, args.rho, args.tau, cloud)
    write_manifest(
        manifest_path_for(args.out),
        "plane",
        {
            "window": args.window,
            "stride": args.stride,
            "bootstrap": args.bootstrap,
            "rho": args.rho,
            "tau": args.tau,
        },
        [args.input],
        [args.out],
        seed=args.seed,
    )


def _session_features(task) -> SessionFeatures:
    """Parse one session's channel files and extract its feature row."""
    meta, accel_path, rr_path = task
    accel = accel_magnitude(parse_accel_csv(accel_path))
    rr = parse_rr_csv(rr_path)
    return extract_features(meta, accel, rr)


def cmd_features(args) -> None:
    tasks = [
        (meta, resolve_channel_path(args.sessions, meta.accel_file), resolve_channel_path(args.sessions, meta.rr_file))
        for meta in parse_sessions_csv(args.sessions)
    ]
    rows = _map_sessions(_session_features, tasks)
    write_features_csv(args.out, rows)
    inputs = [args.sessions] + [path for _, accel_path, rr_path in tasks for path in (accel_path, rr_path)]
    write_manifest(manifest_path_for(args.out), "features", {}, inputs, [args.out])


def _parse_columns(text: str) -> tuple[str, ...]:
    cols = tuple(c.strip() for c in text.split(",") if c.strip())
    unknown = [c for c in cols if c not in ALL_FEATURES]
    if unknown:
        raise ValueError(f"unknown feature columns: {', '.join(unknown)}")
    if not cols:
        raise ValueError("no feature columns given")
    return cols


def cmd_correlate(args) -> None:
    rows = read_features_csv(args.features)
    columns = _parse_columns(args.columns) if args.columns else ALL_FEATURES
    corr = correlation_matrix(rows, columns)
    write_correlation_csv(args.out, corr)
    write_manifest(
        manifest_path_for(args.out),
        "correlate",
        {"columns": list(columns)},
        [args.features],
        [args.out],
    )


def cmd_cluster(args) -> None:
    rows = read_features_csv(args.features)
    columns = _parse_columns(args.columns)
    X = feature_matrix(rows, columns)
    keep = np.isfinite(X).all(axis=1)
    kept_rows = [r for r, k in zip(rows, keep) if k]
    std = Standardizer.fit(X[keep])
    result = kmeans(std.transform(X[keep]), k=args.k, seed=args.seed, feature_names=columns)
    doc = {
        "k": result.k,
        "columns": list(columns),
        "inertia": result.inertia,
        "n_iter": result.n_iter,
        "centroids_standardized": result.centroids.tolist(),
        "centroids": (result.centroids * std.stds + std.means).tolist(),
        "intensity_labels": {str(c): v for c, v in (result.intensity_labels or {}).items()},
        "assignments": [
            {
                "session_id": r.session_id,
                "activity": r.activity,
                "cluster": int(c),
                "intensity": (result.intensity_labels or {}).get(int(c)),
            }
            for r, c in zip(kept_rows, result.assignments)
        ],
    }
    _write_json(args.out, doc)
    write_manifest(
        manifest_path_for(args.out),
        "cluster",
        {"k": args.k, "columns": list(columns)},
        [args.features],
        [args.out],
        seed=args.seed,
    )


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"bad --hidden {text!r}; expected comma-separated integers") from None


def cmd_train(args) -> None:
    config = DnnConfig(
        hidden=_parse_hidden(args.hidden),
        epochs=args.epochs,
        lr=args.lr,
        batch=args.batch,
        seed=args.seed,
    )
    rows = read_features_csv(args.features)
    model, report = run_training(rows, args.model, args.preset, config, split_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    stem = f"{args.model}_{args.preset}"
    model_path = os.path.join(args.out_dir, f"{stem}.model.json")
    report_path = os.path.join(args.out_dir, f"{stem}.report.json")
    losses_path = os.path.join(args.out_dir, f"{stem}.losses.csv")
    save_model(model, model_path)
    config_echo = {
        "model": args.model,
        "preset": args.preset,
        "hidden": list(config.hidden),
        "epochs": config.epochs,
        "lr": config.lr,
        "batch": config.batch,
        "seed": args.seed,
    }
    _write_json(report_path, {**report.to_dict(), "config": config_echo})
    with open(losses_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, (tl, vl) in enumerate(zip(report.train_loss, report.val_loss)):
            fh.write(f"{epoch},{tl!r},{vl!r}\n")
    write_manifest(
        manifest_path_for(os.path.join(args.out_dir, stem)),
        "train",
        config_echo,
        [args.features],
        [model_path, report_path, losses_path],
        seed=args.seed,
    )


def cmd_predict(args) -> None:
    model = load_model(args.model)
    rows = read_features_csv(args.features)
    X, y, kept = build_xy(rows, model.features)
    if not kept:
        raise ParseError(f"{args.features}: no row has every model feature ({', '.join(model.features)})")
    yhat = model.predict(X)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("session_id", "activity", "y_true", "y_pred", "predicted_activity"))
        for r, yt, yp in zip(kept, y.tolist(), yhat.tolist()):
            w.writerow((r.session_id, r.activity, yt, yp, DEFAULT_ACTIVITIES[decode_prediction(yp)]))
    write_manifest(
        manifest_path_for(args.out),
        "predict",
        {"model_features": list(model.features), "kind": model.kind},
        [args.model, args.features],
        [args.out],
    )


def cmd_synth_sessions(args) -> None:
    metas = gen_sessions(args.n, args.seed, args.out_dir)
    outputs = [os.path.join(args.out_dir, "sessions.csv")] + [
        os.path.join(args.out_dir, f)
        for m in metas
        for f in (m.accel_file, m.rr_file)
    ]
    write_manifest(
        manifest_path_for_dir(args.out_dir),
        "synth sessions",
        {"n": args.n},
        [],
        outputs,
        seed=args.seed,
    )


def cmd_synth_rr(args) -> None:
    samples = gen_rr(PROTOCOL_PRESETS[args.preset], GenConfig(seed=args.seed))
    write_rr_csv(args.out, samples)
    write_manifest(
        manifest_path_for(args.out), "synth rr", {"preset": args.preset}, [], [args.out], seed=args.seed
    )


def cmd_synth_accel(args) -> None:
    samples = gen_accel(args.activity_class, args.duration, GenConfig(seed=args.seed))
    write_accel_csv(args.out, samples)
    write_manifest(
        manifest_path_for(args.out),
        "synth accel",
        {"class": args.activity_class, "duration_s": args.duration},
        [],
        [args.out],
        seed=args.seed,
    )


#: Report fields ``report`` copies from each ``*.report.json``, in order.
REPORT_KEYS = ("model", "preset", "accuracy", "accuracy_val", "mae_val", "mrd_val", "mae_pred", "mrd_pred")


def cmd_report(args) -> None:
    paths = sorted(glob.glob(os.path.join(args.in_dir, "*.report.json")))
    if not paths:
        raise FileNotFoundError(f"no *.report.json files in {args.in_dir}")
    entries = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:
                raise ParseError(f"{p}: not a JSON report ({e})") from None
        missing = [k for k in REPORT_KEYS if not isinstance(doc, dict) or k not in doc]
        if missing:
            raise ParseError(f"{p}: report lacks {', '.join(missing)}")
        entries.append({k: doc[k] for k in REPORT_KEYS})
    _write_json(args.out, {"entries": entries, "n": len(entries)})
    write_manifest(manifest_path_for(args.out), "report", {}, paths, [args.out])


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
#: (285 MB of CSV). Longer requests fail here, not in a huge allocation.
MAX_ACCEL_DURATION_S = 86_400.0


def _duration(text: str) -> float:
    value = _positive_float(text)
    if value > MAX_ACCEL_DURATION_S:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_ACCEL_DURATION_S:g} s, got {text}")
    return value


def _count(text: str) -> int:
    """argparse type for sizes where 0 means none: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="loadlens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"loadlens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", parents=[], help="sliding-window moment statistics to CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--channel", choices=["accel", "rr"], required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--center", action="store_true", help="subtract the series mean (accel only)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("plane", help="moments-plane export (landmarks, zones, metrics) to JSON")
    p.add_argument("--input", required=True, help="rr.csv")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--bootstrap", type=_count, default=0, metavar="B", help="cloud size for the final window")
    p.add_argument("--rho", type=_positive_float, default=0.3, help="vicinity radius of the landmarks")
    p.add_argument("--tau", type=_positive_float, default=0.15, help="half-width of the line and band zones")
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plane)

    p = sub.add_parser("features", help="per-session feature vectors to features.csv")
    p.add_argument("--sessions", required=True, help="sessions.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("correlate", help="Pearson correlation matrix to CSV")
    p.add_argument("--features", required=True, help="features.csv")
    p.add_argument("--columns", default=None, help="comma-separated feature subset")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("cluster", help="k-means intensity clustering to JSON")
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--columns", default=DEFAULT_CLUSTER_COLUMNS)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("train", help="fit and evaluate one model on one preset")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=["lrm", "dnn"], required=True)
    p.add_argument("--preset", choices=sorted(PRESETS), default="all")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--hidden", default="16,16")
    _add_seed(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to features.csv")
    p.add_argument("--model", required=True, help="model.json")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("synth", help="deterministic synthetic data generators")
    ssub = p.add_subparsers(dest="synth_command", required=True)

    q = ssub.add_parser("sessions", help="full dataset: sessions.csv + channel files")
    q.add_argument("--n", type=int, required=True, help="sessions per class")
    _add_seed(q)
    q.add_argument("--out-dir", required=True)
    q.set_defaults(fn=cmd_synth_sessions)

    q = ssub.add_parser("rr", help="heartbeat protocol to rr.csv")
    q.add_argument("--preset", choices=sorted(PROTOCOL_PRESETS), required=True)
    _add_seed(q)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_synth_rr)

    q = ssub.add_parser("accel", help="accelerometer trace to accel.csv")
    q.add_argument("--class", dest="activity_class", choices=sorted(ACCEL_CLASSES), required=True)
    limit = f"at most {MAX_ACCEL_DURATION_S:g} (one day, 4.32 M rows at 50 Hz)"
    q.add_argument("--duration", type=_duration, default=60.0, help=f"seconds, > 0 and {limit}")
    _add_seed(q)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_synth_accel)

    p = sub.add_parser("report", help="merge train reports into one comparison JSON")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 3
    try:
        args.fn(args)
    except (ParseError, UnknownLabel, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (NonFiniteLoss, MomentOverflow) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    except (LoadlensError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
