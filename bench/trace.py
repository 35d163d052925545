"""Traced in-process passes over one workload, for the per-layer metrics.

    python3 bench/trace.py --workload plane --seed 1 --scale 40 --seconds 20 \
        --work DIR --out result.json

The benchmark driver starts this as a child process after it has prepared
the inputs in ``DIR/in``. It runs the workload's commands through
``loadlens.cli.main`` in this one process, in passes. An untraced warm-up pass
comes first (it fills lazy caches such as the plane landmarks, and is
only checked, not timed), then traced, untraced and traced passes, then
further untraced and traced pairs until ``--seconds`` have passed.

Tracing wraps every public function of every ``loadlens`` module in a
span, and patches the wrapper into each ``loadlens`` namespace that holds
the function (``cli.parse_accel_csv``, ``synth.write_rr_csv``,
``learn.fit_dnn`` ...), so calls across modules and within one module are
both seen. A span's self time is its duration minus the duration of its
child spans. Each span's self time is credited to the metric group of the
nearest enclosing span of the same layer that names a group (see
``GROUPS``), or to the layer's ``other`` bucket.

Outputs of every pass are hashed like the driver's, so the driver can check
that tracing changes no output byte.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: layer -> {public function: metric its span (and same-layer callees) feed}.
GROUPS: dict[str, dict[str, str]] = {
    "ingest": {
        "parse_accel_csv": "ingest.parse_s",
        "parse_rr_csv": "ingest.parse_s",
        "parse_sessions_csv": "ingest.parse_s",
        "write_accel_csv": "ingest.write_s",
        "write_rr_csv": "ingest.write_s",
        "write_sessions_csv": "ingest.write_s",
        "accel_magnitude": "ingest.series_s",
        "rr_series": "ingest.series_s",
    },
    "synth": {"gen_rr": "synth.gen_rr_s", "gen_accel": "synth.gen_accel_s"},
    "stats": {
        "sliding_windows": "stats.windows_s",
        "bootstrap": "stats.bootstrap_s",
        "moments": "stats.moments_s",
        "write_windows_csv": "stats.write_s",
    },
    "momentplane": {"classify_zone": "momentplane.classify_s", "export_plane": "momentplane.export_s"},
    "features": {
        "extract_features": "features.extract_s",
        "write_features_csv": "features.io_s",
        "read_features_csv": "features.io_s",
        "write_correlation_csv": "features.io_s",
        "read_correlation_csv": "features.io_s",
        "correlation_matrix": "features.correlation_s",
    },
    "learn": {
        "fit_dnn": "learn.fit_dnn_s",
        "fit_dnn_xy": "learn.fit_dnn_s",
        "fit_lrm": "learn.fit_lrm_s",
        "fit_lrm_xy": "learn.fit_lrm_s",
        "evaluate": "learn.evaluate_s",
        "evaluate_xy": "learn.evaluate_s",
        "permutation_importance": "learn.evaluate_s",
        "kmeans": "learn.kmeans_s",
        "save_model": "learn.model_io_s",
        "load_model": "learn.model_io_s",
    },
}

#: Layers whose whole self time is one metric.
LAYER_METRIC = {"manifest": "manifest.s", "cli": "cli.self_s"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


#: (layer, function) -> (count metric, amount from (args, kwargs, result)).
COUNTERS = {
    ("ingest", "parse_accel_csv"): ("ingest.rows_parsed", lambda a, k, r: len(r)),
    ("ingest", "parse_rr_csv"): ("ingest.rows_parsed", lambda a, k, r: len(r)),
    ("ingest", "write_accel_csv"): ("ingest.rows_written", lambda a, k, r: len(_arg(a, k, 1, "samples"))),
    ("ingest", "write_rr_csv"): ("ingest.rows_written", lambda a, k, r: len(_arg(a, k, 1, "samples"))),
    ("synth", "gen_rr"): ("synth.beats", lambda a, k, r: len(r)),
    ("synth", "gen_accel"): ("synth.accel_rows", lambda a, k, r: len(r)),
    ("stats", "sliding_windows"): ("stats.windows", lambda a, k, r: len(r)),
    ("stats", "bootstrap"): ("stats.resamples", lambda a, k, r: len(r)),
    ("momentplane", "classify_zone"): ("momentplane.points", lambda a, k, r: 1),
    ("features", "extract_features"): ("features.sessions", lambda a, k, r: 1),
    # the loss lists carry epochs + 1 entries
    ("learn", "fit_dnn_xy"): ("learn.epochs", lambda a, k, r: len(r[1]) - 1),
    ("manifest", "sha256_file"): ("manifest.hashed_bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
}

#: Functions whose individual span durations are kept (per-session latency).
KEEP_DURATIONS = {("features", "extract_features")}

TIME_METRICS = sorted({m for g in GROUPS.values() for m in g.values()} | set(LAYER_METRIC.values()))
COUNT_METRICS = sorted({m for m, _ in COUNTERS.values()} | {"trace.spans"})


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != "loadlens" or len(parts) < 2:
        return None
    return parts[1]


class Tracer:
    """Span stack plus per-group self time, per-function totals and counts."""

    def __init__(self):
        self.stack: list[list] = []
        self.group_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.functions: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, incl ns, self ns
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.spans = 0

    def wrap(self, fn, layer: str):
        name = fn.__name__
        key = f"{fn.__module__}.{name}"
        group = GROUPS.get(layer, {}).get(name)
        fallback = LAYER_METRIC.get(layer, f"{layer}.other_s")
        counter = COUNTERS.get((layer, name))
        keep = (layer, name) in KEEP_DURATIONS
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group is not None:
                g = group
            elif stack and stack[-1][0] == layer:
                g = stack[-1][1]
            else:
                g = fallback
            frame = [layer, g, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_ns = dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.group_ns[g] += self_ns
                f = self.functions[key]
                f[0] += 1
                f[1] += dur
                f[2] += self_ns
                self.spans += 1
                if keep:
                    self.durations[key].append(dur)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced


def patch_points(tracer: Tracer) -> list[tuple[object, str, object, object]]:
    """(module, attribute, original, wrapper) for every namespace that holds
    a public loadlens function."""
    modules = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "loadlens" or n.startswith("loadlens."))]
    wrappers = {}
    for m in modules:
        layer = layer_of(m.__name__)
        if layer is None:
            continue
        for name, obj in vars(m).items():
            if inspect.isfunction(obj) and obj.__module__ == m.__name__ and not name.startswith("_"):
                wrappers[obj] = tracer.wrap(obj, layer)
    points = []
    for m in modules:
        for name, obj in vars(m).items():
            if inspect.isfunction(obj) and obj in wrappers:
                points.append((m, name, obj, wrappers[obj]))
    return points


def call_main(cli, argv) -> int:
    """Exit code of one command, as its own process would have exited."""
    try:
        return cli.main(list(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def run_pass(cli, cmds, pass_dir: str, tracer: Tracer | None) -> dict:
    os.makedirs(pass_dir)
    points = patch_points(tracer) if tracer is not None else []
    home = os.getcwd()
    walls, codes, digests = [], [], []
    os.chdir(pass_dir)
    for m, name, _, wrapper in points:
        setattr(m, name, wrapper)
    try:
        files = common.list_files(pass_dir)
        for cmd in cmds:
            t0 = time.perf_counter()
            code = call_main(cli, cmd.argv)
            walls.append(time.perf_counter() - t0)
            codes.append(code)
            files, outputs = common.digest_new_files(pass_dir, files)
            digests.append(outputs)
    finally:
        for m, name, original, _ in points:
            setattr(m, name, original)
        os.chdir(home)
        shutil.rmtree(pass_dir)
    return {"traced": tracer is not None, "total_s": sum(walls), "walls": walls, "codes": codes, "digests": digests}


def _q(values_ns: list[int], q: int) -> float:
    """q-th percentile in ms (0 with no samples)."""
    if not values_ns:
        return 0.0
    if len(values_ns) == 1:
        return values_ns[0] / 1e6
    return statistics.quantiles(values_ns, n=100, method="inclusive")[q - 1] / 1e6


def pass_metrics(tracer: Tracer) -> dict:
    times = {m: tracer.group_ns.get(m, 0) / 1e9 for m in TIME_METRICS}
    counts = {m: tracer.counts.get(m, 0) for m in COUNT_METRICS}
    counts["trace.spans"] = tracer.spans
    durs = tracer.durations.get("loadlens.features.extract_features", [])
    times["features.session_p50_ms"] = _q(durs, 50)
    times["features.session_p90_ms"] = _q(durs, 90)
    other = {g: ns / 1e9 for g, ns in tracer.group_ns.items() if g.endswith(".other_s")}
    return {"times": times, "counts": counts, "other": other}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """{metric: [value, unit]}: medians of the traced passes' times, counts
    of the first traced pass (the caller checks that they repeat)."""
    times = {m: statistics.median(p["metrics"]["times"][m] for p in traced) for m in traced[0]["metrics"]["times"]}
    counts = traced[0]["metrics"]["counts"]
    out = {m: [v, "ms" if m.endswith("_ms") else "s"] for m, v in times.items()}
    out.update({m: [v, "bytes" if m.endswith("_bytes") else "count"] for m, v in counts.items()})
    parse_s, rows = times["ingest.parse_s"], counts["ingest.rows_parsed"]
    out["ingest.parse_rows_per_s"] = [rows / parse_s if parse_s else 0.0, "1/s"]
    epochs = counts["learn.epochs"]
    out["learn.epoch_ms"] = [1000.0 * times["learn.fit_dnn_s"] / epochs if epochs else 0.0, "ms"]
    overhead = statistics.median(p["total_s"] for p in traced) - statistics.median(p["total_s"] for p in untraced)
    out["trace.overhead_s"] = [overhead, "s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from loadlens import cli

    cmds = common.commands(args.workload, args.seed, args.scale)
    passes = []
    plan = [None, True, False, True]
    start = time.perf_counter()
    while plan:
        traced = plan.pop(0)
        tracer = Tracer() if traced else None
        result = run_pass(cli, cmds, os.path.join(args.work, f"pass{len(passes)}"), tracer)
        result["warmup"] = traced is None
        if tracer is not None:
            result["metrics"] = pass_metrics(tracer)
            result["functions"] = dict(tracer.functions)
        passes.append(result)
        if not plan and time.perf_counter() - start < args.seconds:
            plan = [False, True]

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"] and not p["warmup"]]
    functions = traced[-1]["functions"]
    top = sorted(functions.items(), key=lambda kv: -kv[1][2])[:15]
    doc = {
        "passes": [{k: p[k] for k in ("traced", "warmup", "total_s", "codes", "digests")} for p in passes],
        "counts_repeat": all(p["metrics"]["counts"] == traced[0]["metrics"]["counts"] for p in traced),
        "per_layer": per_layer(traced, untraced),
        "traced_total_s": statistics.median(p["total_s"] for p in traced),
        "untraced_total_s": statistics.median(p["total_s"] for p in untraced),
        "top_self_s": {k: v[2] / 1e9 for k, v in top},
        "other_s": traced[-1]["metrics"]["other"],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
