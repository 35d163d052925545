"""Work the benchmark driver hands to child processes so that the driver
itself never imports numpy or holds generated data.

    python3 bench/child.py env
    python3 bench/child.py inputs --workload plane --seed 1 --scale 40 --out DIR

``env`` prints one JSON object describing the numeric stack. ``inputs``
writes the untimed inputs of a workload into ``DIR``:

* ``plane``: ``rr.csv`` (a skiing-class session protocol of 120 min at full
  scale) and ``accel.csv`` (an ``active`` trace of 60 min), both generated
  through ``loadlens.synth`` and written by ``loadlens.ingest``;
* ``train``: ``features.csv`` of the ``sessions`` dataset at the same seed,
  made by ``loadlens synth sessions`` and ``loadlens features``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k, "unset") for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads_env": threads,
    }


def make_inputs(workload: str, seed: int, scale: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    if workload == "plane":
        from loadlens import ingest, synth

        sizes = common.plane_sizes(scale)
        spec = synth.SESSION_CLASSES["skiing"]
        protocol = synth.session_protocol(sizes["rr_min"], spec.intensity)
        ingest.write_rr_csv(os.path.join(out, "rr.csv"), synth.gen_rr(protocol, synth.GenConfig(seed=seed)))
        accel = synth.gen_accel(spec.accel_class, sizes["accel_s"], synth.GenConfig(seed=seed + 1))
        ingest.write_accel_csv(os.path.join(out, "accel.csv"), accel)
    elif workload == "train":
        from loadlens.cli import main

        data = os.path.join(out, "data")
        if main(["synth", "sessions", "--n", str(scale), "--seed", str(seed), "--out-dir", data]) != 0:
            raise SystemExit("synth sessions failed")
        if main(["features", "--sessions", os.path.join(data, "sessions.csv"), "--out", os.path.join(out, "features.csv")]) != 0:
            raise SystemExit("features failed")
        shutil.rmtree(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("env")
    p = sub.add_parser("inputs")
    p.add_argument("--workload", choices=common.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.what == "env":
        print(json.dumps(environment()))
    else:
        make_inputs(args.workload, args.seed, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
