"""Benchmark driver: runs one workload of the loadlens CLI and prints its
metrics.

    python3 bench/run.py --workload sessions --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the workload's commands run as
``python -m loadlens.cli ...`` subprocesses, one after another, in fresh
repetition directories until ``--seconds`` have passed, and the last line
of standard output is a JSON object with the end-to-end metrics. With
``--trace 1`` one untraced repetition gives the reference output digests,
then ``trace.py`` runs the same commands in-process with every layer traced,
and the last line carries the per-layer metrics.

Every output of every command is hashed (see ``common.file_digest``). A
command that exits non-zero, or whose output digests differ from those of
the first repetition, counts as failed.

This process imports neither numpy nor loadlens and never loads generated
data while children run: a child's max-RSS as the kernel reports it starts
from its parent's, so a large driver would hide the children's real peak.
Input generation and the traced run therefore happen in child processes.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every run must end well within the 180 s a run may take.
DEADLINE_S = 170.0
SETUP_SAMPLES = 8
LABELS = ("walking", "running", "skiing")


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


class Runner:
    """Starts children one at a time and reaps each with ``wait4`` for its
    own resource usage."""

    def __init__(self, work: str, deadline: float):
        self.env = dict(os.environ)
        self.env.pop("LOADLENS_SEED", None)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.log = os.path.join(work, "children.log")
        self.deadline = deadline
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, argv, cwd=ROOT, stdout=subprocess.DEVNULL):
        """Run one child; returns (exit code, wall seconds, max RSS in MB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout()
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=stdout, stderr=log)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def tail(self, n=20) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-n:])


def environment(runner: Runner, seed: int) -> dict:
    out = os.path.join(os.path.dirname(runner.log), "env.json")
    with open(out, "wb") as fh:
        code, _, _ = runner.run([sys.executable, os.path.join(HERE, "child.py"), "env"], stdout=fh)
    if code != 0:
        raise RuntimeError("environment probe failed:\n" + runner.tail())
    with open(out, encoding="utf-8") as fh:
        env = json.load(fh)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        **env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def make_inputs(runner: Runner, workload: str, seed: int, scale: int, work: str) -> None:
    if workload == "sessions":
        return
    argv = [sys.executable, os.path.join(HERE, "child.py"), "inputs", "--workload", workload,
            "--seed", str(seed), "--scale", str(scale), "--out", os.path.join(work, "in")]
    code, _, _ = runner.run(argv)
    if code != 0:
        raise RuntimeError(f"input generation failed (exit {code}):\n" + runner.tail())


def repetition(runner: Runner, cmds, rep_dir: str, count_rows: bool) -> dict:
    """Run the commands once in ``rep_dir``; hashing is outside the timing."""
    os.makedirs(rep_dir)
    files = common.list_files(rep_dir)
    walls, rss, codes, digests, rows = [], [], [], [], 0
    for cmd in cmds:
        code, wall, maxrss = runner.run([sys.executable, "-m", "loadlens.cli", *cmd.argv], cwd=rep_dir)
        files, outputs = common.digest_new_files(rep_dir, files)
        walls.append(wall)
        rss.append(maxrss)
        codes.append(code)
        digests.append(outputs)
        if count_rows:
            rows += common.command_rows(cmd, rep_dir, outputs)
    return {"walls": walls, "rss": rss, "codes": codes, "digests": digests, "rows": rows}


def failures(rep: dict, ref_digests) -> list[int]:
    """Indices of commands that exited non-zero or changed an output."""
    return [i for i, (code, d) in enumerate(zip(rep["codes"], rep["digests"])) if code != 0 or d != ref_digests[i]]


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload: str, scale: int, rep_dir: str, work: str) -> list[str]:
    """Checks of output content beyond determinism; returns the problems found."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    n_sessions = 3 * scale
    p = lambda *parts: os.path.join(rep_dir, *parts)  # noqa: E731
    if workload == "sessions":
        expect(common.count_rows(p("data", "sessions.csv")) == n_sessions, "sessions.csv rows")
        feats = _csv_rows(p("features.csv"))
        expect(len(feats) == n_sessions, "features.csv rows")
        expect(all(math.isfinite(float(r["ahr_bpm"])) for r in feats), "finite ahr_bpm")
        preds = _csv_rows(p("predictions.csv"))
        expect(0 < len(preds) <= n_sessions, "predictions.csv rows")
        expect(all(r["predicted_activity"] in LABELS for r in preds), "predicted labels")
        expect(common.count_rows(p("models", "dnn_all.losses.csv")) == common.DEFAULT_EPOCHS + 1, "dnn losses rows")
    elif workload == "plane":
        beats = common.count_rows(os.path.join(work, "in", "rr.csv"))
        accel = common.count_rows(os.path.join(work, "in", "accel.csv"))
        with open(p("plane.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        expect(len(doc["points"]) == beats - common.WINDOW + 1, "plane points")
        expect(len(doc["bootstrap_cloud"]) == common.plane_sizes(scale)["bootstrap"], "bootstrap cloud size")
        expect(any(pt["zone"] for pt in doc["points"]), "zoned points")
        expect(common.count_rows(p("rr_windows.csv")) == beats - common.WINDOW + 1, "rr windows rows")
        expect(common.count_rows(p("accel_windows.csv")) == (accel - common.WINDOW) // 5 + 1, "accel windows rows")
    else:
        with open(p("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        expect(report["n"] == 2 * len(common.PRESETS), "report entries")
        for preset in common.PRESETS:
            rows = common.count_rows(p("models", f"dnn_{preset}.losses.csv"))
            expect(rows == common.TRAIN_EPOCHS + 1, f"dnn_{preset} losses rows")
        with open(p("cluster.json"), encoding="utf-8") as fh:
            cluster = json.load(fh)
        expect(cluster["k"] == 3 and 0 < len(cluster["assignments"]) <= n_sessions, "cluster assignments")
        expect(common.count_rows(p("correlation.csv")) == 13, "correlation rows")
    return problems


def stage_medians(reps, cmds) -> dict:
    stages = sorted({c.stage for c in cmds})
    return {
        f"{s}_s": statistics.median([sum(w for w, c in zip(r["walls"], cmds) if c.stage == s) for r in reps]) for s in stages
    }


def setup_samples(runner, k: int) -> list[float]:
    argv = [sys.executable, "-c", "import loadlens.cli"]
    out = []
    for _ in range(k):
        code, wall, _ = runner.run(argv)
        if code != 0:
            raise RuntimeError("import loadlens.cli failed:\n" + runner.tail())
        out.append(wall)
    return out


def run_untraced(runner, args, cmds, work):
    # The warm-up import writes the bytecode caches, which a user pays for
    # once, not on every run. Half the set-up samples come before the
    # repetitions and half after, so that they span the same stretch of
    # machine speed as the commands.
    setup_samples(runner, 1)
    setup = setup_samples(runner, SETUP_SAMPLES // 2)

    reps, failed, bad = [], 0, []
    start = time.perf_counter()
    while True:
        rep_dir = os.path.join(work, f"rep{len(reps)}")
        rep = repetition(runner, cmds, rep_dir, count_rows=not reps)
        ref = reps[0]["digests"] if reps else rep["digests"]
        idx = failures(rep, ref)
        failed += len(idx)
        bad += [f"rep{len(reps)}: {cmds[i].name}" for i in idx]
        reps.append(rep)
        if time.perf_counter() - start >= args.seconds:
            break
        shutil.rmtree(rep_dir)
    setup += setup_samples(runner, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    # Content checks load whole outputs, so they run after every timed child.
    try:
        problems = check_outputs(args.workload, args.sessions_per_class, rep_dir, work)
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems = [f"unreadable output: {type(e).__name__}: {e}"]

    rows = reps[0]["rows"]
    totals = [sum(r["walls"]) for r in reps]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "total_s": (statistics.median(totals), "s"),
        "rows_per_s": (statistics.median([rows / t for t in totals]), "1/s"),
        "peak_rss_mb": (statistics.median([max(r["rss"]) for r in reps]), "MB"),
    }
    attempted = len(reps) * len(cmds)
    detail = {
        "repetitions": len(reps),
        "setup_samples": len(setup),
        "rows_per_repetition": rows,
        "stages_s": stage_medians(reps, cmds),
        "commands": [
            {"argv": c.name, "wall_s": statistics.median([r["walls"][i] for r in reps]), "max_rss_mb": reps[0]["rss"][i]}
            for i, c in enumerate(cmds)
        ],
        "failed_ratio": failed / attempted,
        "failed_commands": bad,
        "check_problems": problems,
        "digest": common.combined_digest(reps[0]["digests"]),
    }
    return metrics, attempted, failed, not problems, detail


def run_traced(runner, args, cmds, work):
    ref = repetition(runner, cmds, os.path.join(work, "ref"), count_rows=False)
    shutil.rmtree(os.path.join(work, "ref"))
    failed = len(failures(ref, ref["digests"]))
    out = os.path.join(work, "trace.json")
    argv = [sys.executable, os.path.join(HERE, "trace.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--scale", str(args.sessions_per_class), "--seconds", str(args.seconds), "--work", work, "--out", out]
    code, _, _ = runner.run(argv)
    if code != 0:
        raise RuntimeError(f"traced run failed (exit {code}):\n" + runner.tail())
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    bad = []
    for k, p in enumerate(doc["passes"]):
        idx = failures(p, ref["digests"])
        failed += len(idx)
        bad += [f"pass{k}{' (traced)' if p['traced'] else ''}: {cmds[i].name}" for i in idx]
    metrics = {m: tuple(vu) for m, vu in doc["per_layer"].items()}
    attempted = (1 + len(doc["passes"])) * len(cmds)
    detail = {
        "passes": len(doc["passes"]),
        "traced_passes": sum(p["traced"] for p in doc["passes"]),
        "counts_repeat": doc["counts_repeat"],
        "traced_total_s": doc["traced_total_s"],
        "untraced_total_s": doc["untraced_total_s"],
        "top_self_s": doc["top_self_s"],
        "other_s": doc["other_s"],
        "failed_commands": bad,
        "digest": common.combined_digest(ref["digests"]),
    }
    return metrics, attempted, failed, doc["counts_repeat"], detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sessions-per-class", type=int, default=common.FULL_SCALE,
                        help="dataset scale; smaller values are for the smoke test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "loadlens", "cli.py")):
        print(f"error: no loadlens source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(work, started + DEADLINE_S)
        env = environment(runner, args.seed)
        make_inputs(runner, args.workload, args.seed, args.sessions_per_class, work)
        cmds = common.commands(args.workload, args.seed, args.sessions_per_class)
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, checks_ok, detail = run(runner, args, cmds, work)
    except (RuntimeError, Timeout) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    detail["environment"] = env
    detail["elapsed_s"] = time.monotonic() - started
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} digest={detail['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
