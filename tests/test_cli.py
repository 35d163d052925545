"""Command-line tests: byte-identical outputs across runs and the exit code
of each rejected argument."""

import csv
import dataclasses
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import loadlens
from loadlens import cli, ingest, manifest
from loadlens.cli import main
from loadlens.errors import ConfigError, MalformedRow, NonMonotonicTime, ParseError
from loadlens.features import ALL_FEATURES, FeatureTable, write_features_csv
from loadlens.learn.data import split
from loadlens.manifest import TIMESTAMP_KEY
from tests.conftest import make_rows

#: sha256 of every data output of the golden pipeline below. They were
#: computed with the row-object implementation that preceded the columnar
#: channels; any change here is a change of output bytes.
#: ``accel_windows.csv`` was re-pinned when the window table dropped its
#: ``n`` and ``degenerate`` columns; its other cells are unchanged.
#: Every channel file, ``features.csv`` and ``accel_windows.csv`` were
#: re-pinned when ``synth`` came to write rr on a whole-ms grid and accel
#: on a 0.001 m/s^2 grid; ``sessions.csv`` is unchanged.
#: ``features.csv`` and ``accel_windows.csv`` were re-pinned when skewness
#: came to be m3 / (m2 * sqrt(m2)); only skewness cells moved, by <= 2 ulp.
GOLDEN_SHA256 = {
    "data/running000_accel.csv": "047331f92458ea7f8e66abe47834c955f041eef0c02117470f527b4996f16d41",
    "data/running000_rr.csv": "9a723b34c578ccd6f61d9933a8e676aa0e76b1a6b1648f0a5832533d19792170",
    "data/running001_accel.csv": "844abd5b31565b949b30dad972d6a87ce5a3976f6e9e9508a91c10ee0133ee28",
    "data/running001_rr.csv": "a26ec7270376cf02dd4bb2563d386bacd3fb8543364b4b9adb9501cebad49883",
    "data/sessions.csv": "e414fe671499733eeab71c54f0a3d1ab7fa2b8dee347a6882da3f3b486c870fe",
    "data/skiing000_accel.csv": "3b18918ad03d2f37af0344c0c19c6ec392253fbc973ff900c5d6f3443723ca94",
    "data/skiing000_rr.csv": "15549a8dfdc7eda21ccc1bf653b5b6adeb6056fd6e717a371219e534ef012cd0",
    "data/skiing001_accel.csv": "68a0455e06b61cb1634912f8a2616f668467b6470c78a3478be8f7dd4a937d7a",
    "data/skiing001_rr.csv": "9eef842cf29e218e87fbae9a98fbde82ab67fc283343aea80994a1a5099d1e63",
    "data/walking000_accel.csv": "5b49f37a484be4976434ede21847d1d9df89f1c9ec5dddffcb60a10e95ba07ce",
    "data/walking000_rr.csv": "e5101558a54449be9eabccd468888a356742f53dc8ac835e394345358a303ef4",
    "data/walking001_accel.csv": "58345bd0a8e94cc34bc94b31c733d842e56c27a06bf466c9be35fb8fa20abaa6",
    "data/walking001_rr.csv": "f4c75b68dd4aa2c5f3fee2c6b0a4de4f9147476848696dea6dab1fee7431df9e",
    "features.csv": "28a690f50c947f3c0d6330098a2a52c89bea8384ce6856c31e191820fece4b4f",
    "accel_windows.csv": "8da783cc8d30372890b78a60540ed4214a830668614d26653f721f243412cc86",
}

#: sha256 of ``json.dumps(portable_manifest(...), sort_keys=True)`` of each
#: manifest of the golden pipeline, as written when each command still
#: wrote its own manifest. The two that record their inputs' digests were
#: re-pinned with the channel files above.
MANIFESTS = {
    "data/run.manifest.json": "18f0ca9c6b9c543ae4900e3270343bf4a09346f39c49eae37c89383d8449b1f6",
    "features.csv.manifest.json": "12b3c44c565ef3dbb0237fc1671e880b46830943c2e314ddf260dc444d0cdbc9",
    "accel_windows.csv.manifest.json": "819a08ae53ec3c39e83994f53c3f3df7edf987b3b5b03334dda3e1efa6089534",
}

#: sha256 of the plane export and the RR window table of a synthetic
#: staircase protocol, as written by the per-window implementation that
#: preceded the block kernel and the array zone classifier. ``plane.json``
#: was re-pinned when each bootstrap block came to draw from one stream and
#: the always-empty ``phase_marks`` key was dropped; its points are
#: unchanged. Both files were re-pinned again when the cloud entries dropped
#: ``kurtosis`` (equal to ``k``) and the window table its ``n`` and
#: ``degenerate`` columns; no remaining value changed. All three were
#: re-pinned when ``synth`` came to write rr on a whole-ms grid.
#: ``plane.json`` was re-pinned, here and below, when the Weibull curve's
#: shapes came to be taken by ``math.exp``, as on an AVX2-only CPU.
#: ``plane.json`` and ``windows.csv`` were re-pinned when skewness and the
#: Weibull landmarks came to take m2^1.5 as m2 * sqrt(m2); mean, std, k held.
PLANE_GOLDEN_SHA256 = {
    "rr.csv": "d2e4c6521430c80c5593575df139528a720f285f178e611bb19a6d748dc9d792",
    "plane.json": "d35e89ca5fe19fada3e837816dfa7b2789ae300af9e0c0274a89502ec5fb5af7",
    "windows.csv": "a7fb3d35d2493ef5a192ec0f1c7150324f1e2dbe6bb22d1c5fdd741c46251224",
}

#: The same for a hand-made RR file whose constant stretch yields 31
#: degenerate windows (null plane points, empty CSV cells). ``plane.json``
#: and ``windows.csv`` were re-pinned with the table above.
FLAT_GOLDEN_SHA256 = {
    "rr.csv": "a52b016d33f0fcabd0c00e6059c31f987dd9488e7d028a0bba8ace7475b06612",
    "plane.json": "27ff11cd373699b0e02fbae918983ab3104f1c2a1ed95925b74e84bc55c3b968",
    "windows.csv": "2876fcdbf0c376f6b180ac56b129a6c05c483dafef3900c93e6f5d2be2e629fb",
}


def run_pipeline(root) -> None:
    """synth sessions -> features -> accel moments, all under ``root``."""
    data = os.path.join(root, "data")
    assert main(["synth", "sessions", "--n", "2", "--seed", "0", "--out-dir", data]) == 0
    sessions = os.path.join(data, "sessions.csv")
    assert main(["features", "--sessions", sessions, "--out", os.path.join(root, "features.csv")]) == 0
    accel = os.path.join(data, "walking000_accel.csv")
    out = os.path.join(root, "accel_windows.csv")
    assert main(["moments", "--input", accel, "--channel", "accel", "--out", out]) == 0


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def assert_canonical_json(path) -> None:
    """The file holds exactly ``json.dump(indent=1, sort_keys=True)`` and a newline."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", path


def portable_manifest(path, root) -> dict:
    """Manifest without its timestamp and with the run directory abstracted."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop(TIMESTAMP_KEY)
    return json.loads(json.dumps(doc).replace(str(root), "<ROOT>"))


def assert_manifests(manifests, first, second) -> None:
    """Each manifest is canonical JSON, equal across the two runs, and holds
    its pinned content."""
    for rel, digest in manifests.items():
        doc = portable_manifest(first / rel, first)
        assert doc == portable_manifest(second / rel, second), rel
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest, rel
        assert_canonical_json(first / rel)


class TestGoldenPipeline:
    def test_outputs_match_pinned_digests_and_rerun(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_pipeline(str(first))
        run_pipeline(str(second))
        written = {
            os.path.relpath(os.path.join(d, f), first).replace(os.sep, "/")
            for d, _, files in os.walk(first)
            for f in files
        }
        assert written == set(GOLDEN_SHA256) | set(MANIFESTS)
        for rel, digest in GOLDEN_SHA256.items():
            assert sha256(first / rel) == digest, rel
            assert sha256(second / rel) == digest, rel
        assert_manifests(MANIFESTS, first, second)


def replace_line(path, i, text) -> None:
    """Replace line ``i`` (the header is line 0) of a channel CSV."""
    lines = path.read_bytes().split(b"\r\n")
    lines[i] = text.encode()
    path.write_bytes(b"\r\n".join(lines))


@pytest.fixture(scope="module")
def worker_inputs(tmp_path_factory):
    """An rr file of 4,500 beats and an accel file of 4,500 rows: channels
    of three ``CHUNK_ROWS`` blocks, whose stride-1 window tables span two
    blocks and more."""
    root = tmp_path_factory.mktemp("worker_inputs")
    rng = np.random.default_rng(11)
    rr = rng.uniform(600.0, 1000.0, 4_500)
    ingest.write_rr_csv(root / "rr.csv", ingest.Channel(np.cumsum(rr.astype(int)), rr))
    assert main(["synth", "accel", "--class", "active", "--duration", "90", "--seed", "1", "--out", str(root / "accel.csv")]) == 0
    return root


#: Commands whose processes split their work, as argv lists from the input
#: and output directories.
WORKER_RUNS = {
    "sessions": lambda inp, out: [
        ["synth", "sessions", "--n", "2", "--seed", "0", "--out-dir", f"{out}/data"],
        ["features", "--sessions", f"{out}/data/sessions.csv", "--out", f"{out}/features.csv"],
    ],
    "moments rr": lambda inp, out: [["moments", "--input", f"{inp}/rr.csv", "--channel", "rr", "--stride", "1", "--out", f"{out}/w.csv"]],
    "moments accel": lambda inp, out: [
        ["moments", "--input", f"{inp}/accel.csv", "--channel", "accel", "--stride", "1", "--out", f"{out}/w.csv"]
    ],
    "moments accel --center": lambda inp, out: [
        ["moments", "--input", f"{inp}/accel.csv", "--channel", "accel", "--center", "--stride", "1", "--out", f"{out}/w.csv"]
    ],
    "plane --bootstrap": lambda inp, out: [
        ["plane", "--input", f"{inp}/rr.csv", "--stride", "1", "--bootstrap", "3000", "--seed", "3", "--out", f"{out}/plane.json"]
    ],
}


def run_outputs(argvs, root) -> dict[str, str | None]:
    """Run each argv; the sha256 of every file under ``root``, None for
    manifests, whose timestamps differ between runs."""
    root.mkdir()
    for argv in argvs:
        assert main(argv) == 0, argv
    return {
        os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/"): None if f.endswith(manifest.MANIFEST_SUFFIX) else sha256(os.path.join(d, f))
        for d, _, files in os.walk(root)
        for f in files
    }


@pytest.fixture(scope="module")
def serial_outputs(worker_inputs, tmp_path_factory):
    """The files of a ``WORKER_RUNS`` command run in one process, the
    ``_worker_count`` while tasks run, computed once per command."""
    outputs = {}

    def of(command):
        if command not in outputs:
            root = tmp_path_factory.mktemp("serial") / "out"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(manifest, "_busy", True)
                outputs[command] = run_outputs(WORKER_RUNS[command](worker_inputs, root), root)
        return outputs[command]

    return of


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSessionWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("command", sorted(WORKER_RUNS))
    def test_worker_count_does_not_change_output(self, worker_inputs, serial_outputs, tmp_path, monkeypatch, command, workers):
        """Each worker count writes the bytes, and only the files, of the
        serial run; the sessions also match their pinned digests. Above one
        worker, the command forks: with 1,024 rows per process, the
        channels and window tables are split."""
        serial = serial_outputs(command)
        monkeypatch.setattr(manifest, "SPLIT_ROWS", 1024)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        forks = []
        monkeypatch.setattr(os, "fork", lambda fork=os.fork: forks.append(1) or fork())
        assert run_outputs(WORKER_RUNS[command](worker_inputs, tmp_path / "out"), tmp_path / "out") == serial
        assert bool(forks) == (workers > 1)
        assert_no_child_left()
        if command == "sessions":
            for rel, digest in GOLDEN_SHA256.items():
                if rel.startswith("data/") or rel == "features.csv":
                    assert serial[rel] == digest, rel

    @pytest.mark.parametrize("lower", ["rr", "accel"])
    def test_lowest_failing_session_error_wins(self, tmp_path, capsys, lower):
        """Sessions 2 and 5 of 6 are broken: one has a non-monotonic rr
        file, the other a malformed accel row."""
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "2", "--seed", "0", "--out-dir", str(data)]) == 0
        metas = ingest.parse_sessions_csv(data / "sessions.csv")
        assert len(metas) == 6
        upper = "accel" if lower == "rr" else "rr"
        broken = {lower: metas[1], upper: metas[4]}
        paths = {"rr": data / broken["rr"].rr_file, "accel": data / broken["accel"].accel_file}
        replace_line(paths["rr"], 7, "0,800.0")
        replace_line(paths["accel"], 9, "x,0.0,0.0,9.8")
        parse = {"rr": ingest.parse_rr_csv, "accel": ingest.parse_accel_csv}[lower]
        with pytest.raises(ParseError) as ei:
            parse(paths[lower])
        assert type(ei.value) is {"rr": NonMonotonicTime, "accel": MalformedRow}[lower]
        capsys.readouterr()
        out = tmp_path / "features.csv"
        assert main(["features", "--sessions", str(data / "sessions.csv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {type(ei.value).__name__}: {ei.value}\n"
        assert not out.exists()

    def test_importing_the_cli_loads_no_pool_module(self):
        """Nor ``logging``: warnings go through ``warnings.warn``. Nor does
        running a command (``TestCommandImports``)."""
        code = f"import sys, loadlens.cli; print(sorted(m for m in sys.modules if m.startswith({POOL_MODULES})))"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(loadlens.__file__))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestSeed:
    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        argv = ["synth", "rr", "--preset", "rest", "--out"]
        assert main([*argv, str(tmp_path / "plain.csv")]) == 0
        monkeypatch.setenv("LOADLENS_SEED", "7")
        assert main([*argv, str(tmp_path / "env.csv")]) == 0
        assert sha256(tmp_path / "env.csv") == sha256(tmp_path / "plain.csv")
        assert json.loads((tmp_path / "env.csv.manifest.json").read_text(encoding="utf-8"))["seed"] == 0


def run_plane(root, window: str, bootstrap: str) -> None:
    """plane with stride 1 and a bootstrap cloud, and the RR window table."""
    rr = os.path.join(root, "rr.csv")
    argv = ["--input", rr, "--window", window, "--stride", "1"]
    assert main(["plane", *argv, "--bootstrap", bootstrap, "--seed", "3", "--out", os.path.join(root, "plane.json")]) == 0
    assert main(["moments", *argv, "--channel", "rr", "--out", os.path.join(root, "windows.csv")]) == 0


def run_child(args, **env) -> str:
    """Standard output of ``python *args`` in a child process that imports
    this checkout's loadlens, with the variables ``env`` added to this
    process's environment. The child must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(loadlens.__file__)), **env}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Turns off glibc's AVX2 and FMA code paths, as on a CPU without FMA.
NO_FMA_TUNABLE = "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-FMA4_Usable,-AVX2,-FMA"

#: Prints v ** 1.5 of fixed values: libm's ``pow``, whose last bit follows glibc's FMA paths.
POW_PROBE = "print([(1 + i / 1024) ** 1.5 for i in range(4096)])"


class TestGoldenPlane:
    def test_staircase_protocol(self, tmp_path):
        assert main(["synth", "rr", "--preset", "staircase", "--seed", "3", "--out", str(tmp_path / "rr.csv")]) == 0
        run_plane(str(tmp_path), "300", "200")
        for rel, digest in PLANE_GOLDEN_SHA256.items():
            assert sha256(tmp_path / rel) == digest, rel

    def test_degenerate_windows(self, tmp_path):
        rr = [750.0 if 80 <= i < 130 else 700.0 + (i * 37 % 101) * 1.5 for i in range(200)]
        t = np.cumsum(np.array(rr, dtype=int)).tolist()
        body = "".join(f"{ti},{v!r}\n" for ti, v in zip(t, rr))
        (tmp_path / "rr.csv").write_text("t_ms,rr_ms\n" + body, encoding="utf-8")
        run_plane(str(tmp_path), "20", "50")
        for rel, digest in FLAT_GOLDEN_SHA256.items():
            assert sha256(tmp_path / rel) == digest, rel

    def test_plane_bytes_do_not_depend_on_numpy_dispatch(self, tmp_path):
        """``plane`` in a child process whose numpy dispatches as on an
        AVX2-only x86-64 CPU writes the bytes of a run with default
        dispatch (ROADMAP item 5): numpy's array ``exp`` differs between
        the two on some values, so the Weibull curve must not use it."""
        umath = pytest.importorskip("numpy._core._multiarray_umath", reason="this numpy reports no CPU features")
        disabled = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        if not any(umath.__cpu_features__.get(feature) for feature in disabled):
            pytest.skip(f"this CPU has none of {', '.join(disabled)}: default dispatch already runs at the AVX2 level")
        assert main(["synth", "rr", "--preset", "staircase", "--seed", "3", "--out", str(tmp_path / "rr.csv")]) == 0
        argv = ["plane", "--input", str(tmp_path / "rr.csv"), "--stride", "1", "--bootstrap", "200", "--seed", "3", "--out"]
        assert main([*argv, str(tmp_path / "default.json")]) == 0
        run_child(["-m", "loadlens.cli", *argv, str(tmp_path / "avx2.json")], NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        assert sha256(tmp_path / "avx2.json") == sha256(tmp_path / "default.json")

    def test_moments_bytes_do_not_depend_on_glibc_fma(self, tmp_path):
        """``moments`` of an rr and an accel file in a child process whose
        glibc takes no AVX2 or FMA path writes the bytes of a default run:
        no step of the moment kernel calls libm (ROADMAP item 15). ``plane``
        is left out: its Weibull curve still takes ``math.gamma`` and
        ``math.exp``."""
        if run_child(["-c", POW_PROBE], GLIBC_TUNABLES=NO_FMA_TUNABLE) == run_child(["-c", POW_PROBE]):
            pytest.skip("libm's pow is the same under the tunable: glibc ignores it or this CPU has no FMA path")
        assert main(["synth", "rr", "--preset", "staircase", "--seed", "0", "--out", str(tmp_path / "rr.csv")]) == 0
        assert main(["synth", "accel", "--class", "active", "--duration", "60", "--out", str(tmp_path / "accel.csv")]) == 0
        for channel in ("rr", "accel"):
            argv = ["moments", "--input", str(tmp_path / f"{channel}.csv"), "--channel", channel, "--stride", "1", "--out"]
            assert main([*argv, str(tmp_path / f"{channel}_default.csv")]) == 0
            run_child(["-m", "loadlens.cli", *argv, str(tmp_path / f"{channel}_no_fma.csv")], GLIBC_TUNABLES=NO_FMA_TUNABLE)
            assert sha256(tmp_path / f"{channel}_no_fma.csv") == sha256(tmp_path / f"{channel}_default.csv"), channel


#: sha256 of every output of the learn commands on fabricated features, as
#: written by the row-level learn API before ``run_training`` built each
#: split's arrays once. ``predict.csv`` is pinned as written since its rows
#: go through ``csv.writer`` with plain floats. ``cluster.json`` was
#: re-pinned when its assignments dropped ``intensity``, which equals
#: ``intensity_labels[cluster]``. The two ``*.report.json`` and ``predict.csv``
#: were re-pinned when the reports dropped their loss curves and ``config``
#: and ``predict.csv`` its ``y_true``, and an ``lrm`` run stopped writing a
#: header-only ``losses.csv``. ``predict.csv`` and ``dnn_all.losses.csv``
#: were re-pinned when their lines came to end in ``\r\n``, as every
#: other CSV's do; no cell changed.
LEARN_GOLDEN_SHA256 = {
    "features.csv": "62e20dcd0366907f25cf222fdb81e6ba79a3df4897f2fc1e624aa386ab69c11d",
    "models/lrm_all.model.json": "145e8932cac8cd2e320f45f1e6ce9cad11a671afd889c615d0938e8814195bc3",
    "models/lrm_all.report.json": "a9a2bf3ba9e8a5038876f38a1f8e44b740a78f2fd2586ce06cd985608a8cc25d",
    "models/dnn_all.model.json": "574235a2c83e1d7349107de28a53e00e89e1ed75c862cd2526c45bdad9db3a04",
    "models/dnn_all.report.json": "87a05acd875bc6570aa04b18d1c74e622ccdc9af2116843ab0da355fcb219dc0",
    "models/dnn_all.losses.csv": "6fe8022b6312e3d8aed4ce4390e7abfbb1458f0911597b960645c0b8406557e5",
    "report.json": "b46b0922f6d81921fab624acd74ae7a84bfb42fd8a4aa65c2c416381e6ec8466",
    "cluster.json": "0482e0816a24c27a4e0e825c1c9b847283c366e14466ee26f4b347043810d245",
    "correlation.csv": "49d25737fd001bc4e0c9797365d5c23ada28aa7c62296a2339083ed3836d0c07",
    "predict.csv": "d1113f689521ef3576e331d3c5cf1f72ac11c130fa468f0e758817ae3f653cde",
}

#: The same as ``MANIFESTS`` for the learn commands.
LEARN_MANIFESTS = {
    "models/lrm_all.manifest.json": "63b440f1ababc71ee0a15c55ea4be1a23bc78e9fd818a1106cc74d79483d1314",
    "models/dnn_all.manifest.json": "d475918168a19dfc2a9ae2d187e19598fe46081d8f9508346ad6d295eab2aba9",
    "report.json.manifest.json": "81bc1b1b57b95b46fbe0bd3855c05244d16ac7361f4a1cd339071b924d478bb3",
    "cluster.json.manifest.json": "238863d3c5792c2f8339657bcadd4ab8dec67d81807a05696e535abe6d3a5b7b",
    "correlation.csv.manifest.json": "6b178d18e483d3328a6065cc82e109936523ae3aef3772f288f08918f0fc8424",
    "predict.csv.manifest.json": "7ff1548008f1cb715149017a81661e7cde7d1f5f44b9dc94cd4ff66a48a038ae",
}


def run_learn(root) -> None:
    """train lrm and dnn -> report, cluster, correlate, predict on 90
    fabricated feature rows, all under ``root``."""
    os.makedirs(root)
    rng = np.random.default_rng(21)
    columns = ("distance", "duration", "velocity", "pace", "metricD", "ahr", "mhr")
    columns += ("acc_mean", "acc_std", "acc_skewness", "acc_kurtosis", "metric1", "metric2")
    codes = [i % 3 for i in range(90)]
    X = rng.normal(10, 2, (90, len(columns))) + np.array(codes)[:, None]
    features = os.path.join(root, "features.csv")
    write_features_csv(features, make_rows(X, codes, columns))
    models = os.path.join(root, "models")
    for argv in (["--model", "lrm"], ["--model", "dnn", "--epochs", "20"]):
        assert main(["train", "--features", features, *argv, "--seed", "4", "--out-dir", models]) == 0
    model = os.path.join(models, "dnn_all.model.json")
    for argv, out in (
        (["report", "--in-dir", models], "report.json"),
        (["cluster", "--features", features, "--seed", "4"], "cluster.json"),
        (["correlate", "--features", features], "correlation.csv"),
        (["predict", "--model", model, "--features", features], "predict.csv"),
    ):
        assert main([*argv, "--out", os.path.join(root, out)]) == 0


class TestGoldenLearn:
    def test_outputs_match_pinned_digests_and_rerun(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_learn(str(first))
        run_learn(str(second))
        written = {
            os.path.relpath(os.path.join(d, f), first).replace(os.sep, "/")
            for d, _, files in os.walk(first)
            for f in files
        }
        assert written == set(LEARN_GOLDEN_SHA256) | set(LEARN_MANIFESTS)
        for rel, digest in LEARN_GOLDEN_SHA256.items():
            assert sha256(first / rel) == digest, rel
            assert sha256(second / rel) == digest, rel
        assert_manifests(LEARN_MANIFESTS, first, second)
        # each value in one place: loss curves only in losses.csv, config only in the manifest
        for model in ("lrm", "dnn"):
            report = json.loads((first / f"models/{model}_all.report.json").read_text(encoding="utf-8"))
            assert not {"train_loss", "val_loss", "config"} & set(report), model
        outputs = json.loads((first / "models/lrm_all.manifest.json").read_text(encoding="utf-8"))["outputs"]
        assert [os.path.basename(path) for path in outputs] == ["lrm_all.model.json", "lrm_all.report.json"]


class TestOutputSink:
    def test_every_output_goes_through_the_sink(self, tmp_path, monkeypatch):
        """Each file the learn commands and ``plane`` write is written once,
        by ``manifest._write_text``, whatever its sections."""
        written = []
        sink = manifest._write_text

        def recording(path, *sections):
            written.append(os.path.relpath(path, tmp_path).replace(os.sep, "/"))
            sink(path, *sections)

        monkeypatch.setattr(manifest, "_write_text", recording)
        run_learn(str(tmp_path / "learn"))
        (tmp_path / "plane").mkdir()
        assert main(["synth", "rr", "--preset", "rest", "--out", str(tmp_path / "plane" / "rr.csv")]) == 0
        run_plane(str(tmp_path / "plane"), "60", "20")
        on_disk = [
            os.path.relpath(os.path.join(d, f), tmp_path).replace(os.sep, "/") for d, _, files in os.walk(tmp_path) for f in files
        ]
        assert sorted(written) == sorted(on_disk)

    def test_a_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        """A parts iterator that raises half-way, in the calling process or
        in a forked child, leaves the earlier target's bytes and no other
        file, and its error is raised; a written file has the mode ``open``
        gives, and a symlink stays a symlink."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        (tmp_path / "plain.csv").open("w").close()
        target = tmp_path / "out.csv"
        manifest._write_text(target, ["old\n"])
        assert target.stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
        (tmp_path / "link.csv").symlink_to(target)
        manifest._write_text(tmp_path / "link.csv", ["linked\n"], ["in a child\n"])
        assert (tmp_path / "link.csv").is_symlink() and target.read_bytes() == b"linked\nin a child\n"
        manifest._write_text(target, ["old\n"])

        def parts():
            yield "new\n"
            raise OSError(28, "No space left on device")

        for sections in ([parts()], [["a\n"], parts(), ["c\n"]], [["a\n"], ["b\n"], parts()]):
            with pytest.raises(OSError, match="No space"):
                manifest._write_text(target, *sections)
            assert target.read_bytes() == b"old\n"
            assert sorted(os.listdir(tmp_path)) == ["link.csv", "out.csv", "plain.csv"]
            assert_no_child_left()
        missing = tmp_path / "no_dir" / "out.csv"
        with pytest.raises(FileNotFoundError) as ei:
            manifest._write_text(missing, ["new\n"], ["in a child\n"])
        assert str(ei.value) == f"[Errno 2] No such file or directory: '{missing}'"

    def test_a_file_that_is_not_regular_is_written_in_place_by_the_caller(self, monkeypatch):
        """The sections of a write to ``/dev/null`` run in the calling
        process, in order."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        ran = []

        def section(i):
            ran.append((i, os.getpid()))
            yield f"{i}\n"

        manifest._write_text(os.devnull, section(0), section(1), section(2))
        assert ran == [(0, os.getpid()), (1, os.getpid()), (2, os.getpid())]


class TestForkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_errors_and_children(self, monkeypatch, workers):
        """Results in task order; the first failing task's error, whichever
        process ran it; a call inside a task runs where it is called; a
        child that leaves without a result is an error; no child is left."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        forks = []
        monkeypatch.setattr(os, "fork", lambda fork=os.fork: forks.append(1) or fork())
        caller = os.getpid()

        def task(i):
            if i in (1, 4):
                raise MalformedRow(i, "task failed")
            if i == 7 and os.getpid() != caller:
                os._exit(3)
            return i * i, manifest._fork_map(abs, [-1, -2])

        assert manifest._fork_map(task, [0, 2, 3, 5, 6]) == [(i * i, [1, 2]) for i in (0, 2, 3, 5, 6)]
        assert len(forks) == workers - 1
        with pytest.raises(MalformedRow) as ei:
            manifest._fork_map(task, list(range(7)))
        assert ei.value.row == 1
        assert_no_child_left()
        if workers > 1:
            with pytest.raises(ChildProcessError, match="exited with code 3 and no result"):
                manifest._fork_map(task, [0, 7])
            assert_no_child_left()

    def test_a_truncated_result_is_a_worker_error(self, monkeypatch):
        """A child cut while it writes its pipe leaves a truncated pickle,
        which fails as a child that leaves a result that could not be read;
        no child is left."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pickle, "dumps", lambda obj, dumps=pickle.dumps: dumps(obj)[:-1])
        with pytest.raises(ChildProcessError, match="exited with code 0 and a result that could not be read"):
            manifest._fork_map(abs, [-1, -2])
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_runs_cut_work_into_one_run_per_worker(self, monkeypatch, workers):
        """``_runs`` cuts a sequence into contiguous slices that hold every
        item in order and differ in length by at most one: one per worker
        once each gets ``SPLIT_ROWS`` rows, else one, and one while
        ``_fork_map`` tasks run."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        split = manifest.SPLIT_ROWS
        for items in (range(0), range(1), range(3, 40, 3), list("abcdefg"), range(0, 100_000, 2048)):
            for rows in (0, 1, split - 1, split, 2 * split - 1, 2 * split, 3 * split, 10 * split):
                runs = manifest._runs(items, rows)
                assert len(runs) == min(workers, max(1, rows // split))
                assert all(type(run) is type(items) for run in runs)
                assert [item for run in runs for item in run] == list(items)
                assert max(map(len, runs)) - min(map(len, runs)) <= 1
        monkeypatch.setattr(manifest, "_busy", True)
        assert manifest._runs(range(100), 10 * split) == [range(100)]


class TestInputDigests:
    def test_channel_digests_come_from_the_reader(self, tmp_path, monkeypatch):
        """Each input digest of ``moments``, ``plane`` and ``features`` is the
        sha256 of the file's bytes, and ``manifest.sha256_file`` reads no
        channel file: the reader's scan hashed it. One rr file holds a
        number only ``float()`` reads, so it takes the field-by-field parser."""
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "1", "--seed", "0", "--out-dir", str(data)]) == 0
        meta = ingest.parse_sessions_csv(data / "sessions.csv")[0]
        accel, rr = data / meta.accel_file, data / meta.rr_file
        lines = rr.read_bytes().split(b"\r\n")
        t, value = lines[1].split(b",")
        lines[1] = t + b"," + value[:1] + b"_" + value[1:]
        rr.write_bytes(b"\r\n".join(lines))
        hashed, fallbacks = [], []
        monkeypatch.setattr(manifest, "sha256_file", lambda path, f=manifest.sha256_file: hashed.append(path) or f(path))
        monkeypatch.setattr(ingest, "_parse_rows", lambda path, *a, f=ingest._parse_rows: fallbacks.append(path) or f(path, *a))
        runs = {
            "features.csv": ["features", "--sessions", str(data / "sessions.csv")],
            "accel_windows.csv": ["moments", "--channel", "accel", "--input", str(accel)],
            "rr_windows.csv": ["moments", "--channel", "rr", "--input", str(rr)],
            "plane.json": ["plane", "--input", str(rr)],
        }
        inputs = []
        for out, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / out)]) == 0
            doc = json.loads((tmp_path / f"{out}.manifest.json").read_text(encoding="utf-8"))
            inputs += doc["inputs"]
        assert len(inputs) == 1 + 6 + 3
        for entry in inputs:
            assert entry["sha256"] == sha256(entry["path"]), entry["path"]
        assert hashed == [str(data / "sessions.csv")]
        # the calling process of ``_fork_map`` runs the first session itself
        assert fallbacks == [str(rr)] * 3


def with_feature(table, ids, name: str, value: float) -> FeatureTable:
    """``table`` with the feature ``name`` set to ``value`` in the rows of
    the session ids ``ids``."""
    values = table.values.copy()
    values[[table.session_id.index(i) for i in ids], ALL_FEATURES.index(name)] = value
    return FeatureTable(table.session_id, table.activity, values)


@pytest.fixture
def features_csv(tmp_path):
    """A valid features.csv of 30 rows, enough for every command."""
    rng = np.random.default_rng(5)
    columns = ("distance", "duration", "ahr", "mhr", "acc_std", "acc_mean", "acc_skewness", "acc_kurtosis")
    rows = make_rows(rng.normal(10, 2, (30, len(columns))), [i % 3 for i in range(30)], columns)
    path = tmp_path / "features.csv"
    write_features_csv(path, rows)
    return str(path)


@pytest.fixture
def rr_csv(tmp_path):
    path = tmp_path / "rr.csv"
    assert main(["synth", "rr", "--preset", "rest", "--out", str(path)]) == 0
    return str(path)


#: Kinds of input file that must reject an unreadable file with exit 2.
FILE_KINDS = ("rr", "sessions", "features", "model")


class TestExitCodes:
    def test_ok(self, features_csv, tmp_path):
        assert main(["cluster", "--features", features_csv, "--out", str(tmp_path / "c.json")]) == 0

    def test_cluster_k_zero(self, features_csv, tmp_path):
        out = tmp_path / "c.json"
        assert main(["cluster", "--features", features_csv, "--k", "0", "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--epochs", "0"),
            ("--epochs", "-3"),
            ("--batch", "0"),
            ("--lr", "0"),
            ("--hidden", "8,0"),
            ("--preset", "nosuch"),
        ],
    )
    def test_train_rejects(self, features_csv, tmp_path, flag, value):
        out = tmp_path / "models"
        argv = ["train", "--features", features_csv, "--model", "dnn", flag, value, "--out-dir", str(out)]
        assert main(argv) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["cluster", "--columns", ""], ["correlate", "--columns", ","], ["correlate", "--columns", ""]],
        ids=["cluster-empty", "correlate-comma", "correlate-empty"],
    )
    def test_no_feature_columns(self, features_csv, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--features", features_csv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: ConfigError: no feature columns given\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,repeated",
        [(["cluster", "--columns", "acc_std,acc_std"], "acc_std"), (["correlate", "--columns", "ahr,mhr, ahr,mhr"], "ahr, mhr")],
        ids=["cluster", "correlate"],
    )
    def test_repeated_feature_column(self, features_csv, tmp_path, capsys, argv, repeated):
        """A repeated column would double a row and column of the
        correlation matrix, or the column's weight in k-means."""
        out = tmp_path / "out"
        assert main([*argv, "--features", features_csv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: ConfigError: repeated feature columns: {repeated}\n"
        assert not out.exists()
        assert not (tmp_path / "out.manifest.json").exists()

    @pytest.mark.parametrize("command", ["cluster", "correlate"])
    def test_repeated_session_id_in_features_is_input_error(self, features_csv, tmp_path, capsys, command):
        with open(features_csv, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        with open(features_csv, "a", encoding="utf-8", newline="") as fh:
            fh.write(lines[-1])
        out = tmp_path / "out"
        assert main([command, "--features", features_csv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: MalformedRow: data row 31: duplicate session_id 's0029'\n"
        assert not out.exists()
        assert not (tmp_path / "out.manifest.json").exists()

    @pytest.mark.parametrize(
        "flag,value", [("--rho", "-1"), ("--rho", "0"), ("--tau", "-0.5"), ("--tau", "nan"), ("--bootstrap", "-2")]
    )
    def test_plane_rejects(self, rr_csv, tmp_path, flag, value, capsys):
        out = tmp_path / "plane.json"
        assert main(["plane", "--input", rr_csv, flag, value, "--out", str(out)]) == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_usage_errors_return_three(self, capsys):
        seed = ["synth", "rr", "--preset", "rest", "--seed", "-1", "--out", "x.csv"]
        for argv in ([], ["plane", "--input", "rr.csv"], ["no-such-command"], seed):
            assert main(argv) == 3
            lines = capsys.readouterr().err.splitlines()
            assert lines[0].startswith("usage: loadlens")
            assert lines[-1].startswith("error: ConfigError: ")
            assert sum(line.startswith("error:") for line in lines) == 1

    def test_value_error_in_a_command_is_not_caught(self, monkeypatch, rr_csv, tmp_path):
        """A ValueError reaching ``main`` is a bug: it propagates, not exit 3."""

        def broken(args):
            raise ValueError("an internal invariant failed")

        monkeypatch.setattr(cli, "cmd_moments", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            main(["moments", "--input", rr_csv, "--channel", "rr", "--out", str(tmp_path / "w.csv")])

    def test_help_still_exits_zero(self, capsys):
        for argv in (["--help"], ["plane", "--help"]):
            with pytest.raises(SystemExit) as ei:
                main(argv)
            assert ei.value.code == 0
        assert "--bootstrap" in capsys.readouterr().out

    def test_plane_accepts_positive_radii(self, rr_csv, tmp_path):
        out = tmp_path / "plane.json"
        assert main(["plane", "--input", rr_csv, "--rho", "0.5", "--tau", "0.1", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert (doc["rho"], doc["tau"]) == (0.5, 0.1)

    def test_duplicate_session_id_is_input_error(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "1", "--seed", "0", "--out-dir", str(data)]) == 0
        sessions = data / "sessions.csv"
        lines = sessions.read_text(encoding="utf-8").splitlines(keepends=True)
        sessions.write_text("".join(lines + [lines[1]]), encoding="utf-8")
        out = tmp_path / "features.csv"
        assert main(["features", "--sessions", str(sessions), "--out", str(out)]) == 2
        assert not out.exists()

    def test_predict_with_broken_model_is_input_error(self, features_csv, tmp_path):
        models = tmp_path / "models"
        argv = ["train", "--features", features_csv, "--model", "lrm", "--preset", "hr", "--out-dir", str(models)]
        assert main(argv) == 0
        path = models / "lrm_hr.model.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        negative_std = {**doc, "standardizer": {**doc["standardizer"], "stds": [-1.0, 1.0]}}
        unknown_feature = {**doc, "features": ["ahr", "heart"]}
        for broken in (
            {k: v for k, v in doc.items() if k != "standardizer"},
            {**doc, "lrm": {**doc["lrm"], "w": [1.0]}},
            negative_std,
            unknown_feature,
        ):
            path.write_text(json.dumps(broken), encoding="utf-8")
            out = tmp_path / "pred.csv"
            assert main(["predict", "--model", str(path), "--features", features_csv, "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("fault", ["overflow", "inf_minus_inf"])
    def test_non_finite_prediction_is_numeric_error(self, features_csv, tmp_path, capsys, fault):
        models = tmp_path / "models"
        argv = ["train", "--features", features_csv, "--model", "lrm", "--preset", "hr", "--out-dir", str(models)]
        assert main(argv) == 0
        path = models / "lrm_hr.model.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        if fault == "overflow":
            doc["lrm"]["w"] = [1e308, 1e308]
        else:
            # standardized ahr near 1e12 and mhr near -1e17: the two terms are inf and -inf
            doc["standardizer"] = {"means": [0.0, 1e6], "stds": [1e-11, 1e-11]}
            doc["lrm"]["w"] = [1e300, 1e300]
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "predict.csv"
        assert main(["predict", "--model", str(path), "--features", features_csv, "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: NumericError: "), lines
        assert not out.exists()
        assert not (tmp_path / "predict.csv.manifest.json").exists()

    @pytest.mark.parametrize("model", ["lrm", "dnn"])
    def test_overflowing_prediction_error_is_numeric_error(self, tmp_path, capsys, model):
        """One prediction-split row with an ahr of 1e308 squares past the
        largest float in MRD: no report holding ``Infinity`` is written, and
        no RuntimeWarning escapes (the test run turns one into an error)."""
        rng = np.random.default_rng(3)
        rows = make_rows(rng.normal(70, 5, (30, 2)), [i % 3 for i in range(30)], ["ahr", "mhr"])
        features = tmp_path / "features.csv"
        write_features_csv(features, with_feature(rows, split(rows, seed=0)[2].session_id[:1], "ahr", 1e308))
        out = tmp_path / "models"
        argv = ["train", "--features", str(features), "--model", model, "--preset", "hr", "--epochs", "5"]
        assert main([*argv, "--out-dir", str(out)]) == 4
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("error: MomentOverflow: the prediction error is not a finite float64")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["plane", "--input", "rr.csv", "--bootstrap", "100001", "--out", "p.json"],
            ["plane", "--input", "rr.csv", "--bootstrap", "1000000000000", "--out", "p.json"],
            ["train", "--features", "f.csv", "--model", "dnn", "--hidden", "257", "--out-dir", "m"],
            ["train", "--features", "f.csv", "--model", "dnn", "--hidden", "100000,100000", "--out-dir", "m"],
            ["train", "--features", "f.csv", "--model", "dnn", "--hidden", ",".join(["4"] * 9), "--out-dir", "m"],
            ["train", "--features", "f.csv", "--model", "dnn", "--epochs", "100001", "--out-dir", "m"],
            ["train", "--features", "f.csv", "--model", "dnn", "--epochs", "10000000000", "--out-dir", "m"],
            ["synth", "sessions", "--n", "1001", "--out-dir", "d"],
            ["synth", "sessions", "--n", "100000000000", "--out-dir", "d"],
        ],
        ids=[
            "bootstrap", "bootstrap-huge", "hidden-width", "hidden-huge", "hidden-depth", "epochs", "epochs-huge", "n", "n-huge",
        ],
    )
    def test_size_arguments_have_a_maximum(self, argv):
        """Rejected by the parser, before the command starts."""
        flag = next(a for a in argv if a in ("--bootstrap", "--hidden", "--epochs", "--n"))
        with pytest.raises(ConfigError, match=f"argument {flag}: must be at most"):
            cli.build_parser().parse_args(argv)

    def test_size_arguments_accept_their_maximum(self):
        parse = cli.build_parser().parse_args
        assert parse(["plane", "--input", "rr.csv", "--bootstrap", "100000", "--out", "p.json"]).bootstrap == 100_000
        hidden = ",".join(["256"] * 8)
        argv = ["train", "--features", "f.csv", "--model", "dnn", "--hidden", hidden, "--out-dir", "m"]
        assert parse(argv).hidden == (256,) * 8
        assert parse(["train", "--features", "f.csv", "--model", "dnn", "--epochs", "100000", "--out-dir", "m"]).epochs == 100_000
        assert parse(["synth", "sessions", "--n", "1000", "--out-dir", "d"]).n == 1000

    def test_degenerate_bootstrap_sample_is_config_error(self, tmp_path):
        """The last window is constant, so every resample is: the redraws
        would never end. Run in a child process, so that a hang fails the
        test instead of stalling the suite."""
        path = tmp_path / "rr.csv"
        rr = [810.0, 790.0, 805.0, 820.0, 795.0, 800.5] + [800.0] * 6
        t = np.cumsum(rr).astype(int).tolist()
        path.write_text("t_ms,rr_ms\n" + "".join(f"{ti},{v!r}\n" for ti, v in zip(t, rr)), encoding="utf-8")
        out = tmp_path / "plane.json"
        argv = ["plane", "--input", str(path), "--window", "4", "--stride", "1", "--bootstrap", "5", "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(loadlens.__file__))}
        proc = subprocess.run([sys.executable, "-m", "loadlens.cli", *argv], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ConfigError: cannot bootstrap")
        assert os.listdir(tmp_path) == ["rr.csv"]

    def test_degenerate_bootstrap_in_a_forked_section_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        """The cloud's section raises in a forked child while the points are
        written: no output, temporary or part file and no manifest is left,
        and no child."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rr = np.r_[np.random.default_rng(2).uniform(600.0, 1000.0, 1_000), np.full(300, 800.0)]
        ingest.write_rr_csv(tmp_path / "rr.csv", ingest.Channel(np.cumsum(rr.astype(int)), rr))
        argv = ["plane", "--input", str(tmp_path / "rr.csv"), "--stride", "1", "--bootstrap", "50", "--out", str(tmp_path / "p.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ConfigError: cannot bootstrap")
        assert os.listdir(tmp_path) == ["rr.csv"]
        assert_no_child_left()

    def test_overflowing_velocity_is_numeric_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "1", "--seed", "0", "--out-dir", str(data)]) == 0
        sessions = data / "sessions.csv"
        metas = ingest.parse_sessions_csv(sessions)
        tiny = [dataclasses.replace(m, duration_min=1e-320) if m.session_id == "walking000" else m for m in metas]
        ingest.write_sessions_csv(sessions, tiny)
        capsys.readouterr()
        out = tmp_path / "features.csv"
        assert main(["features", "--sessions", str(sessions), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: MomentOverflow: velocity, pace or metricD")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["cluster", "--columns", "distance,ahr", "--out"], ["correlate", "--out"], ["train", "--model", "lrm", "--out-dir"]],
        ids=["cluster", "correlate", "train"],
    )
    def test_non_finite_feature_cell_is_input_error(self, features_csv, tmp_path, capsys, argv):
        """The empty cell spells a missing value; a cell that parses to a
        non-finite float is malformed."""
        with open(features_csv, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        table[7][table[0].index("distance_km")] = "inf"
        table[9][table[0].index("ahr_bpm")] = "nan"
        with open(features_csv, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        out = tmp_path / "out"
        assert main([argv[0], "--features", features_csv, *argv[1:], str(out)]) == 2
        assert capsys.readouterr().err == "error: MalformedRow: data row 7: non-finite distance_km inf\n"
        assert not out.exists()

    def test_non_monotonic_channel_is_input_error(self, tmp_path):
        path = tmp_path / "rr.csv"
        path.write_text("t_ms,rr_ms\n0,800\n800,810\n800,790\n", encoding="utf-8")
        out = tmp_path / "w.csv"
        assert main(["moments", "--input", str(path), "--channel", "rr", "--window", "4", "--out", str(out)]) == 2
        assert not out.exists()

    def test_moment_overflow_is_numeric_error(self, tmp_path, capsys):
        values = np.random.default_rng(0).uniform(1e79, 3e80, 40).tolist()
        path = tmp_path / "rr.csv"
        path.write_text("t_ms,rr_ms\n" + "".join(f"{1000 * (i + 1)},{v!r}\n" for i, v in enumerate(values)), encoding="utf-8")
        for cmd, name in ((["plane"], "plane.json"), (["moments", "--channel", "rr"], "w.csv")):
            out = tmp_path / name
            assert main([*cmd, "--input", str(path), "--window", "20", "--stride", "5", "--out", str(out)]) == 4
            assert "MomentOverflow" in capsys.readouterr().err
            assert not out.exists()

    def test_failed_command_leaves_no_manifest(self, features_csv, tmp_path, monkeypatch, capsys):
        """``train`` fails on its last output, the loss curve, after the
        model and the report are written: no manifest marks the run."""

        def failing(path, header, rows):
            def rows_then_fault():
                yield next(iter(rows))
                raise OSError(28, "No space left on device")

            write_csv(path, header, rows_then_fault())

        write_csv = cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", failing)
        out = tmp_path / "models"
        assert main(["train", "--features", features_csv, "--model", "dnn", "--epochs", "2", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: OSError: [Errno 28] No space left on device\n"
        assert sorted(os.listdir(out)) == ["dnn_all.model.json", "dnn_all.report.json"]

    def test_divergent_training_prints_only_the_error_line(self, features_csv, tmp_path):
        """In a fresh process, so numpy's RuntimeWarnings would reach stderr."""
        out = tmp_path / "models"
        argv = ["train", "--features", features_csv, "--model", "dnn", "--lr", "1e6", "--epochs", "50", "--out-dir", str(out)]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(loadlens.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "loadlens.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: NonFiniteLoss: "), proc.stderr
        assert lines[0].endswith("\n")
        assert not out.exists()

    def test_predict_with_no_usable_row_is_input_error(self, features_csv, tmp_path, capsys):
        models = tmp_path / "models"
        argv = ["train", "--features", features_csv, "--model", "lrm", "--preset", "hr", "--out-dir", str(models)]
        assert main(argv) == 0
        with open(features_csv, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        col = table[0].index("ahr_bpm")
        for row in table[1:]:
            row[col] = ""
        features = tmp_path / "no_ahr.csv"
        with open(features, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        out = tmp_path / "predict.csv"
        assert main(["predict", "--model", str(models / "lrm_hr.model.json"), "--features", str(features), "--out", str(out)]) == 2
        assert "no row has every model feature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["inf", "nan", "0", "0.01", "86400.5", "1e9"])
    def test_synth_accel_rejects_duration(self, tmp_path, capsys, duration):
        out = tmp_path / "accel.csv"
        assert main(["synth", "accel", "--class", "passive", "--duration", duration, "--out", str(out)]) == 3
        assert "argument --duration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,fault", [(k, "byte") for k in FILE_KINDS] + [(k, "cell") for k in FILE_KINDS if k != "model"])
    def test_unreadable_input_file_is_input_error(self, features_csv, rr_csv, tmp_path, capsys, kind, fault):
        """A byte that is not UTF-8, or a CSV cell over the csv module's
        field limit, in the first data row of each kind of input file."""
        inputs = {"rr": rr_csv, "features": features_csv}
        if kind == "sessions":
            assert main(["synth", "sessions", "--n", "1", "--out-dir", str(tmp_path / "data")]) == 0
            inputs[kind] = str(tmp_path / "data" / "sessions.csv")
        if kind == "model":
            argv = ["train", "--features", features_csv, "--model", "lrm", "--preset", "hr", "--out-dir", str(tmp_path / "m")]
            assert main(argv) == 0
            inputs[kind] = str(tmp_path / "m" / "lrm_hr.model.json")
        path = inputs[kind]
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        first = 0 if kind == "model" else 1
        lines[first] = (b"\xff" if fault == "byte" else b"x" * (csv.field_size_limit() + 1)) + lines[first]
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "rr": ["moments", "--input", path, "--channel", "rr"],
            "sessions": ["features", "--sessions", path],
            "features": ["cluster", "--features", path],
            "model": ["predict", "--model", path, "--features", features_csv],
        }[kind]
        assert main([*argv, "--out", str(out)]) == 2
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: ParseError: {path}: ")
        assert not out.exists()

    def test_short_accel_channel_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "1", "--out-dir", str(data)]) == 0
        accel = data / ingest.parse_sessions_csv(data / "sessions.csv")[0].accel_file
        accel.write_bytes(b"\r\n".join(accel.read_bytes().split(b"\r\n")[:4]) + b"\r\n")
        capsys.readouterr()
        out = tmp_path / "features.csv"
        assert main(["features", "--sessions", str(data / "sessions.csv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: MissingChannel: missing or unusable channel 'accel': needs >= 4 samples, got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["moments", "features"])
    def test_overflowing_accel_magnitude_is_numeric_error(self, tmp_path, capsys, cmd):
        """An axis value of 1e200 overflows the sum of squares under the
        accel magnitude."""
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "1", "--out-dir", str(data)]) == 0
        accel = data / ingest.parse_sessions_csv(data / "sessions.csv")[0].accel_file
        lines = accel.read_bytes().split(b"\r\n")
        t_ms, _, ay, az = lines[1].split(b",")
        lines[1] = b",".join([t_ms, b"1e200", ay, az])
        accel.write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        out = tmp_path / "out.csv"
        argv = {
            "moments": ["moments", "--input", str(accel), "--channel", "accel"],
            "features": ["features", "--sessions", str(data / "sessions.csv")],
        }[cmd]
        assert main([*argv, "--out", str(out)]) == 4
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("error: MomentOverflow: accel magnitude overflows float64")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["train", "--model", "lrm"], ["train", "--model", "dnn"], ["cluster"], ["correlate"]], ids=" ".join
    )
    def test_overflowing_features_are_numeric_error(self, tmp_path, capsys, argv):
        """Features around 1e300 overflow their std; no model with an
        infinite std, and no correlation.csv with empty cells, is written."""
        features = tmp_path / "features.csv"
        X = np.random.default_rng(6).normal(0, 1, (30, 2)) * 1e300
        write_features_csv(features, make_rows(X, [i % 3 for i in range(30)], ["ahr", "mhr"]))
        out = tmp_path / "out"
        opts = ["--preset", "hr", "--out-dir"] if argv[0] == "train" else ["--columns", "ahr,mhr", "--out"]
        assert main([*argv, "--features", str(features), *opts, str(out)]) == 4
        assert capsys.readouterr().err == "error: MomentOverflow: a feature mean or std overflows float64\n"
        assert not out.exists()

    def test_subnormal_rr_is_numeric_error(self, tmp_path, capsys):
        """rr_ms cells of 1e-320 parse (finite and > 0), but the heart rate
        60000/rr_ms overflows; the error comes back from a worker process."""
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "1", "--out-dir", str(data)]) == 0
        rr = data / ingest.parse_sessions_csv(data / "sessions.csv")[0].rr_file
        lines = rr.read_bytes().split(b"\r\n")
        for i in range(1, 6):
            lines[i] = lines[i].split(b",")[0] + b",1e-320"
        rr.write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        out = tmp_path / "features.csv"
        assert main(["features", "--sessions", str(data / "sessions.csv"), "--out", str(out)]) == 4
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("error: MomentOverflow: heart rate 60000/rr_ms overflows float64")
        assert not out.exists()

    def test_cluster_with_no_complete_row_is_config_error(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        write_features_csv(features, make_rows(np.full((30, 1), np.nan), [i % 3 for i in range(30)], ["acc_std"]))
        out = tmp_path / "c.json"
        assert main(["cluster", "--features", str(features), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: TooFewRows: standardizing needs at least one row\n"
        assert not out.exists()

    def test_empty_validation_split_is_empty_eval_set(self, tmp_path, capsys):
        # 4 rows per class: the stratified 70/15/15 cut leaves validation empty
        rng = np.random.default_rng(3)
        features = tmp_path / "features.csv"
        write_features_csv(features, make_rows(rng.normal(70, 5, (12, 2)), [i % 3 for i in range(12)], ["ahr", "mhr"]))
        out = tmp_path / "models"
        argv = ["train", "--features", str(features), "--model", "lrm", "--preset", "hr", "--out-dir", str(out)]
        assert main(argv) == 3
        assert "EmptyEvalSet" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("part", [1, 2], ids=["validation", "prediction"])
    def test_empty_split_is_refused_before_the_fit(self, tmp_path, capsys, monkeypatch, part):
        """Every row of one split lacks ``ahr``, so ``build_xy`` drops them
        all: the run stops before a fit of up to ``MAX_EPOCHS`` epochs."""
        from loadlens.learn import evaluate

        def no_fit(*args):
            raise AssertionError("fit_dnn_xy ran")

        monkeypatch.setattr(evaluate, "fit_dnn_xy", no_fit)
        rng = np.random.default_rng(3)
        rows = make_rows(rng.normal(70, 5, (36, 2)), [i % 3 for i in range(36)], ["ahr", "mhr"])
        features = tmp_path / "features.csv"
        write_features_csv(features, with_feature(rows, split(rows, seed=0)[part].session_id, "ahr", np.nan))
        out = tmp_path / "models"
        argv = ["train", "--features", str(features), "--model", "dnn", "--preset", "hr", "--epochs", "100000"]
        assert main([*argv, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: EmptyEvalSet: no rows to evaluate (rows with a missing feature are dropped)\n"
        assert not out.exists()


class TestPredict:
    def test_rows_are_csv_with_plain_floats(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = make_rows(rng.normal(70, 5, (30, 2)), [i % 3 for i in range(30)], ["ahr", "mhr"])
        rows = FeatureTable(('run "a", day 2', *rows.session_id[1:]), rows.activity, rows.values)
        features = tmp_path / "features.csv"
        write_features_csv(features, rows)
        models = tmp_path / "models"
        argv = ["train", "--features", str(features), "--model", "lrm", "--preset", "hr", "--out-dir", str(models)]
        assert main(argv) == 0
        out = tmp_path / "predict.csv"
        argv = ["predict", "--model", str(models / "lrm_hr.model.json"), "--features", str(features), "--out", str(out)]
        assert main(argv) == 0
        text = out.read_text(encoding="utf-8")
        assert "np." not in text and "\r" not in text
        table = list(csv.reader(text.splitlines()))
        assert table[0] == ["session_id", "activity", "y_pred", "predicted_activity"]
        assert [r[0] for r in table[1:]] == list(rows.session_id)
        assert all(len(r) == 4 for r in table)
        assert [r[1] for r in table[1:]] == [("walking", "running", "skiing")[i % 3] for i in range(30)]
        for r in table[1:]:
            assert r[3] == ("walking", "running", "skiing")[min(max(round(float(r[2])), 0), 2)]


class TestReport:
    def test_missing_key_is_input_error(self, features_csv, tmp_path, capsys):
        models = tmp_path / "models"
        argv = ["train", "--features", features_csv, "--model", "lrm", "--preset", "hr", "--out-dir", str(models)]
        assert main(argv) == 0
        path = models / "lrm_hr.report.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["mae_pred"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["report", "--in-dir", str(models), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "lrm_hr.report.json" in err and "mae_pred" in err
        assert not out.exists()

    def test_report_of_an_unfinished_run_is_input_error(self, features_csv, tmp_path, capsys):
        """A report whose run left no manifest is not merged."""
        models = tmp_path / "models"
        for preset in ("acc", "hr"):
            argv = ["train", "--features", features_csv, "--model", "lrm", "--preset", preset]
            assert main([*argv, "--out-dir", str(models)]) == 0
        (models / "lrm_acc.manifest.json").unlink()
        out = tmp_path / "report.json"
        assert main(["report", "--in-dir", str(models), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ") and "lrm_acc.report.json" in err and "lrm_acc.manifest.json" in err
        assert not out.exists()

    def test_directory_name_is_not_a_pattern(self, features_csv, tmp_path):
        """``--in-dir runs[1]`` reads that directory, not ``runs1``."""
        models = tmp_path / "runs[1]"
        argv = ["train", "--features", features_csv, "--model", "lrm", "--preset", "hr", "--out-dir", str(models)]
        assert main(argv) == 0
        out = tmp_path / "report.json"
        assert main(["report", "--in-dir", str(models), "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["n"] == 1

    @pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b"\xff\xfe"])
    def test_not_a_report_is_input_error(self, tmp_path, capsys, content):
        (tmp_path / "x.report.json").write_bytes(content)
        out = tmp_path / "report.json"
        assert main(["report", "--in-dir", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "x.report.json" in err
        assert not out.exists()



#: ``loadlens.*`` modules each command loads beyond ``cli``, ``errors`` and
#: ``manifest``. Every command but ``report`` loads numpy; the learn and
#: analysis commands load none of ``synth``, ``stats`` and ``momentplane``.
COMMAND_MODULES = {
    "moments": {"ingest", "stats"},
    "plane": {"ingest", "stats", "momentplane"},
    "features": {"ingest", "features", "stats", "momentplane"},
    "correlate": {"ingest", "features"},
    "cluster": {"ingest", "features", "learn", "learn.cluster", "learn.data", "learn.models"},
    "train": {"ingest", "features", "learn", "learn.data", "learn.evaluate", "learn.models"},
    "predict": {"ingest", "features", "learn", "learn.data", "learn.models"},
    "report": set(),
    "synth sessions": {"ingest", "synth"},
    "synth rr": {"ingest", "synth"},
    "synth accel": {"ingest", "synth"},
}

#: Modules of process pools and logging, which no command loads.
POOL_MODULES = ("concurrent", "multiprocessing", "logging")

#: Runs one command in a fresh interpreter and prints its exit code, whether
#: numpy, ``numpy.random`` and ``numpy.ma`` are loaded, the loaded
#: ``loadlens`` modules and the loaded ``POOL_MODULES``. With ``--serial``,
#: ``manifest._fork_map`` runs its tasks in this process and also prints the
#: modules that running them loaded: the modules a forked worker would lack.
#: Commands that draw no random numbers, so they must not load
#: ``numpy.random``: it adds about 2 MB of RSS and 12 ms to a process, and a
#: module-level import of it in ``stats`` would load it for all of them. No
#: command loads ``numpy.ma`` (about 17 ms; ``np.unique`` with ``axis`` loads it).
NO_RANDOM = ("moments", "features", "correlate", "plane")

PROBE = f"""
import json, sys
from loadlens import cli
fresh = []
if sys.argv[1] == "--serial":
    from loadlens import manifest
    def serial(fn, tasks):
        before = set(sys.modules)
        results = [fn(task) for task in tasks]
        fresh.extend(sorted(set(sys.modules) - before))
        return results
    manifest._fork_map = serial
code = cli.main(sys.argv[2:])
loaded = ["numpy" in sys.modules, "numpy.random" in sys.modules, "numpy.ma" in sys.modules]
pool = sorted(m for m in sys.modules if m.startswith({POOL_MODULES!r}))
print(json.dumps([code, *loaded, sorted(m for m in sys.modules if m.startswith("loadlens")), pool, fresh]))
"""


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """rr.csv, a one-session-per-class dataset, features.csv and a trained
    lrm model with its report: an input for every command."""
    root = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "rr", "--preset", "rest", "--out", str(root / "rr.csv")]) == 0
    assert main(["synth", "sessions", "--n", "1", "--out-dir", str(root / "data")]) == 0
    rng = np.random.default_rng(5)
    rows = make_rows(rng.normal(10, 2, (30, 4)), [i % 3 for i in range(30)], ("ahr", "mhr", "acc_std", "acc_mean"))
    write_features_csv(root / "features.csv", rows)
    argv = ["train", "--features", str(root / "features.csv"), "--model", "lrm", "--preset", "hr"]
    assert main([*argv, "--out-dir", str(root / "models")]) == 0
    return root


def command_argv(command: str, inputs, out) -> list[str]:
    features = str(inputs / "features.csv")
    argv = {
        "moments": ["--input", str(inputs / "rr.csv"), "--channel", "rr", "--out", str(out / "w.csv")],
        "plane": ["--input", str(inputs / "rr.csv"), "--out", str(out / "plane.json")],
        "features": ["--sessions", str(inputs / "data" / "sessions.csv"), "--out", str(out / "features.csv")],
        "correlate": ["--features", features, "--out", str(out / "corr.csv")],
        "cluster": ["--features", features, "--out", str(out / "cluster.json")],
        "train": ["--features", features, "--model", "dnn", "--preset", "hr", "--epochs", "2", "--out-dir", str(out)],
        "predict": ["--model", str(inputs / "models" / "lrm_hr.model.json"), "--features", features, "--out", str(out / "p.csv")],
        "report": ["--in-dir", str(inputs / "models"), "--out", str(out / "report.json")],
        "synth sessions": ["--n", "1", "--out-dir", str(out)],
        "synth rr": ["--preset", "rest", "--out", str(out / "rr.csv")],
        "synth accel": ["--class", "active", "--duration", "2", "--out", str(out / "accel.csv")],
    }[command]
    return [*command.split(), *argv]


def probe(mode: str, argv) -> tuple[bool, bool, bool, set[str], list[str], list[str]]:
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(loadlens.__file__))}
    proc = subprocess.run([sys.executable, "-c", PROBE, mode, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, random_loaded, ma_loaded, modules, pool, fresh = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return numpy_loaded, random_loaded, ma_loaded, {m.removeprefix("loadlens.") for m in modules}, pool, fresh


class TestCommandImports:
    @pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
    def test_each_command_loads_only_its_modules(self, command_inputs, tmp_path, command):
        numpy_loaded, random_loaded, ma_loaded, modules, pool, _ = probe("-", command_argv(command, command_inputs, tmp_path))
        assert modules == {"loadlens", "cli", "errors", "manifest"} | COMMAND_MODULES[command]
        assert numpy_loaded == (command != "report")
        assert not ma_loaded
        assert pool == []
        if command in NO_RANDOM:
            assert not random_loaded

    def test_plane_loads_numpy_random_for_a_bootstrap(self, command_inputs, tmp_path):
        """The probe sees ``numpy.random`` where a command does load it. The
        bootstrap runs in a forked child, so the probe runs it serially."""
        _, random_loaded, *_ = probe("--serial", [*command_argv("plane", command_inputs, tmp_path), "--bootstrap", "5"])
        assert random_loaded

    @pytest.mark.parametrize("command", ["features", "synth sessions"])
    def test_workers_start_with_their_modules_loaded(self, command_inputs, tmp_path, command):
        """The workers fork from the command's process: running every task
        there first imports nothing, so no forked worker imports anything."""
        *_, fresh = probe("--serial", command_argv(command, command_inputs, tmp_path))
        assert fresh == []


#: What ``loadlens <command> --help`` prints after "usage: loadlens
#: <command> [-h] " on a wide terminal, and the defaults its flags parse to.
HELP = {
    "moments": (
        "--input INPUT --channel {accel,rr} [--window WINDOW] [--stride STRIDE] [--center] --out OUT",
        {"window": 300, "stride": 30, "center": False},
    ),
    "plane": (
        "--input INPUT [--window WINDOW] [--stride STRIDE] [--bootstrap B] [--rho RHO] [--tau TAU] [--seed SEED] --out OUT",
        {"window": 300, "stride": 30, "bootstrap": 0, "rho": 0.3, "tau": 0.15, "seed": 0},
    ),
    "features": ("--sessions SESSIONS --out OUT", {}),
    "correlate": ("--features FEATURES [--columns COLUMNS] --out OUT", {"columns": None}),
    "cluster": (
        "--features FEATURES [--k K] [--columns COLUMNS] [--seed SEED] --out OUT",
        {"k": 3, "columns": "acc_mean,acc_std,acc_skewness,acc_kurtosis", "seed": 0},
    ),
    "train": (
        "--features FEATURES --model {lrm,dnn} [--preset {acc,acc_with_metrics,all,dist_dur_hr,hr}] [--epochs EPOCHS]"
        " [--lr LR] [--batch BATCH] [--hidden HIDDEN] [--seed SEED] --out-dir OUT_DIR",
        {"preset": "all", "epochs": 200, "lr": 0.01, "batch": 16, "hidden": (16, 16), "seed": 0},
    ),
    "predict": ("--model MODEL --features FEATURES --out OUT", {}),
    "report": ("--in-dir IN_DIR --out OUT", {}),
    "synth sessions": ("--n N [--seed SEED] --out-dir OUT_DIR", {"seed": 0}),
    "synth rr": ("--preset {rest,staircase} [--seed SEED] --out OUT", {"seed": 0}),
    "synth accel": (
        "--class {active,moderate,passive} [--duration DURATION] [--seed SEED] --out OUT",
        {"duration": 60.0, "seed": 0},
    ),
}


def help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--help"])
    assert ei.value.code == 0
    return capsys.readouterr().out


class TestHelp:
    """The parser gets a command's flags only when that command runs; help
    must still list them all."""

    @pytest.fixture(autouse=True)
    def wide_terminal(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")

    def test_top_level_lists_every_command(self, capsys):
        text = help_text(capsys, [])
        assert "{moments,plane,features,correlate,cluster,train,predict,synth,report}" in text
        for command in ("moments", "plane", "features", "correlate", "cluster", "train", "predict", "synth", "report"):
            assert re.search(rf"^    {command} +\S", text, re.M), command
        assert "usage: loadlens synth [-h] {sessions,rr,accel} ..." in help_text(capsys, ["synth"])

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_command_lists_every_flag_with_its_default(self, capsys, command):
        usage, defaults = HELP[command]
        text = help_text(capsys, command.split())
        assert text.startswith(f"usage: loadlens {command} [-h] {usage}\n")
        flags = re.findall(r"--[\w-]+", usage)
        for flag in flags:
            assert re.search(rf"^  {flag}\b", text, re.M), flag
        # fill each required flag (outside brackets) with its first choice, or "1"
        required = re.findall(r"(?<!\[)(--[\w-]+) (?:\{(\w+)[^}]*\}|\w+)", usage)
        argv = [a for flag, choice in required for a in (flag, choice or "1")]
        args = cli.build_parser().parse_args([*command.split(), *argv])
        assert {k: getattr(args, k) for k in defaults} == defaults
        optional = {f.lstrip("-").replace("-", "_") for f in re.findall(r"\[(--[\w-]+)", usage)}
        assert optional == set(defaults)
