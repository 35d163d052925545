"""Command-line tests: byte-identical outputs across runs and the exit code
of each rejected argument."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import loadlens
from loadlens import ingest
from loadlens.cli import main
from loadlens.errors import MalformedRow, NonMonotonicTime, ParseError
from loadlens.features import write_features_csv
from loadlens.manifest import TIMESTAMP_KEY
from tests.conftest import make_rows

#: sha256 of every data output of the golden pipeline below. They were
#: computed with the row-object implementation that preceded the columnar
#: channels; any change here is a change of output bytes.
GOLDEN_SHA256 = {
    "data/running000_accel.csv": "29ac54ebdfb461fc768e1639f2d3184f1a1658ccd55f58d83a806920563d7e83",
    "data/running000_rr.csv": "44e94971b6ce2c8500528e715873ae83caead032aa7af6700f6fa8bbef3f5726",
    "data/running001_accel.csv": "56d2551b465662660625c6c6480c9bd9bdba52eb89c93dd2c7c12463518f7f77",
    "data/running001_rr.csv": "86ad3e41808a6f670be0020c57cc639f4eab4057a4fc8c5cedd14497ea6341f7",
    "data/sessions.csv": "e414fe671499733eeab71c54f0a3d1ab7fa2b8dee347a6882da3f3b486c870fe",
    "data/skiing000_accel.csv": "f9f265f7e1f18e502b95519ff1691f44e942fc86e70fb2c40d87c6901908186c",
    "data/skiing000_rr.csv": "e442d706714ec1ce91219cd11475666e4cadcaf84624370be0608373069c2ae4",
    "data/skiing001_accel.csv": "377958f026465c92e3ee348ca73aecd57571e07eeb84524b901d594f1b6f2b12",
    "data/skiing001_rr.csv": "e650cb23d176edeb3975a3e9ecc5b48c375cb6fdb25772db4391557e497f28aa",
    "data/walking000_accel.csv": "be265d32f018303021172bc3ee98131bb3af5e2dd94eae883610912ce7ce3d84",
    "data/walking000_rr.csv": "289249992be37a4e6d5ef1ac1c303bde719c942d8e1daf1a8675ed06634c96cd",
    "data/walking001_accel.csv": "b2434aaa2e39d21ff640af354c1034fe25f3c1648c9e44bf303ca86b5518b08e",
    "data/walking001_rr.csv": "45f9f0cc9e80c2796c44c5ecdcba8bdb0ec033c75ba2f00543de9be63390b005",
    "features.csv": "6edb84d21cec7595e737e8ec23d606e34ec192d9f540f50b8e6d9dd4e46e704d",
    "accel_windows.csv": "570af8ee72de1550c78273a89fcef09349fd1dc68fd961080712752cae6aedaf",
}

MANIFESTS = ("data/run.manifest.json", "features.csv.manifest.json", "accel_windows.csv.manifest.json")

#: sha256 of the plane export and the RR window table of a synthetic
#: staircase protocol, as written by the per-window implementation that
#: preceded the block kernel and the array zone classifier.
PLANE_GOLDEN_SHA256 = {
    "rr.csv": "7e911e241b5ed1e6846db641e3e3ee8d42b6cb0fb527a24d2a76929792481523",
    "plane.json": "2ad7e8f7c8beb3d42837e902df5e68560a3e670310bb5aefb6c6b08c03246660",
    "windows.csv": "c4ab68e99aa643413281683c5398fc553cfd97c412264e91c39cbad1a1823c05",
}

#: The same for a hand-made RR file whose constant stretch yields 31
#: degenerate windows (null plane points, empty CSV cells).
FLAT_GOLDEN_SHA256 = {
    "rr.csv": "a52b016d33f0fcabd0c00e6059c31f987dd9488e7d028a0bba8ace7475b06612",
    "plane.json": "4b272042b8019aa064b39d3ddcb146e9e219a8db8770ee92fd99b2210df7eeb6",
    "windows.csv": "3fc8efd37e37f5ea93180d842a424a2ab93ba27e52cc03c19ce0b2d7020d0118",
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


def portable_manifest(path, root) -> dict:
    """Manifest without its timestamp and with the run directory abstracted."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop(TIMESTAMP_KEY)
    return json.loads(json.dumps(doc).replace(str(root), "<ROOT>"))


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
        for rel in MANIFESTS:
            assert portable_manifest(first / rel, first) == portable_manifest(second / rel, second), rel


def replace_line(path, i, text) -> None:
    """Replace line ``i`` (the header is line 0) of a channel CSV."""
    lines = path.read_bytes().split(b"\r\n")
    lines[i] = text.encode()
    path.write_bytes(b"\r\n".join(lines))


class TestSessionWorkers:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(ingest, "_worker_count", lambda n_sessions: workers)
        data = tmp_path / "data"
        assert main(["synth", "sessions", "--n", "2", "--seed", "0", "--out-dir", str(data)]) == 0
        assert main(["features", "--sessions", str(data / "sessions.csv"), "--out", str(tmp_path / "features.csv")]) == 0
        for rel, digest in GOLDEN_SHA256.items():
            if rel.startswith("data/") or rel == "features.csv":
                assert sha256(tmp_path / rel) == digest, rel

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
        """Nor ``logging``: warnings go through ``warnings.warn``."""
        code = "import sys, loadlens.cli; print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing', 'logging'))))"
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


#: sha256 of every output of the learn commands on fabricated features, as
#: written by the row-level learn API before ``run_training`` built each
#: split's arrays once. ``predict.csv`` is pinned as written since its rows
#: go through ``csv.writer`` with plain floats.
LEARN_GOLDEN_SHA256 = {
    "features.csv": "62e20dcd0366907f25cf222fdb81e6ba79a3df4897f2fc1e624aa386ab69c11d",
    "models/lrm_all.model.json": "145e8932cac8cd2e320f45f1e6ce9cad11a671afd889c615d0938e8814195bc3",
    "models/lrm_all.report.json": "cba864f1a74f9c980ecbfa2a314833f3285ec37d98ad096f1b396150e5d3963e",
    "models/lrm_all.losses.csv": "8f9b0d82b82b8da872ca302b25b509399103ef644276b99498436128336070dc",
    "models/dnn_all.model.json": "574235a2c83e1d7349107de28a53e00e89e1ed75c862cd2526c45bdad9db3a04",
    "models/dnn_all.report.json": "da644caa088583037b5ce28d2d46e3b026e2dcd14d61db6a9d3b968d31e42ea0",
    "models/dnn_all.losses.csv": "61dc2d5f7993d62d8569e676d70570ad36759febbfd24a969e58e9a5d1f4b905",
    "report.json": "b46b0922f6d81921fab624acd74ae7a84bfb42fd8a4aa65c2c416381e6ec8466",
    "cluster.json": "a6c742b1096442f9f747a7ad0459b20d618cb2e0ee62fa35a89e64c554c84592",
    "correlation.csv": "49d25737fd001bc4e0c9797365d5c23ada28aa7c62296a2339083ed3836d0c07",
    "predict.csv": "95582a658d24e5cf21f4e2af806c4ab319d086675e8ab744895920ea48b4956b",
}

LEARN_MANIFESTS = (
    "models/lrm_all.manifest.json",
    "models/dnn_all.manifest.json",
    "report.json.manifest.json",
    "cluster.json.manifest.json",
    "correlation.csv.manifest.json",
    "predict.csv.manifest.json",
)


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
        for rel in LEARN_MANIFESTS:
            assert portable_manifest(first / rel, first) == portable_manifest(second / rel, second), rel


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


class TestExitCodes:
    def test_ok(self, features_csv, tmp_path):
        assert main(["cluster", "--features", features_csv, "--out", str(tmp_path / "c.json")]) == 0

    def test_cluster_k_zero(self, features_csv, tmp_path):
        out = tmp_path / "c.json"
        assert main(["cluster", "--features", features_csv, "--k", "0", "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value", [("--epochs", "0"), ("--epochs", "-3"), ("--batch", "0"), ("--lr", "0"), ("--hidden", "8,0")]
    )
    def test_train_rejects(self, features_csv, tmp_path, flag, value):
        out = tmp_path / "models"
        argv = ["train", "--features", features_csv, "--model", "dnn", flag, value, "--out-dir", str(out)]
        assert main(argv) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value", [("--rho", "-1"), ("--rho", "0"), ("--tau", "-0.5"), ("--tau", "nan"), ("--bootstrap", "-2")]
    )
    def test_plane_rejects(self, rr_csv, tmp_path, flag, value, capsys):
        out = tmp_path / "plane.json"
        assert main(["plane", "--input", rr_csv, flag, value, "--out", str(out)]) == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_usage_errors_return_three(self, capsys):
        assert main([]) == 3
        assert main(["plane", "--input", "rr.csv"]) == 3
        assert main(["no-such-command"]) == 3
        assert "usage:" in capsys.readouterr().err

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
        for broken in ({k: v for k, v in doc.items() if k != "standardizer"}, {**doc, "lrm": {**doc["lrm"], "w": [1.0]}}):
            path.write_text(json.dumps(broken), encoding="utf-8")
            out = tmp_path / "pred.csv"
            assert main(["predict", "--model", str(path), "--features", features_csv, "--out", str(out)]) == 2
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

    @pytest.mark.parametrize("duration", ["inf", "nan", "0", "86400.5", "1e9"])
    def test_synth_accel_rejects_duration(self, tmp_path, capsys, duration):
        out = tmp_path / "accel.csv"
        assert main(["synth", "accel", "--class", "passive", "--duration", duration, "--out", str(out)]) == 3
        assert "argument --duration" in capsys.readouterr().err
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


class TestPredict:
    def test_rows_are_csv_with_plain_floats(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = make_rows(rng.normal(70, 5, (30, 2)), [i % 3 for i in range(30)], ["ahr", "mhr"])
        rows[0] = dataclasses.replace(rows[0], session_id='run "a", day 2')
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
        assert table[0] == ["session_id", "activity", "y_true", "y_pred", "predicted_activity"]
        assert [r[0] for r in table[1:]] == [r.session_id for r in rows]
        assert all(len(r) == 5 for r in table)
        assert [float(r[2]) for r in table[1:]] == [float(i % 3) for i in range(30)]
        for r in table[1:]:
            assert r[4] == ("walking", "running", "skiing")[min(max(round(float(r[3])), 0), 2)]


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

    @pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b"\xff\xfe"])
    def test_not_a_report_is_input_error(self, tmp_path, capsys, content):
        (tmp_path / "x.report.json").write_bytes(content)
        out = tmp_path / "report.json"
        assert main(["report", "--in-dir", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "x.report.json" in err
        assert not out.exists()

