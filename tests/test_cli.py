"""Command-line tests: byte-identical outputs across runs and the exit code
of each rejected argument."""

import hashlib
import json
import os

import numpy as np
import pytest

from loadlens.cli import main
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
