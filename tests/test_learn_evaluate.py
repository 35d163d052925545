import contextlib
import warnings

import numpy as np
import pytest

from loadlens.errors import EmptyEvalSet, MomentOverflow
from loadlens.learn.data import PRESETS, build_xy
from loadlens.learn.evaluate import IMPORTANCE_REPEATS, evaluate_xy, permutation_importance, run_training
from loadlens.learn.models import DnnConfig, LinearModel, Standardizer, fit_dnn_xy, fit_lrm_xy
from tests.conftest import make_rows


class ConstantModel:
    """Predicts a fixed value; enough of a model for evaluate_xy."""

    features = ("ahr", "mhr")
    kind = "lrm"

    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(len(np.atleast_2d(X)), self.value)


class TestEvaluate:
    def test_perfect_predictions(self, rng):
        X = rng.normal(0, 1, (30, 2))
        codes = [i % 3 for i in range(30)]
        y = np.array(codes, dtype=float)
        with pytest.warns(UserWarning, match="ridge fallback"):
            model = fit_lrm_xy(np.column_stack([y, -y]), y, ["a", "b"])
        ev = evaluate_xy(model, np.column_stack([y, -y]), y)
        assert ev.mae == pytest.approx(0.0, abs=1e-9)
        assert ev.mrd == pytest.approx(0.0, abs=1e-12)
        assert ev.accuracy == 1.0
        assert (np.diag(ev.confusion) == [10, 10, 10]).all()

    def test_constant_one_on_balanced_set(self):
        y = np.array([0.0, 1.0, 2.0] * 10)
        ev = evaluate_xy(ConstantModel(1.0), np.zeros((30, 2)), y)
        assert ev.mae == 2.0 / 3.0
        assert ev.mrd == 2.0 / 3.0
        assert ev.accuracy == 1.0 / 3.0
        assert ev.confusion[:, 1].sum() == 30

    def test_off_by_04_rounds_away(self):
        y = np.array([0.0, 1.0, 2.0] * 4)

        class Off(ConstantModel):
            def predict(self, X):
                return np.asarray(X)[:, 0] + 0.4

        ev = evaluate_xy(Off(0), np.column_stack([y, y]), y)
        assert ev.mae == pytest.approx(0.4, rel=1e-12)
        assert ev.mrd == pytest.approx(0.16, rel=1e-12)
        assert ev.accuracy == 1.0

    def test_confusion_row_sums_are_class_counts(self, rng):
        codes = [0] * 7 + [1] * 5 + [2] * 3
        y = np.array(codes, dtype=float)
        X = rng.normal(0, 1, (15, 2))
        ev = evaluate_xy(ConstantModel(0.6), X, y)
        assert ev.confusion.sum(axis=1).tolist() == [7, 5, 3]

    def test_exact_linear_training_mrd(self, rng):
        X = rng.normal(0, 1, (40, 2))
        y = X @ [1.0, -2.0] + 0.5
        model = fit_lrm_xy(X, y, ["a", "b"])
        # targets are not class codes here; only the error metrics matter
        assert float(((model.predict(X) - y) ** 2).mean()) < 1e-12

    def test_empty(self):
        with pytest.raises(EmptyEvalSet):
            evaluate_xy(ConstantModel(1.0), np.zeros((0, 2)), np.zeros(0))

    def test_metrics_have_the_bits_of_np_mean(self, rng):
        X = rng.normal(0, 1, (37, 3))
        y = rng.normal(0, 1, 37)
        model = fit_lrm_xy(X, y, ["a", "b", "c"])
        resid = model.predict(X) - y
        ev = evaluate_xy(model, X, y)
        assert (ev.mae, ev.mrd) == (float(np.abs(resid).mean()), float((resid * resid).mean()))

    def test_row_level(self, rng):
        rows = make_rows(rng.normal(70, 5, (12, 2)), [i % 3 for i in range(12)], ["ahr", "mhr"])
        ev = evaluate_xy(ConstantModel(1.0), *build_xy(rows, PRESETS["hr"])[:2])
        assert ev.confusion.sum() == 12
        assert ev.confusion.sum(axis=1).tolist() == [4, 4, 4]


class TestPermutationImportance:
    def test_noise_feature_is_unimportant(self, rng):
        x = rng.normal(0, 1, 80)
        noise = rng.normal(0, 1, 80)
        y = 3.0 * x + 1.0
        X = np.column_stack([x, noise])
        model = fit_lrm_xy(X, y, ["signal", "noise"])
        imps = dict(permutation_importance(model, X, np.zeros(80), seed=0))
        assert imps["noise"] < 0.05
        assert imps["signal"] > 0.95

    def test_single_feature_normalizes_to_one(self, rng):
        x = rng.normal(0, 1, 40)
        y = 2.0 * x
        model = fit_lrm_xy(x[:, None], y, ["ahr"])
        with pytest.warns(UserWarning, match="all permutation importances are zero"):
            imps = permutation_importance(model, x[:, None], np.zeros(40), seed=1)
        assert imps == [("ahr", 1.0)]

    def test_sums_to_one(self, rng):
        X = rng.normal(0, 1, (60, 4))
        y = X @ [1.0, 0.5, -2.0, 0.0] + rng.normal(0, 0.2, 60)
        model = fit_lrm_xy(X, y, ["ahr", "mhr", "acc_std", "metric1"])
        zeros = np.zeros(60)
        imps = permutation_importance(model, X, zeros, seed=5)
        assert sum(v for _, v in imps) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for _, v in imps)

    def test_all_zero_falls_back_uniform_with_warning(self, rng):
        X = rng.normal(0, 1, (30, 2))
        y = np.zeros(30)
        model = fit_lrm_xy(X, y, ["ahr", "mhr"])  # fits ~zero weights
        with pytest.warns(UserWarning):
            imps = permutation_importance(model, X, y, seed=2)
        assert [v for _, v in imps] == [0.5, 0.5]

    def test_too_few_rows(self, rng):
        X = rng.normal(0, 1, (8, 2))
        model = fit_lrm_xy(X, np.zeros(8), ["ahr", "mhr"])
        zeros = np.zeros(8)
        with pytest.raises(EmptyEvalSet):
            permutation_importance(model, X, zeros)

    def test_deterministic(self, rng):
        X = rng.normal(0, 1, (40, 3))
        y = X @ [1.0, -1.0, 0.5]
        model = fit_lrm_xy(X, y, ["ahr", "mhr", "acc_std"])
        zeros = np.zeros(40)
        a = permutation_importance(model, X, zeros, seed=3)
        b = permutation_importance(model, X, zeros, seed=3)
        assert a == b


def reference_importance(model, X, y, seed):
    """Permutation importance by the per-copy loop: each shuffled copy is
    scored alone by ``evaluate_xy``, in the draw order of
    ``permutation_importance``."""
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    baseline = evaluate_xy(model, X, y).mrd
    p = X.shape[1]
    raw = np.zeros(p)
    for j in range(p):
        deltas = []
        for _ in range(IMPORTANCE_REPEATS):
            Xp = X.copy()
            Xp[:, j] = Xp[rng.permutation(len(Xp)), j]
            deltas.append(evaluate_xy(model, Xp, y).mrd - baseline)
        raw[j] = max(0.0, float(np.mean(deltas)))
    total = raw.sum()
    if total == 0.0:
        warnings.warn("all permutation importances are zero; reporting uniform weights")
        raw = np.full(p, 1.0 / p)
        total = 1.0
    return list(zip(model.features, (raw / total).tolist()))


class TestPermutationImportanceMatchesPerCopyLoop:
    """The stacked scoring of each column's shuffled copies gives the bits of
    scoring every copy alone."""

    NAMES = ["ahr", "mhr", "acc_std", "metric1"]

    def _model(self, kind, X, y):
        if kind == "dnn":
            return fit_dnn_xy(X, y, None, None, self.NAMES, DnnConfig(hidden=(8, 4), epochs=20, seed=1))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a constant column makes OLS take its ridge fallback
            return fit_lrm_xy(X, y, self.NAMES)

    @pytest.mark.parametrize("kind", ["lrm", "dnn"])
    @pytest.mark.parametrize("case", ["varied", "zero_variance", "all_zero"])
    def test_importances_are_bitwise_equal(self, rng, kind, case):
        y, y_eval = (np.arange(40) % 3).astype(float), (np.arange(17) % 3).astype(float)
        X = rng.normal(0, 1, (40, 4)) + y[:, None] * [1.0, 2.0, 0.0, -3.0]
        X_eval = rng.normal(0, 1, (17, 4)) + y_eval[:, None] * [1.0, 2.0, 0.0, -3.0]
        if case == "zero_variance":
            # the standardizer maps a column constant in training to 0, whatever its shuffle
            X[:, 1] = 4.0
        if case == "all_zero":
            # no shuffle of a constant column changes a row, so every raw delta is 0
            X_eval[:] = X_eval[0]
        model = self._model(kind, X, y)
        for seed in (0, 7):
            zero = pytest.warns(UserWarning, match="all permutation importances are zero")
            with zero if case == "all_zero" else contextlib.nullcontext():
                expected = reference_importance(model, X_eval, y_eval, seed)
            with zero if case == "all_zero" else contextlib.nullcontext():
                got = permutation_importance(model, X_eval, y_eval, seed)
            assert [name for name, _ in got] == self.NAMES
            assert np.array([v for _, v in got]).tobytes() == np.array([v for _, v in expected]).tobytes()
            if case == "zero_variance":
                assert got[1][1] == 0.0

    def test_overflowing_copy_raises_the_per_copy_message(self):
        """Baseline predictions cancel exactly; a shuffled copy does not, and
        its squared error overflows."""
        x = np.arange(-6.0, 6.0)
        model = LinearModel(
            features=("ahr", "mhr"),
            standardizer=Standardizer(means=np.zeros(2), stds=np.ones(2)),
            weights=np.array([2.0**600, 2.0**600]),
            intercept=0.0,
        )
        X, y = np.column_stack([x, -x]), np.zeros(12)
        with pytest.raises(MomentOverflow) as expected:
            reference_importance(model, X, y, seed=3)
        with pytest.raises(MomentOverflow) as got:
            permutation_importance(model, X, y, seed=3)
        assert str(got.value) == str(expected.value)
        assert "MRD inf" in str(got.value)


class TestRunTraining:
    def _rows(self, rng, n=120):
        codes = np.arange(n) % 3
        ahr = 75 + codes * 15 + rng.normal(0, 2, n)
        mhr = ahr + 20 + rng.normal(0, 2, n)
        return make_rows(np.column_stack([ahr, mhr]), codes, ["ahr", "mhr"])

    def test_lrm_report(self, rng):
        model, rep, losses = run_training(self._rows(rng), "lrm", "hr")
        assert rep["model"] == "lrm" and rep["preset"] == "hr"
        assert losses is None
        assert rep["accuracy"] > 0.8
        assert sum(map(sum, rep["confusion"])) == 18  # 15% prediction split of 120
        assert sum(v for _, v in rep["importances"]) == pytest.approx(1.0, abs=1e-9)

    def test_dnn_report(self, rng):
        cfg = DnnConfig(epochs=60, seed=4)
        model, rep, (train_loss, val_loss) = run_training(self._rows(rng), "dnn", "hr", cfg)
        assert len(train_loss) == len(val_loss) == 61
        assert train_loss[-1] < train_loss[0]
        assert rep["accuracy"] > 0.8
        assert rep["model"] == "dnn" and len(rep["confusion"]) == 3

    def test_empty_validation_split(self, rng):
        # 4 rows per class: the stratified 70/15/15 cut leaves validation empty
        with pytest.raises(EmptyEvalSet):
            run_training(self._rows(rng, n=12), "lrm", "hr")

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            run_training(self._rows(rng), "forest", "hr")
