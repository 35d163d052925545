import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadlens.errors import (
    DegenerateDesign,
    NonFiniteLoss,
    ParseError,
    TooFewRows,
    UnknownLabel,
)
from loadlens.learn.data import PRESETS, build_xy, decode_prediction, encode_target, get_preset, split
from loadlens.learn.models import (
    DnnConfig,
    Standardizer,
    _FlatNet,
    _mse,
    fit_dnn_xy,
    fit_lrm_xy,
    forward,
    init_layers,
    load_model,
    save_model,
)
from tests.conftest import make_rows


class TestPresets:
    def test_table_columns(self):
        assert PRESETS["all"].columns == (
            "distance",
            "duration",
            "velocity",
            "pace",
            "metricD",
            "ahr",
            "mhr",
            "acc_std",
            "acc_skewness",
            "acc_kurtosis",
            "metric1",
            "metric2",
        )
        assert PRESETS["dist_dur_hr"].columns == ("distance", "duration", "ahr", "mhr")
        assert PRESETS["hr"].columns == ("ahr", "mhr")
        assert PRESETS["acc_with_metrics"].columns == (
            "acc_std",
            "acc_skewness",
            "acc_kurtosis",
            "metric1",
            "metric2",
        )
        assert PRESETS["acc"].columns == ("acc_std", "acc_skewness", "acc_kurtosis")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("nosuch")


class TestTargetCoding:
    def test_encode(self):
        assert encode_target("walking") == 0.0
        assert encode_target("running") == 1.0
        assert encode_target("skiing") == 2.0
        with pytest.raises(UnknownLabel):
            encode_target("flying")

    def test_decode_rounding_and_clamping(self):
        assert decode_prediction(1.3) == 1
        assert decode_prediction(-0.7) == 0
        assert decode_prediction(2.9) == 2
        assert decode_prediction(3.7) == 2


class TestSplit:
    def _rows(self, n, rng, classes=3):
        codes = [i % classes for i in range(n)]
        return make_rows(rng.normal(0, 1, (n, 2)), codes, ["ahr", "mhr"])

    def test_sizes_100(self, rng):
        train, val, pred = split(self._rows(100, rng), seed=1)
        assert (len(train), len(val), len(pred)) == (70, 15, 15)

    def test_same_seed_identical(self, rng):
        rows = self._rows(60, rng)
        a = split(rows, seed=9)
        b = split(rows, seed=9)
        assert a == b
        c = split(rows, seed=10)
        assert a != c

    def test_stratified_within_one_of_proportional(self, rng):
        rows = self._rows(99, rng)  # 33 per class
        train, val, pred = split(rows, seed=4)
        for part, frac in ((train, 0.7), (val, 0.15), (pred, 0.15)):
            for label in ("walking", "running", "skiing"):
                count = sum(r.activity == label for r in part)
                assert abs(count - frac * 33) <= 1

    def test_no_overlap_and_complete(self, rng):
        rows = self._rows(50, rng)
        train, val, pred = split(rows, seed=2)
        ids = [r.session_id for r in train + val + pred]
        assert sorted(ids) == sorted(r.session_id for r in rows)
        assert len(set(ids)) == 50

    def test_too_few(self, rng):
        with pytest.raises(TooFewRows):
            split(self._rows(9, rng))

    def test_bad_fractions(self, rng):
        with pytest.raises(ValueError):
            split(self._rows(20, rng), fractions=(0.5, 0.2, 0.2))


class TestStandardizer:
    def test_train_split_becomes_standard(self, rng):
        X = rng.normal(5, 3, (40, 3))
        std = Standardizer.fit(X)
        Z = std.transform(X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        assert np.abs(Z.std(axis=0) - 1).max() < 1e-9

    def test_zero_variance_maps_to_zero(self, rng):
        X = np.column_stack([rng.normal(0, 1, 10), np.full(10, 7.0)])
        std = Standardizer.fit(X)
        Z = std.transform(np.column_stack([rng.normal(0, 1, 5), np.full(5, 99.0)]))
        assert (Z[:, 1] == 0).all()


class TestFitLrm:
    def test_exact_linear_recovery(self, rng):
        X = rng.normal(0, 2, (50, 3))
        y = X @ [1.5, -2.0, 0.5] + 4.0
        model = fit_lrm_xy(X, y, ["a", "b", "c"])
        resid = model.predict(X) - y
        assert np.abs(resid).max() < 1e-8
        assert not model.ridge_fallback

    def test_single_feature_original_units(self, rng):
        x = rng.normal(0, 1, 30)
        y = 2.0 * x + 1.0
        model = fit_lrm_xy(x[:, None], y, ["x"])
        at0, at1 = model.predict([[0.0], [1.0]]).tolist()
        assert at1 - at0 == pytest.approx(2.0, rel=1e-9)
        assert at0 == pytest.approx(1.0, rel=1e-9, abs=1e-9)

    def test_duplicated_column_ridge_fallback(self, rng):
        x = rng.normal(0, 1, 40)
        X = np.column_stack([x, x])
        y = 3.0 * x + 2.0
        with pytest.warns(UserWarning, match="ridge fallback"):
            model = fit_lrm_xy(X, y, ["x1", "x2"])
        assert model.ridge_fallback
        assert np.abs(model.predict(X) - y).max() < 1e-6

    def test_degenerate_design(self):
        X = np.full((20, 2), 3.0)
        with pytest.raises(DegenerateDesign):
            fit_lrm_xy(X, np.zeros(20), ["a", "b"])

    def test_too_few_rows(self, rng):
        X = rng.normal(0, 1, (3, 2))
        with pytest.raises(TooFewRows):
            fit_lrm_xy(X, np.zeros(3), ["a", "b"])

    def test_prediction_invariance_under_affine_maps(self, rng):
        X = rng.normal(0, 1, (60, 3))
        y = X @ [1.0, -1.0, 2.0] + rng.normal(0, 0.1, 60)
        base = fit_lrm_xy(X, y, ["a", "b", "c"])
        scales = np.array([3.0, 0.5, 10.0])
        offsets = np.array([-2.0, 5.0, 100.0])
        scaled = fit_lrm_xy(X * scales + offsets, y, ["a", "b", "c"])
        pred_a = base.predict(X)
        pred_b = scaled.predict(X * scales + offsets)
        assert np.abs(pred_a - pred_b).max() < 1e-8

    def test_row_level_api(self, rng):
        X = rng.normal(70, 10, (40, 2))
        codes = [i % 3 for i in range(40)]
        rows = make_rows(X, codes, ["ahr", "mhr"])
        Xr, y, kept = build_xy(rows, PRESETS["hr"].columns)
        assert kept == rows and y.tolist() == [float(c) for c in codes]
        model = fit_lrm_xy(Xr, y, PRESETS["hr"].columns)
        assert model.features == ("ahr", "mhr")
        assert len(model.weights) == 2


class TestFitDnn:
    def test_constant_target_converges(self, rng):
        # bias-only solution exists; plain minibatch GD needs a step size
        # above the all-purpose default to land under 1e-4 within 200 epochs
        X = rng.normal(0, 1, (40, 3))
        y = np.full(40, 1.0)
        cfg = DnnConfig(lr=0.2, batch=8, seed=3)
        model, train_losses, _ = fit_dnn_xy(X, y, None, None, ["a", "b", "c"], cfg)
        assert train_losses[-1] < 1e-4
        assert len(train_losses) == 201  # epoch 0 entry + 200 epochs

    def test_separable_classes_learn(self, rng):
        n = 300
        codes = np.arange(n) % 3
        X = rng.normal(0, 0.3, (n, 2)) + np.column_stack([codes * 2.0, -codes * 1.5])
        y = codes.astype(float)
        model, train_losses, val_losses = fit_dnn_xy(
            X[:240], y[:240], X[240:], y[240:], ["a", "b"], DnnConfig(seed=3)
        )
        assert train_losses[-1] < train_losses[0] / 5
        assert np.isfinite(val_losses).all()

    def test_determinism(self, rng):
        X = rng.normal(0, 1, (50, 4))
        y = rng.normal(0, 1, 50)
        cfg = DnnConfig(epochs=20, seed=11)
        m1, l1, _ = fit_dnn_xy(X, y, None, None, list("abcd"), cfg)
        m2, l2, _ = fit_dnn_xy(X, y, None, None, list("abcd"), cfg)
        assert l1 == l2
        for (W1, b1), (W2, b2) in zip(m1.layers, m2.layers):
            assert (W1 == W2).all() and (b1 == b2).all()

    def test_divergence_raises(self, rng):
        X = rng.normal(0, 1, (40, 2))
        y = rng.normal(0, 1, 40)
        with pytest.raises(NonFiniteLoss):
            fit_dnn_xy(X, y, None, None, ["a", "b"], DnnConfig(lr=1e6, epochs=30, seed=0))

    def test_too_few_rows(self, rng):
        X = rng.normal(0, 1, (10, 2))
        with pytest.raises(TooFewRows):
            fit_dnn_xy(X, np.zeros(10), None, None, ["a", "b"], DnnConfig())

    def test_default_layer_sizes(self, rng):
        X = rng.normal(0, 1, (30, 5))
        y = rng.normal(0, 1, 30)
        model, _, _ = fit_dnn_xy(X, y, None, None, list("abcde"), DnnConfig(epochs=1, seed=0))
        assert model.layer_sizes == (5, 16, 16, 1)

    def test_glorot_bound(self):
        layers = init_layers((8, 16, 1), np.random.default_rng(0))
        a0 = math.sqrt(6.0 / (8 + 16))
        a1 = math.sqrt(6.0 / (16 + 1))
        assert np.abs(layers[0][0]).max() <= a0
        assert np.abs(layers[1][0]).max() <= a1
        assert (layers[0][1] == 0).all()


class TestGradients:
    def test_backprop_matches_central_differences(self, rng):
        X = rng.normal(0, 1, (8, 4))
        y = rng.normal(0, 1, 8)
        net = _FlatNet(init_layers((4, 6, 5, 1), rng))
        net.gradient(X, y)
        grads = net.G.copy()
        h = 1e-5
        for j in range(net.P.size):
            orig = net.P[j]
            net.P[j] = orig + h
            lp = _mse(net.layers, X, y)
            net.P[j] = orig - h
            lm = _mse(net.layers, X, y)
            net.P[j] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(grads[j]), abs(fd), 1e-6)
            assert abs(grads[j] - fd) / denom < 1e-4

    def test_flat_views_match_layer_shapes(self, rng):
        X = rng.normal(0, 1, (7, 3))
        layers = init_layers((3, 4, 1), rng)
        net = _FlatNet(layers)
        shapes = [(W.shape, b.shape) for W, b in layers]
        assert [(W.shape, b.shape) for W, b in net.layers] == shapes == [((3, 4), (4,)), ((4, 1), (1,))]
        assert [(W.shape, b.shape) for W, b in net.grads] == shapes
        assert net.P.shape == net.G.shape == (3 * 4 + 4 + 4 * 1 + 1,)
        for (W, b), (vW, vb), (gW, gb) in zip(layers, net.layers, net.grads):
            assert (vW == W).all() and (vb == b).all()
            assert all(np.shares_memory(v, net.P) for v in (vW, vb))
            assert all(np.shares_memory(g, net.G) for g in (gW, gb))
        assert forward(net.layers, X).shape == (7,)
        net.gradient(X, rng.normal(0, 1, 7))
        assert np.isfinite(net.G).all()
        hidden = net._work(7)[0][0]
        assert hidden.shape == (7, 4) and (hidden >= 0).all()


def _reference_forward_trace(layers, X):
    """Forward pass keeping every layer's pre-activation and activation."""
    acts = [np.asarray(X, dtype=float)]
    preacts = []
    for i, (W, b) in enumerate(layers):
        z = acts[-1] @ W + b
        preacts.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(layers) - 1 else z)
    return acts, preacts


def _reference_loss_and_grads(layers, X, y):
    """Mean-squared-error loss and its gradients via backpropagation."""
    n = len(y)
    acts, preacts = _reference_forward_trace(layers, X)
    resid = acts[-1][:, 0] - y
    loss = float((resid * resid).mean())
    delta = (2.0 / n) * resid[:, None]
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W.T) * (preacts[i - 1] > 0.0)
    return loss, grads


def _reference_mse(layers, X, y) -> float:
    r = _reference_forward_trace(layers, X)[0][-1][:, 0] - y
    return float((r * r).mean())


def _reference_fit(X_train, y_train, X_val, y_val, config):
    """The per-batch update: a list of fresh (W, b) pairs per step."""
    std = Standardizer.fit(X_train)
    Zt = std.transform(X_train)
    Zv = std.transform(X_val) if X_val is not None else None
    rng = np.random.default_rng(config.seed)
    layers = init_layers((Zt.shape[1],) + tuple(config.hidden) + (1,), rng)
    train_losses, val_losses = [], []

    def record(epoch):
        tl = _reference_mse(layers, Zt, y_train)
        vl = _reference_mse(layers, Zv, y_val) if Zv is not None else float("nan")
        if not np.isfinite(tl) or (Zv is not None and not np.isfinite(vl)):
            raise NonFiniteLoss(epoch, tl if not np.isfinite(tl) else vl, config.lr)
        train_losses.append(tl)
        val_losses.append(vl)

    record(0)
    n = len(y_train)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch):
            sel = order[start : start + config.batch]
            _, grads = _reference_loss_and_grads(layers, Zt[sel], y_train[sel])
            layers = [(W - config.lr * dW, b - config.lr * db) for (W, b), (dW, db) in zip(layers, grads)]
        record(epoch)
    return layers, train_losses, val_losses


@st.composite
def _fit_cases(draw):
    n = draw(st.integers(20, 70))
    config = DnnConfig(
        hidden=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))),
        epochs=draw(st.integers(1, 4)),
        lr=draw(st.sampled_from([0.001, 0.01, 0.1])),
        batch=draw(st.integers(1, n + 5)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )
    return n, draw(st.integers(1, 5)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1)), config


class TestFlatStepMatchesPerBatchUpdate:
    @settings(deadline=None)
    @given(_fit_cases())
    @example((20, 5, False, 1, DnnConfig(hidden=(7,), epochs=2, lr=0.1, batch=1, seed=1)))  # diverges at epoch 2
    def test_layers_and_losses_are_bitwise_equal(self, case):
        n, p, with_val, data_seed, config = case
        data = np.random.default_rng(data_seed)
        X = data.normal(0, 1, (n, p)) * data.uniform(0.1, 10, p)
        y = data.normal(0, 1, n)
        X_val, y_val = (data.normal(0, 1, (9, p)), data.normal(0, 1, 9)) if with_val else (None, None)
        try:
            with np.errstate(all="ignore"):
                layers, ref_train, ref_val = _reference_fit(X, y, X_val, y_val, config)
        except NonFiniteLoss as e:
            with pytest.raises(NonFiniteLoss) as ei:
                fit_dnn_xy(X, y, X_val, y_val, list("abcde")[:p], config)
            assert str(ei.value) == str(e)
            return
        model, train_losses, val_losses = fit_dnn_xy(X, y, X_val, y_val, list("abcde")[:p], config)
        assert np.array(train_losses).tobytes() == np.array(ref_train).tobytes()
        assert np.array(val_losses).tobytes() == np.array(ref_val).tobytes()
        assert len(model.layers) == len(layers)
        for (W, b), (rW, rb) in zip(model.layers, layers):
            assert W.shape == rW.shape and W.tobytes() == rW.tobytes()
            assert b.shape == rb.shape and b.tobytes() == rb.tobytes()


class TestSerialization:
    def test_lrm_roundtrip_bit_identical(self, tmp_path, rng):
        X = rng.normal(0, 1, (30, 3))
        y = X @ [1.0, 2.0, -0.5] + 0.3
        model = fit_lrm_xy(X, y, ["a", "b", "c"])
        p = tmp_path / "m.json"
        save_model(model, p)
        back = load_model(p)
        assert back.kind == "lrm"
        assert (back.predict(X) == model.predict(X)).all()
        assert back.ridge_fallback == model.ridge_fallback

    def test_dnn_roundtrip_bit_identical(self, tmp_path, rng):
        X = rng.normal(0, 1, (30, 3))
        y = rng.normal(0, 1, 30)
        model, _, _ = fit_dnn_xy(X, y, None, None, ["a", "b", "c"], DnnConfig(epochs=5, seed=2))
        p = tmp_path / "m.json"
        save_model(model, p)
        back = load_model(p)
        assert back.kind == "dnn"
        assert (back.predict(X) == model.predict(X)).all()


def saved_doc(tmp_path, kind):
    """A model document as save_model writes it, for three features."""
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (30, 3))
    y = rng.normal(0, 1, 30)
    if kind == "lrm":
        model = fit_lrm_xy(X, y, ["a", "b", "c"])
    else:
        model, _, _ = fit_dnn_xy(X, y, None, None, ["a", "b", "c"], DnnConfig(hidden=(4, 2), epochs=1))
    path = tmp_path / "m.json"
    save_model(model, path)
    return json.loads(path.read_text(encoding="utf-8"))


def load_doc(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_model(path)


class TestLoadModelSchema:
    def test_valid_documents_load(self, tmp_path):
        assert load_doc(tmp_path, saved_doc(tmp_path, "lrm")).kind == "lrm"
        assert load_doc(tmp_path, saved_doc(tmp_path, "dnn")).layer_sizes == (3, 4, 2, 1)

    @pytest.mark.parametrize("kind", ["lrm", "dnn"])
    @pytest.mark.parametrize("key", ["kind", "features", "standardizer", "lrm/dnn"])
    def test_missing_key(self, tmp_path, kind, key):
        doc = saved_doc(tmp_path, kind)
        del doc[kind if key == "lrm/dnn" else key]
        with pytest.raises(ParseError, match="missing key"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("path", [("standardizer", "stds"), ("lrm", "w"), ("lrm", "b")])
    def test_missing_nested_key(self, tmp_path, path):
        doc = saved_doc(tmp_path, "lrm")
        del doc[path[0]][path[1]]
        with pytest.raises(ParseError, match="missing key"):
            load_doc(tmp_path, doc)

    def test_missing_layer_key(self, tmp_path):
        doc = saved_doc(tmp_path, "dnn")
        del doc["dnn"]["layers"][1]["b"]
        with pytest.raises(ParseError, match="missing key"):
            load_doc(tmp_path, doc)

    def test_unknown_kind(self, tmp_path):
        doc = saved_doc(tmp_path, "lrm")
        doc["kind"] = "svm"
        with pytest.raises(ParseError, match="unknown kind"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("field", ["means", "stds"])
    def test_standardizer_length(self, tmp_path, field):
        doc = saved_doc(tmp_path, "dnn")
        doc["standardizer"][field] = doc["standardizer"][field][:2]
        with pytest.raises(ParseError, match="standardizer"):
            load_doc(tmp_path, doc)

    def test_first_layer_rows(self, tmp_path):
        doc = saved_doc(tmp_path, "dnn")
        doc["dnn"]["layers"][0]["W"] = doc["dnn"]["layers"][0]["W"][:2]
        with pytest.raises(ParseError, match=r"layers\[0\]"):
            load_doc(tmp_path, doc)

    def test_consecutive_layer_shapes(self, tmp_path):
        doc = saved_doc(tmp_path, "dnn")
        doc["dnn"]["layers"][1]["W"] = doc["dnn"]["layers"][1]["W"][:3]
        with pytest.raises(ParseError, match=r"layers\[1\]"):
            load_doc(tmp_path, doc)

    def test_bias_length(self, tmp_path):
        doc = saved_doc(tmp_path, "dnn")
        doc["dnn"]["layers"][0]["b"] = doc["dnn"]["layers"][0]["b"] + [0.0]
        with pytest.raises(ParseError, match=r"layers\[0\]"):
            load_doc(tmp_path, doc)

    def test_scalar_output(self, tmp_path):
        doc = saved_doc(tmp_path, "dnn")
        last = doc["dnn"]["layers"][-1]
        last["W"] = [row * 2 for row in last["W"]]
        last["b"] = last["b"] * 2
        with pytest.raises(ParseError, match="outputs"):
            load_doc(tmp_path, doc)

    def test_lrm_weights_length(self, tmp_path):
        doc = saved_doc(tmp_path, "lrm")
        doc["lrm"]["w"] = doc["lrm"]["w"] + [1.0]
        with pytest.raises(ParseError, match="lrm.w"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("value", [[1.0, "x", 2.0], [[1.0], [2.0, 3.0]], [1.0, float("nan"), 2.0]])
    def test_bad_arrays(self, tmp_path, value):
        doc = saved_doc(tmp_path, "lrm")
        doc["standardizer"]["means"] = value
        with pytest.raises(ParseError, match="standardizer.means"):
            load_doc(tmp_path, doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_model(path)
