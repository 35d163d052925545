"""Linear baseline and small feedforward network, trained on standardized
features.

Both models predict the ordinal activity code as a regression target; class
decisions come from rounding the output (see ``data.decode_prediction``).
Training is deterministic under a fixed seed and single-threaded execution.

The network's mini-batch step keeps every weight and bias as a view into one
flat vector and writes each batch gradient into views of a second one, so an
update is two whole-vector operations. Every element operation is the one of
the textbook per-batch update (forward trace, backpropagated MSE gradient,
``W - lr * dW`` per layer), so the fitted layers and both loss curves match
that update bit for bit.

A fit does those operations in few numpy calls. Each epoch gathers its
permuted rows with ``take`` into one fixed buffer; the batches are slices of
it, and their ``out=`` buffers and the transposed views the gradient needs
are built once per fit. The per-epoch train and validation losses run every
``_LOSS_BLOCK`` epochs on the stacked parameter snapshots of those epochs:
one matmul per layer over a (K, fan_in, fan_out) stack, and one row
reduction per loss. The stacking rule: stack, do not flatten. A stacked
``np.matmul`` computes each slice bit for bit as the 2-D call on that slice;
one 2-D product over the rows of all slices may round differently, because
BLAS blocks a longer product differently. ``_forward`` is the one forward
pass: the gradient's trace, the stacked loss passes, ``NetworkModel.predict``
and the stacked copies of ``evaluate.permutation_importance`` all run it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, DegenerateDesign, MomentOverflow, NonFiniteLoss, ParseError, TooFewRows
from ..features import ALL_FEATURES
from ..manifest import _read_json, _write_json

#: Condition-number threshold beyond which OLS falls back to ridge.
COND_LIMIT = 1e12
RIDGE_LAMBDA = 1e-8

#: Per-feature stds below this are treated as zero variance.
STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Standardizer:
    """Per-feature mean/std computed on the training split only.

    Zero-variance features map to constant 0 so they can never inject
    non-finite values at predict time. Features whose mean or std
    overflows float64 raise MomentOverflow, so no model stores one.
    """

    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        if not len(X):
            raise TooFewRows("standardizing needs at least one row")
        with np.errstate(over="ignore", invalid="ignore"):
            means, stds = X.mean(axis=0), X.std(axis=0)
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            raise MomentOverflow("a feature mean or std overflows float64")
        return cls(means=means, stds=stds)

    def transform(self, X: np.ndarray) -> np.ndarray:
        zero = self.stds < STD_FLOOR
        scale = np.where(zero, 1.0, self.stds)
        out = (X - self.means) / scale
        out[..., zero] = 0.0
        return out


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


@dataclass(frozen=True)
class LinearModel:
    """Ordinary least squares on standardized features (ridge fallback on
    singular designs)."""

    features: tuple[str, ...]
    standardizer: Standardizer
    weights: np.ndarray
    intercept: float
    ridge_fallback: bool = False

    @property
    def kind(self) -> str:
        return "lrm"

    def predict(self, X) -> np.ndarray:
        Z = self.standardizer.transform(_as_matrix(X))
        return Z @ self.weights + self.intercept


def fit_lrm_xy(X, y, feature_names) -> LinearModel:
    """OLS with intercept on standardized features.

    If the normal-equations matrix is ill-conditioned (cond > 1e12), a ridge
    term lambda=1e-8 is added and the fallback recorded on the model.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p + 2:
        raise TooFewRows(f"OLS needs >= p+2 = {p + 2} rows for {p} features, got {n}")
    std = Standardizer.fit(X)
    if bool((std.stds < STD_FLOOR).all()):
        raise DegenerateDesign("every feature is constant")
    Z = std.transform(X)
    A = np.hstack([np.ones((n, 1)), Z])
    G = A.T @ A
    rhs = A.T @ y
    ridge = False
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        ridge = True
        G = G + RIDGE_LAMBDA * np.eye(p + 1)
        warnings.warn(f"normal equations ill-conditioned (cond={cond:.3g}); using ridge fallback")
    coef = np.linalg.solve(G, rhs)
    return LinearModel(
        features=tuple(feature_names),
        standardizer=std,
        weights=coef[1:],
        intercept=float(coef[0]),
        ridge_fallback=ridge,
    )


@dataclass(frozen=True)
class DnnConfig:
    hidden: tuple[int, ...] = (16, 16)
    epochs: int = 200
    lr: float = 0.01
    batch: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.hidden or any(size < 1 for size in self.hidden):
            raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden}")
        for name in ("epochs", "batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")


def init_layers(sizes, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Uniform init scaled by sqrt(6 / (fan_in + fan_out)); zero biases."""
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append((rng.uniform(-a, a, size=(fan_in, fan_out)), np.zeros(fan_out)))
    return layers


#: Epochs whose losses one stacked pass computes, from the parameter
#: snapshots of those epochs. No loss depends on it; it sets the memory of
#: the snapshots and loss buffers: 31 KB per epoch, 0.25 MB in all, for the
#: default layers on the benchmark's 84 train and 18 validation rows of 12
#: features.
_LOSS_BLOCK = 8


def _forward(a, layers, acts) -> np.ndarray:
    """Network output for the rows of ``a``: rectified-linear hidden layers
    and a linear output layer, computed into ``acts`` (one buffer per layer);
    the output is a view into the last buffer.

    Either ``a`` or the layers may carry a leading stack axis: ``a`` of
    shape (K, n, fan_in) stacks K row sets, layers of shapes
    (K, fan_in, fan_out) and (K, 1, fan_out) stack K parameter sets, and
    the output has shape (K, n). Each slice of the output has the bits of
    the pass over that slice alone (see the stacking rule of the module
    docstring).
    """
    *hidden, (W, b) = layers
    for (Wh, bh), z in zip(hidden, acts):
        np.matmul(a, Wh, z)
        np.add(z, bh, z)
        np.maximum(z, 0.0, out=z)
        a = z
    z = acts[-1]
    np.matmul(a, W, z)
    np.add(z, b, z)
    return z[..., 0]


def _views(flat, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views with the shapes of ``layers`` into the last axis of
    ``flat``. A leading stack axis of ``flat`` leads every view, and each
    bias then gets a unit row axis, (K, 1, fan_out), to broadcast over the
    rows of a stacked pass."""
    lead = flat.shape[:-1]
    views, at = [], 0
    for W, _ in layers:
        (fan_in, fan_out), end = W.shape, at + W.size
        b = flat[..., end : end + fan_out]
        views.append((flat[..., at:end].reshape(lead + (fan_in, fan_out)), b[..., None, :] if lead else b))
        at = end + fan_out
    return views


class _Batch(NamedTuple):
    """One mini-batch's rows and the ``out=`` buffers and views of its
    gradient, built once per fit (see ``_FlatNet.batch``)."""

    X: np.ndarray
    y: np.ndarray
    acts: list
    delta: np.ndarray
    resid: np.ndarray
    scale: float
    back: list


class _FlatNet:
    """Layers as views into one flat parameter vector ``P``, and the
    gradients of a mini-batch as the same views into one flat vector ``G``.

    ``gradient`` takes its trace from ``_forward`` and writes the
    backpropagated gradient of the batch MSE into ``G`` with the element
    operations of a textbook per-batch update (forward trace,
    ``(2/n) * resid``, ``delta @ W.T`` times the 0/1 mask of active units),
    so ``P -= lr * G`` reproduces the per-layer update bit for bit.
    """

    def __init__(self, layers):
        self.P = np.concatenate([np.concatenate([W.ravel(), b]) for W, b in layers])
        self.G = np.empty_like(self.P)
        self.layers = _views(self.P, layers)
        self.grads = _views(self.G, layers)
        self._buffers: dict[int, tuple] = {}

    def _work(self, n: int) -> tuple:
        """Activation, delta and mask buffers for a pass over ``n`` rows,
        shared by the batches of ``n`` rows."""
        work = self._buffers.get(n)
        if work is None:
            widths = [W.shape[1] for W, _ in self.layers]
            acts = [np.empty((n, w)) for w in widths]
            deltas = [np.empty((n, w)) for w in widths]
            masks = [np.empty((n, w), dtype=bool) for w in widths[:-1]]
            work = self._buffers[n] = (acts, deltas, masks)
        return work

    def batch(self, X, y) -> _Batch:
        """The gradient plan of the rows ``X, y``. It holds views, not
        copies: refilling ``X`` and ``y`` in place changes the batch."""
        acts, deltas, masks = self._work(len(y))
        ins = [X] + acts[:-1]
        back = []
        for i in range(len(self.layers) - 1, -1, -1):
            dW, db = self.grads[i]
            down = (self.layers[i][0].T, deltas[i - 1], acts[i - 1], masks[i - 1]) if i else (None,) * 4
            back.append((ins[i].T, deltas[i], dW, db) + down)
        return _Batch(X, y, acts, deltas[-1], deltas[-1][:, 0], 2.0 / len(y), back)

    def gradient(self, batch: _Batch) -> None:
        """Write the gradient of mean((forward(X) - y)**2) into ``G``."""
        np.subtract(_forward(batch.X, self.layers, batch.acts), batch.y, batch.resid)
        np.multiply(batch.scale, batch.delta, batch.delta)
        for aT, d, dW, db, WT, prev, a, mask in batch.back:
            np.matmul(aT, d, dW)
            np.add.reduce(d, 0, None, db)
            if WT is not None:
                np.matmul(d, WT, prev)
                np.greater(a, 0.0, mask)
                np.multiply(prev, mask, prev)


class _LossPass:
    """The MSE on fixed rows ``X, y`` of the first m parameter sets of a
    stack (layers as ``_views`` of a (K, P.size) array), in one stacked
    forward pass; each loss has the bits of ``mean((forward(X) - y)**2)``
    for its parameter set alone, since numpy reduces each row of the
    squared residuals with the pairwise summation of a 1-D array."""

    def __init__(self, X, y, stacked):
        k, n = len(stacked[0][0]), len(y)
        self.X, self.y, self.layers = X, y, stacked
        self.acts = [np.empty((k, n, W.shape[-1])) for W, _ in stacked]
        self.sq = np.empty((k, n))
        self.loss = np.empty(k)

    def __call__(self, m: int) -> list[float]:
        layers = [(W[:m], b[:m]) for W, b in self.layers]
        sq, loss = self.sq[:m], self.loss[:m]
        np.subtract(_forward(self.X, layers, [a[:m] for a in self.acts]), self.y, sq)
        np.multiply(sq, sq, sq)
        np.add.reduce(sq, 1, None, loss)
        np.divide(loss, len(self.y), loss)
        return loss.tolist()


@dataclass(frozen=True)
class NetworkModel:
    """Feedforward rectifier network with a linear scalar output."""

    features: tuple[str, ...]
    standardizer: Standardizer
    layers: list[tuple[np.ndarray, np.ndarray]] = field(compare=False)

    @property
    def kind(self) -> str:
        return "dnn"

    def predict(self, X) -> np.ndarray:
        Z = self.standardizer.transform(_as_matrix(X))
        return _forward(Z, self.layers, [np.empty(Z.shape[:-1] + W.shape[1:]) for W, _ in self.layers])


def fit_dnn_xy(X_train, y_train, X_val, y_val, feature_names, config: DnnConfig = DnnConfig()):
    """Mini-batch gradient descent on MSE.

    Returns (model, train_losses, val_losses); the loss lists carry
    epochs + 1 entries, index 0 being the pre-training loss.
    Raises NonFiniteLoss if training diverges.
    """
    X_train = _as_matrix(X_train)
    y_train = np.asarray(y_train, dtype=float)
    if len(y_train) < 20:
        raise TooFewRows(f"network training needs >= 20 rows, got {len(y_train)}")
    std = Standardizer.fit(X_train)
    Zt = std.transform(X_train)
    Zv = std.transform(_as_matrix(X_val)) if X_val is not None and len(X_val) else None
    yv = np.asarray(y_val, dtype=float) if Zv is not None else None

    rng = np.random.default_rng(config.seed)
    sizes = (Zt.shape[1],) + tuple(config.hidden) + (1,)
    net = _FlatNet(init_layers(sizes, rng))
    P, G, lr = net.P, net.G, config.lr
    step = np.empty_like(P)
    n = len(y_train)
    # each epoch gathers its permuted rows into Xo, yo, which the batches view
    Xo, yo = np.empty_like(Zt), np.empty_like(y_train)
    batches = [net.batch(Xo[s : s + config.batch], yo[s : s + config.batch]) for s in range(0, n, config.batch)]
    snapshots = np.empty((_LOSS_BLOCK, P.size))
    stacked = _views(snapshots, net.layers)
    train_pass = _LossPass(Zt, y_train, stacked)
    val_pass = _LossPass(Zv, yv, stacked) if Zv is not None else None
    train_losses: list[float] = []
    val_losses: list[float] = []

    def record(first: int, m: int) -> None:
        """Losses of the epochs first .. first + m - 1, from the snapshots."""
        tl = train_pass(m)
        vl = val_pass(m) if val_pass is not None else [math.nan] * m
        for epoch, t, v in zip(range(first, first + m), tl, vl):
            if not math.isfinite(t) or (val_pass is not None and not math.isfinite(v)):
                raise NonFiniteLoss(epoch, t if not math.isfinite(t) else v, lr)
        train_losses.extend(tl)
        val_losses.extend(vl)

    # a diverging fit overflows before record() sees the non-finite loss
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            if epoch:
                order = rng.permutation(n)
                Zt.take(order, 0, Xo, "clip")
                y_train.take(order, 0, yo, "clip")
                for batch in batches:
                    net.gradient(batch)
                    np.multiply(lr, G, step)
                    np.subtract(P, step, P)
            slot = epoch % _LOSS_BLOCK
            snapshots[slot] = P
            if slot == _LOSS_BLOCK - 1 or epoch == config.epochs:
                record(epoch - slot, slot + 1)

    model = NetworkModel(features=tuple(feature_names), standardizer=std, layers=net.layers)
    return model, train_losses, val_losses


def save_model(model, path) -> None:
    """Serialize to JSON; float repr round-trips bit-exactly."""
    doc = {
        "kind": model.kind,
        "features": list(model.features),
        "standardizer": {
            "means": model.standardizer.means.tolist(),
            "stds": model.standardizer.stds.tolist(),
        },
    }
    if model.kind == "lrm":
        doc["lrm"] = {
            "w": model.weights.tolist(),
            "b": model.intercept,
            "ridge_fallback": model.ridge_fallback,
        }
    else:
        doc["dnn"] = {
            "layers": [{"W": W.tolist(), "b": b.tolist()} for W, b in model.layers]
        }
    _write_json(path, doc)


def _key(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"model: missing key {where}{key}")
    return doc[key]


def _floats(value, name: str, ndim: int) -> np.ndarray:
    """A finite float array of ``ndim`` dimensions, or ParseError."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"model: {name} is not a numeric array") from None
    if arr.ndim != ndim or not np.isfinite(arr).all():
        raise ParseError(f"model: {name} must be a finite {ndim}-d array")
    return arr


def _check_len(arr: np.ndarray, n: int, name: str) -> None:
    if len(arr) != n:
        raise ParseError(f"model: {name} has {len(arr)} entries for {n} features")


def load_model(path):
    """Read a model written by ``save_model``.

    A file that is not UTF-8 JSON, or a document that lacks a key, names an
    unknown kind or a feature outside ``features.ALL_FEATURES``, holds a
    negative std, or holds arrays whose sizes disagree with the feature list
    or with each other raises ParseError.
    """
    doc = _read_json(path, "model")
    kind = _key(doc, "kind", "")
    features = _key(doc, "features", "")
    if not (isinstance(features, list) and features and all(isinstance(f, str) for f in features)):
        raise ParseError("model: features must be a non-empty list of names")
    unknown = [f for f in features if f not in ALL_FEATURES]
    if unknown:
        raise ParseError(f"model: unknown features {', '.join(map(repr, unknown))}")
    nf = len(features)
    std_doc = _key(doc, "standardizer", "")
    std = Standardizer(
        means=_floats(_key(std_doc, "means", "standardizer."), "standardizer.means", 1),
        stds=_floats(_key(std_doc, "stds", "standardizer."), "standardizer.stds", 1),
    )
    _check_len(std.means, nf, "standardizer.means")
    _check_len(std.stds, nf, "standardizer.stds")
    if (std.stds < 0).any():
        raise ParseError("model: standardizer.stds must be >= 0")
    if kind == "lrm":
        lrm = _key(doc, "lrm", "")
        weights = _floats(_key(lrm, "w", "lrm."), "lrm.w", 1)
        _check_len(weights, nf, "lrm.w")
        return LinearModel(
            features=tuple(features),
            standardizer=std,
            weights=weights,
            intercept=float(_floats(_key(lrm, "b", "lrm."), "lrm.b", 0)),
            ridge_fallback=bool(lrm.get("ridge_fallback", False)),
        )
    if kind == "dnn":
        layer_docs = _key(_key(doc, "dnn", ""), "layers", "dnn.")
        if not (isinstance(layer_docs, list) and layer_docs):
            raise ParseError("model: dnn.layers must be a non-empty list")
        layers = []
        fan_in = nf
        for i, layer in enumerate(layer_docs):
            W = _floats(_key(layer, "W", f"dnn.layers[{i}]."), f"dnn.layers[{i}].W", 2)
            b = _floats(_key(layer, "b", f"dnn.layers[{i}]."), f"dnn.layers[{i}].b", 1)
            if W.shape[0] != fan_in or len(b) != W.shape[1]:
                raise ParseError(
                    f"model: dnn.layers[{i}] has W {W.shape} and b ({len(b)},) after {fan_in} inputs"
                )
            layers.append((W, b))
            fan_in = W.shape[1]
        if fan_in != 1:
            raise ParseError(f"model: the last dnn layer has {fan_in} outputs, expected 1")
        return NetworkModel(features=tuple(features), standardizer=std, layers=layers)
    raise ParseError(f"model: unknown kind {kind!r}")
