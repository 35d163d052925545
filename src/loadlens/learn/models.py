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
permuted rows with ``take`` into one fixed buffer, and the batches are
slices of it. After each epoch, the train and validation losses run one
pass over their rows. A batch and a loss pass of n rows share one set of
``out=`` buffers, built once per fit. ``_forward`` is the one forward pass:
the gradient's trace, the loss passes and ``NetworkModel.predict`` all run
it, always over 2-D rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
        out[:, zero] = 0.0
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


def _forward(a, layers, acts) -> np.ndarray:
    """Network output for the rows of ``a``: rectified-linear hidden layers
    and a linear output layer, computed into ``acts`` (one buffer per layer);
    the output is a view into the last buffer. ``a`` holds 2-D rows,
    (n, fan_in), each buffer is (n, fan_out), and the output is (n,).
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
    return z[:, 0]


def _views(flat, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views with the shapes of ``layers`` into the 1-D ``flat``."""
    views, at = [], 0
    for W, _ in layers:
        end = at + W.size
        views.append((flat[at:end].reshape(W.shape), flat[end : end + W.shape[1]]))
        at = end + W.shape[1]
    return views


class _FlatNet:
    """Layers as views into one flat parameter vector ``P``, and the
    gradients of a mini-batch as the same views into one flat vector ``G``.

    ``gradient`` takes its trace from ``_forward`` and writes the
    backpropagated gradient of the batch MSE into ``G`` with the element
    operations of a textbook per-batch update (forward trace,
    ``(2/n) * resid``, ``delta @ W.T`` times the 0/1 mask of active units),
    so ``P -= lr * G`` reproduces the per-layer update bit for bit. A batch
    and a loss pass of n rows share one set of buffers (``_work``).
    """

    def __init__(self, layers):
        self.P = np.concatenate([np.concatenate([W.ravel(), b]) for W, b in layers])
        self.G = np.empty_like(self.P)
        self.layers = _views(self.P, layers)
        self.grads = _views(self.G, layers)
        self._buffers: dict[int, tuple] = {}

    def _work(self, n: int) -> tuple:
        """Activation, delta and mask buffers for a pass over ``n`` rows,
        shared by the batches and loss passes of ``n`` rows."""
        work = self._buffers.get(n)
        if work is None:
            widths = [W.shape[1] for W, _ in self.layers]
            acts = [np.empty((n, w)) for w in widths]
            deltas = [np.empty((n, w)) for w in widths]
            masks = [np.empty((n, w), dtype=bool) for w in widths[:-1]]
            work = self._buffers[n] = (acts, deltas, masks)
        return work

    def mse(self, X, y) -> float:
        """mean((forward(X) - y)**2), in the activation and output-delta
        buffers of ``len(y)`` rows."""
        acts, deltas, _ = self._work(len(y))
        sq = deltas[-1][:, 0]
        np.subtract(_forward(X, self.layers, acts), y, sq)
        np.multiply(sq, sq, sq)
        return float(np.add.reduce(sq)) / len(y)

    def gradient(self, X, y) -> None:
        """Write the gradient of mean((forward(X) - y)**2) into ``G``,
        backpropagated from the output layer down in the buffers of
        ``len(y)`` rows."""
        acts, deltas, masks = self._work(len(y))
        ins = [X] + acts[:-1]
        np.subtract(_forward(X, self.layers, acts), y, deltas[-1][:, 0])
        np.multiply(2.0 / len(y), deltas[-1], deltas[-1])
        for i in range(len(self.layers) - 1, -1, -1):
            dW, db = self.grads[i]
            np.matmul(ins[i].T, deltas[i], dW)
            np.add.reduce(deltas[i], 0, None, db)
            if i:
                np.matmul(deltas[i], self.layers[i][0].T, deltas[i - 1])
                np.greater(acts[i - 1], 0.0, masks[i - 1])
                np.multiply(deltas[i - 1], masks[i - 1], deltas[i - 1])


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
        return _forward(Z, self.layers, [np.empty((len(Z), W.shape[1])) for W, _ in self.layers])


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
    batches = [(Xo[s : s + config.batch], yo[s : s + config.batch]) for s in range(0, n, config.batch)]
    train_losses: list[float] = []
    val_losses: list[float] = []

    # a diverging fit overflows before its loss is checked
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            if epoch:
                order = rng.permutation(n)
                Zt.take(order, 0, Xo, "clip")
                y_train.take(order, 0, yo, "clip")
                for X, y in batches:
                    net.gradient(X, y)
                    np.multiply(lr, G, step)
                    np.subtract(P, step, P)
            t = net.mse(Zt, y_train)
            v = net.mse(Zv, yv) if Zv is not None else math.nan
            if not math.isfinite(t) or (Zv is not None and not math.isfinite(v)):
                raise NonFiniteLoss(epoch, t if not math.isfinite(t) else v, lr)
            train_losses.append(t)
            val_losses.append(v)

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
    negative std or an ``lrm.ridge_fallback`` that is not a JSON bool, or
    holds arrays whose sizes disagree with the feature list or with each
    other raises ParseError.
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
        ridge = _key(lrm, "ridge_fallback", "lrm.")
        if not isinstance(ridge, bool):
            raise ParseError(f"model: lrm.ridge_fallback must be true or false, got {ridge!r}")
        return LinearModel(
            features=tuple(features),
            standardizer=std,
            weights=weights,
            intercept=float(_floats(_key(lrm, "b", "lrm."), "lrm.b", 0)),
            ridge_fallback=ridge,
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
