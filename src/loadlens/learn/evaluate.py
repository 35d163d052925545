"""Model evaluation: MAE/MRD, confusion matrix, permutation importance.

MRD (mean residual deviance) is the mean squared prediction error, the
Gaussian-deviance convention. Class decisions come from rounding the
regression output, which is what reconciles regression-style error metrics
with a confusion-matrix accuracy.

``permutation_importance`` scores each of the ``IMPORTANCE_REPEATS``
shuffled copies of one column alone, by its MRD; no confusion matrix is
built for a copy.

``run_training`` returns its report as the JSON document that ``train``
writes, and a network's loss curves beside it, not in it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyEvalSet, MomentOverflow
from ..features import FeatureTable
from ..ingest import DEFAULT_ACTIVITIES
from .data import PRESETS, build_xy, decode_prediction, split
from .models import DnnConfig, fit_dnn_xy, fit_lrm_xy


@dataclass(frozen=True)
class EvalMetrics:
    """Error metrics plus the decoded-class confusion matrix of one split."""

    mae: float
    mrd: float
    confusion: np.ndarray
    accuracy: float


#: Shuffles per feature column in ``permutation_importance``.
IMPORTANCE_REPEATS = 10


def _errors(model, X, y) -> tuple[np.ndarray, float, float]:
    """Prediction, MAE and MRD of a fitted model on the rows of ``X``. An
    MAE or MRD that is not a finite float64 raises ``MomentOverflow``."""
    with np.errstate(over="ignore", invalid="ignore"):
        yhat = model.predict(X)
        resid = yhat - y
        mae = float(np.abs(resid).mean())
        mrd = float((resid * resid).mean())
    if not (math.isfinite(mae) and math.isfinite(mrd)):
        raise MomentOverflow(f"the prediction error is not a finite float64 (MAE {mae!r}, MRD {mrd!r})")
    return yhat, mae, mrd


def _rows_to_evaluate(y) -> np.ndarray:
    """The targets of a split as a float array; no rows raise EmptyEvalSet."""
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise EmptyEvalSet("no rows to evaluate (rows with a missing feature are dropped)")
    return y


def evaluate_xy(model, X, y) -> EvalMetrics:
    """Error metrics and confusion matrix of a fitted model on one split.

    An MAE or MRD that is not a finite float64 (a prediction far outside
    the training range squares past the largest float) raises
    ``MomentOverflow``.
    """
    y = _rows_to_evaluate(y)
    yhat, mae, mrd = _errors(model, X, y)
    n_classes = len(DEFAULT_ACTIVITIES)
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(y, yhat):
        confusion[int(t), decode_prediction(float(p))] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalMetrics(mae=mae, mrd=mrd, confusion=confusion, accuracy=accuracy)


def permutation_importance(model, X, y, seed: int = 0) -> list[tuple[str, float]]:
    """Mean MRD increase when one feature column is shuffled, normalized to
    sum 1.

    Negative raw deltas are floored at 0; if every feature comes out 0 the
    importances fall back to uniform (with a warning), since nothing can be
    ranked.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) < 10:
        raise EmptyEvalSet(f"permutation importance needs >= 10 rows, got {len(X)}")
    rng = np.random.default_rng(seed)
    baseline = _errors(model, X, y)[2]
    n, p = X.shape
    copy = np.empty_like(X)
    raw = np.zeros(p)
    for j in range(p):
        copy[...] = X
        deltas = []
        for _ in range(IMPORTANCE_REPEATS):
            copy[:, j] = X[rng.permutation(n), j]
            deltas.append(_errors(model, copy, y)[2] - baseline)
        raw[j] = max(0.0, float(np.mean(deltas)))
    total = raw.sum()
    if total == 0.0:
        warnings.warn("all permutation importances are zero; reporting uniform weights")
        raw = np.full(p, 1.0 / p)
        total = 1.0
    return list(zip(model.features, (raw / total).tolist()))


def run_training(table: FeatureTable, model_kind: str, preset: str, config: DnnConfig = DnnConfig()):
    """Split, fit, and evaluate one model; returns (model, report, losses),
    the report a dict of the split metrics and importances, and losses a
    ``dnn``'s train and validation loss curves, None for an ``lrm``. The
    split, the DNN fit and the importances all draw from ``config.seed``.

    Each split's design matrix is built once; rows with a missing selected
    feature are dropped, and an empty validation or prediction split raises
    EmptyEvalSet before the fit. The confusion matrix and accuracy are
    reported on the prediction split; importances on the validation split
    (empty when it is too small to permute meaningfully).
    """
    columns = PRESETS[preset]
    train, val, pred = (build_xy(part, columns)[:2] for part in split(table, seed=config.seed))
    for _, y in (val, pred):
        _rows_to_evaluate(y)
    if model_kind == "lrm":
        model, losses = fit_lrm_xy(*train, columns), None
    elif model_kind == "dnn":
        model, *losses = fit_dnn_xy(*train, *val, columns, config)
    else:
        raise ValueError(f"unknown model kind {model_kind!r}; use 'lrm' or 'dnn'")
    ev_val = evaluate_xy(model, *val)
    ev_pred = evaluate_xy(model, *pred)
    try:
        importances = permutation_importance(model, *val, seed=config.seed)
    except EmptyEvalSet:
        importances = []
    return model, {
        "model": model_kind,
        "preset": preset,
        "mae_val": ev_val.mae,
        "mrd_val": ev_val.mrd,
        "mae_pred": ev_pred.mae,
        "mrd_pred": ev_pred.mrd,
        "confusion": ev_pred.confusion.tolist(),
        "accuracy": ev_pred.accuracy,
        "accuracy_val": ev_val.accuracy,
        "importances": [[name, v] for name, v in importances],
    }, losses
