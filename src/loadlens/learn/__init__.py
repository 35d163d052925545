"""Supervised activity prediction (linear baseline + small network) and
intensity clustering.

The models work on arrays: ``build_xy`` turns feature rows into a design
matrix and targets, ``fit_lrm_xy``/``fit_dnn_xy`` fit, ``evaluate_xy`` and
``permutation_importance`` score. ``run_training`` is the one row-level
entry point: it splits the rows and drives those array functions.
"""

from .cluster import ClusterResult, kmeans
from .data import (
    PRESETS,
    FeaturePreset,
    build_xy,
    decode_prediction,
    encode_target,
    get_preset,
    split,
)
from .evaluate import (
    EvalMetrics,
    EvalReport,
    evaluate_xy,
    permutation_importance,
    run_training,
)
from .models import (
    DnnConfig,
    LinearModel,
    NetworkModel,
    Standardizer,
    fit_dnn_xy,
    fit_lrm_xy,
    load_model,
    save_model,
)

__all__ = [
    "ClusterResult",
    "kmeans",
    "PRESETS",
    "FeaturePreset",
    "build_xy",
    "decode_prediction",
    "encode_target",
    "get_preset",
    "split",
    "EvalMetrics",
    "EvalReport",
    "evaluate_xy",
    "permutation_importance",
    "run_training",
    "DnnConfig",
    "LinearModel",
    "NetworkModel",
    "Standardizer",
    "fit_dnn_xy",
    "fit_lrm_xy",
    "load_model",
    "save_model",
]
