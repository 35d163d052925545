"""Seeded k-means with k-means++ initialization for activity-intensity groups."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TooFewDistinctPoints

#: Intensity labels by descending acceleration spread of the cluster centroid.
INTENSITY_ORDER = ("active", "moderate", "passive")


@dataclass(frozen=True)
class ClusterResult:
    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    inertia_history: tuple[float, ...]
    n_iter: int
    intensity_labels: dict[int, str] | None = None


def _plus_plus_init(X: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(X)
    centroids = [X[int(rng.integers(n))]]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids.append(X[idx])
        d2 = np.minimum(d2, ((X - centroids[-1]) ** 2).sum(axis=1))
    return np.array(centroids)


def kmeans(
    points,
    k: int = 3,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
    feature_names=None,
    intensity_feature: str = "acc_std",
) -> ClusterResult:
    """Lloyd iterations from a seeded k-means++ start.

    Points should already be standardized. Empty clusters are reseeded to
    the point farthest from its centroid. When ``feature_names`` includes
    the intensity feature and k matches the intensity scale, clusters get
    active/moderate/passive labels by descending centroid value on it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if len(np.unique(X, axis=0)) < k:
        raise TooFewDistinctPoints(f"need >= {k} distinct points")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(X, k, rng)

    history: list[float] = []
    assign = np.zeros(len(X), dtype=int)
    for it in range(1, max_iter + 1):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        own = d2[np.arange(len(X)), assign]
        inertia = float(own.sum())
        # Lloyd steps can only lower the objective; anything else is a bug.
        assert not history or inertia <= history[-1] * (1 + 1e-12) + 1e-12, (
            f"inertia increased: {history[-1]} -> {inertia}"
        )
        history.append(inertia)

        new_centroids = centroids.copy()
        farthest = np.argsort(own)[::-1]
        spare = 0
        for c in range(k):
            members = assign == c
            if members.any():
                new_centroids[c] = X[members].mean(axis=0)
            else:
                new_centroids[c] = X[farthest[spare]]
                spare += 1
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break

    labels = None
    if feature_names is not None and k == len(INTENSITY_ORDER):
        names = list(feature_names)
        if intensity_feature in names:
            col = names.index(intensity_feature)
            order = np.argsort(centroids[:, col])[::-1]
            labels = {int(c): INTENSITY_ORDER[rank] for rank, c in enumerate(order)}

    return ClusterResult(
        k=k,
        centroids=centroids,
        assignments=assign,
        inertia=history[-1],
        inertia_history=tuple(history),
        n_iter=len(history),
        intensity_labels=labels,
    )
