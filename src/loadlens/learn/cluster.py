"""Seeded k-means with k-means++ initialization for activity-intensity groups."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, TooFewDistinctPoints

#: Intensity labels by descending acceleration spread of the cluster centroid.
INTENSITY_ORDER = ("active", "moderate", "passive")

#: The feature whose centroid value orders the intensity labels.
INTENSITY_FEATURE = "acc_std"

#: Most Lloyd steps per run.
MAX_ITER = 100

#: Largest centroid shift, in standardized units, that counts as converged.
TOL = 1e-6


@dataclass(frozen=True)
class ClusterResult:
    """Centroids, assignments and final inertia of one run;
    ``intensity_labels`` maps cluster index to label, or is empty when no
    labels apply."""

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int
    intensity_labels: dict[int, str]


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


def kmeans(points, k: int, seed: int, feature_names=()) -> ClusterResult:
    """Lloyd iterations from a seeded k-means++ start, at most ``MAX_ITER``
    of them, until no centroid moves by ``TOL`` or more.

    Points should already be standardized. Empty clusters are reseeded to
    the point farthest from its centroid. When ``feature_names`` includes
    ``INTENSITY_FEATURE`` and k matches the intensity scale, clusters get
    active/moderate/passive labels by descending centroid value on it.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    # Distinct rows as a set of row tuples, where 0.0 == -0.0 as in
    # np.unique(X, axis=0); that call would import numpy.ma (about 17 ms, as
    # the CHANGES.md line "One code path per computation" records).
    if len(set(map(tuple, X.tolist()))) < k:
        raise TooFewDistinctPoints(f"need >= {k} distinct points")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(X, k, rng)

    previous = np.inf
    assign = np.zeros(len(X), dtype=int)
    for it in range(1, MAX_ITER + 1):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        own = d2[np.arange(len(X)), assign]
        inertia = float(own.sum())
        # Lloyd steps can only lower the objective; anything else is a bug.
        assert inertia <= previous * (1 + 1e-12) + 1e-12, f"inertia increased: {previous} -> {inertia}"
        previous = inertia

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
        if shift < TOL:
            break

    labels = {}
    names = list(feature_names)
    if k == len(INTENSITY_ORDER) and INTENSITY_FEATURE in names:
        order = np.argsort(centroids[:, names.index(INTENSITY_FEATURE)])[::-1]
        labels = {int(c): INTENSITY_ORDER[rank] for rank, c in enumerate(order)}

    return ClusterResult(
        k=k,
        centroids=centroids,
        assignments=assign,
        inertia=inertia,
        n_iter=it,
        intensity_labels=labels,
    )
