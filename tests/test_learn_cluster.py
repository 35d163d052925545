from itertools import permutations

import numpy as np
import pytest

from loadlens.errors import TooFewDistinctPoints
from loadlens.learn.cluster import kmeans


def blobs(rng, centers, n_each=40, spread=0.05):
    pts = []
    labels = []
    for i, c in enumerate(centers):
        pts.append(rng.normal(0, spread, (n_each, len(c))) + np.asarray(c))
        labels += [i] * n_each
    return np.vstack(pts), np.array(labels)


def best_agreement(true_labels, assignments, k):
    return max(
        np.mean([perm[a] == t for t, a in zip(true_labels, assignments)])
        for perm in permutations(range(k))
    )


class TestKmeans:
    def test_three_blobs_recovered(self, rng):
        X, truth = blobs(rng, [(0, 0), (5, 5), (-5, 5)])
        res = kmeans(X, k=3, seed=0)
        assert best_agreement(truth, res.assignments, 3) == 1.0

    def test_k1_centroid_is_global_mean(self, rng):
        X = rng.normal(3, 2, (50, 4))
        res = kmeans(X, k=1, seed=0)
        assert np.allclose(res.centroids[0], X.mean(axis=0))

    def test_determinism(self, rng):
        X, _ = blobs(rng, [(0, 0), (4, 0), (0, 4)], spread=0.5)
        a = kmeans(X, k=3, seed=42)
        b = kmeans(X, k=3, seed=42)
        assert (a.assignments == b.assignments).all()
        assert (a.centroids == b.centroids).all()
        assert a.inertia == b.inertia

    def test_inertia_non_increasing(self, rng):
        """``kmeans`` asserts after every Lloyd step that the inertia did
        not rise; a run of several steps passes through that check."""
        X = rng.normal(0, 1, (200, 3))
        res = kmeans(X, k=4, seed=7)
        assert res.n_iter > 1

    def test_too_few_distinct(self):
        X = np.array([[1.0, 2.0]] * 10 + [[3.0, 4.0]] * 10)
        with pytest.raises(TooFewDistinctPoints):
            kmeans(X, k=3, seed=0)

    def test_intensity_labels_by_acc_std(self, rng):
        # three groups whose acc_std column orders them passive < moderate < active
        cols = ("acc_mean", "acc_std")
        X, truth = blobs(rng, [(9.8, 0.05), (9.8, 0.3), (9.9, 1.5)], spread=0.01)
        res = kmeans(X, k=3, seed=1, feature_names=cols)
        assert len(res.intensity_labels) == 3
        std_col = 1
        order = np.argsort(res.centroids[:, std_col])[::-1]
        assert [res.intensity_labels[int(c)] for c in order] == ["active", "moderate", "passive"]
        # every passive-blob point must land in the passive-labeled cluster
        passive_cluster = int(order[-1])
        assert (res.assignments[truth == 0] == passive_cluster).all()

    def test_no_labels_without_feature(self, rng):
        X, _ = blobs(rng, [(0, 0), (4, 0), (0, 4)])
        res = kmeans(X, k=3, seed=1, feature_names=("a", "b"))
        assert res.intensity_labels == {}
        res2 = kmeans(X, k=2, seed=1, feature_names=("acc_std", "b"))
        assert res2.intensity_labels == {}
