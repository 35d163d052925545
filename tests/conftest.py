import numpy as np
import pytest

from loadlens.features import ALL_FEATURES, FeatureTable
from loadlens.ingest import DEFAULT_ACTIVITIES


def make_rows(X, codes, columns) -> FeatureTable:
    """Fabricate a feature table with the given values in `columns`.

    Unselected features are filled with 0.0; session ids are ``s0000``,
    ``s0001``, ...; activities come from the default registry by integer
    code.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    values = np.zeros((len(X), len(ALL_FEATURES)))
    values[:, [ALL_FEATURES.index(name) for name in columns]] = X
    ids = [f"s{i:04d}" for i in range(len(X))]
    return FeatureTable(ids, [DEFAULT_ACTIVITIES[int(code)] for code in codes], values)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
