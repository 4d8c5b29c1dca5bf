import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from cohprop.features import FeatureStore

sys.path.insert(0, str(Path(__file__).parent))

hypothesis.settings.register_profile("suite", max_examples=50, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def store_from(vectors):
    """FeatureStore with known entries 0..k-1 from a list of vectors."""
    vectors = [np.atleast_1d(np.asarray(v, dtype=float)) for v in vectors]
    store = FeatureStore(vectors[0].size)
    store.set_known_many(np.arange(len(vectors)), vectors)
    return store
