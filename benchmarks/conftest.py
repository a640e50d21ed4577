"""Shared fixtures for the figure benchmarks."""

import pytest

from harness import DATASET_SEED, dataset, smoke_factor


@pytest.fixture(scope="session")
def small_tree():
    """The Fig. 12 dataset (one factor, all queries)."""
    return dataset(smoke_factor(0.005), seed=DATASET_SEED)
