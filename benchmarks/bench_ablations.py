"""Ablations — how much does each design lever contribute?

* pruning: topDown vs topDown-without-pruning (Fig. 3's empty-state
  shortcut) — the paper's "traverse only the necessary part".
* membership: NAIVE (linear scan, as written in Fig. 2) vs NAIVE with
  an O(1) node-set index (an engine that optimizes ``n ∈ $xp``).

Expected: pruning dominates on selective queries (U2); the indexed
membership removes NAIVE's quadratic blow-up on broad queries (U1) but
still rebuilds the whole tree, so topDown stays ahead.
"""

import pytest

from harness import DATASET_SEED, dataset, smoke_factor, smoke_rounds
from repro.transform import transform_naive, transform_topdown
from repro.transform.ablations import (
    transform_naive_indexed,
    transform_topdown_no_pruning,
)
from repro.xmark.queries import insert_transform

VARIANTS = {
    "topdown": transform_topdown,
    "topdown-no-pruning": transform_topdown_no_pruning,
    "naive-linear-scan": transform_naive,
    "naive-indexed": transform_naive_indexed,
}

QUERIES = ["U1", "U2", "U4", "U9"]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("uid", QUERIES)
def test_ablation(benchmark, uid, variant):
    tree = dataset(smoke_factor(0.01), seed=DATASET_SEED)
    query = insert_transform(uid)
    benchmark.group = f"ablation-{uid}"
    benchmark.pedantic(
        VARIANTS[variant], args=(tree, query),
        rounds=smoke_rounds(3, 1), iterations=1,
    )
