"""Fig. 15(a-d) — Naive Composition vs the Compose Method on the four
(transform, user) pairs of Section 7.2.

Paper shape to reproduce: Compose consistently faster, with the widest
gap on (U9, U1) where the user query is largely disjoint from the
transform (the rewrite proves the update irrelevant and skips it
entirely); both methods linear in document size.
"""

import pytest

from harness import DATASET_SEED, dataset, smoke_factor, smoke_rounds
from repro.compose import compose, evaluate_composed, naive_compose
from repro.xmark.queries import composition_pairs

FACTORS = sorted({smoke_factor(f) for f in (0.005, 0.02)})
PAIRS = {f"{t}-{u}": (tq, uq) for t, u, tq, uq in composition_pairs()}


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_fig15_naive_composition(benchmark, pair_id, factor):
    transform_query, user_query = PAIRS[pair_id]
    tree = dataset(factor, seed=DATASET_SEED)
    benchmark.group = f"fig15-{pair_id}-factor{factor}"
    benchmark.pedantic(
        naive_compose, args=(tree, user_query, transform_query),
        rounds=smoke_rounds(3, 1), iterations=1,
    )


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_fig15_compose_method(benchmark, pair_id, factor):
    transform_query, user_query = PAIRS[pair_id]
    tree = dataset(factor, seed=DATASET_SEED)
    composed = compose(user_query, transform_query)
    benchmark.group = f"fig15-{pair_id}-factor{factor}"
    benchmark.pedantic(
        evaluate_composed, args=(tree, composed),
        rounds=smoke_rounds(3, 1), iterations=1,
    )
