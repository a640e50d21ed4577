"""Fig. 13(a-d) — scalability with document size for U2, U4, U7, U10.

Paper shape to reproduce: NAIVE super-linear where the affected portion
grows with the file (U4/U7/U10) but linear when |$xp| is fixed (U2);
GENTOP, TD-BU and twoPassSAX linear; the snapshot baseline linear with
a larger constant.
"""

import pytest

from harness import DATASET_SEED, dataset, smoke_factor, smoke_rounds
from repro.transform import STRATEGIES
from repro.xmark.queries import insert_transform

FACTORS = sorted({smoke_factor(f) for f in (0.002, 0.008, 0.02)})
QUERIES = ["U2", "U4", "U7", "U10"]


@pytest.mark.parametrize("method", STRATEGIES.values(), ids=lambda m: m[0])
@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("uid", QUERIES)
def test_fig13(benchmark, uid, factor, method):
    tree = dataset(factor, seed=DATASET_SEED)
    query = insert_transform(uid)
    benchmark.group = f"fig13-{uid}-factor{factor}"
    benchmark.pedantic(
        method[1], args=(tree, query),
        rounds=smoke_rounds(2, 1), iterations=1,
    )
