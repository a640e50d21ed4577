"""Fig. 12 — runtime of the five evaluation methods on U1-U10.

Paper shape to reproduce: GENTOP fastest of the on-top-of-engine trio;
NAIVE competitive only when the selected node set is small (U2) and
degrading when it is large (U1, U4); TD-BU paying extra for complex
qualifiers (U7-U10); the copy-and-update baseline carrying the full
snapshot cost on every query.
"""

import pytest

from harness import smoke_rounds
from repro.transform import STRATEGIES
from repro.xmark.queries import QUERY_IDS, insert_transform


@pytest.mark.parametrize("method", STRATEGIES.values(), ids=lambda m: m[0])
@pytest.mark.parametrize("uid", QUERY_IDS)
def test_fig12(benchmark, small_tree, uid, method):
    query = insert_transform(uid)
    benchmark.group = f"fig12-{uid}"
    benchmark.pedantic(
        method[1], args=(small_tree, query),
        rounds=smoke_rounds(3, 1), iterations=1,
    )
