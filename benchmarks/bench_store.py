"""Store benchmarks: cold vs. warm caches, and view-stack depth scaling.

Two experiments on an XMark document held resident in a
:class:`repro.ViewStore`:

* **cold vs. warm** — the same request mix served cold against each
  kind of read target (the document, a depth-2 view stack, a staged
  preview), then warm.  A cold pass parses queries, builds automata,
  splices the inner layers onto the pinned arena, composes the outer
  one and evaluates over columns; the warm pass is answered from the
  result cache (plans would be reused even on a cache miss).  Two
  bars: the warm pass is at least 5x faster than the cold one — in
  practice orders of magnitude — and, measured in the same run so the
  host cannot move it, the cold view pass costs no more than the same
  requests through the ``query_naive`` oracle.
* **depth scaling** — one query against view stacks of growing depth
  through the thawing read, which is never cached (best of 3), at two
  document sizes: the per-layer cost of one select + splice under the
  composed outer layer.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -q -s
"""

import time

import pytest

from repro.bench.harness import (
    DATASET_SEED,
    SMOKE,
    dataset,
    format_table,
    smoke_factor,
    smoke_rounds,
    time_call,
)
from repro.store import MaterializationPolicy, ViewStore
from repro.xmark.queries import delete_transform, insert_transform, rename_transform

FACTOR = smoke_factor(0.005)

#: The request mix: user queries U1/U4/U8 in FLWR form.
REQUESTS = [
    "for $x in people/person[@id = 'person10'] return $x",
    "for $x in regions//item[location = 'United States'] return $x/name",
    "for $x in open_auctions/open_auction[initial > 10] return $x/bidder",
]

ROUNDS = smoke_rounds(4, 2)


def _fresh_store(policy=None) -> ViewStore:
    store = ViewStore(policy=policy)
    store.put("xmark", dataset(FACTOR, seed=DATASET_SEED))
    store.define_view("nodesc", "xmark", str(delete_transform("U5")))
    store.define_view("flagged", "nodesc", str(insert_transform("U9")))
    return store


def _serve(store: ViewStore, target: str, read=None, **options) -> float:
    read = read if read is not None else store.query_serialized
    start = time.perf_counter()
    for request in REQUESTS:
        read(target, request, **options)
    return time.perf_counter() - start


def test_cold_vs_warm_cache():
    virtual = MaterializationPolicy(enabled=False)
    cold_document = _serve(_fresh_store(virtual), "xmark")
    previewing = _fresh_store(virtual)
    previewing.stage("xmark", str(delete_transform("U5")))
    previewing.stage("xmark", str(insert_transform("U9")))
    cold_preview = _serve(previewing, "xmark", include_staged=True)
    store = _fresh_store(virtual)
    cold = _serve(store, "flagged")
    warm_rounds = [_serve(store, "flagged") for _ in range(ROUNDS)]
    warm = min(warm_rounds)
    naive = _serve(store, "flagged", read=store.query_naive)
    rows = [
        ("cold, document", cold_document),
        ("cold, depth-2 view (parse+splice+compose+evaluate)", cold),
        ("cold, staged preview (the same two updates, staged)", cold_preview),
        ("warm, depth-2 view (result cache)", warm),
        ("query_naive, depth-2 view (the oracle)", naive),
    ]
    print()
    print(format_table(
        f"store cold vs warm ({len(REQUESTS)} queries, factor {FACTOR})",
        ["pass", "ms", "vs cold view"],
        [(name, f"{s * 1000:.2f}", f"{s / cold:.2f}x") for name, s in rows],
    ))
    stats = store.results.stats()
    assert stats["hits"] >= len(REQUESTS) * ROUNDS
    # The acceptance bars (informational in smoke mode, where
    # everything is tiny): warm-cache serving is at least 5x faster,
    # and a cold view read never costs more than materialize-then-query.
    if not SMOKE:
        assert warm * 5 <= cold, f"warm {warm:.4f}s not 5x faster than cold {cold:.4f}s"
        assert cold <= naive, f"cold view pass {cold:.4f}s slower than query_naive {naive:.4f}s"


def test_compiled_plans_reused_across_result_misses():
    """Even when a result cannot be reused, the compiled plans survive —
    only evaluation is paid again.  The commit is spliced and its
    invalidation delta-scoped: only the requests whose labels intersect
    the deleted person subtree drop (U1 names ``person``; U4's
    ``/name`` collides with ``person/name``), and each re-evaluation is
    a plan-cache hit, never a rebuild."""
    store = _fresh_store(policy=MaterializationPolicy(enabled=False))
    _serve(store, "flagged")
    built_once = store.compiled.plans.stats()["misses"]
    delta = store.commit_delta(
        "xmark",
        'transform copy $a := doc("xmark") modify do '
        "delete $a/people/person[@id = 'person10'] return $a",
    )
    assert delta.entries == 1, delta
    assert delta.results_dropped >= 1 and delta.results_kept >= 1, delta
    _serve(store, "flagged")
    assert store.compiled.plans.stats()["misses"] == built_once
    assert store.compiled.plans.stats()["hits"] >= delta.results_dropped


@pytest.mark.parametrize("factor", sorted({FACTOR, smoke_factor(0.05)}))
def test_view_stack_depth_scaling(factor, max_depth=6):
    store = ViewStore(policy=MaterializationPolicy(enabled=False))
    store.put("xmark", dataset(factor, seed=DATASET_SEED))
    # The bidder query: none of the stacked transforms touch auctions,
    # so the answer stays non-empty at every depth.
    request = REQUESTS[2]
    base = "xmark"
    rows = []
    for depth in range(1, max_depth + 1):
        name = f"v{depth}"
        # Alternate cheap relabelings so every layer really transforms.
        transform = rename_transform("U2", f"renamed{depth}") if depth % 2 \
            else delete_transform("U6")
        store.define_view(name, base, str(transform))
        base = name

        def uncached() -> list:
            return store.query(name, request)

        # Best of 3, collecting first: the oracle below leaves a
        # document of garbage per layer behind.
        elapsed = time_call(uncached)
        result = uncached()
        reference = store.query_naive(name, request)
        assert result and len(result) == len(reference)
        rows.append((str(depth), f"{elapsed * 1000:.2f}", str(len(result))))
    print()
    print(format_table(
        f"view-stack depth scaling (factor {factor}, uncached reads, best of 3)",
        ["depth", "ms/query", "results"],
        rows,
    ))
