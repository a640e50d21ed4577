"""Commit-path benchmark: a spliced commit vs the rebuild reference.

One small committed insert (a two-element audit record into
``regions/samerica``) against an XMark document:

* **splice** — a whole ``ViewStore`` commit plus the first post-commit
  snapshot pin: the staged update's select result becomes a handful of
  patches, the next frozen arena is spliced from the current one
  (untouched columns shared), and delta-scoped invalidation keeps —
  by position — every cached result the patch did not land in: only
  a query naming a label the delta introduces, or an answer the patch
  is most of, goes.
* **rebuild** — :func:`repro.store.delta.apply_entries_rebuilt` alone
  on the same base arena and the same staged entry: thaw, apply,
  freeze — the paper's "copy, then update", the reference a commit's
  splice must equal (the install and the cache re-key are not even
  charged).

The acceptance bar (full mode): the spliced commit is >= 5x faster,
with >= 50% of the unaffected cached results retained — both
counter-asserted against the commit receipt, and the two derivations
must serialize identically (splice == rebuild).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_commit.py -q -s
"""

import gc
import time

from repro.bench.harness import (
    DATASET_SEED,
    SMOKE,
    dataset,
    format_table,
    smoke_factor,
    smoke_rounds,
)
from repro.store import ViewStore, result_key
from repro.store.delta import apply_entries_rebuilt
from repro.store.log import StagedUpdate
from repro.xmltree.serializer import serialize, serialize_arena

FACTOR = smoke_factor(0.1)  # ~10.4MB of XMark in full mode
ROUNDS = smoke_rounds(5, 2)

#: The small delta: one insert into a single regions subtree.
SMALL_COMMIT = (
    'transform copy $a := doc("xmark") modify do '
    "insert <audit><entry>delta</entry></audit> into $a/regions/samerica "
    "return $a"
)

#: Cached queries the delta provably leaves answered: none names a
#: label it introduces ({audit, entry}) and no item contains the patch
#: — the last two sit *below* the attach point ``regions/samerica``,
#: which the label rule used to drop them for.  These must survive.
RETAINED = [
    "for $x in people/person return $x/name",
    "for $x in people/person[@id = 'person0'] return $x",
    "for $x in open_auctions/open_auction[initial > 10] return $x/bidder",
    "for $x in closed_auctions/closed_auction return $x/price",
    "for $x in regions//item return $x/location",
    "for $x in regions/samerica//item return $x",
]

#: A query naming a label the delta introduces, and an answer whose
#: one item contains the patch — these must drop.
DROPPED = [
    "for $x in regions/samerica/audit return $x/entry",
    "for $x in regions/samerica return $x",
]


def _store() -> ViewStore:
    """A store over the shared benchmark dataset (admission freezes the
    tree into the store's own columns; the dataset is left untouched)."""
    store = ViewStore()
    store.put("xmark", dataset(FACTOR, seed=DATASET_SEED))
    return store


def _commit_and_pin(store: ViewStore) -> float:
    """Seconds for one staged small commit plus the first post-commit
    snapshot pin."""
    store.stage("xmark", SMALL_COMMIT)
    gc.collect()  # keep collector pauses for prior rounds' garbage out
    start = time.perf_counter()
    store.commit("xmark")
    store.pin("xmark")
    return time.perf_counter() - start


def _rebuild(base_arena, entries):
    """``(seconds, arena)`` for the rebuild function on *base_arena*."""
    gc.collect()
    start = time.perf_counter()
    arena = apply_entries_rebuilt(base_arena, entries)
    return time.perf_counter() - start, arena


def test_small_commit_splices_5x_faster_with_cache_retention():
    spliced_store = _store()
    entries = [
        StagedUpdate(spliced_store.compiled.transform(SMALL_COMMIT), SMALL_COMMIT)
    ]
    # Seed the result cache.
    for text in RETAINED + DROPPED:
        spliced_store.query_serialized("xmark", text)

    splice_times = []
    rebuild_times = []
    deltas = []
    for _ in range(ROUNDS):
        base_arena = spliced_store.pin("xmark").arena
        seconds, rebuilt = _rebuild(base_arena, entries)
        rebuild_times.append(seconds)
        splice_times.append(_commit_and_pin(spliced_store))
        deltas.append(spliced_store.last_delta)
        # --- Splice == rebuild: both derive the same document.
        assert serialize_arena(spliced_store.pin("xmark").arena) == serialize_arena(rebuilt)
        del rebuilt
        # Re-seed what the commit invalidated so every round observes
        # retention against a fully warmed cache — and every answer,
        # kept or re-evaluated, is the oracle's.
        for text in RETAINED + DROPPED:
            assert spliced_store.query_serialized("xmark", text) == [
                serialize(node) for node in spliced_store.query_naive("xmark", text)
            ], text
    splice_s = min(splice_times)
    rebuild_s = min(rebuild_times)

    # --- The receipts: every commit spliced one patch, and delta-scoped
    # invalidation kept every provably-unaffected cached result.
    for delta in deltas:
        assert delta is not None and delta.entries == 1 and delta.patches == 1, delta
        assert delta.results_kept == len(RETAINED), delta
        assert delta.results_dropped == len(DROPPED), delta
        kept_ratio = delta.results_kept / (
            delta.results_kept + delta.results_dropped
        )
        assert kept_ratio >= 0.5, delta
    doc = spliced_store.documents.get("xmark")
    assert doc.splices == ROUNDS

    # --- Structural sharing: the chain's newest entry shares its
    # untouched payload strings and attr tuples with its predecessor,
    # so it owns far less than the full (first) arena does.
    chain = spliced_store.chain_info("xmark")
    assert chain["length"] >= 2 and chain["splices"] == ROUNDS
    newest = chain["per_version"][-1]
    oldest = chain["per_version"][0]
    assert newest["shared_bytes"] > 0, chain
    assert newest["owned_bytes"] < oldest["owned_bytes"], chain

    speedup = rebuild_s / splice_s if splice_s > 0 else float("inf")
    print()
    print(format_table(
        f"small-delta commit, factor {FACTOR} ({ROUNDS} rounds, best)",
        ["path", "ms", "speedup"],
        [
            ("rebuild (thaw+apply+freeze)", f"{rebuild_s * 1000:.2f}", "1.0x"),
            ("splice (delta arena)", f"{splice_s * 1000:.2f}", f"{speedup:.1f}x"),
        ],
    ))
    last = deltas[-1]
    print(
        f"  retention: {last.results_kept} results kept / "
        f"{last.results_dropped} dropped; delta touched "
        f"{last.touched_nodes} node(s) of {len(doc.chain.latest().arena)}"
    )
    # The acceptance bar (informational at smoke sizes, where the
    # document is a few hundred nodes and constant overheads dominate).
    if not SMOKE:
        assert splice_s * 5 <= rebuild_s, (
            f"splice {splice_s:.4f}s not 5x faster than rebuild {rebuild_s:.4f}s"
        )


def test_wal_fsync_overhead_is_bounded(tmp_path):
    """Durability bar: an fsync'd write-ahead-logged commit stays
    within 1.5x of the no-WAL commit on the small-delta profile — the
    log costs one serialized-texts append and one fsync, never a
    rewrite of anything proportional to the document."""
    from repro.store.wal import WalWriter

    walled = _store()
    walled.wal = WalWriter(str(tmp_path / "wal.jsonl"))
    plain = _store()

    wal_times = []
    plain_times = []
    for _ in range(ROUNDS):
        wal_times.append(_commit_and_pin(walled))
        plain_times.append(_commit_and_pin(plain))
    wal_s = min(wal_times)
    plain_s = min(plain_times)

    # The receipts: every walled commit really appended and fsync'd.
    stats = walled.wal.stats()
    assert stats["appends"] == ROUNDS and stats["fsyncs"] == ROUNDS, stats
    assert plain.wal is None

    ratio = wal_s / plain_s if plain_s > 0 else float("inf")
    print()
    print(format_table(
        f"small-delta commit durability, factor {FACTOR} "
        f"({ROUNDS} rounds, best)",
        ["path", "ms", "vs no-WAL"],
        [
            ("no WAL (in-memory)", f"{plain_s * 1000:.2f}", "1.00x"),
            ("WAL, fsync per commit", f"{wal_s * 1000:.2f}", f"{ratio:.2f}x"),
        ],
    ))
    # Informational at smoke sizes: on a tiny document the fsync is
    # the whole commit, so the ratio only means something in full mode.
    if not SMOKE:
        assert wal_s <= plain_s * 1.5, (
            f"WAL commit {wal_s:.4f}s exceeds 1.5x no-WAL {plain_s:.4f}s"
        )


def test_noop_commit_is_free():
    spliced_store = _store()
    doc = spliced_store.documents.get("xmark")
    spliced_store.query_serialized("xmark", RETAINED[0])
    before = doc.version
    assert spliced_store.commit("xmark") == before
    delta = spliced_store.last_delta
    assert delta.entries == 0 and delta.old_version == delta.new_version
    pinned = spliced_store.pin_read("xmark")
    key = result_key("xmark", pinned.snapshot.uid, RETAINED[0], pinned.texts)
    assert spliced_store.results.get(key) is not None, "no-op must not purge"
