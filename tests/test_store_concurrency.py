"""Concurrency hardening: MVCC snapshot isolation on the store, cache
counter exactness under thread hammers, prepared-statement sharing,
and cross-process state-directory locking."""

import json
import multiprocessing
import os
import threading

import pytest

from repro import Engine, parse, parse_transform_query, serialize, transform_naive
from repro.compiled import CompiledCache
from repro.lru import LRUCache
from repro.store import (
    CorruptStateError,
    StateLockedError,
    ViewStore,
    locked_state,
    open_store,
    save_store,
)
from repro.store.state import MANIFEST_NAME, StateLock

TRANSFORM = (
    'transform copy $a := doc("db") modify do '
    "delete $a//supplier[country = 'A']/price return $a"
)

PAIRED_INSERTS = [
    'transform copy $a := doc("db") modify do '
    "insert <t/> into $a/left return $a",
    'transform copy $a := doc("db") modify do '
    "insert <t/> into $a/right return $a",
]


# ----------------------------------------------------------------------
# Reader/writer hammer on the store itself
# ----------------------------------------------------------------------


def test_store_readers_only_observe_committed_versions():
    """Each commit applies TWO staged inserts atomically; a reader that
    counts an odd number of ``<t/>`` saw a staged preview or a torn
    mid-commit tree."""
    store = ViewStore()
    store.put("db", "<db><left><l/></left><right><r/></right></db>")
    readers_done = threading.Event()
    torn = []
    errors = []
    counts = set()

    def writer():
        try:
            while not readers_done.is_set():
                for text in PAIRED_INSERTS:
                    store.stage("db", text)
                store.commit("db")
        except Exception as exc:  # noqa: BLE001 - assert below
            errors.append(exc)
            readers_done.set()

    def reader():
        try:
            # Self-pacing (see test_service.py): read until at least
            # one commit has been straddled, bounded by 400 rounds.
            for iteration in range(400):
                # Both read paths every round: the locked Node path and
                # the pinned-snapshot arena path.
                rows = store.query("db", "for $x in //t return $x")
                if len(rows) % 2:
                    torn.append(("query", len(rows)))
                snapshot = store.pin("db")
                pinned = sum(
                    1
                    for i in range(len(snapshot.arena))
                    if snapshot.arena.is_element(i)
                    and snapshot.arena.label(i) == "t"
                )
                if pinned % 2:
                    torn.append(("pin", pinned))
                counts.add(len(rows))
                if iteration >= 40 and len(counts) > 1:
                    break
        except Exception as exc:  # noqa: BLE001 - assert below
            errors.append(exc)
        finally:
            readers_done.set()

    writer_thread = threading.Thread(target=writer)
    reader_threads = [threading.Thread(target=reader) for _ in range(4)]
    writer_thread.start()
    for thread in reader_threads:
        thread.start()
    for thread in reader_threads:
        thread.join()
    writer_thread.join()
    assert not errors
    assert not torn, f"readers observed non-committed states: {torn[:5]}"
    assert len(counts) > 1, "hammer never overlapped distinct versions"


def test_pinned_snapshot_is_stable_across_commits():
    store = ViewStore()
    store.put("db", "<db><item><n>1</n></item></db>")
    snapshot = store.pin("db")
    store.commit(
        "db",
        'transform copy $a := doc("db") modify do delete $a/item return $a',
    )
    from repro.xmltree.serializer import serialize_arena

    assert "<n>1</n>" in serialize_arena(snapshot.arena)
    assert store.pin("db").version == snapshot.version + 1
    assert store.snapshot_pins == 2


# ----------------------------------------------------------------------
# Cache thread-safety: counters stay exact under contention
# ----------------------------------------------------------------------


def test_lru_cache_counters_exact_under_hammer():
    cache = LRUCache(maxsize=32)
    rounds, threads_n = 400, 8
    barrier = threading.Barrier(threads_n)

    def hammer(seed: int):
        barrier.wait()
        for index in range(rounds):
            key = (seed * index) % 48  # some keys collide, some evict
            if cache.get(key) is None:
                cache.put(key, key)

    threads = [threading.Thread(target=hammer, args=(s + 1,)) for s in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == rounds * threads_n
    assert stats["size"] <= 32
    assert len(cache) == stats["size"]


def test_compiled_cache_hammer_counters_and_identity():
    cache = CompiledCache(maxsize=64)
    texts = [
        f"transform copy $a := doc(\"db\") modify do "
        f"delete $a//supplier[price < {n}] return $a"
        for n in range(6)
    ]
    threads_n = 8
    barrier = threading.Barrier(threads_n)
    seen = [[] for _ in range(threads_n)]

    def hammer(slot: int):
        barrier.wait()
        for _ in range(50):
            for text in texts:
                query = cache.transform(text)
                seen[slot].append((text, id(query)))
                path = query.path
                assert cache.selecting_nfa_for(path) is cache.selecting_nfa_for(path)

    threads = [
        threading.Thread(target=hammer, args=(slot,)) for slot in range(threads_n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # After the first warm round, every thread sees one shared parse
    # per text (get_or_compute may double-build only on the cold race).
    final = {text: id(cache.transform(text)) for text in texts}
    for slot_seen in seen:
        for text, ident in slot_seen[len(texts):]:
            assert ident == final[text] or ident in {
                i for t, i in slot_seen[: len(texts)] if t == text
            }
    stats = cache.stats()
    for name in ("transforms", "selecting_nfas"):
        assert stats[name]["hits"] + stats[name]["misses"] >= threads_n * 50


def test_store_arena_read_counter_exact_across_documents():
    store = ViewStore()
    docs = [f"d{i}" for i in range(4)]
    for name in docs:
        store.put(name, f"<db><v>{name}</v></db>")
    rounds, threads_n = 30, 8
    barrier = threading.Barrier(threads_n)

    def hammer(seed: int):
        barrier.wait()
        for index in range(rounds):
            name = docs[(seed + index) % len(docs)]
            store.query(name, "for $x in v return $x")

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert store.arena_reads == rounds * threads_n


# ----------------------------------------------------------------------
# Prepared-statement sharing across threads
# ----------------------------------------------------------------------


def test_engine_prepared_shared_across_threads():
    """Twelve threads race one cold prepare.  Two may each build an
    artifact (the compiled cache accepts that race), but every answer
    is the oracle's and the cache ends up holding one of each."""
    engine = Engine()
    threads_n = 12
    barrier = threading.Barrier(threads_n)
    prepared = [None] * threads_n
    doc = parse(
        "<db><part><supplier><country>A</country><price>1</price></supplier>"
        "<supplier><country>B</country><price>2</price></supplier></part></db>"
    )

    def prepare(slot: int):
        barrier.wait()  # all threads race the cold cache together
        prepared[slot] = engine.prepare_transform(TRANSFORM).run(doc)

    threads = [
        threading.Thread(target=prepare, args=(slot,)) for slot in range(threads_n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    want = serialize(transform_naive(doc, parse_transform_query(TRANSFORM)))
    assert [serialize(result) for result in prepared] == [want] * threads_n
    stats = engine.cache.stats()
    for name in ("transforms", "selecting_nfas", "filtering_nfas"):
        assert stats[name]["size"] == 1, name
    query_text = "for $x in part/supplier return $x"
    queries = [engine.prepare_query(query_text) for _ in range(4)]
    assert all(q.query is queries[0].query for q in queries)


# ----------------------------------------------------------------------
# The state-directory file lock
# ----------------------------------------------------------------------


def _hold_lock(state_dir: str, held: "multiprocessing.Event",
               release: "multiprocessing.Event") -> None:
    with StateLock(state_dir).acquire():
        held.set()
        release.wait(timeout=30)


def test_state_lock_excludes_other_processes(tmp_path):
    state_dir = str(tmp_path / "state")
    context = multiprocessing.get_context("fork")
    held = context.Event()
    release = context.Event()
    holder = context.Process(target=_hold_lock, args=(state_dir, held, release))
    holder.start()
    try:
        assert held.wait(timeout=10), "holder process never acquired the lock"
        with pytest.raises(StateLockedError, match="locked by another process"):
            StateLock(state_dir).acquire(timeout=0.2)
        with pytest.raises(StateLockedError):
            with locked_state(state_dir, timeout=0.2):
                pass  # pragma: no cover - must not be reached
    finally:
        release.set()
        holder.join(timeout=10)
    # Released: the next acquisition succeeds immediately.
    with locked_state(state_dir) as store:
        store.put("db", "<db><a/></db>")
    assert os.path.exists(os.path.join(state_dir, MANIFEST_NAME))


def test_state_lock_reentrant_within_process_sequentially(tmp_path):
    state_dir = str(tmp_path / "state")
    lock = StateLock(state_dir)
    lock.acquire()
    lock.acquire()  # held already: no-op, not a deadlock
    lock.release()
    lock.release()  # idempotent
    with locked_state(state_dir) as store:
        assert len(store.documents) == 0


def test_shared_read_locks_do_not_exclude_each_other(tmp_path):
    state_dir = str(tmp_path / "state")
    with locked_state(state_dir) as store:
        store.put("db", "<db><a/></db>")
    # flock is per open file description, so two StateLock instances in
    # one process contend exactly like two processes would.
    reader_a = StateLock(state_dir).acquire(timeout=0.2, shared=True)
    reader_b = StateLock(state_dir).acquire(timeout=0.2, shared=True)
    try:
        # ...but a writer's exclusive acquisition is refused while any
        # shared reader holds on.
        with pytest.raises(StateLockedError):
            StateLock(state_dir).acquire(timeout=0.2)
    finally:
        reader_a.release()
        reader_b.release()
    with locked_state(state_dir) as store:  # writers work again
        assert store.documents.names() == ["db"]


def test_corrupt_manifest_is_a_typed_store_error(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    manifest = os.path.join(state_dir, MANIFEST_NAME)
    with open(manifest, "w", encoding="utf-8") as handle:
        handle.write("{not json at all")
    with pytest.raises(CorruptStateError, match="not valid JSON"):
        open_store(state_dir)
    with open(manifest, "w", encoding="utf-8") as handle:
        handle.write('{"format": 99}')
    with pytest.raises(CorruptStateError, match="unsupported format"):
        open_store(state_dir)
    with open(manifest, "w", encoding="utf-8") as handle:
        json.dump({"format": 1, "documents": {"db": {}}}, handle)
    with pytest.raises(CorruptStateError, match="malformed manifest"):
        open_store(state_dir)
    with open(manifest, "w", encoding="utf-8") as handle:
        handle.write("[1, 2, 3]")
    with pytest.raises(CorruptStateError, match="not a JSON object"):
        open_store(state_dir)


def test_corrupt_state_exits_2_at_the_cli(tmp_path, capsys):
    from repro.cli import main

    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    with open(os.path.join(state_dir, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        handle.write("{broken")
    code = main(["store", "stat", "--state", state_dir])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro: corrupt store state")
    assert "Traceback" not in captured.err


def test_locked_state_round_trip_persists(tmp_path):
    state_dir = str(tmp_path / "state")
    with locked_state(state_dir) as store:
        store.put("db", "<db><part><pname>kb</pname></part></db>")
    with locked_state(state_dir, save=False) as store:
        assert store.query_serialized("db", "for $x in part/pname return $x") == [
            "<pname>kb</pname>"
        ]


def test_save_store_excluded_from_concurrent_save(tmp_path):
    """Two sequential locked cycles do not clobber each other's
    documents (the interleaving the lock exists to prevent would lose
    one of them)."""
    state_dir = str(tmp_path / "state")
    with locked_state(state_dir) as store:
        store.put("a", "<db><x/></db>")
    with locked_state(state_dir) as store:
        store.put("b", "<db><y/></db>")
    final = open_store(state_dir)
    assert final.documents.names() == ["a", "b"]
    save_store(final, state_dir)  # plain save still works outside the lock


# ----------------------------------------------------------------------
# Lock-discipline regressions (found by the tools.analysis guarded-by checker)
# ----------------------------------------------------------------------


def test_store_counter_reads_go_through_the_counter_lock():
    """Regression: stats() and the metric probes read arena_reads/
    snapshot_pins through _counter_values() under _counter_lock (the
    seed read the attributes bare, racing the increments in
    _arena_refs/pin)."""
    from repro.obs import MetricsRegistry

    store = ViewStore()
    store.put("db", "<db><part><pname>kb</pname></part></db>")
    registry = MetricsRegistry()
    store.bind_metrics(registry)

    errors: list = []

    def hammer():
        try:
            for _ in range(50):
                store.query_serialized("db", "for $x in part/pname return $x")
                store.results.invalidate()  # force a real arena read each time
                store.pin("db")
        except Exception as exc:  # noqa: BLE001 - assert below
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Counts are exact — every increment and every read synchronized.
    assert store.stats()["arena_reads"] == 200
    assert store.stats()["snapshot_pins"] == 200
    snapshot = registry.snapshot()
    assert snapshot["store.arena.reads"] == 200
    assert snapshot["store.snapshot.pins"] == 200
    assert store._counter_values() == (200, 200)


def test_document_stats_takes_the_document_lock():
    """Regression: StoredDocument.stats() reads version/tree/arena under
    the document lock (the seed read them bare, so a commit in flight
    could tear the row)."""
    store = ViewStore()
    doc = store.put("db", "<db><part><pname>kb</pname></part></db>")
    results: list = []

    with doc.lock:
        probe = threading.Thread(target=lambda: results.append(doc.stats()))
        probe.start()
        probe.join(timeout=0.2)
        assert probe.is_alive(), "stats() returned without the document lock"
    probe.join(timeout=2.0)
    assert not probe.is_alive()
    assert results and results[0]["version"] == 1


def test_a_read_pins_while_stats_computes_the_arena_figures():
    """Regression: StoredDocument.stats() computed the arena's figures
    (a first ``depth()`` walks every node) while holding the document
    lock, so every pin and commit install waited behind a ``stats`` op
    or a metrics snapshot.  Only the row is read under the lock now,
    and the ``store.arena.builds`` probe reads the counters alone."""
    from unittest import mock

    from repro.obs import MetricsRegistry
    from repro.xmltree.arena import FrozenDocument

    store = ViewStore()
    store.put("db", "<db><part><pname>kb</pname></part></db>")
    registry = MetricsRegistry()
    store.bind_metrics(registry)
    inside = threading.Event()
    release = threading.Event()
    real_depth = FrozenDocument.depth

    def slow_depth(self, i=0):
        inside.set()
        release.wait(10)
        return real_depth(self, i)

    pinned: list = []
    with mock.patch.object(FrozenDocument, "depth", slow_depth):
        stats = threading.Thread(target=store.stats)
        stats.start()
        try:
            assert inside.wait(5)
            reader = threading.Thread(target=lambda: pinned.append(store.pin_read("db")))
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive(), "pin_read waited behind stats()"
            assert registry.snapshot()["store.arena.builds"] == 1
        finally:
            release.set()
            stats.join()
    assert pinned and pinned[0].snapshot.version == 1


def test_document_stats_row_is_consistent_under_commits():
    """stats() polled during a commit storm always reports a row whose
    arena fields (when present) belong to the version it reports."""
    store = ViewStore()
    doc = store.put("db", "<db><part><x/></part></db>")
    stop = threading.Event()
    errors: list = []

    def committer():
        try:
            while not stop.is_set():
                store.commit(
                    "db",
                    'transform copy $a := doc("db") modify do '
                    "insert <tick/> into $a/part return $a",
                )
        except Exception as exc:  # noqa: BLE001 - assert below
            errors.append(exc)

    writer = threading.Thread(target=committer)
    writer.start()
    try:
        last_version = 0
        for _ in range(200):
            store.query_serialized("db", "for $x in part return $x")
            row = doc.stats()
            assert row["version"] >= last_version
            last_version = row["version"]
            assert row["nodes"] >= 3
    finally:
        stop.set()
        writer.join()
    assert not errors
