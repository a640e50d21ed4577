"""The store facade: documents + views + caches + update log.

How a read is served — ``query(target, q)`` on a document, a view
stack ``t1 … tn`` or a staged preview is the same three steps:

1. **Pin** (:meth:`ViewStore.pin_read`, the only step under the
   document lock): the document's current (version, arena, uid), the
   stack, the staged entries when the read asks for them, and the
   deepest view arena still valid for that version to start from.
2. **Resolve to one arena, evaluate** (:meth:`ViewStore.evaluate`):
   staged entries and every layer above that start are spliced onto the
   pinned arena by :func:`~repro.transform.arena.transform_arena`, the
   select + splice kernel a commit runs (untouched columns and the
   payload pool are shared), and the query runs over ``tn(… t1(T))`` on
   the columnar evaluator.  A view's arena is derived data of its
   document's version: a committed read publishes each layer it spliced,
   so only the first read of a version pays the splice, and a commit
   the view does not swallow drops it.  A staged read publishes nothing.
3. **Finish** from the raw items: thaw the matches (``query``) or
   serialize them straight from the columns (``query_serialized``).

No read thaws a document, and there is nothing to choose: like a plain
read, an arena transform has one algorithm.  ``query_naive`` — thaw,
``transform_naive`` per layer, Node evaluator — is the oracle and
shares none of the above.

Caching: what reads compile (parses and NFAs — of queries and view
layers) lives in one
:class:`~repro.compiled.CompiledCache`, ``ViewStore.compiled`` — a
service in front compiles into it too — and never goes stale; an update
is parsed and compiled when staged, once, and neither is remembered
past its commit (a staged preview applies it with that same
automaton).  Serialized
*answers* live in ``ViewStore.results`` — the only result cache there
is; a :class:`~repro.service.service.QueryService` reads and fills
this one — under :func:`~repro.store.answer.result_key`, all an
answer depends on, each an :class:`~repro.store.answer.Answer` (the
items, where they sit in the document, the labels its query can depend
on, plus the bytes a server sends for them once the entry has been
asked for again).

Commits: :meth:`ViewStore.commit_delta` takes the staged entries, logs
them, and hands them to :func:`~repro.store.commit.plan_commit` — the
next arena and everything the caches keep of the last, decided as a
function of (arena, entries, the read targets over the document) with
no lock, WAL or registry in reach.  It then installs the plan's arena,
rebases or drops the view arenas, and re-keys the result cache by
the plan: the entries over the names the commit can affect and nothing
else, each decided by one rule
(:func:`~repro.store.delta.rekey_verdict`) by position: **keep** — no
item contains a patch, the entry moves to the new arena's uid as it
is; **patch** — the same nodes answer, the few items a patch landed in
are re-serialized and every other string is reused; **drop** — the
query names a label the commit changed, or an item was removed.  Every
drop is counted by its reason (``store.commit.drop_reason.*``).

Concurrency: the document lock is held to pin a read, to publish a
view's arenas and to install a commit — never across an evaluation
or the result cache's re-key (a commit's next arena is derived outside
it too, under the document's commit lock); name-table mutations take
the store lock.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import NamedTuple, Optional, Tuple, Union

from repro.automata.arena_run import serialize_arena_items
from repro.compiled import CompiledCache
from repro.faults import fault_point
from repro.lru import LRUCache
from repro.obs import span
from repro.store.answer import Answer, node_refs, result_key
from repro.store.commit import CommitPlan, plan_commit
from repro.store.delta import (
    DROP_REASONS,
    CommitDelta,
    query_labels,
    rekey_verdict,
    transform_labels,
)
from repro.store.documents import DocumentStore, Snapshot, StoredDocument
from repro.store.errors import DuplicateNameError, StoreError, UnknownNameError
from repro.store.log import StagedUpdate, UpdateLog
from repro.store.views import View, ViewRegistry
from repro.transform.arena import transform_arena
from repro.transform.naive import transform_naive
from repro.transform.query import parse_transform_query
from repro.xmltree.arena import FrozenDocument, thaw
from repro.xmltree.node import Element
from repro.xquery.arena_eval import ArenaEvaluator
from repro.xquery.ast import UserQuery
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_user_query


#: The ``store.commit.delta.*`` counters; each of the sums adds up the
#: :class:`CommitDelta` field of the same name — and ``results_kept``
#: the patched entries too: it counts what a commit left to be hit.
_DELTA_SUMS = (
    "touched_nodes", "results_kept", "results_patched", "results_dropped",
    "mats_kept", "mats_dropped",
)
_DELTA_COUNTERS = ("spliced", "noops") + _DELTA_SUMS


def _ratio(kept: int, purged: int) -> Optional[float]:
    """What share of the cached state a commit kept."""
    return kept / (kept + purged) if kept + purged else None


class PinnedRead(NamedTuple):
    """One read target — a document, a view or a staged preview —
    pinned at one committed version (:meth:`ViewStore.pin_read`): all
    an answer depends on besides the query text, read in one hold of
    the document lock and consumed outside it."""

    doc: StoredDocument
    snapshot: Snapshot
    #: Where evaluation starts: the snapshot's arena, or the deepest
    #: view arena still valid for its version.
    base: FrozenDocument
    #: The views still to splice on top of *base*, innermost first.
    layers: Tuple[View, ...]
    staged: Tuple[StagedUpdate, ...]
    #: The source texts of the whole stack and of the staged entries:
    #: with ``snapshot.uid``, what :func:`result_key` keys on so that
    #: neither a redefined view nor a changed staging area can alias.
    texts: Tuple[Tuple[str, ...], Tuple[str, ...]]


def serialized_answer(
    pinned: PinnedRead, arena: FrozenDocument, refs: list, query: UserQuery
) -> Answer:
    """Finish a read as the result cache's value: the raw items of
    :meth:`ViewStore.evaluate` serialized straight from the columns —
    and, for a read of the document itself (no stack, nothing staged:
    *arena* is the one the entry is keyed on), where they sit in it.
    The answer keeps the labels of *query*, the parsed user query: what
    a commit decides it by, besides its refs."""
    with span("serialize"):
        # The arena's texts are interned: answers that select the same
        # node hold its serialization once (half the bytes of a pool of
        # overlapping selects), and the table lets go of a string with
        # its last holder.
        items = serialize_arena_items(arena, refs)
    on_document = not (pinned.texts[0] or pinned.texts[1])
    return Answer(items, node_refs(refs) if on_document else None, query_labels(query))


class ViewStore:
    """A resident multi-document store with stacked virtual views."""

    # guarded-by[arena_reads, snapshot_pins, commit_counts, drop_counts, last_delta]: self._counter_lock

    def __init__(self, result_cache_size: int = 1024):
        self.documents = DocumentStore()
        self.views = ViewRegistry()
        #: Everything this store — and a service over it — compiles:
        #: reads, view layers, previews and the ``transform`` op.
        self.compiled = CompiledCache()
        #: :func:`result_key` → the serialized answer, one immutable
        #: :class:`Answer`: a hit hands out a fresh list over its
        #: items, so no caller can change what another reads.
        #: Grouped by target name: a commit re-keys the groups of the
        #: document and the views over it, and visits no other entry.
        self.results = LRUCache(result_cache_size, group=itemgetter(0))
        self.log = UpdateLog()
        #: Evaluations over a frozen columnar snapshot — every store
        #: read the result cache did not answer.
        self.arena_reads = 0
        #: MVCC snapshots handed out via :meth:`pin`.
        self.snapshot_pins = 0
        #: Commit-path tallies (``store.commit.delta.*``).
        self.commit_counts = dict.fromkeys(_DELTA_COUNTERS, 0)
        #: Result-cache entries commits dropped, by the head of the
        #: reason (``store.commit.drop_reason.*``).
        self.drop_counts = dict.fromkeys(DROP_REASONS, 0)
        #: Receipt of the most recent commit (``store stat`` surfaces
        #: its retention ratio).
        self.last_delta: Optional[CommitDelta] = None
        #: Write-ahead log writer; ``open_store`` attaches one (after
        #: replay) when the store is backed by a state directory.
        #: ``None`` → commits are in-memory only, nothing is logged.
        self.wal = None
        #: Recovery receipts from the last ``open_store`` replay.
        self.wal_replayed = 0
        self.wal_truncated_tail = 0
        #: What ``open_store`` spent, by part: the whole open, the
        #: checkpoint file reads (and their bytes), the WAL replay.
        self.open_parts = {
            "open_ms": 0.0, "columns_ms": 0.0, "columns_bytes": 0, "replay_ms": 0.0,
        }
        # Store-wide counters are bumped from many documents' read
        # paths at once — one lock keeps their tallies exact (the
        # per-document lock only serializes one document's readers).
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------

    def load(self, name: str, path: str, *, replace: bool = False) -> StoredDocument:
        """Parse the file at *path* into the store under *name*."""
        self._check_free(name, replace_document=replace)
        return self.documents.load(name, path, replace=replace)

    def put(
        self,
        name: str,
        document: Union[Element, str],
        *,
        replace: bool = False,
    ) -> StoredDocument:
        """Store a parsed tree or XML source text under *name*."""
        self._check_free(name, replace_document=replace)
        return self.documents.put(name, document, replace=replace)

    def _check_free(self, name: str, *, replace_document: bool = False) -> None:
        if name in self.views:
            raise DuplicateNameError(name)
        if not replace_document and name in self.documents:
            raise DuplicateNameError(name)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def define_view(self, name: str, base: str, transform_text: str) -> View:
        """Define *name* as *base* (a document or a view) seen through
        the given transform query."""
        if name in self.documents or name in self.views:
            raise DuplicateNameError(name)
        if base not in self.documents and base not in self.views:
            raise UnknownNameError(base)
        transform = self.compiled.transform(transform_text)
        # Compiled now: a path the selecting automaton refuses is a
        # ValueError here, not on every read and commit after.
        self.compiled.selecting_nfa_for(transform.path)
        return self.views.define(
            name, base, transform, transform_text, transform_labels(transform)
        )

    def drop(self, name: str) -> None:
        """Drop a view, or a document no view depends on."""
        if name in self.views:
            self.views.drop(name)
        elif name in self.documents:
            dependents = self.views.stacks_over(name)
            if dependents:
                raise StoreError(
                    f"cannot drop document {name!r}: views "
                    f"{sorted(dependents)} are defined over it"
                )
            self.documents.drop(name)
        else:
            raise UnknownNameError(name)
        self.results.invalidate(lambda key: key[0] == name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self, target: str, query_text: str, *, include_staged: bool = False
    ) -> list:
        """Answer a user query against a document or a view; only the
        matched subtrees are thawed — per call, into trees the caller
        owns (a mutable tree cannot be cached safely, so this read
        never touches the result cache).  ``include_staged=True``
        evaluates against the hypothetical document the
        staged-but-uncommitted updates would produce."""
        pinned = self._pin_read(target, include_staged)
        _, evaluator, refs = self.evaluate(pinned, query_text)
        return [evaluator.materialize(item) for item in refs]

    def query_serialized(
        self, target: str, query_text: str, *, include_staged: bool = False
    ) -> list:
        """Answer a user query as serialized XML/text strings: the
        same read, with the matches serialized **straight from the
        columns** (:meth:`~repro.xmltree.arena.FrozenDocument.
        serialized`, once per node per version) — no ``thaw``
        round-trip on any target.  Cached: a repeat is a
        fresh list over the cached strings.  A staged read is cached
        under its staged texts, so it can neither serve nor be served
        by the committed answer."""
        pinned = self._pin_read(target, include_staged)
        key = result_key(target, pinned.snapshot.uid, query_text, pinned.texts)
        cached = self.results.get(key)
        if cached is None:
            arena, _, refs = self.evaluate(pinned, query_text)
            cached = serialized_answer(
                pinned, arena, refs, self.compiled.user_query(query_text)
            )
            self.results.put(key, cached)
        return list(cached.items)

    def pin_read(self, target: str, *, include_staged: bool = False) -> PinnedRead:
        """Pin *target* — a document or a view, with or without the
        staged updates — for one read.  Like :meth:`pin`, the document
        lock is held only to read one consistent row (and counted as a
        snapshot pin): writers never block the evaluation that follows."""
        pinned = self._pin_read(target, include_staged)
        with self._counter_lock:
            self.snapshot_pins += 1
        return pinned

    def _pin_read(self, target: str, include_staged: bool) -> PinnedRead:
        doc, stack = self._resolve(target)
        with doc.lock:
            snapshot = Snapshot(doc.name, doc.version, doc.arena, doc.uid)
            staged = tuple(self.log.staged(doc.name)) if include_staged else ()
            base, start = snapshot.arena, 0
            if not staged:
                # Shortcut to the deepest layer whose arena is still valid.
                for index, view in enumerate(stack):
                    cached = view.materialization_for(snapshot.version)
                    if cached is not None:
                        base, start = cached, index + 1
        texts = (
            tuple(view.transform_text for view in stack),
            tuple(entry.text for entry in staged),
        )
        return PinnedRead(doc, snapshot, base, tuple(stack[start:]), staged, texts)

    def evaluate(self, pinned: PinnedRead, query_text: str) -> tuple:
        """Resolve *pinned* to one arena and run the query over it:
        ``(arena, evaluator, raw ref items)`` — both the thawing and
        the serializing reads finish from these refs.  This is the one
        evaluation site, so it is where a read is counted
        (``store.arena.reads``); past that counter it is lock-free but
        for publishing the view arenas a committed read spliced.  The
        query and the view layers compile into ``self.compiled``, and a
        staged entry is applied with its own ``StagedUpdate.nfa``."""
        with self._counter_lock:
            self.arena_reads += 1
        compiled = self.compiled
        query = compiled.user_query(query_text)
        arena = pinned.base
        for entry in pinned.staged:
            # A staged update brings its own automaton: one-shot texts
            # never take a slot in (or age) the compiled cache.
            arena = transform_arena(arena, entry.transform.update, entry.nfa).arena
        fresh = []
        for view in pinned.layers:
            update = view.transform.update
            arena = transform_arena(
                arena, update, compiled.selecting_nfa_for(update.path)
            ).arena
            fresh.append((view, arena))
        evaluator = ArenaEvaluator(arena, compiled.selecting_nfa_for)
        with span("scan"):
            refs = evaluator.evaluate_refs(query)
        if fresh and not pinned.staged:
            version = pinned.snapshot.version
            with pinned.doc.lock:
                if pinned.doc.version == version:
                    for view, kept in fresh:
                        view.set_materialized(kept, version)
        return arena, evaluator, refs

    def query_naive(
        self, target: str, query_text: str, *, include_staged: bool = False
    ) -> list:
        """Reference evaluation: thaw the document, materialize every
        layer of the stack with :func:`transform_naive`, then run the
        user query on the Node evaluator — no composition, no caches, no
        arena.  Deliberately independent of every production code path
        so tests and benchmarks can use it as the oracle
        ``Q(tn(…t1(T)))``."""
        doc, stack = self._resolve(target)
        root = thaw(doc.pin().arena)
        layers = self.log.staged(doc.name) if include_staged else []
        for layer in layers + stack:
            root = transform_naive(root, layer.transform)
        return evaluate_query(root, parse_user_query(query_text))

    def _resolve(self, target: str) -> tuple[StoredDocument, list[View]]:
        if target in self.views:
            doc_name, stack = self.views.stack(target)
            return self.documents.get(doc_name), stack
        return self.documents.get(target), []

    def pin(self, name: str) -> Snapshot:
        """Pin an MVCC read snapshot of document *name*'s current
        version.

        The document lock is held only to read one consistent
        (version, arena, uid) row; evaluation against the returned
        immutable snapshot happens entirely outside the store's locks,
        so staged or committing writers never block pinned readers.
        The snapshot is what keeps a version alive: the store holds
        only the current one, and a reader that must keep answering
        against pre-commit state holds on to the snapshot it pinned.
        A view has no arena of its own to hand out: pin its document,
        or pin a *read* of the view with :meth:`pin_read`.
        """
        if name in self.views:
            raise StoreError(
                f"{name!r} is a view and cannot be pinned for snapshot "
                f"reads; pin its document "
                f"{self.views.document_of(name)!r} instead"
            )
        snapshot = self.documents.get(name).pin()
        with self._counter_lock:
            self.snapshot_pins += 1
        return snapshot

    # ------------------------------------------------------------------
    # Updates: stage / commit / rollback
    # ------------------------------------------------------------------

    def _require_document(self, name: str) -> StoredDocument:
        """A *document* for update operations — views are read-only, so
        point the caller at the document their stack bottoms out in."""
        if name in self.views:
            raise StoreError(
                f"{name!r} is a view and cannot be updated; stage/commit/"
                f"rollback target its document {self.views.document_of(name)!r}"
            )
        return self.documents.get(name)

    def stage(self, doc_name: str, transform_text: str) -> int:
        """Stage a hypothetical transform against a document; returns
        the staging-area depth.  A path the selecting automaton cannot
        compile is refused with its ``ValueError`` and nothing is
        staged."""
        doc = self._require_document(doc_name)  # raises on unknown names
        # Parsed and compiled for this entry and let go with it: an
        # update is applied once, so it takes no slot in the cache the
        # reads compile into.
        transform = parse_transform_query(transform_text)
        return self.log.stage(doc.name, transform, transform_text)

    def rollback(self, doc_name: str, count: Optional[int] = None) -> int:
        """Discard staged updates (default: all); the document was never
        touched.  Returns how many entries were dropped."""
        self._require_document(doc_name)
        return self.log.rollback(doc_name, count)

    def commit(self, doc_name: str, transform_text: Optional[str] = None) -> int:
        """Apply the staged updates, in staging order; returns the new
        version (the current version when nothing was staged — an empty
        commit is a true no-op).  *transform_text*, if given, is staged
        first (the one-shot ``stage + commit`` convenience the CLI
        uses).  See :meth:`commit_delta` for the full receipt."""
        return self.commit_delta(doc_name, transform_text).new_version

    def commit_delta(
        self, doc_name: str, transform_text: Optional[str] = None
    ) -> CommitDelta:
        """Commit the staged updates and return the receipt.

        Under the per-document commit lock, one step at a time: take
        the staged entries; append them to the WAL; plan the commit
        (:func:`~repro.store.commit.plan_commit` — the next arena,
        **spliced** at O(delta) cost from the entries' select results,
        and what the delta provably leaves alone), outside the
        document lock, so readers keep pinning snapshots meanwhile;
        hold the document lock for one ``install`` and the
        materializations' rebase; re-key the result cache after it is
        released (:meth:`_publish` — uid keys need no lock: a reader
        that pins the new arena meanwhile misses and evaluates).  The
        counters move from the receipt, in one place.
        """
        doc = self._require_document(doc_name)
        if transform_text is not None:
            self.stage(doc_name, transform_text)
        with doc.commit_lock:
            with doc.lock:
                entries = self.log.take_any(doc.name)
                old_version, old_uid, base_arena = doc.version, doc.uid, doc.arena
            if not entries:
                return self._counted(CommitDelta(
                    doc.name, old_version, old_version, old_uid, old_uid, entries=0
                ))
            # Write-ahead: the staged texts and the version they will
            # produce are durable before the document is touched.  The
            # append runs outside doc.lock (readers keep pinning
            # snapshots while the record fsyncs) but inside the commit
            # lock, so records reach the log in version order.
            wal = self.wal
            record = {"kind": "commit", "doc": doc.name, "version": old_version + 1}
            if wal is not None:
                wal.append(dict(record, texts=[entry.text for entry in entries]))
            try:
                fault_point("store.commit.mid_splice")
                # Every read target a commit can change: the document
                # (no stack) and each view over it.
                targets = {doc.name: [], **self.views.stacks_over(doc.name)}
                plan = plan_commit(
                    base_arena, entries, targets, self.compiled, rekey_verdict
                )
            except BaseException:
                # The commit did not install: put the consumed entries
                # back so a retry commits the same sequence, and cancel
                # the already-durable WAL record — without the abort,
                # recovery would apply the failed attempt and the
                # retry's record (same version) would be skipped.
                self.log.restore(doc.name, entries)
                if wal is not None:
                    wal.append(dict(record, kind="abort"))
                raise
            # ``base_arena`` outlives the lock: the arena install
            # replaces is freed when this call returns (unless a
            # reader's snapshot still holds it), never under the lock.
            with doc.lock:
                self.log.record_commit(doc.name, entries)
                version = doc.install(plan.arena)
                plan.old_uid, plan.new_uid = old_uid, doc.uid
                plan.rebase_materializations(old_version, version)
            self._publish(plan)
        return self._counted(plan.receipt(doc.name, old_version, version))

    def _publish(self, plan: CommitPlan) -> None:
        """Re-key the result cache from the plan's base arena to the one
        installed: every entry over its read targets, and no other,
        goes through :meth:`CommitPlan.decide`."""
        with span("rekey"):
            self.results.rekey(plan.decide, plan.verdicts)

    def _counted(self, delta: CommitDelta) -> CommitDelta:
        """Add one receipt to the ``store.commit.*`` counters."""
        with self._counter_lock:
            counts = self.commit_counts
            counts["spliced" if delta.entries else "noops"] += 1
            for name in _DELTA_SUMS:
                counts[name] += getattr(delta, name)
            counts["results_kept"] += delta.results_patched
            for reason, dropped in delta.drop_reasons.items():
                self.drop_counts[reason.partition(":")[0]] += dropped
            self.last_delta = delta
        return delta

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _counter_values(self) -> tuple[int, int]:
        """One consistent ``(arena_reads, snapshot_pins)`` row — the
        only sanctioned way to read the store-wide counters (a bare
        read could observe a torn pair mid-increment)."""
        with self._counter_lock:
            return self.arena_reads, self.snapshot_pins

    def _commit_counter_values(self) -> tuple[dict, dict]:
        """One consistent snapshot of the commit-path counters and the
        drop counts by reason."""
        with self._counter_lock:
            return dict(self.commit_counts), dict(self.drop_counts)

    def _result_cache_stats(self) -> dict:
        """The result cache's tallies plus what its entries' wire
        forms hold (sampled: one walk over the entries per snapshot,
        nothing on the read path)."""
        stats = self.results.stats()
        held = [answer for answer in self.results.values() if answer.holds_wire]
        stats["wire_entries"] = len(held)
        stats["wire_bytes"] = sum(answer.wire_bytes for answer in held)
        return stats

    def bind_metrics(self, registry) -> None:
        """Expose the store's counters through a
        :class:`~repro.obs.registry.MetricsRegistry`, all as lazily
        sampled probes under the ``layer.component.metric`` scheme —
        the one place they are published (:meth:`stats` is state).
        The read/commit hot paths keep their plain attribute bumps;
        nothing here adds per-request cost."""
        registry.probe("store.arena.reads", lambda: self._counter_values()[0])
        registry.probe("store.snapshot.pins", lambda: self._counter_values()[1])
        registry.probe("store.cache.results", self._result_cache_stats)
        self.compiled.bind_metrics(registry)
        registry.probe("store.documents.count", lambda: len(self.documents))
        registry.probe("store.views.count", lambda: len(self.views))
        for name in _DELTA_COUNTERS:
            registry.probe(
                f"store.commit.delta.{name}",
                lambda name=name: self._commit_counter_values()[0][name],
            )
        for name in DROP_REASONS:
            registry.probe(
                f"store.commit.drop_reason.{name.replace('-', '_')}",
                lambda name=name: self._commit_counter_values()[1][name],
            )
        registry.probe(
            "store.wal.appends",
            lambda: self.wal.stats()["appends"] if self.wal is not None else 0,
        )
        registry.probe(
            "store.wal.fsyncs",
            lambda: self.wal.stats()["fsyncs"] if self.wal is not None else 0,
        )
        registry.probe("store.wal.replayed", lambda: self.wal_replayed)
        registry.probe(
            "store.wal.truncated_tail", lambda: self.wal_truncated_tail
        )
        for name in self.open_parts:
            registry.probe(
                f"store.state.{name}", lambda name=name: self.open_parts[name]
            )

    def stats(self) -> dict:
        """The store's state: documents, views, the last commit's
        receipt and the WAL's attachment.  Every count lives in the
        metrics registry (:meth:`bind_metrics`) and nowhere here."""
        log_stats = self.log.stats()
        documents = {}
        for name, info in self.documents.stats().items():
            info.update(log_stats.get(name, {"staged": 0, "committed": 0}))
            documents[name] = info
        with self._counter_lock:
            last = self.last_delta
        last_commit = None
        if last is not None:
            last_commit = {
                "doc": last.doc_name,
                "version": last.new_version,
                "entries": last.entries,
                "touched_nodes": last.touched_nodes,
                "results_kept": last.results_kept,
                "results_patched": last.results_patched,
                "results_dropped": last.results_dropped,
                "drop_reasons": dict(last.drop_reasons),
                "retention_ratio": _ratio(
                    last.results_kept + last.results_patched + last.mats_kept,
                    last.results_dropped + last.mats_dropped,
                ),
            }
        wal = self.wal
        return {
            "documents": documents,
            "views": self.views.stats(),
            "last_commit": last_commit,
            "wal": {
                "attached": wal is not None,
                "seq": wal.stats()["seq"] if wal is not None else 0,
            },
        }
