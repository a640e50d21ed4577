"""The store facade: documents + views + caches + update log.

How a read is served — ``query(target, q)`` on a document, a view
stack ``t1 … tn`` or a staged preview is the same three steps:

1. **Pin** (:meth:`ViewStore.pin_read`, the only step under the
   document lock): the document's current (version, arena, uid), the
   stack, the staged entries when the read asks for them, and the
   deepest still-valid materialization to start from.
2. **Resolve to one arena, evaluate** (:meth:`ViewStore.evaluate` — a
   pure function of the pinned row and the query text): staged entries
   and inner layers are spliced onto the pinned arena by
   :func:`~repro.transform.arena.transform_arena`, the select + splice
   kernel a commit runs (untouched columns and the payload pool are
   shared).  The outermost layer is not applied but **composed** with
   ``q`` (Section 4's Compose Method: the rewrite prunes the transform
   to the subtrees the query visits and skips it where it provably
   cannot matter), and the plan runs over ``t_{n-1}(… t1(T))`` on the
   columnar evaluator.  A layer the materialization policy has marked
   hot is applied instead, and its arena kept until a commit
   invalidates it.
3. **Finish** from the raw items: thaw the matches (``query``) or
   serialize them straight from the columns (``query_serialized``).

No read thaws a document, and there is nothing to choose: like a plain
read, an arena transform has one algorithm.  ``query_naive`` — thaw,
``transform_naive`` per layer, Node evaluator — is the oracle and
shares none of the above.

Caching: what reads compile (parses, NFAs, composed plans — of
queries, view layers and staged previews) lives in a
:class:`~repro.compiled.CompiledCache` and never goes stale; an update
is parsed and compiled when staged, once, and neither is remembered
past its commit.  Serialized
*answers* live in ``ViewStore.results`` — the only result cache there
is; a :class:`~repro.service.service.QueryService` reads and fills
this one — under :func:`result_key`, all an answer depends on, each an
:class:`~repro.store.answer.Answer` (the items, where they sit in the
document, plus the bytes a server sends for them once the entry has
been asked for again).  A commit visits the entries over the names it
can affect and nothing else, and one rule
(:func:`~repro.store.delta.rekey_verdict`) decides each by position:
**keep** — no item contains a patch, the entry moves to the new
arena's uid as it is; **patch** — the same nodes answer, the few items
a patch landed in are re-serialized and every other string is reused;
**drop** — the query names a label the commit changed, or an item was
removed.  Every drop is counted by its reason
(``store.commit.drop_reason.*``).

Concurrency: the document lock is held to pin a read, to publish a
materialization and to install a commit — never across an evaluation
or the result cache's re-key (a commit's next arena is derived outside
it too, under the document's commit lock); name-table mutations take
the store lock.
"""

from __future__ import annotations

import sys
import threading
from operator import itemgetter
from typing import NamedTuple, Optional, Tuple, Union

from repro.automata.arena_run import serialize_arena_items
from repro.compiled import CompiledCache
from repro.compose.compose import transforms_document
from repro.faults import fault_point
from repro.lru import LRUCache
from repro.obs import span
from repro.store.answer import Answer, node_refs
from repro.store.chain import CommitDelta
from repro.store.delta import (
    DROP_REASONS,
    CommitOutcome,
    apply_entries_spliced,
    query_labels,
    ranges_swallowed_by,
    rekey_verdict,
    transform_labels,
)
from repro.store.documents import DocumentStore, Snapshot, StoredDocument
from repro.store.errors import DuplicateNameError, StoreError, UnknownNameError
from repro.store.log import StagedUpdate, UpdateLog
from repro.store.views import MaterializationPolicy, View, ViewRegistry
from repro.transform.arena import transform_arena
from repro.transform.naive import transform_naive
from repro.transform.query import TransformQuery, parse_transform_query
from repro.xmltree.arena import FrozenDocument, thaw
from repro.xmltree.node import Element
from repro.xmltree.serializer import serialize_arena
from repro.xquery.arena_eval import ArenaEvaluator
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


class PinnedRead(NamedTuple):
    """One read target — a document, a view or a staged preview —
    pinned at one committed version (:meth:`ViewStore.pin_read`): all
    an answer depends on besides the query text, read in one hold of
    the document lock and consumed outside it."""

    doc: StoredDocument
    snapshot: Snapshot
    #: Where evaluation starts: the snapshot's arena, or the deepest
    #: materialization still valid for its version.
    base: FrozenDocument
    #: The layers still to apply on top of *base*, innermost first,
    #: each with whether it is hot (applied and kept, not virtual).
    layers: Tuple[Tuple[View, bool], ...]
    staged: Tuple[StagedUpdate, ...]
    #: The source texts of the whole stack and of the staged entries:
    #: with ``snapshot.uid``, what :func:`result_key` keys on so that
    #: neither a redefined view nor a changed staging area can alias.
    texts: Tuple[Tuple[str, ...], Tuple[str, ...]]


class _Verdict(NamedTuple):
    """What one commit provably leaves alone of one read target over
    the committed document (:meth:`ViewStore._delta_verdicts`)."""

    #: The view; ``None`` for the document itself.
    view: Optional[View]
    #: The stack's source texts: the definition the verdict is about.
    texts: Tuple[str, ...]
    #: Every patch falls strictly inside a subtree the innermost
    #: transform deletes/replaces: the output is byte-identical.
    swallowed: bool
    #: The labels the stack's transforms mention; ``None`` when a
    #: layer is unanalyzable.
    labels: Optional[frozenset]


def result_key(
    target: str,
    uid: int,
    query_text: str,
    texts: Tuple[Tuple[str, ...], Tuple[str, ...]],
) -> tuple:
    """The key of one answer in ``ViewStore.results``: ``(target,
    arena uid, query text, stack texts, staged texts)`` — *uid* and
    *texts* are a :class:`PinnedRead`'s ``snapshot.uid`` and ``texts``.
    The uid is process-unique per arena build and the texts are a
    view's whole definition, so entries cannot alias across a commit, a
    drop-and-reload (which restarts versions at 1) or a
    drop-and-redefine — even when a reader publishes its answer after
    the drop or the commit has invalidated."""
    return (target, uid, query_text) + texts


def _view_drop_reason(
    verdict: _Verdict, needed: Optional[frozenset], delta_labels: frozenset
) -> str:
    """Why a spliced commit drops an answer over a view — whose items
    index the stack's output, an arena no commit describes, so labels
    are all there is to go by; ``""`` when it does not: the stack
    swallowed the delta, or every layer and the query (*needed*, its
    :func:`~repro.store.delta.query_labels`) are analyzable and
    label-disjoint from it."""
    if verdict.swallowed:
        return ""
    if needed is None or verdict.labels is None:
        return "unanalyzable"
    if (needed | verdict.labels) & delta_labels:
        return "view-labels"
    return ""


def serialized_answer(pinned: PinnedRead, arena: FrozenDocument, refs: list) -> Answer:
    """Finish a read as the result cache's value: the raw items of
    :meth:`ViewStore.evaluate` serialized straight from the columns —
    and, for a read of the document itself (no stack, nothing staged:
    *arena* is the one the entry is keyed on), where they sit in it."""
    with span("serialize"):
        # Interned: answers that select the same node hold its
        # serialization once (half the bytes of a pool of overlapping
        # selects), and the table lets go of a string with its last
        # answer.
        items = map(sys.intern, serialize_arena_items(arena, refs))
    on_document = not (pinned.texts[0] or pinned.texts[1])
    return Answer(items, node_refs(refs) if on_document else None)


class ViewStore:
    """A resident multi-document store with stacked virtual views."""

    # guarded-by[arena_reads, snapshot_pins, commit_counts, drop_counts, last_delta]: self._counter_lock

    def __init__(
        self,
        policy: Optional[MaterializationPolicy] = None,
        compiled_cache_size: int = 256,
        result_cache_size: int = 1024,
    ):
        self.documents = DocumentStore()
        self.views = ViewRegistry(policy)
        self.compiled = CompiledCache(compiled_cache_size)
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
        # Store-wide counters are bumped from many documents' read
        # paths at once — one lock keeps their tallies exact (the
        # per-document lock only serializes one document's readers).
        self._counter_lock = threading.Lock()
        # Conservative label analyses keyed on source text; values are
        # wrapped in 1-tuples because ``None`` ("unanalyzable") is a
        # legitimate cached answer.
        self._query_label_cache = LRUCache(compiled_cache_size)
        self._transform_label_cache = LRUCache(compiled_cache_size)

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
        return self.views.define(name, base, transform, transform_text)

    def drop(self, name: str) -> None:
        """Drop a view, or a document no view depends on."""
        if name in self.views:
            self.views.drop(name)
        elif name in self.documents:
            dependents = self.views.dependents_of_document(name)
            if dependents:
                raise StoreError(
                    f"cannot drop document {name!r}: views "
                    f"{sorted(v.name for v in dependents)} are defined over it"
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
        _, evaluator, refs = self._evaluate_counted(pinned, query_text)
        return [evaluator.materialize(item) for item in refs]

    def query_serialized(
        self, target: str, query_text: str, *, include_staged: bool = False
    ) -> list:
        """Answer a user query as serialized XML/text strings: the
        same read, with the matches serialized **straight from the
        columns** (:func:`~repro.xmltree.serializer.serialize_arena`) —
        no ``thaw`` round-trip on any target.  Cached: a repeat is a
        fresh list over the cached strings.  A staged read is cached
        under its staged texts, so it can neither serve nor be served
        by the committed answer."""
        pinned = self._pin_read(target, include_staged)
        key = result_key(target, pinned.snapshot.uid, query_text, pinned.texts)
        cached = self.results.get(key)
        if cached is None:
            arena, _, refs = self._evaluate_counted(pinned, query_text)
            cached = serialized_answer(pinned, arena, refs)
            self.results.put(key, cached)
        return list(cached.items)

    def _evaluate_counted(self, pinned: PinnedRead, query_text: str) -> tuple:
        with self._counter_lock:
            self.arena_reads += 1
        return self.evaluate(pinned, query_text, self.compiled)

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
        policy = self.views.policy
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
            rest = stack[start:]
            for view in rest or stack[-1:]:
                view.query_count += 1
            layers = tuple(
                (view, not staged and policy.should_materialize(view)) for view in rest
            )
        texts = (
            tuple(view.transform_text for view in stack),
            tuple(entry.text for entry in staged),
        )
        return PinnedRead(doc, snapshot, base, layers, staged, texts)

    def evaluate(self, pinned: PinnedRead, query_text: str, compiled) -> tuple:
        """Resolve *pinned* to one arena and run the query over it:
        ``(arena, evaluator, raw ref items)`` — both the thawing and
        the serializing reads finish from these refs.  Lock-free until
        a freshly materialized layer is published; *compiled* is the
        caller's :class:`~repro.compiled.CompiledCache`."""
        arena = pinned.base
        layers = list(pinned.layers)
        query = None
        if layers and not layers[-1][1]:
            # The virtual outermost layer is composed, not applied —
            # unless the plan gives up pruning and runs its topDown on
            # the document root: the splice below is that, on columns.
            plan = compiled.composed(query_text, layers[-1][0].transform_text)
            if not transforms_document(plan):
                query = plan
                layers.pop()
        if query is None:
            query = compiled.user_query(query_text)
        fresh = []
        for step, keep in [(entry, False) for entry in pinned.staged] + layers:
            update = step.transform.update
            arena = transform_arena(
                arena, update, compiled.selecting_nfa_for(update.path)
            ).arena
            if keep:
                fresh.append((step, arena))
        evaluator = ArenaEvaluator(arena, compiled.selecting_nfa_for)
        with span("scan"):
            refs = evaluator.evaluate_refs(query)
        if fresh:
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

    def pin(self, name: str, version: Optional[int] = None) -> Snapshot:
        """Pin an MVCC read snapshot of document *name*.

        The document lock is held only to read one consistent
        (version, arena, uid) row; evaluation against the returned
        immutable snapshot happens entirely outside the store's locks,
        so staged or committing writers never block pinned readers.
        A view has no arena of its own to hand out: pin its document,
        or pin a *read* of the view with :meth:`pin_read`.

        ``version=N`` is a time-travel pin onto the document's version
        chain: spliced commits keep recent versions resident (sharing
        untouched columns with their successors), so pinned readers can
        keep answering against pre-commit state long after the commit.
        """
        if name in self.views:
            raise StoreError(
                f"{name!r} is a view and cannot be pinned for snapshot "
                f"reads; pin its document "
                f"{self.views.document_of(name)!r} instead"
            )
        snapshot = self.documents.get(name).pin(version)
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

        The next frozen arena is derived from the current one *outside*
        the document lock (readers keep pinning snapshots meanwhile)
        under the per-document commit lock: **spliced** at O(delta)
        cost from the staged updates' select results (untouched columns
        and the payload pool are shared — see
        :func:`repro.xmltree.arena.splice`) by
        :func:`~repro.store.delta.apply_entries_spliced`, the one way a
        commit derives a version.  What the delta provably leaves alone
        is worked out first (:meth:`_delta_verdicts`), the document
        lock is held for one ``install`` and the materializations'
        rebase, and the result cache is re-keyed after it is released
        (:meth:`_rekey_results` — uid keys need no lock: a reader that
        pins the new arena meanwhile misses and evaluates).  One
        receipt.
        """
        doc = self._require_document(doc_name)
        if transform_text is not None:
            self.stage(doc_name, transform_text)
        with doc.commit_lock:
            with doc.lock:
                entries = self.log.take_any(doc.name)
                old_version = doc.version
                old_uid = doc.uid
                base_arena = doc.arena
            if not entries:
                delta = CommitDelta(
                    doc_name=doc.name,
                    old_version=old_version,
                    new_version=old_version,
                    old_uid=old_uid,
                    new_uid=old_uid,
                    entries=0,
                )
                with self._counter_lock:
                    self.commit_counts["noops"] += 1
                    self.last_delta = delta
                return delta
            # Write-ahead: the staged texts and the version they will
            # produce are durable before the document is touched.  The
            # append runs outside doc.lock (readers keep pinning
            # snapshots while the record fsyncs) but inside the commit
            # lock, so records reach the log in version order.
            wal = self.wal
            if wal is not None:
                wal.append({
                    "kind": "commit",
                    "doc": doc.name,
                    "version": old_version + 1,
                    "texts": [entry.text for entry in entries],
                })
            try:
                fault_point("store.commit.mid_splice")
                with span("splice"):
                    outcome = apply_entries_spliced(base_arena, entries)
                with span("invalidate"):
                    verdicts = self._delta_verdicts(doc.name, outcome)
                with doc.lock:
                    self.log.record_commit(doc.name, entries)
                    version, evicted = doc.install(outcome.arena, outcome.touched_nodes)
                    new_uid = doc.uid
                    kept_m, dropped_m = self._rebase_materializations(
                        verdicts, old_version, version
                    )
                # The version the chain let go is freed here, with no
                # reader waiting on the document lock behind it.
                del evicted
            except BaseException:
                # The commit did not install: put the consumed entries
                # back so a retry commits the same sequence, and cancel
                # the already-durable WAL record — without the abort,
                # recovery would apply the failed attempt and the
                # retry's record (same version) would be skipped.
                self.log.restore(doc.name, entries)
                if wal is not None:
                    wal.append({
                        "kind": "abort",
                        "doc": doc.name,
                        "version": old_version + 1,
                    })
                raise
            with span("invalidate"):
                kept_r, patched_r, drop_reasons = self._rekey_results(
                    verdicts, outcome, old_uid, new_uid
                )
        delta = CommitDelta(
            doc_name=doc.name,
            old_version=old_version,
            new_version=version,
            old_uid=old_uid,
            new_uid=new_uid,
            entries=len(entries),
            patches=outcome.patches,
            touched_nodes=outcome.touched_nodes,
            labels=outcome.labels,
            results_kept=kept_r,
            results_patched=patched_r,
            results_dropped=sum(drop_reasons.values()),
            drop_reasons=drop_reasons,
            mats_kept=kept_m,
            mats_dropped=dropped_m,
        )
        with self._counter_lock:
            counts = self.commit_counts
            counts["spliced"] += 1
            for name in _DELTA_SUMS:
                counts[name] += getattr(delta, name)
            counts["results_kept"] += delta.results_patched
            for reason, dropped in drop_reasons.items():
                self.drop_counts[reason.partition(":")[0]] += dropped
            self.last_delta = delta
        return delta

    # ------------------------------------------------------------------
    # Delta-scoped invalidation
    # ------------------------------------------------------------------

    def _query_label_set(self, query_text: str):
        """Labels the query's answer can depend on; ``None`` when
        unanalyzable.  Cached by source text (wrapped in a 1-tuple so a
        cached ``None`` still hits)."""
        return self._query_label_cache.get_or_compute(
            query_text,
            lambda: (query_labels(self.compiled.user_query(query_text)),),
        )[0]

    def _transform_label_set(self, transform_text: str, transform: TransformQuery):
        return self._transform_label_cache.get_or_compute(
            transform_text, lambda: (transform_labels(transform),)
        )[0]

    def _delta_verdicts(self, doc_name: str, outcome: CommitOutcome) -> dict:
        """``target → _Verdict`` for the document and every view over
        it: what the commit about to install provably leaves alone.  A
        pure function of the outcome and the view definitions, so it
        runs before the document lock is taken."""
        verdicts = {doc_name: _Verdict(None, (), False, frozenset())}
        for view in self.views.dependents_of_document(doc_name):
            _, stack = self.views.stack(view.name)
            labels: Optional[frozenset] = frozenset()
            for layer in stack:
                layer_labels = self._transform_label_set(
                    layer.transform_text, layer.transform
                )
                if layer_labels is None:
                    labels = None
                    break
                labels |= layer_labels
            verdicts[view.name] = _Verdict(
                view,
                tuple(layer.transform_text for layer in stack),
                bool(outcome.ranges) and ranges_swallowed_by(
                    stack[0].transform, outcome.base_arena, outcome.ranges,
                    self.compiled,
                ),
                labels,
            )
        return verdicts

    @staticmethod
    def _rebase_materializations(
        verdicts: dict, old_version: int, new_version: int
    ) -> tuple[int, int]:  # holds: doc.lock
        """Materializations are exact arenas, so only the swallow test
        (not label disjointness) carries one to the new version.
        Returns ``(kept, dropped)``."""
        kept = dropped = 0
        for verdict in verdicts.values():
            view = verdict.view
            if view is None or view.materialized_root is None:
                continue
            if verdict.swallowed and view.materialized_version == old_version:
                view.rebase_materialization(new_version)
                kept += 1
            else:
                view.invalidate()
                dropped += 1
        return kept, dropped

    def _rekey_results(
        self, verdicts: dict, outcome: CommitOutcome, old_uid: int, new_uid: int
    ) -> tuple[int, int, dict]:
        """Move what the commit provably left answerable from *old_uid*
        to *new_uid* and drop everything else under the affected names
        (*verdicts*' keys — no other entry is visited).  Returns
        ``(kept, patched, {drop reason: entries})``.

        An answer over the document goes through the one rule,
        :func:`~repro.store.delta.rekey_verdict`: kept as it is,
        patched (the items a patch landed in re-serialized from the new
        arena), or dropped.  One over a view knows no positions — its
        refs would index another arena — and survives when every stack
        layer and its query are analyzable and label-disjoint from the
        delta, or the stack swallowed it.  A staged preview never survives
        (its staging area was just consumed), nor does an entry keyed
        on a stack that is no longer the target's definition, nor what
        a late publisher left on a dead arena.  What an early reader of
        the new arena already published is left as it is, unless an
        entry carried forward takes its key."""
        steps = outcome.steps
        delta_labels = outcome.labels
        arena = outcome.arena
        patched = 0
        reasons: dict = {}

        def map_entry(key, answer):
            nonlocal patched
            target, uid, query_text, stack_texts, staged_texts = key
            verdict = verdicts[target]
            if uid == new_uid:
                # A reader that pinned the new arena first published
                # already: an answer on the live arena stays.
                return key, answer
            if uid != old_uid:
                reason = "late-publisher"
            elif staged_texts:
                reason = "staged"
            elif stack_texts != verdict.texts:
                reason = "stack-changed"
            elif verdict.view is not None:
                reason = _view_drop_reason(
                    verdict, self._query_label_set(query_text), delta_labels
                )
            else:
                what, reason, refs, dirty = rekey_verdict(
                    self._query_label_set(query_text), answer.refs, steps
                )
                if what == "patch":
                    answer = answer.patched(
                        {k: sys.intern(serialize_arena(arena, refs[k])) for k in dirty},
                        refs,
                    )
                    patched += 1
                elif what == "keep":
                    answer.refs = refs
            if reason:
                reasons[reason] = reasons.get(reason, 0) + 1
                return None
            return result_key(target, new_uid, query_text, key[3:]), answer

        moved, _ = self.results.rekey(map_entry, verdicts)
        return moved - patched, patched, reasons

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _counter_values(self) -> tuple[int, int]:
        """One consistent ``(arena_reads, snapshot_pins)`` row — the
        only sanctioned way to read the store-wide counters (the seed
        read them bare from stats() and the metric probes, which could
        observe a torn pair mid-increment)."""
        with self._counter_lock:
            return self.arena_reads, self.snapshot_pins

    def _commit_counter_values(self) -> dict:
        """One consistent snapshot of the commit-path counters."""
        with self._counter_lock:
            return dict(self.commit_counts)

    def _drop_counter_values(self) -> dict:
        with self._counter_lock:
            return dict(self.drop_counts)

    def _result_cache_stats(self) -> dict:
        """The result cache's tallies plus what its entries' wire
        forms hold (sampled: one walk over the entries per snapshot,
        nothing on the read path)."""
        stats = self.results.stats()
        held = [answer.wire_bytes for answer in self.results.values()]
        stats["wire_entries"] = sum(1 for size in held if size)
        stats["wire_bytes"] = sum(held)
        return stats

    def bind_metrics(self, registry) -> None:
        """Expose the store's counters through a
        :class:`~repro.obs.registry.MetricsRegistry`, all as lazily
        sampled probes under the ``layer.component.metric`` scheme.
        The read/commit hot paths keep their plain attribute bumps;
        nothing here adds per-request cost."""
        registry.probe("store.arena.reads", lambda: self._counter_values()[0])
        registry.probe("store.snapshot.pins", lambda: self._counter_values()[1])
        registry.probe("store.cache.results", self._result_cache_stats)
        self.compiled.bind_metrics(registry, prefix="store.cache.compiled")
        registry.probe("store.documents.count", lambda: len(self.documents))
        registry.probe(
            "store.arena.builds",
            lambda: sum(
                info["arena_builds"] for info in self.documents.stats().values()
            ),
        )
        registry.probe("store.views.count", lambda: len(self.views))
        for name in _DELTA_COUNTERS:
            registry.probe(
                f"store.commit.delta.{name}",
                lambda name=name: self._commit_counter_values()[name],
            )
        for name in DROP_REASONS:
            registry.probe(
                f"store.commit.drop_reason.{name.replace('-', '_')}",
                lambda name=name: self._drop_counter_values()[name],
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

    def stats(self) -> dict:
        arena_reads, snapshot_pins = self._counter_values()
        log_stats = self.log.stats()
        documents = {}
        for name, info in self.documents.stats().items():
            info = dict(info)
            info.update(log_stats.get(name, {"staged": 0, "committed": 0}))
            documents[name] = info
        commits = self._commit_counter_values()
        commits["drop_reasons"] = self._drop_counter_values()
        retained = commits["results_kept"] + commits["mats_kept"]
        purged = commits["results_dropped"] + commits["mats_dropped"]
        commits["retention_ratio"] = (
            retained / (retained + purged) if retained + purged else None
        )
        with self._counter_lock:
            last = self.last_delta
        if last is not None:
            last_kept = last.results_kept + last.results_patched + last.mats_kept
            last_purged = last.results_dropped + last.mats_dropped
            commits["last"] = {
                "doc": last.doc_name,
                "version": last.new_version,
                "entries": last.entries,
                "touched_nodes": last.touched_nodes,
                "results_kept": last.results_kept,
                "results_patched": last.results_patched,
                "results_dropped": last.results_dropped,
                "drop_reasons": dict(last.drop_reasons),
                "retention_ratio": (
                    last_kept / (last_kept + last_purged)
                    if last_kept + last_purged
                    else None
                ),
            }
        wal = {
            "attached": self.wal is not None,
            "replayed": self.wal_replayed,
            "truncated_tail": self.wal_truncated_tail,
        }
        if self.wal is not None:
            wal.update(self.wal.stats())
        return {
            "documents": documents,
            "views": self.views.stats(),
            "caches": {
                "compiled": self.compiled.stats(),
                "results": self._result_cache_stats(),
            },
            "commits": commits,
            "wal": wal,
            "arena_reads": arena_reads,
            "snapshot_pins": snapshot_pins,
        }

    def chain_info(self, doc_name: str) -> dict:
        """Version-chain shape and shared/owned byte split for one
        document (``repro store stat`` surfaces this)."""
        return self._require_document(doc_name).chain_info()
