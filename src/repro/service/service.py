"""The concurrent query service: MVCC snapshot reads, request
batching, and a parallel worker pool over one resident
:class:`~repro.store.store.ViewStore`.

Concurrency discipline — **single writer, many readers**:

* Reads against a plain document never touch the store's locks while
  evaluating.  Each request *pins* the document's current committed
  version (:meth:`~repro.store.store.ViewStore.pin` — the document
  lock is held only for the version read), then runs entirely against
  that frozen, immutable arena.  Writers staging or committing new
  versions never block pinned readers and can never corrupt them: a
  commit mutates the live tree and bumps the version counter, but the
  old arena object is untouched, so every in-flight reader finishes
  against exactly the version it started with.  ``snapshot_reads``
  counts reads served this way; ``stale_reads`` counts those whose
  pinned version had already been superseded by the time they
  finished — the price of never blocking, made visible.
* Writes (``load``/``define_view``/``stage``/``commit``/``rollback``)
  serialize on one service-wide write lock, so the store only ever
  sees a single writer.
* View targets and staged-preview reads evaluate over the live Node
  tree and therefore fall back to the store's lock-holding read path
  (counted as ``locked_reads``).

Read path: a request for a plain document pins its snapshot at
admission and looks ``(document, arena uid, query)`` up in the result
**memo**.  A hit is answered right there, on the thread that submitted
it — no queue, no window, no pool task, no ``Future`` wake-up — so a
memoised answer costs a pin and a dictionary lookup until the next
commit changes the uid (and beyond it, when the commit is provably
label-disjoint from the query and the entry is re-keyed).

Request batching is what happens to the *misses* (and to view and
staged reads, which cannot be pinned): they land on a bounded
admission queue; a dispatcher thread drains it in small **windows** (a
few ms) and groups the window's requests two ways.  Identical
``(document, query)`` requests — which, within one window, necessarily
pin the same version — **coalesce** into a single evaluation whose
result fans out to every waiter.  Distinct queries against the same
document group into one worker task that pins the snapshot once and
reuses the same prepared statements and warm DFA tables across all of
them.  The group re-checks the memo before evaluating: a request that
missed at admission because an identical evaluation was still in
flight is served from that evaluation's published answer.

Admission control: the queue is bounded; when it is full the request
is shed immediately with the typed
:class:`~repro.service.errors.OverloadedError` (back-pressure, not
collapse).  Each request may carry a **deadline**; expired requests
are answered with :class:`~repro.service.errors.DeadlineError` and —
when every waiter for an evaluation has expired — the evaluation
itself is skipped.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Optional

from repro.automata.arena_run import serialize_arena_items
from repro.engine.engine import Engine
from repro.engine.planner import READ_COST_ARENA
from repro.lru import LRUCache
from repro.obs import (
    NULL_TRACE,
    MetricsRegistry,
    Profile,
    SlowQueryLog,
    Tracer,
    profiled,
    render_prometheus,
    span,
    stitch,
)
from repro.obs.registry import COUNT_BUCKETS
from repro.service.errors import (
    DeadlineError,
    OverloadedError,
    ServiceClosedError,
)
from repro.service.workers import make_workers
from repro.store.documents import Snapshot
from repro.store.errors import StoreError
from repro.store.store import ViewStore
from repro.xmltree.serializer import serialize
from repro.xquery.arena_eval import ArenaEvaluator

__all__ = ["QueryService", "ServiceConfig"]


class ServiceConfig:
    """Tuning knobs for a :class:`QueryService`.

    * ``workers`` — worker pool size (threads; and processes in
      ``mode="process"``).
    * ``mode`` — ``"thread"`` (default) or ``"process"`` (opt-in
      CPU-parallel arena scans; arenas are shipped to workers as
      pickled columns and rebuilt there).
    * ``batch_window`` — seconds the dispatcher waits after the first
      queued request to collect a batch.  ``0`` still coalesces
      whatever is already queued.  Only requests that have to be
      evaluated queue; a memo hit is answered at admission and never
      waits for the window.
    * ``max_queue`` — admission-control bound; beyond it requests
      that need the queue (memo misses) are shed with
      :class:`~repro.service.errors.OverloadedError`.
    * ``memo_size`` — entries in the per-(document, version, query)
      result memo.
    * ``default_deadline`` — seconds applied to requests that do not
      carry their own deadline (``None``: wait forever).
    * ``metrics`` — ``False`` disables the whole telemetry substrate
      (registry *and* tracing): every instrument becomes a shared
      no-op, the fast path ``benchmarks/bench_service.py`` measures
      the instrumented path against.
    * ``trace_sample`` — record every N-th request's lifecycle trace
      (``0`` disables tracing; the default samples 1/16 so tracing
      stays within the instrumentation-overhead budget).
    * ``trace_ring`` — how many finished trace records are buffered
      (older records fall off; see the ``traces`` wire op).
    * ``profile_sample`` — collect a plan-vs-actual execution profile
      on every N-th *sampled* evaluation (``0`` disables profiling).
      Profiles feed the planner's estimate-vs-actual drift probe and
      ride along in slow-query entries; they are sampled separately
      from tracing because the profiled scan twin is markedly slower
      than the bare hot loop, and coalesced workloads make nearly
      every evaluation trace-sampled.
    * ``slow_threshold`` — seconds of submit→finish latency beyond
      which a request is captured in the slow-query log with its full
      trace and profile (negative disables the log entirely).
    * ``slow_ring`` — how many slow-query entries are buffered (older
      entries fall off; see the ``slowlog`` wire op).
    """

    __slots__ = (
        "workers", "mode", "batch_window", "max_queue", "memo_size",
        "default_deadline", "metrics", "trace_sample", "trace_ring",
        "profile_sample", "slow_threshold", "slow_ring",
    )

    def __init__(
        self,
        workers: int = 4,
        mode: str = "thread",
        batch_window: float = 0.002,
        max_queue: int = 256,
        memo_size: int = 1024,
        default_deadline: Optional[float] = None,
        metrics: bool = True,
        trace_sample: int = 16,
        trace_ring: int = 256,
        profile_sample: int = 4,
        slow_threshold: float = 0.25,
        slow_ring: int = 128,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if trace_sample < 0:
            raise ValueError(f"trace_sample must be >= 0, got {trace_sample}")
        if profile_sample < 0:
            raise ValueError(
                f"profile_sample must be >= 0, got {profile_sample}"
            )
        if slow_ring < 1:
            raise ValueError(f"slow_ring must be positive, got {slow_ring}")
        self.workers = workers
        self.mode = mode
        self.batch_window = batch_window
        self.max_queue = max_queue
        self.memo_size = memo_size
        self.default_deadline = default_deadline
        self.metrics = metrics
        self.trace_sample = trace_sample
        self.trace_ring = trace_ring
        self.profile_sample = profile_sample
        self.slow_threshold = slow_threshold
        self.slow_ring = slow_ring


class _Request:
    """One queued read: target, query text, waiter, deadline, trace."""

    __slots__ = (
        "target", "text", "staged", "deadline", "future", "trace", "submitted",
    )

    def __init__(
        self,
        target: str,
        text: str,
        staged: bool,
        deadline: Optional[float],
        trace=NULL_TRACE,
    ):
        self.target = target
        self.text = text
        self.staged = staged
        self.deadline = deadline  # absolute time.monotonic() instant
        self.future: Future = Future()
        #: The request's lifecycle trace (NULL_TRACE when unsampled).
        self.trace = trace
        self.submitted = time.perf_counter()

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


#: Queue sentinel that tells the dispatcher to drain and exit.
_STOP = object()


#: Legacy metric key → registry metric name.  ``metrics()`` keeps
#: returning the short keys the tests and benchmarks always read, but
#: the counters themselves live in the registry under the
#: ``layer.component.metric`` scheme.
_METRIC_NAMES = {
    "requests": "service.requests.total",
    "shed": "service.requests.shed",
    "deadline_misses": "service.requests.deadline_miss",
    "batches": "service.dispatch.batches",
    "evaluations": "service.dispatch.evaluations",
    "coalesced": "service.dispatch.coalesced",
    "memo_hits": "service.dispatch.memo_hits",
    "memo_retained": "service.dispatch.memo_retained",
    "snapshot_reads": "service.reads.snapshot",
    "stale_reads": "service.reads.stale",
    "locked_reads": "service.reads.locked",
    "transforms": "service.reads.transform",
}


class QueryService:
    """A concurrent front for one :class:`ViewStore` (see the module
    docstring for the concurrency and batching discipline)."""

    # guarded-by[_closed]: self._admission_lock

    def __init__(
        self,
        store: Optional[ViewStore] = None,
        engine: Optional[Engine] = None,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        checkpoint=None,
        slow_sink=None,
    ):
        self.store = store if store is not None else ViewStore()
        self.config = config if config is not None else ServiceConfig()
        #: Called (under the write lock) after every admin write that
        #: changes the *document set* — load/put/define_view/drop.  The
        #: WAL only records commits, and recovery skips records for
        #: documents it does not know, so ``repro serve`` passes a
        #: save_store closure here: the document set is always covered
        #: by a checkpoint, commits by the log.  ``None`` → no-op.
        self.checkpoint = checkpoint
        # The engine shares the store's planner so strategy-choice
        # counters tally in one place; its compiled cache is what the
        # snapshot read path and the transform op prepare against.
        self.engine = (
            engine if engine is not None else Engine(planner=self.store.planner)
        )
        # One registry per service (unless injected): its snapshot is
        # what stats()/the `metrics` wire op return, and what the
        # store's and engine's probes report into.
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(enabled=self.config.metrics)
        )
        self.tracer = Tracer(
            ring=self.config.trace_ring,
            sample_every=self.config.trace_sample,
            enabled=self.config.metrics and self.config.trace_sample > 0,
        )
        self._counters = {
            key: self.registry.counter(name) for key, name in _METRIC_NAMES.items()
        }
        #: Client-observed request latency (submit → result), seconds.
        self._latency = self.registry.histogram("service.request.latency")
        #: One observation per arena evaluation group handed to the pool.
        self._eval_latency = self.registry.histogram("service.eval.latency")
        #: Requests per dispatcher window.
        self._batch_size = self.registry.histogram(
            "service.dispatch.batch_size", buckets=COUNT_BUCKETS
        )
        self.store.bind_metrics(self.registry)
        self.engine.bind_metrics(self.registry)
        self.registry.probe("service.queue.depth", lambda: self._queue.qsize())
        self.registry.probe("service.memo.cache", lambda: self._memo.stats())
        self.registry.probe("service.trace.ring", lambda: self.tracer.stats())
        self.registry.probe(
            "service.workers.restarts",
            lambda: getattr(self._workers, "restarts", 0),
        )
        #: Any request slower than the threshold is captured here with
        #: its stitched trace and (when sampled) its execution profile.
        #: *slow_sink* additionally receives each entry as it is
        #: recorded — ``repro serve`` passes a JSONL write-through.
        self._slowlog = SlowQueryLog(
            threshold=self.config.slow_threshold if self.config.metrics else -1.0,
            ring=self.config.slow_ring,
            sink=slow_sink,
        )
        self.registry.probe("service.slowlog.ring", self._slowlog.stats)
        # Which sampled evaluations additionally pay for a profile:
        # next(self._profile_tick) is atomic under the GIL, so worker
        # threads can draw from it without a lock.
        self._profile_tick = itertools.count()
        # Keyed (name, arena uid, query text): the uid is process-
        # unique per arena build, so entries can never alias across a
        # commit OR a drop-and-reload (which restarts versions at 1) —
        # even if an in-flight group publishes its result after the
        # invalidation in drop()/commit() has already run.
        self._memo = LRUCache(self.config.memo_size)
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.max_queue)
        self._write_lock = threading.RLock()
        # Makes the closed-check and the enqueue atomic against
        # close(): without it a request admitted between close()'s
        # flag-set and the dispatcher's final drain would sit on the
        # queue forever with nobody left to serve it.
        self._admission_lock = threading.Lock()
        self._closed = False
        self._workers = make_workers(self.config.mode, self.config.workers)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Reads (MVCC snapshot path, batched)
    # ------------------------------------------------------------------

    def query(
        self,
        target: str,
        query_text: str,
        *,
        deadline: Optional[float] = None,
        staged: bool = False,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> list:
        """Answer a query as serialized strings, through the batcher.

        *deadline* is seconds from now (default: the config's
        ``default_deadline``); when it passes before the result is
        ready, :class:`DeadlineError` is raised here — the evaluation
        may still finish in the background and warm the memo.

        *trace_id*/*parent_span* adopt a caller-opened trace context
        (cross-process propagation from :class:`~repro.service.client.
        Client`): the service span joins that trace instead of minting
        its own id, so the client can stitch one end-to-end tree.
        """
        request = self.submit(
            target, query_text, deadline=deadline, staged=staged,
            trace_id=trace_id, parent_span=parent_span,
        )
        timeout = None
        if request.deadline is not None:
            # Small slack over the dispatcher's own expiry check so a
            # request failed *by* the dispatcher reports its typed
            # error rather than racing this wait.
            timeout = max(0.0, request.deadline - time.monotonic()) + 0.25
        try:
            result = request.future.result(timeout=timeout)
        except FutureTimeoutError:
            self._count("deadline_misses")
            raise DeadlineError(f"no result within {timeout:.3f}s") from None
        except DeadlineError:
            self._count("deadline_misses")
            raise
        self._latency.observe(time.perf_counter() - request.submitted)
        return result

    def query_direct(self, target: str, query_text: str) -> list:
        """The serial one-request-at-a-time reference path: pin the
        snapshot, evaluate, serialize — same MVCC read, but no
        batching window, no coalescing, no per-version memo.  This is
        what a naive server would do per request, and the baseline the
        service benchmarks compare the batched path against.
        """
        if self._is_closed():
            raise ServiceClosedError()
        snapshot = self.store.pin(target)
        self._count("requests")
        self._count("snapshot_reads")
        start = time.perf_counter()
        with self.tracer.trace("service.query_direct", target=target):
            result = self._evaluate_snapshot(snapshot, query_text)
        self._latency.observe(time.perf_counter() - start)
        return result

    def submit(
        self,
        target: str,
        query_text: str,
        *,
        deadline: Optional[float] = None,
        staged: bool = False,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> _Request:
        """Admit a read without waiting; returns the request whose
        ``future`` resolves to the serialized result list.

        A plain-document read first pins the snapshot and looks its
        ``(name, arena uid, text)`` up in the memo: a hit is resolved
        right here, on the calling thread (``future`` is already done
        when this returns), and never sees the queue, the dispatcher's
        window or the pool.  Only a miss — or a view / staged target,
        which cannot be pinned — is enqueued.
        """
        if deadline is None:
            deadline = self.config.default_deadline
        absolute = time.monotonic() + deadline if deadline is not None else None
        request = _Request(
            target, query_text, staged, absolute,
            trace=self.tracer.trace(
                "service.query", trace_id=trace_id, parent_span=parent_span,
                target=target, query=query_text,
            ),
        )
        snapshot = cached = None
        if not staged and target not in self.store.views:
            try:
                snapshot = self.store.pin(target)
            except StoreError:
                pass  # unknown target: queued, so the waiter gets the error
            else:
                # The memo's one counted lookup per request (the
                # dispatcher's re-check peeks).
                cached = self._memo.get((target, snapshot.uid, query_text))
        with self._admission_lock:
            if self._closed:
                raise ServiceClosedError()
            if cached is None:
                try:
                    self._queue.put_nowait(request)
                except queue.Full:
                    self._count("shed")
                    request.trace.finish(outcome="shed")
                    raise OverloadedError(
                        f"{self.config.max_queue} requests queued"
                    ) from None
        self._count("requests")
        if cached is not None:
            self._count("snapshot_reads")
            self._serve_hit([request], cached, snapshot.version, "admission", 0.0)
        return request

    def _serve_hit(
        self,
        requests: list,
        cached: list,
        snapshot_version: int,
        served: str,
        queue_s: float,
    ) -> None:
        """Hand one memoised answer to every waiter in *requests* (all
        for the same text against the same snapshot).  The only place
        a hit is answered: *served* says from where — ``"admission"``
        (:meth:`submit`, on the caller's thread) or ``"dispatch"`` (the
        re-check in :meth:`_answer_doc_group`, i.e. the request raced
        an identical evaluation and waited out a window for it).

        Each waiter counts once, as a memo hit: ``requests ==
        evaluations + coalesced + memo_hits`` over error-free
        plain-document reads."""
        self._count("memo_hits", len(requests))
        for request in requests:
            request.future.set_result(cached)
            request.trace.finish(outcome="memo", served=served)
        self._maybe_slow(
            requests[0], "memo", snapshot_version,
            coalesced=len(requests) - 1, queue_s=queue_s, served=served,
        )

    # ------------------------------------------------------------------
    # The batching dispatcher
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        window = self.config.batch_window
        while True:
            item = self._queue.get()
            stopping = item is _STOP
            batch = [] if stopping else [item]
            if not stopping and window > 0:
                cutoff = time.monotonic() + window
                while True:
                    remaining = cutoff - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stopping = True
                        break
                    batch.append(nxt)
            if stopping:
                # Graceful drain: everything already admitted is served.
                while True:
                    try:
                        batch.append(self._queue.get_nowait())
                    except queue.Empty:
                        break
            if batch:
                self._dispatch(batch)
            if stopping:
                return

    def _dispatch(self, batch: list) -> None:
        """Group one window's requests and hand them to the pool."""
        self._count("batches")
        self._batch_size.observe(float(len(batch)))
        doc_groups: dict = {}
        for request in batch:
            if request.staged or request.target in self.store.views:
                self._workers.submit(self._run_fallback, request)
            else:
                doc_groups.setdefault(request.target, {}).setdefault(
                    request.text, []
                ).append(request)
        for name, by_text in doc_groups.items():
            self._workers.submit(self._run_doc_group, name, by_text)

    def _run_doc_group(self, name: str, by_text: dict) -> None:
        """One pool task per document per window: pin the snapshot
        once, then answer every distinct query against it.

        Runs as a discarded pool future, so it must never let an
        exception escape with waiters unresolved — the final except
        clause forwards anything unexpected (a broken process pool, a
        died worker) to every future still pending, instead of leaving
        deadline-less clients hanging forever.
        """
        try:
            self._answer_doc_group(name, by_text)
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            for requests in by_text.values():
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(exc)

    def _answer_doc_group(self, name: str, by_text: dict) -> None:
        total = sum(len(reqs) for reqs in by_text.values())
        snapshot = self.store.pin(name)
        self._count("snapshot_reads", total)
        now = time.monotonic()
        dispatched = time.perf_counter()
        for requests in by_text.values():
            for request in requests:
                # Queue wait is measured here because submit() ran on a
                # different thread than the one that evaluates.
                request.trace.record_span("queue", dispatched - request.submitted)
        todo: list = []
        for text, requests in by_text.items():
            key = (name, snapshot.uid, text)
            # Every request here already missed at admission; an entry
            # now means an identical evaluation (or a commit's re-key)
            # published while it queued.
            cached = self._memo.peek(key)
            if cached is not None:
                self._serve_hit(
                    requests, cached, snapshot.version, "dispatch",
                    dispatched - requests[0].submitted,
                )
            elif all(request.expired(now) for request in requests):
                for request in requests:
                    request.future.set_exception(DeadlineError("expired in queue"))
                    request.trace.finish(outcome="deadline")
                self._maybe_slow(
                    requests[0], "deadline", snapshot.version,
                    queue_s=dispatched - requests[0].submitted,
                )
            else:
                todo.append(text)
        if todo:
            # Coalesced waiters share one evaluation, so only a single
            # sampled trace per distinct text — the primary — carries
            # the engine's plan/scan/serialize spans (and, in process
            # mode, the propagated context the worker's spans join).
            primaries = {
                text: next(
                    (r.trace for r in by_text[text] if r.trace.sampled),
                    NULL_TRACE,
                )
                for text in todo
            }
            trace_ctxs = {
                text: {"trace": t.trace_id, "parent_span": t.span_id}
                for text, t in primaries.items()
                if t.sampled
            }
            profiles: dict = {}

            def evaluate(snapshot: Snapshot, text: str) -> list:
                begin = time.perf_counter()
                primary = primaries[text]
                sample = self.config.profile_sample
                if (
                    primary.sampled
                    and sample
                    and next(self._profile_tick) % sample == 0
                ):
                    # Every N-th sampled request pays for a
                    # plan-vs-actual profile too: the arena scan is the
                    # "scan" strategy estimated at every element below
                    # the root (what select_indices can step), and the
                    # scan loop fills in the actual visit/prune/skip
                    # counts.
                    prof = Profile()
                    arena = snapshot.arena
                    prof.set_plan(
                        "scan", "arena", READ_COST_ARENA * len(arena),
                        arena.n_elements - 1,
                    )
                    with primary.activate(), profiled(prof):
                        result = self._evaluate_snapshot(snapshot, text)
                    prof.finish()
                    self.store.planner.observe_actual(prof)
                    profiles[text] = prof.snapshot()
                else:
                    with primary.activate():
                        result = self._evaluate_snapshot(snapshot, text)
                self._eval_latency.observe(time.perf_counter() - begin)
                return result

            outcomes = self._workers.evaluate_group(
                snapshot, todo, evaluate, trace_ctxs=trace_ctxs
            )
            spans_by_text = getattr(outcomes, "spans_by_text", {})
            retries = getattr(outcomes, "retries", 0)
            for text, (status, value) in zip(todo, outcomes):
                requests = by_text[text]
                primary = primaries[text]
                # Splice the worker-minted child spans (process mode)
                # into the primary trace before it finishes, so the
                # published record is already one stitched subtree.
                worker_spans = spans_by_text.get(text)
                if worker_spans:
                    primary.add_spans(worker_spans)
                if retries:
                    primary.note(worker_retries=retries)
                if status != "ok":
                    for request in requests:
                        request.future.set_exception(value)
                        request.trace.finish(outcome="error", error=str(value))
                    self._maybe_slow(
                        requests[0], "error", snapshot.version,
                        queue_s=dispatched - requests[0].submitted,
                    )
                    continue
                self._count("evaluations")
                self._count("coalesced", len(requests) - 1)
                self._memo.put((name, snapshot.uid, text), value)
                for request in requests:
                    request.future.set_result(value)
                    request.trace.finish(
                        outcome="ok", coalesced=len(requests) - 1
                    )
                self._maybe_slow(
                    requests[0], "ok", snapshot.version,
                    coalesced=len(requests) - 1,
                    profile=profiles.get(text),
                    queue_s=dispatched - requests[0].submitted,
                )
        # Stale-read accounting: did a commit supersede the pinned
        # version while we were answering from it?
        try:
            current = self.store.documents.get(name).version
        except StoreError:  # document dropped mid-flight
            current = snapshot.version
        if current != snapshot.version:
            self._count("stale_reads", total)

    def _maybe_slow(
        self,
        request: _Request,
        outcome: str,
        snapshot_version=None,
        *,
        coalesced: int = 0,
        profile: Optional[dict] = None,
        queue_s: Optional[float] = None,
        served: Optional[str] = None,
    ) -> None:
        """Capture *request* in the slow-query log when its submit→
        finish latency crossed the threshold.  Called after the trace
        finished so the entry can embed the full record (None for
        unsampled requests — the counters still tell the story).
        *served* is where a memo hit was answered (see
        :meth:`_serve_hit`); None for every other outcome."""
        dur = time.perf_counter() - request.submitted
        if not self._slowlog.should_record(dur):
            return
        self._slowlog.record({
            "ts": time.time(),
            "target": request.target,
            "query": request.text,
            "outcome": outcome,
            "dur_ms": round(dur * 1000.0, 3),
            "queue_ms": (
                round(queue_s * 1000.0, 3) if queue_s is not None else None
            ),
            "snapshot_version": snapshot_version,
            "coalesced": coalesced,
            "served": served,
            "trace": request.trace.record,
            "profile": profile,
        })

    def _evaluate_snapshot(self, snapshot: Snapshot, text: str) -> list:
        """One arena read, entirely lock-free: compiled artifacts come
        from the engine's (thread-safe) caches, evaluation runs over
        the immutable snapshot, matches serialize straight from the
        columns."""
        cache = self.engine.cache
        evaluator = ArenaEvaluator(snapshot.arena, cache.selecting_nfa_for)
        with span("scan"):
            refs = evaluator.evaluate_refs(cache.user_query(text))
        with span("serialize"):
            return serialize_arena_items(snapshot.arena, refs)

    def _run_fallback(self, request: _Request) -> None:
        """View targets and staged previews: the store's lock-holding
        serialized read path, one request at a time."""
        self._count("locked_reads")
        queue_s = time.perf_counter() - request.submitted
        request.trace.record_span("queue", queue_s)
        if request.expired(time.monotonic()):
            request.future.set_exception(DeadlineError("expired in queue"))
            request.trace.finish(outcome="deadline")
            self._maybe_slow(request, "deadline", queue_s=queue_s)
            return
        try:
            with request.trace.activate():
                result = self.store.query_serialized(
                    request.target, request.text, include_staged=request.staged
                )
        except Exception as exc:  # noqa: BLE001 - forwarded to the waiter
            request.future.set_exception(exc)
            request.trace.finish(outcome="error", error=str(exc))
            self._maybe_slow(request, "error", queue_s=queue_s)
            return
        request.future.set_result(result)
        request.trace.finish(outcome="locked")
        self._maybe_slow(request, "locked", queue_s=queue_s)

    # ------------------------------------------------------------------
    # Writes (single-writer discipline)
    # ------------------------------------------------------------------

    def _is_closed(self) -> bool:
        """Read the closed flag under its lock.  The seed read it bare
        from the read paths; on CPython that "worked", but the flag's
        contract (no admission after close) only holds when the check
        synchronizes with close()'s write.  The lock is uncontended in
        steady state, so this costs one atomic acquire per call.

        Ordering: writers hold ``_write_lock`` when they reach this
        (write → admission), while :meth:`close` takes the two locks
        strictly in sequence, never nested — no cycle either way."""
        with self._admission_lock:
            return self._closed

    def _check_open(self) -> None:
        """Refuse writes on a closed service (called INSIDE the write
        lock): after :meth:`close` returns, the store is guaranteed
        quiescent — what lets ``repro serve`` save the durable state
        without racing a straggling connection thread's commit."""
        if self._is_closed():
            raise ServiceClosedError()

    def _checkpoint_documents(self) -> None:
        """Make an admin write durable right away (holds the write
        lock).  Commits ride the WAL; changes to the document/view
        *set* do not, so they checkpoint eagerly instead."""
        if self.checkpoint is not None:
            self.checkpoint()

    @staticmethod
    def _admitted(doc) -> dict:
        snapshot = doc.pin()
        return {"name": doc.name, "version": snapshot.version, "nodes": len(snapshot.arena)}

    def load(self, name: str, path: str, *, replace: bool = False) -> dict:
        with self._write_lock:
            self._check_open()
            doc = self.store.load(name, path, replace=replace)
            self._checkpoint_documents()
            return self._admitted(doc)

    def put(self, name: str, xml: str, *, replace: bool = False) -> dict:
        with self._write_lock:
            self._check_open()
            doc = self.store.put(name, xml, replace=replace)
            self._checkpoint_documents()
            return self._admitted(doc)

    def define_view(self, name: str, base: str, transform_text: str) -> dict:
        with self._write_lock:
            self._check_open()
            view = self.store.define_view(name, base, transform_text)
            doc_name, stack = self.store.views.stack(name)
            self._checkpoint_documents()
            return {"name": view.name, "base": view.base, "depth": len(stack),
                    "document": doc_name}

    def drop(self, name: str) -> dict:
        with self._write_lock:
            self._check_open()
            self.store.drop(name)
            self._memo.invalidate(lambda key: key[0] == name)
            self._checkpoint_documents()
            return {"name": name}

    def stage(self, name: str, transform_text: str) -> dict:
        with self._write_lock:
            self._check_open()
            depth = self.store.stage(name, transform_text)
            return {"name": name, "staged": depth}

    def commit(self, name: str, transform_text: Optional[str] = None) -> dict:
        """Apply staged updates; readers pinned to the old version are
        unaffected, new pins observe the new version.

        A spliced commit holds the document lock only to install the
        already-built arena (the splice itself runs outside it), so
        snapshot readers barely stall; memo entries whose query is
        provably label-disjoint from the delta are re-keyed onto the
        new arena uid instead of dropped.  A no-op commit (nothing
        staged) touches no cache at all.
        """
        with self._write_lock:
            self._check_open()
            delta = self.store.commit_delta(name, transform_text)
            if delta.entries == 0:
                return {
                    "name": name, "version": delta.new_version,
                    "spliced": False, "entries": 0,
                }
            if delta.spliced and delta.labels is not None and delta.new_uid:

                def remap(key):
                    if key[0] != name:
                        return key
                    if key[1] == delta.old_uid and self.store.commit_unaffected(
                        delta, key[2]
                    ):
                        return (name, delta.new_uid, key[2])
                    return None

                retained, _ = self._memo.rekey(remap)
                if retained:
                    self._count("memo_retained", retained)
            else:
                # Fallback rebuild: stale memo entries can never be
                # served again (the key is the arena uid); drop them
                # rather than waiting for LRU.
                self._memo.invalidate(lambda key: key[0] == name)
            return {
                "name": name, "version": delta.new_version,
                "spliced": delta.spliced, "entries": delta.entries,
            }

    def rollback(self, name: str, count: Optional[int] = None) -> dict:
        with self._write_lock:
            self._check_open()
            dropped = self.store.rollback(name, count)
            return {"name": name, "dropped": dropped}

    # ------------------------------------------------------------------
    # Hypothetical transforms (MVCC, read-only)
    # ------------------------------------------------------------------

    def transform(self, name: str, transform_text: str) -> str:
        """Evaluate a transform query against the pinned snapshot of
        document *name* and return the serialized result tree.

        Purely hypothetical — nothing is staged or committed — and
        lock-free: the prepared transform runs against the immutable
        arena (thawing internally as its planned strategy requires),
        so a concurrent commit cannot tear the tree being read.
        """
        if self._is_closed():
            raise ServiceClosedError()
        snapshot = self.store.pin(name)
        self._count("transforms")
        with self.tracer.trace("service.transform", target=name):
            prepared = self.engine.prepare_transform(transform_text)
            result = prepared.run(snapshot.arena)
            with span("serialize"):
                return serialize(result)

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: stop admitting, serve everything already
        queued, stop the dispatcher and worker pool, and wait out any
        in-flight write.  When this returns the store is quiescent —
        no reader or writer of this service will touch it again."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
            # Under the admission lock: once _STOP is enqueued no new
            # request can slip in behind it unserved.  (put() may block
            # on a full queue; the dispatcher drains without ever
            # taking this lock, so it always makes room.)
            self._queue.put(_STOP)
        self._dispatcher.join()
        self._workers.shutdown()
        with self._write_lock:
            # A write that was already inside the lock finishes here;
            # any writer queued behind it sees _closed and is refused.
            pass

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _count(self, key: str, amount: int = 1) -> None:
        self._counters[key].inc(amount)

    def metrics(self) -> dict:
        """The service tallies under their legacy short keys (the
        counters themselves live in the registry — see
        :data:`_METRIC_NAMES`)."""
        return {key: counter.value for key, counter in self._counters.items()}

    def traces(self, drain: bool = False, stitched: bool = False) -> list:
        """The buffered trace records (destructively when *drain*).

        With *stitched*, records sharing a trace id are reassembled
        into per-trace summaries (root, span count, orphans, well-
        formedness) — see :func:`repro.obs.stitch`.  Worker spans are
        already embedded in the service records they were spliced
        into, so a service-side stitch covers the whole server half.
        """
        records = self.tracer.drain() if drain else self.tracer.records()
        return stitch(records) if stitched else records

    def slowlog(self, drain: bool = False) -> dict:
        """The slow-query ring: buffered entries (destructively when
        *drain*) plus the log's counters."""
        return {
            "entries": self._slowlog.entries(drain=drain),
            "stats": self._slowlog.stats(),
        }

    def metrics_text(self) -> str:
        """The registry snapshot in Prometheus text exposition format
        (what ``repro serve --expose`` serves at ``/metrics``)."""
        return render_prometheus(self.registry.snapshot())

    def stats(self) -> dict:
        return {
            "service": {
                **self.metrics(),
                "mode": self._workers.mode,
                "workers": self.config.workers,
                "batch_window_ms": self.config.batch_window * 1000.0,
                "max_queue": self.config.max_queue,
                "queue_depth": self._queue.qsize(),
                "memo": self._memo.stats(),
            },
            "store": self.store.stats(),
            "metrics": self.registry.snapshot(),
            "traces": self.tracer.stats(),
            "slowlog": self._slowlog.stats(),
        }
