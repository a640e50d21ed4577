"""The concurrent query service: MVCC snapshot reads, single-flight
evaluation on the caller's thread, and admission control over one
resident :class:`~repro.store.store.ViewStore`.

Concurrency discipline — **single writer, many readers**:

* Reads never touch the store's locks while evaluating.  Each request
  *pins* its target — a document, a view or a staged preview
  (:meth:`~repro.store.store.ViewStore.pin_read`; the document lock is
  held only to read one consistent row) — then runs entirely against
  that frozen, immutable arena (see :mod:`repro.store.store` for how
  views and previews resolve to one).  Writers staging or committing
  new versions never block pinned readers and can never corrupt them:
  a commit installs the next arena and bumps the version counter, but
  the old arena object is untouched, so every in-flight reader
  finishes against exactly the version it started with.
  ``service.reads.snapshot`` counts reads served this way — all of
  them; ``service.reads.stale`` counts those whose pinned version had
  already been superseded by the time they finished — the price of
  never blocking, made visible.
* Writes (``load``/``define_view``/``stage``/``commit``/``rollback``)
  serialize on one service-wide write lock, so the store only ever
  sees a single writer.

Read path — there is one, and every read runs it, start to finish, on
the thread that called :meth:`QueryService.query` (over the wire: the
connection's thread); there is no queue, dispatcher or pool to hand it
to.  A request pins its target and looks
:func:`~repro.store.store.result_key` — ``(target, arena uid, query,
stack texts, staged texts)``, all an answer depends on — up in the
**memo**: the store's result cache, ``store.results``, the only one
there is.  A hit is answered right there: a pin and a dictionary
lookup, until the next commit changes the uid (and beyond it, when
the store's commit proves the entry still answers — as it is, or with
the items a patch landed in re-serialized — and re-keys it).  What
every read gets — hit, follower and leader alike — is the cache's own
value, one immutable :class:`~repro.store.answer.Answer`:
:meth:`QueryService.query` copies a fresh list out of it for an
in-process caller, and the wire server sends its bytes as they are
(:meth:`QueryService.answer`).

A miss is **single-flight**.  Under the admission lock it looks the
same key up in the table of evaluations in flight.  If an identical
evaluation is up, it joins it as a *follower* (counted ``coalesced``)
and is woken with the leader's answer — the same ``Answer`` object
— or its exception.  Otherwise, after one more peek at the
memo (publishing is memo first, table second, so an answer that exists
is never computed again), it registers the flight and *leads* it:
takes one of ``workers`` evaluation slots, evaluates against the read
it already pinned, puts the answer in the memo, takes the flight off
the table and wakes its followers.

Admission control: at most ``max_queue`` admitted leaders may be
waiting for a slot; the next one is shed immediately with the typed
:class:`~repro.service.errors.OverloadedError` (back-pressure, not
collapse).  A hit or a follower needs no slot and is never shed.  Each
request may carry a **deadline**: a leader still without a slot, or a
follower still without an answer, when it passes gets
:class:`~repro.service.errors.DeadlineError`; an evaluation whose
every waiter has expired by the time it gets a slot is skipped; a
leader that gives up takes its flight off the table and its unexpired
followers re-admit themselves (one of them leads).  An evaluation
cannot be abandoned once it runs, so a leader that finishes after its
own deadline reports ``DeadlineError`` to itself while the answer
still goes to the memo and to every follower in time for it.
"""
from __future__ import annotations

import threading
import time
from typing import Optional

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
from repro.service.errors import (
    DeadlineError,
    OverloadedError,
    ServiceClosedError,
)
from repro.store.answer import Answer
from repro.store.errors import StoreError
from repro.store.store import PinnedRead, ViewStore, result_key, serialized_answer
from repro.transform.arena import transform_arena
from repro.xmltree.serializer import serialize_arena

__all__ = ["QueryService", "ServiceConfig"]


class ServiceConfig:
    """Tuning knobs for a :class:`QueryService`.

    * ``workers`` — how many evaluations may run at once: slots taken
      by the calling threads (no thread is ever created).
    * ``max_queue`` — admission-control bound on requests admitted and
      waiting for an evaluation slot; beyond it a request that needs
      one is shed with :class:`~repro.service.errors.OverloadedError`.
      A memo hit, or a request that joins an identical evaluation
      already in flight, needs no slot and is never shed.
    * ``metrics`` — ``False`` disables the whole telemetry substrate
      (registry *and* tracing): every instrument becomes a shared
      no-op, the fast path ``benchmarks/bench_service.py`` measures
      the instrumented path against.
    * ``trace_sample`` — record every N-th request's lifecycle trace
      (``0`` disables tracing; the default samples 1/16 so tracing
      stays within the instrumentation-overhead budget).  A sampled
      evaluation also collects an execution profile, which rides along
      in its slow-query entry.
    * ``trace_ring`` — how many finished trace records are buffered
      (older records fall off; see the ``traces`` wire op).
    * ``slow_threshold`` — seconds of submit→finish latency beyond
      which a request is captured in the slow-query log with its full
      trace and profile (negative disables the log entirely).  The log
      keeps the last 128 entries (see the ``slowlog`` wire op).

    A request without a deadline of its own waits as long as it takes.
    """

    __slots__ = (
        "workers", "max_queue", "metrics", "trace_sample", "trace_ring",
        "slow_threshold",
    )

    def __init__(
        self,
        workers: int = 4,
        max_queue: int = 256,
        metrics: bool = True,
        trace_sample: int = 16,
        trace_ring: int = 256,
        slow_threshold: float = 0.25,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if trace_sample < 0:
            raise ValueError(f"trace_sample must be >= 0, got {trace_sample}")
        self.workers = workers
        self.max_queue = max_queue
        self.metrics = metrics
        self.trace_sample = trace_sample
        self.trace_ring = trace_ring
        self.slow_threshold = slow_threshold


class _Request:
    """One read: target, query text, deadline, trace, whether its
    answer leaves as a response frame — and, as they become known, the
    snapshot version it pinned and the seconds it waited for an
    evaluation slot (a hit or a follower needs none)."""

    __slots__ = (
        "target", "text", "staged", "deadline", "trace", "wire",
        "submitted", "version", "queue_s",
    )

    def __init__(
        self,
        target: str,
        text: str,
        staged: bool,
        deadline: Optional[float],
        trace=NULL_TRACE,
        wire: bool = False,
    ):
        self.target = target
        self.text = text
        self.staged = staged
        self.deadline = deadline  # absolute time.monotonic() instant
        #: The request's lifecycle trace (NULL_TRACE when unsampled).
        self.trace = trace
        #: The caller frames the answer (:meth:`QueryService.answer`):
        #: only such a request counts as a wire form built or reused.
        self.wire = wire
        self.submitted = time.perf_counter()
        self.version: Optional[int] = None
        self.queue_s = 0.0

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds left to wait (``None``: no deadline, wait forever)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())


class _Flight:
    """One evaluation in flight: the request that leads it and the
    identical requests that joined it.

    ``followers`` belongs to the service's admission lock while the
    flight is on the table.  The outcome fields are written by the
    leader before ``done`` is set and read by followers after it:
    ``abandoned`` (the leader gave up before evaluating — re-admit),
    else ``error`` (raise it), else ``result``.
    """

    __slots__ = (
        "leader", "has_slot", "followers", "done", "result", "error",
        "abandoned",
    )

    def __init__(self, leader: _Request, has_slot: bool):
        self.leader = leader
        #: Touched by the leader's thread only.
        self.has_slot = has_slot
        self.followers: list = []
        self.done = threading.Event()
        #: The cached answer itself, shared by every follower.
        self.result: Optional[Answer] = None
        self.error: Optional[BaseException] = None
        self.abandoned = False


class QueryService:
    """A concurrent front for one :class:`ViewStore` (see the module
    docstring for the concurrency and single-flight discipline)."""

    # guarded-by[_closed, _flights, _waiting]: self._admission_lock

    def __init__(
        self,
        store: Optional[ViewStore] = None,
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
        # One registry per service (unless injected): its snapshot is
        # what metrics() and the `metrics` wire op return, and what the
        # store's probes report into.
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
        counter = self.registry.counter
        self._requests = counter("service.requests.total")
        self._shed = counter("service.requests.shed")
        self._deadline_misses = counter("service.requests.deadline_miss")
        self._evaluations = counter("service.dispatch.evaluations")
        self._coalesced = counter("service.dispatch.coalesced")
        self._memo_hits = counter("service.dispatch.memo_hits")
        self._memo_retained = counter("service.dispatch.memo_retained")
        self._snapshot_reads = counter("service.reads.snapshot")
        self._stale_reads = counter("service.reads.stale")
        self._transforms = counter("service.reads.transform")
        self._wire_built = counter("service.wire.built")
        self._wire_reused = counter("service.wire.reused")
        #: Client-observed request latency (submit → result), seconds.
        self._latency = self.registry.histogram("service.request.latency")
        #: One observation per evaluation a leader ran.
        self._eval_latency = self.registry.histogram("service.eval.latency")
        self.store.bind_metrics(self.registry)
        self.registry.probe("service.queue.depth", self._queue_depth)
        self.registry.probe("service.trace.ring", lambda: self.tracer.stats())
        #: Any request slower than the threshold is captured here with
        #: its stitched trace and (when sampled) its execution profile.
        #: *slow_sink* additionally receives each entry as it is
        #: recorded — ``repro serve`` passes a JSONL write-through.
        self._slowlog = SlowQueryLog(
            threshold=self.config.slow_threshold if self.config.metrics else -1.0,
            sink=slow_sink,
        )
        self.registry.probe("service.slowlog.ring", self._slowlog.stats)
        self._write_lock = threading.RLock()
        # Admission: the closed flag, the table of evaluations in
        # flight (key → _Flight, keyed like its memo entry) and the
        # number of leaders waiting for a slot
        # change together under this one lock.  Nothing is evaluated
        # or waited for while it is held — close()'s wait on _drained
        # releases it.
        self._admission_lock = threading.Lock()
        self._drained = threading.Condition(self._admission_lock)
        self._closed = False
        self._flights: dict = {}
        self._waiting = 0
        #: One slot per concurrent evaluation (``config.workers``).
        self._slots = threading.Semaphore(self.config.workers)

    # ------------------------------------------------------------------
    # Reads (MVCC snapshot path, single-flight, on the caller's thread)
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
        """Answer a query as serialized strings — from the memo, from
        an identical evaluation already in flight, or by evaluating it
        right here on the calling thread.  The list is the caller's
        own: a fresh copy of the cached answer's items.

        *deadline* is seconds from now (``None``, the default: wait as
        long as it takes).  :class:`DeadlineError` is raised when
        it passes while this request waits for an evaluation slot or
        for the evaluation it joined — and, since an evaluation cannot
        be abandoned once it runs, when the evaluation this request
        itself ran finishes late (the answer still warms the memo).

        *trace_id*/*parent_span* adopt a caller-opened trace context
        (cross-process propagation from :class:`~repro.service.client.
        Client`): the service span joins that trace instead of minting
        its own id, so the client can stitch one end-to-end tree.
        """
        return list(self._read(
            target, query_text, deadline, staged, trace_id, parent_span, wire=False
        ).items)

    def answer(
        self,
        target: str,
        query_text: str,
        *,
        deadline: Optional[float] = None,
        staged: bool = False,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> Answer:
        """:meth:`query` for a caller that sends the answer on instead
        of reading it — the wire server: the cached
        :class:`~repro.store.answer.Answer` itself, shared and
        immutable, so the response is framed around its
        :meth:`~repro.store.answer.Answer.wire` form without copying
        or re-encoding the items (counted ``service.wire.built`` /
        ``service.wire.reused``)."""
        return self._read(
            target, query_text, deadline, staged, trace_id, parent_span, wire=True
        )

    def _read(
        self, target, query_text, deadline, staged, trace_id, parent_span, *, wire
    ) -> Answer:
        request = _Request(
            target, query_text, staged,
            time.monotonic() + deadline if deadline is not None else None,
            trace=self.tracer.trace(
                "service.query", trace_id=trace_id, parent_span=parent_span,
                target=target, query=query_text,
            ),
            wire=wire,
        )
        try:
            answer = self._read_snapshot(request)
        except DeadlineError:
            self._deadline_misses.inc()
            raise
        self._latency.observe(time.perf_counter() - request.submitted)
        return answer

    def query_direct(self, target: str, query_text: str) -> list:
        """The serial one-request-at-a-time reference path: pin the
        snapshot, evaluate, serialize — same MVCC read, but no
        coalescing and no memo.  This is what a naive server would do
        per request, and the baseline the service benchmarks compare
        :meth:`query` against.
        """
        if self._is_closed():
            raise ServiceClosedError()
        pinned = self.store.pin_read(target)
        self._requests.inc()
        self._snapshot_reads.inc()
        start = time.perf_counter()
        with self.tracer.trace("service.query_direct", target=target):
            answer = self._evaluate_snapshot(pinned, query_text)
        elapsed = time.perf_counter() - start
        self._evaluations.inc()
        self._eval_latency.observe(elapsed)
        self._latency.observe(elapsed)
        return list(answer.items)

    def _read_snapshot(self, request: _Request) -> Answer:  # hot-path
        """A read of any target: hit, follower or leader — each
        returns the one cached :class:`Answer`, never a copy of it.

        Each request counts exactly once, where it is answered:
        ``service.requests.total`` is the sum of the
        ``service.dispatch.{evaluations,coalesced,memo_hits}`` counters,
        and equals ``service.reads.snapshot`` over error-free reads."""
        try:
            pinned = self.store.pin_read(
                request.target, include_staged=request.staged
            )
        except StoreError as exc:
            self._check_open()
            self._requests.inc()
            self._finish(request, "error", error=str(exc))
            raise
        request.version = pinned.snapshot.version
        key = result_key(
            request.target, pinned.snapshot.uid, request.text, pinned.texts
        )
        # The memo's one counted lookup per request (admission peeks).
        cached = self.store.results.get(key)
        if cached is None:
            cached, flight = self._admit(request, key)
        else:
            self._check_open()
        self._requests.inc()
        self._snapshot_reads.inc()
        while cached is None and flight.leader is not request:
            self._follow(request, flight)
            if flight.error is not None:
                self._finish(request, "error", error=str(flight.error))
                raise flight.error
            if not flight.abandoned:
                self._coalesced.inc()
                self._finish(request, "ok", answer=flight.result)
                return flight.result
            # The leader ran out of time before it got a slot: lead
            # the evaluation, or join whoever now does.
            cached, flight = self._admit(request, key)
        if cached is not None:
            self._memo_hits.inc()
            self._finish(request, "memo", answer=cached)
            return cached
        return self._lead_snapshot(request, key, flight, pinned)

    def _admit(self, request: _Request, key: tuple) -> tuple:
        """One pass through admission for a request the memo could not
        answer.  Returns ``(cached, flight)``: an answer published
        since the caller's lookup, or the flight for *key* — one
        already up, which *request* has now joined, or a new one it
        leads (``flight.leader is request``).

        A new flight takes an evaluation slot on the spot when one is
        free; otherwise it counts against ``max_queue`` until
        :meth:`_take_slot` has waited one out."""
        with self._admission_lock:
            if self._closed:
                raise ServiceClosedError()
            flight = self._flights.get(key)
            if flight is not None:
                flight.followers.append(request)
                return None, flight
            # Leaders publish memo first, table second: with no
            # flight up, an answer that exists is in the memo.
            cached = self.store.results.peek(key)
            if cached is not None:
                return cached, None
            has_slot = self._slots.acquire(blocking=False)
            if not has_slot:
                if self._waiting >= self.config.max_queue:
                    self._shed.inc()
                    request.trace.finish(outcome="shed")
                    raise OverloadedError(
                        f"{self.config.max_queue} requests waiting for "
                        f"{self.config.workers} evaluation slots"
                    )
                self._waiting += 1
            flight = self._flights[key] = _Flight(request, has_slot)
            return None, flight

    def _take_slot(self, request: _Request, key: tuple, flight: _Flight) -> None:
        """The leader's wait for an evaluation slot; returns once
        there is both a slot and someone still in time for the answer.

        Otherwise — no slot by the leader's deadline, or every waiter
        expired — the flight comes off the table unevaluated,
        followers still in time re-admit themselves, and this raises
        :class:`DeadlineError`."""
        waited = not flight.has_slot
        if waited:
            flight.has_slot = self._slots.acquire(timeout=request.remaining())
        request.queue_s = time.perf_counter() - request.submitted
        request.trace.record_span("queue", request.queue_s)
        now = time.monotonic()
        with self._admission_lock:
            if waited:
                self._waiting -= 1
            wanted = flight.has_slot and not all(
                waiter.expired(now) for waiter in (request, *flight.followers)
            )
            if not wanted:
                self._pop(key, flight)
        if wanted:
            return
        if flight.has_slot:
            self._slots.release()
        flight.abandoned = True
        flight.done.set()
        self._finish(request, "deadline")
        raise DeadlineError("expired waiting for an evaluation slot")

    def _pop(self, key: tuple, flight: _Flight) -> list:  # holds: self._admission_lock
        """Take *flight* off the table; returns the followers it had
        (from here on nobody can join it, and a follower that times
        out knows its answer is on the way)."""
        del self._flights[key]
        if self._closed and not self._flights:
            self._drained.notify_all()
        followers, flight.followers = flight.followers, ()
        return followers

    def _land(
        self, key: tuple, flight: _Flight,
        result: Optional[Answer] = None, error: Optional[BaseException] = None,
    ) -> list:
        """Take the evaluated *flight* off the table and wake its
        followers with the outcome; returns them."""
        with self._admission_lock:
            followers = self._pop(key, flight)
        flight.result, flight.error = result, error
        flight.done.set()
        return followers

    def _lead_snapshot(
        self, request: _Request, key: tuple, flight: _Flight, pinned: PinnedRead
    ) -> Answer:
        """Evaluate the flight *request* registered, on this thread,
        against the read it pinned; publish memo first, table second,
        then wake the followers."""
        self._take_slot(request, key, flight)
        try:
            try:
                answer, profile = self._evaluate(pinned, request)
            finally:
                self._slots.release()
        except BaseException as exc:
            # Every waiter gets the leader's exception; nothing is
            # memoised and no flight is left behind.
            self._land(key, flight, error=exc)
            self._finish(request, "error", error=str(exc))
            raise
        self.store.results.put(key, answer)
        self._evaluations.inc()
        followers = self._land(key, flight, result=answer)
        # Stale-read accounting: did a commit supersede the pinned
        # version while we were answering from it?
        snapshot = pinned.snapshot
        try:
            current = self.store.documents.get(snapshot.name).version
        except StoreError:  # document dropped mid-flight
            current = snapshot.version
        if current != snapshot.version:
            self._stale_reads.inc(1 + len(followers))
        self._finish_led(request, "ok", profile, answer, coalesced=len(followers))
        return answer

    def _follow(self, request: _Request, flight: _Flight) -> None:
        """Wait for the flight *request* joined to come off the table,
        or for the request's own deadline."""
        began = time.perf_counter()
        landed = flight.done.wait(request.remaining())
        if not landed:
            with self._admission_lock:
                # Already popped: the wake-up is on its way.
                landed = request not in flight.followers
                if not landed:
                    flight.followers.remove(request)
            if landed:
                flight.done.wait()
        request.trace.record_span("follow", time.perf_counter() - began)
        if landed and not (flight.abandoned and request.expired(time.monotonic())):
            return
        self._finish(request, "deadline")
        raise DeadlineError("expired waiting for an identical evaluation")

    def _evaluate(self, pinned: PinnedRead, request: _Request) -> tuple:
        """The leader's evaluation of any target, on this thread,
        profiled or not; returns ``(answer, profile)``.  Only the
        leader's trace carries the scan/serialize spans."""
        begin = time.perf_counter()
        trace = request.trace
        profile = None
        if trace.sampled:
            # A sampled request pays for an execution profile too: an
            # unpruned arena scan would visit every element below the
            # root (what select_indices can step), and the scan loop
            # fills in the actual visit/prune/skip counts.
            prof = Profile()
            prof.set_plan("scan", pinned.snapshot.arena.n_elements - 1)
            with trace.activate(), profiled(prof):
                answer = self._evaluate_snapshot(pinned, request.text)
            profile = prof.snapshot()
        else:
            answer = self._evaluate_snapshot(pinned, request.text)
        self._eval_latency.observe(time.perf_counter() - begin)
        return answer, profile

    def _finish_led(
        self, request: _Request, outcome: str,
        profile: Optional[dict], answer: Answer, **meta,
    ) -> None:
        """Finish a leader whose evaluation succeeded — as a deadline
        miss when it took the leader past its own deadline (everyone
        else already has the answer)."""
        if request.expired(time.monotonic()):
            self._finish(request, "deadline", profile)
            raise DeadlineError("evaluation finished after the deadline")
        self._finish(request, outcome, profile, answer, **meta)

    def _finish(
        self, request: _Request, outcome: str,
        profile: Optional[dict] = None, answer: Optional[Answer] = None,
        **meta,
    ) -> None:
        """Close *request*'s trace with *outcome* (+ *meta*) and, when
        its submit→finish latency crossed the threshold, capture it in
        the slow-query log with the full trace record (None for
        unsampled requests — the counters still tell the story).

        *answer* is what a request that succeeded hands back; when the
        caller is about to frame it, whether the entry already holds
        its wire form is counted and stamped here — the one probe the
        wire layer adds to a hit."""
        if answer is not None and request.wire:
            held = answer.holds_wire
            meta["wire"] = "reused" if held else "built"
            (self._wire_reused if held else self._wire_built).inc()
        request.trace.finish(outcome=outcome, **meta)
        dur = time.perf_counter() - request.submitted
        if not self._slowlog.should_record(dur):
            return
        self._slowlog.record({
            "ts": time.time(),
            "target": request.target,
            "query": request.text,
            "outcome": outcome,
            "dur_ms": round(dur * 1000.0, 3),
            "queue_ms": round(request.queue_s * 1000.0, 3),
            "snapshot_version": request.version,
            "coalesced": meta.get("coalesced", 0),
            "wire": meta.get("wire"),
            "trace": request.trace.record,
            "profile": profile,
        })

    def _evaluate_snapshot(self, pinned: PinnedRead, text: str) -> Answer:
        """One arena read, lock-free: compiled artifacts come from the
        store's (thread-safe) compiled cache, evaluation runs over the
        immutable arena the pinned read resolves to, matches serialize
        straight from the columns."""
        arena, _, refs = self.store.evaluate(pinned, text)
        return serialized_answer(
            pinned, arena, refs, self.store.compiled.user_query(text)
        )

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

    def _queue_depth(self) -> int:
        """Requests admitted and waiting for an evaluation slot."""
        with self._admission_lock:
            return self._waiting

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

        A commit holds the document lock only to install the
        already-built arena (the splice itself runs outside it), so
        snapshot readers barely stall; the store moves the memo entries
        the delta provably left answerable onto the new arena uid —
        as they are, or with the items a patch landed in re-serialized
        — and drops the rest (``service.dispatch.memo_retained`` sums
        what it kept).  A no-op commit (nothing staged) touches no cache
        at all.
        """
        with self._write_lock:
            self._check_open()
            delta = self.store.commit_delta(name, transform_text)
            retained = delta.results_kept + delta.results_patched
            if retained:
                self._memo_retained.inc(retained)
            return {"name": name, "version": delta.new_version, "entries": delta.entries}

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
        lock-free: the query compiled into the store's cache, the
        select + splice kernel over the immutable arena, then the
        columnar serializer on the arena it returns; no tree is built,
        so there is no strategy to choose.
        """
        if self._is_closed():
            raise ServiceClosedError()
        snapshot = self.store.pin(name)
        self._transforms.inc()
        compiled = self.store.compiled
        with self.tracer.trace("service.transform", target=name):
            query = compiled.transform(transform_text)
            nfa = compiled.selecting_nfa_for(query.path)
            result = transform_arena(snapshot.arena, query.update, nfa).arena
            with span("serialize"):
                return serialize_arena(result)

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: stop admitting, wait until every flight
        already admitted has come off the table, and wait out any
        in-flight write.  When this returns the store is quiescent —
        no reader or writer of this service will touch it again."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
            while self._flights:
                self._drained.wait()
        with self._write_lock:
            # A write that was already inside the lock finishes here;
            # any writer queued behind it sees _closed and is refused.
            pass

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def metrics(self) -> dict:
        """Every count the service and its store keep: the registry
        snapshot, flat ``layer.component.metric`` names — the one place
        a counter is published, and what the ``metrics`` wire op
        returns."""
        return self.registry.snapshot()

    def traces(self, drain: bool = False, stitched: bool = False) -> list:
        """The buffered trace records (destructively when *drain*).

        With *stitched*, records sharing a trace id are reassembled
        into per-trace summaries (root, span count, orphans, well-
        formedness) — see :func:`repro.obs.stitch`.
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
        """State, not counts: the service's configuration and the
        store's :meth:`~repro.store.store.ViewStore.stats` (the counts
        are :meth:`metrics`)."""
        return {
            "service": {
                "workers": self.config.workers,
                "max_queue": self.config.max_queue,
            },
            "store": self.store.stats(),
        }
