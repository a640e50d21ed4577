"""The opt-in process pool for the query service's snapshot reads.

In the default ``mode="thread"`` there is no executor at all: the
request that leads an evaluation runs it on its own thread (see
:mod:`repro.service.service`).  Arena reads release no locks and
allocate little, the GIL caps CPU parallelism either way, and
single-flight coalescing plus the result memo — not raw parallel
scanning — is where that mode's throughput comes from.

``mode="process"`` is for CPU-parallel scans of large documents: the
leader ships its one query to a worker process and blocks on the
answer.  A :class:`FrozenDocument` cannot cross the process boundary
directly (its symbol table carries a lock), so the parent ships the
arena as a pickled **column payload**
(:meth:`~repro.xmltree.arena.FrozenDocument.columns`) and each worker
rebuilds — and caches — the arena on its side
(:func:`~repro.xmltree.arena.arena_from_columns`), re-interning
symbols through its own process-wide table so the automata it compiles
locally line up.  Shipping the columns is paid at most once per arena
per worker: the parent first sends a bare reference — the snapshot's
process-unique arena ``uid``, never the ambiguous ``(name, version)``
pair, which a drop-and-reload can reuse — and only re-sends with
columns when a worker answers that it has not seen that arena yet.
Workers are started with the ``spawn`` method: the service is
inherently multi-threaded by the time reads flow, and forking a
threaded parent can clone held locks into the child.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from typing import Optional

from repro.faults import fault_point
from repro.service.errors import ServiceError

__all__ = ["ProcessWorkers"]

#: Per-worker-process arena cache: (name, arena uid) → FrozenDocument.
#: Bounded — a long-lived pool serving many documents must not pin
#: every version it ever rebuilt.
_WORKER_ARENA_CAP = 4
_worker_arenas: "OrderedDict[tuple, object]" = OrderedDict()

#: Sentinel result meaning "ship me the columns and ask again".
NEED_COLUMNS = "need-columns"


def _worker_evaluate(
    name: str,
    uid: int,
    columns: Optional[dict],
    text: str,
    trace_ctx: Optional[dict] = None,
):
    """Run in a worker process: evaluate the FLWR query *text* over
    the arena the parent pinned as (name, uid), serialized straight
    from the columns.

    Returns ``(NEED_COLUMNS, None, [])`` when the arena is not cached
    here and *columns* were not shipped; otherwise ``("ok", serialized
    strings, spans)`` or, for a malformed query, ``("error", message,
    spans)`` — exceptions cross the process boundary as their message
    (custom ``__init__`` signatures make many of this package's errors
    unpicklable).  Compiled artifacts come from this process's own
    default engine, so repeated texts pay zero recompilation exactly
    like the parent would.

    *trace_ctx* is the propagated trace context (``{"trace": id,
    "parent_span": span id}``) of a sampled request: its evaluation is
    timed here and returned as one span record minted with **this
    worker's** process token, so the parent can splice it into the
    request trace without any risk of id collision.
    """
    from repro.automata.arena_run import serialize_arena_items
    from repro.engine import default_engine
    from repro.xmltree.arena import arena_from_columns
    from repro.xquery.arena_eval import ArenaEvaluator

    # Chaos hook: REPRO_FAULTS in the (inherited) environment arms this
    # in every spawned worker — crash mode kills the worker process,
    # exercising the parent's respawn path.
    fault_point("service.worker.evaluate")
    key = (name, uid)
    arena = _worker_arenas.get(key)
    if arena is None:
        if columns is None:
            return NEED_COLUMNS, None, []
        arena = arena_from_columns(columns)
        _worker_arenas[key] = arena
        while len(_worker_arenas) > _WORKER_ARENA_CAP:
            _worker_arenas.popitem(last=False)
    else:
        _worker_arenas.move_to_end(key)
    engine = default_engine()
    evaluator = ArenaEvaluator(arena, engine.cache.selecting_nfa_for)
    begin = time.perf_counter()
    try:
        refs = evaluator.evaluate_refs(engine.cache.user_query(text))
        outcome = ("ok", serialize_arena_items(arena, refs))
    except ValueError as exc:
        outcome = ("error", str(exc))
    spans = [_worker_span(trace_ctx, begin)] if trace_ctx is not None else []
    return (*outcome, spans)


def _worker_span(ctx: dict, begin: float) -> dict:
    """One worker-side evaluation span record, minted with this
    process's token (see :func:`repro.obs.trace.new_span_id`)."""
    import os

    from repro.obs import new_span_id, process_token

    return {
        "name": "worker.evaluate",
        "span_id": new_span_id(),
        "parent_span": ctx.get("parent_span"),
        "proc": process_token(),
        "pid": os.getpid(),
        "start_us": 0,  # remote clock: offsets are not comparable
        "dur_us": int((time.perf_counter() - begin) * 1e6),
        "depth": 1,
    }


class ProcessWorkers:
    """The opt-in CPU-parallel executor: a process pool the leader of
    each evaluation ships its query to.  Snapshots reach workers by
    the two-step column-payload protocol described in the module
    docstring.

    Self-healing: a crashed worker breaks the whole
    ``ProcessPoolExecutor`` (every pending and future submission raises
    ``BrokenProcessPool``), so :meth:`evaluate` replaces a broken pool
    with a fresh one and retries — the evaluation is a pure read over
    a pinned snapshot, so re-running it is always safe.  The restart
    budget is bounded: a pool that keeps dying (a deterministic crasher
    would otherwise respawn forever) exhausts it and surfaces a typed
    :class:`ServiceError` instead.
    """

    # guarded-by[processes, _generation, _restarts_left, restarts]: self._respawn_lock

    def __init__(self, workers: int, restart_budget: int = 3):
        self._workers = workers
        self._respawn_lock = threading.Lock()
        self._generation = 0
        self._restarts_left = restart_budget
        #: Pools respawned after a worker crash (probed as
        #: ``service.workers.restarts``).
        self.restarts = 0
        try:
            self.processes = self._spawn_pool()
        except (OSError, ImportError) as exc:  # pragma: no cover - sandboxed hosts
            raise ServiceError(f"process worker pool unavailable: {exc}") from exc
        self._columns_lock = threading.Lock()
        self._columns_cache: "OrderedDict[tuple, dict]" = OrderedDict()  # guarded-by: self._columns_lock

    def _spawn_pool(self):
        import multiprocessing

        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: by the time reads reach this pool the
        # parent is running connection threads, and forking a
        # threaded process can clone a held lock (symbol table, LRU)
        # into the child, deadlocking the first evaluation.  The cost
        # is a one-time interpreter start per worker.
        context = multiprocessing.get_context("spawn")
        return ProcessPoolExecutor(
            max_workers=self._workers, mp_context=context
        )

    def _respawn(self, generation: int) -> None:
        """Replace the broken pool (at most once per generation: racing
        leaders that all saw the same breakage respawn one pool, not
        one each) or raise when the budget is spent."""
        stale = None
        with self._respawn_lock:
            if self._generation == generation:
                if self._restarts_left <= 0:
                    raise ServiceError(
                        "process worker pool crashed and the restart "
                        "budget is exhausted"
                    )
                stale, self.processes = self.processes, self._spawn_pool()
                self._generation += 1
                self._restarts_left -= 1
                self.restarts += 1
        if stale is not None:
            stale.shutdown(wait=False)

    def _columns_for(self, snapshot) -> dict:
        key = (snapshot.name, snapshot.uid)
        with self._columns_lock:
            found = self._columns_cache.get(key)
            if found is None:
                found = snapshot.arena.columns()
                self._columns_cache[key] = found
                while len(self._columns_cache) > _WORKER_ARENA_CAP:
                    self._columns_cache.popitem(last=False)
        return found

    def _evaluate_once(self, pool, snapshot, text: str, trace_ctx: Optional[dict]):
        # First try by reference — the worker may already hold this
        # arena (keyed by its process-unique uid); ship the columns
        # only when it says so.  The trace context rides along both
        # times: it is two small strings.
        status, value, spans = pool.submit(
            _worker_evaluate, snapshot.name, snapshot.uid, None, text, trace_ctx
        ).result()
        if status == NEED_COLUMNS:
            status, value, spans = pool.submit(
                _worker_evaluate,
                snapshot.name,
                snapshot.uid,
                self._columns_for(snapshot),
                text,
                trace_ctx,
            ).result()
        if status == "error":
            # Crossed the boundary as its message; rebuilt here for
            # the leader to raise (and hand to its followers).
            raise ValueError(value)
        if status != "ok":  # pragma: no cover - defensive
            raise ServiceError(f"process worker returned {status!r}")
        return value, spans

    def evaluate(self, snapshot, text: str, trace_ctx: Optional[dict] = None) -> tuple:
        """Evaluate *text* over *snapshot* in a worker process and
        block for the answer.  Returns ``(result, spans, retries)``:
        the serialized strings, the worker-minted span records (empty
        unless *trace_ctx* was given) and how many pool
        respawn-and-retry rounds the call survived.  A malformed query
        raises :class:`ValueError`."""
        retries = 0
        while True:
            with self._respawn_lock:
                generation = self._generation
                pool = self.processes
            try:
                return (*self._evaluate_once(pool, snapshot, text, trace_ctx), retries)
            except BrokenExecutor:
                # A worker died mid-evaluation (OOM kill, segfault,
                # injected crash).  Replace the pool — bounded by the
                # restart budget — and re-run: a pure snapshot read, so
                # the retry observes exactly the same state.  The spans
                # of the dead attempt die with the worker; the retry
                # count survives on the stitched trace.
                self._respawn(generation)
                retries += 1

    def shutdown(self) -> None:
        with self._respawn_lock:
            pool = self.processes
        pool.shutdown(wait=True)
