"""Query-lifecycle tracing: per-request traces of nested spans.

A :class:`Trace` is one request's timeline.  Code inside the request
opens **spans** — ``span("plan")``, ``span("compile")`` (one per
compiled-cache miss, wherever it happens: a scan that meets a new path
shows it nested), ``span("scan")``, ``span("serialize")`` — and each
records its start offset, duration and nesting depth.  When the trace finishes, its
record (a plain JSON-serializable dict) lands in the owning
:class:`Tracer`'s ring buffer, from which it can be dumped as JSON
lines (:meth:`Tracer.dump_jsonl`) or fetched over the service's wire
protocol (the ``traces`` op).

Two ways to open a span:

* ``trace.span("scan")`` — explicit, when the trace object is at hand.
* :func:`span` (module level) — resolves the calling thread's *active*
  trace.  Deep engine code (the planner, prepared statements, the
  arena serializer) uses this form so tracing needs no signature
  changes: when no trace is active — the overwhelmingly common case —
  it returns a shared no-op singleton and costs one thread-local read.

Activation: ``with trace:`` activates on the current thread and
finishes on exit (the request-scoped form); ``with trace.activate():``
activates without finishing (how the service attaches a leader's
evaluation spans to the request trace, which it finishes later).

Sampling is deterministic — every *N*-th trace records, the rest are
the shared :data:`NULL_TRACE` — so overhead scales down without a
random-number draw on the hot path.

Trace ids are **process-unique strings** ``"<token>-<seq>"`` where the
token mixes the pid with random bytes drawn at import: two tracers in
different processes (a client and its server) can never mint the same
id, so records from both processes of one request merge into a single
tree.  A trace created with an explicit ``trace_id`` (propagated over
the wire) *adopts* it — the upstream sampling decision travels with
the id.
Every trace also carries a ``span_id`` and optional ``parent_span``,
which is what :func:`stitch` uses to reassemble the cross-process
parent/child tree.

Trace record schema (one JSON line each)::

    {"trace": "3f2a1b-7", "name": "service.query",
     "span_id": "3f2a1b-s9", "parent_span": "91c4e0-s2",
     "start": 1754650000.123, "dur_us": 1834,
     "meta": {"target": "xmark"},
     "spans": [{"name": "queue", "start_us": 0, "dur_us": 210, "depth": 0},
               {"name": "scan",  "start_us": 215, "dur_us": 1500, "depth": 0},
               {"name": "plan",  "start_us": 220, "dur_us": 12,  "depth": 1}]}

Spans are listed in *completion* order; sort by ``start_us`` for the
timeline, use ``depth`` for nesting.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Union

__all__ = [
    "NULL_SPAN",
    "NULL_TRACE",
    "Trace",
    "Tracer",
    "current_trace",
    "new_span_id",
    "process_token",
    "span",
    "stitch",
]

_active = threading.local()

#: Per-process token prefixed onto every trace/span id.  pid alone is
#: not enough (pids recycle across restarted servers and clients); the
#: random suffix makes collisions across any two live or dead processes
#: vanishingly unlikely.
_PROCESS_TOKEN = f"{os.getpid():x}{os.urandom(3).hex()}"

_span_seq_lock = threading.Lock()
_span_seq = 0


def process_token() -> str:
    """This process's id-prefix token (stable for the process lifetime)."""
    return _PROCESS_TOKEN


def new_span_id() -> str:
    """Mint a process-unique span id (``"<token>-s<seq>"``)."""
    global _span_seq
    with _span_seq_lock:
        _span_seq += 1
        return f"{_PROCESS_TOKEN}-s{_span_seq}"


def current_trace() -> Optional["Trace"]:
    """The trace active on the calling thread, or None."""
    return getattr(_active, "trace", None)


# hot-path
def span(name: str) -> "Union[_SpanContext, _NullSpan]":
    """A span on the calling thread's active trace (no-op without one).

    The form deep engine code uses: ``with span("plan"): …`` costs one
    thread-local read when tracing is off.
    """
    trace = getattr(_active, "trace", None)  # unguarded: one thread-local read is the documented cost of the off path
    if trace is None:
        return NULL_SPAN
    return trace.span(name)


class _NullSpan:
    """Shared no-op span: entering and exiting touches nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":  # hot-path
        return self

    def __exit__(self, *exc_info: object) -> bool:  # hot-path
        return False


NULL_SPAN = _NullSpan()


class _NullTrace:
    """Shared no-op trace handed out for unsampled requests: every
    operation is accepted and discarded, so call sites never branch on
    whether their request was sampled."""

    __slots__ = ()

    sampled = False
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span: Optional[str] = None
    record: Optional[Dict[str, Any]] = None

    def span(self, name: str) -> _NullSpan:  # hot-path
        return NULL_SPAN

    def record_span(self, name: str, dur: float, start: Optional[float] = None, depth: int = 0) -> None:  # hot-path
        pass

    def note(self, **meta: Any) -> None:  # hot-path
        pass

    def activate(self) -> _NullSpan:  # hot-path
        return NULL_SPAN  # enter/exit no-op, reused as a null context

    def finish(self, **meta: Any) -> None:  # hot-path
        pass

    def __enter__(self) -> "_NullTrace":  # hot-path
        return self

    def __exit__(self, *exc_info: object) -> bool:  # hot-path
        return False


NULL_TRACE = _NullTrace()


class _SpanContext:
    """One open span; appends its record to the trace on exit."""

    __slots__ = ("trace", "name", "_start", "_depth")

    def __init__(self, trace: "Trace", name: str):
        self.trace = trace
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self._depth = self.trace._enter_span()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        end = time.perf_counter()
        self.trace._exit_span(self.name, self._start, end, self._depth)
        return False


class _Activation:
    """Context manager that makes a trace the thread's active trace,
    restoring whatever was active before on exit."""

    __slots__ = ("trace", "_previous")

    def __init__(self, trace: "Trace"):
        self.trace = trace

    def __enter__(self) -> "Trace":
        self._previous = getattr(_active, "trace", None)
        _active.trace = self.trace
        return self.trace

    def __exit__(self, *exc_info: object) -> bool:
        _active.trace = self._previous
        return False


class Trace:
    """One request's timeline of spans (see the module docstring)."""

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_span", "meta",
        "started_at", "_t0", "_lock", "_spans", "_depth", "_finished",
        "_record_out", "_activations",
    )

    # guarded-by[meta, _spans, _depth, _finished, _record_out]: self._lock
    # unguarded[_activations]: only touched by __enter__/__exit__ on the thread using the trace as a context manager (thread-confined by contract)

    sampled = True

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        trace_id: str,
        meta: Dict[str, Any],
        parent_span: Optional[str] = None,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_span = parent_span
        self.meta = dict(meta)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._depth = 0
        self._finished = False
        self._record_out: Optional[Dict[str, Any]] = None
        self._activations: List[_Activation] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        return _SpanContext(self, name)

    def _enter_span(self) -> int:
        with self._lock:
            depth = self._depth
            self._depth += 1
            return depth

    def _exit_span(self, name: str, start: float, end: float, depth: int) -> None:
        record: Dict[str, Any] = {
            "name": name,
            "start_us": int((start - self._t0) * 1e6),
            "dur_us": int((end - start) * 1e6),
            "depth": depth,
        }
        with self._lock:
            self._depth = depth
            self._spans.append(record)

    def record_span(
        self,
        name: str,
        dur: float,
        start: Optional[float] = None,
        depth: int = 0,
    ) -> None:
        """Record a span measured externally: *dur* seconds, starting
        at *start* (a ``time.perf_counter()`` instant; default: *dur*
        seconds ago).  How the service accounts queue wait measured on
        a different thread than the one that evaluates."""
        now = time.perf_counter()
        begin = start if start is not None else now - dur
        record: Dict[str, Any] = {
            "name": name,
            "start_us": int((begin - self._t0) * 1e6),
            "dur_us": int(dur * 1e6),
            "depth": depth,
        }
        with self._lock:
            self._spans.append(record)

    def note(self, **meta: Any) -> None:
        """Attach metadata to the trace record (merged on finish)."""
        with self._lock:
            self.meta.update(meta)

    @property
    def record(self) -> Optional[Dict[str, Any]]:
        """The finished trace record, or None while still open.  Lets
        the slow-query log embed the full trace without re-fetching it
        from the tracer's ring."""
        with self._lock:
            return self._record_out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def activate(self) -> _Activation:
        """Make this trace the calling thread's active trace (without
        finishing it on exit)."""
        return _Activation(self)

    def finish(self, **meta: Any) -> None:
        """Close the trace and push its record to the tracer's ring.
        Idempotent — only the first call records."""
        end = time.perf_counter()
        with self._lock:
            if self._finished:
                return
            self._finished = True
            if meta:
                self.meta.update(meta)
            record: Dict[str, Any] = {
                "trace": self.trace_id,
                "name": self.name,
                "span_id": self.span_id,
                "start": self.started_at,
                "dur_us": int((end - self._t0) * 1e6),
                "meta": dict(self.meta),
                "spans": list(self._spans),
            }
            if self.parent_span is not None:
                record["parent_span"] = self.parent_span
            self._record_out = record
        if self.tracer is not None:
            self.tracer._record(record)

    def __enter__(self) -> "Trace":
        activation = _Activation(self)
        activation.__enter__()
        self._activations.append(activation)
        return self

    def __exit__(self, exc_type: object, exc: Optional[BaseException], tb: object) -> bool:
        if self._activations:
            self._activations.pop().__exit__(exc_type, exc, tb)
        if exc is not None:
            self.note(error=str(exc))
        self.finish()
        return False


class Tracer:
    """Creates traces, samples them, and keeps finished records in a
    bounded ring buffer.

    * ``sample_every=N`` records every N-th trace (1 = all); ``0`` or
      ``enabled=False`` disables tracing entirely — every request gets
      the shared :data:`NULL_TRACE`.
    * ``ring`` bounds the record buffer; old records fall off the far
      end (``dropped`` counts them).
    """

    # guarded-by[_ring, _seq, _recorded, _dropped]: self._lock

    def __init__(self, ring: int = 256, sample_every: int = 1, enabled: bool = True):
        if ring < 1:
            raise ValueError(f"ring must be positive, got {ring}")
        if sample_every < 0:
            raise ValueError(f"sample_every must be >= 0, got {sample_every}")
        self.enabled = enabled and sample_every > 0
        self.sample_every = max(1, sample_every)
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=ring)
        self._seq = 0
        self._recorded = 0
        self._dropped = 0

    # ------------------------------------------------------------------

    def trace(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
        **meta: Any,
    ) -> Trace:
        """Begin a trace (or hand back :data:`NULL_TRACE` when this one
        is not sampled).

        An explicit *trace_id* is a **propagated** context: some
        upstream process already decided to sample this request, so the
        local sampling counter is bypassed and the new trace adopts the
        id (its record will stitch into the upstream tree through
        *parent_span*).  Tracing disabled outright still wins.
        """
        if not self.enabled:
            return NULL_TRACE  # type: ignore[return-value]
        if trace_id is not None:
            return Trace(self, name, trace_id, meta, parent_span=parent_span)
        with self._lock:
            self._seq += 1
            seq = self._seq
        if (seq - 1) % self.sample_every:
            return NULL_TRACE  # type: ignore[return-value]
        return Trace(self, name, f"{_PROCESS_TOKEN}-{seq}", meta)

    def _record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(record)
            self._recorded += 1

    # ------------------------------------------------------------------
    # Reading the ring
    # ------------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """The buffered trace records, oldest first (non-destructive)."""
        with self._lock:
            return list(self._ring)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return every buffered record."""
        with self._lock:
            out = list(self._ring)
            self._ring.clear()
            return out

    def dump_jsonl(self) -> str:
        """The buffered records as newline-delimited JSON."""
        return "\n".join(json.dumps(r, separators=(",", ":")) for r in self.records())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "sample_every": self.sample_every,
                "started": self._seq,
                "recorded": self._recorded,
                "buffered": len(self._ring),
                "dropped": self._dropped,
            }


def stitch(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reassemble flat trace records (possibly from several processes)
    into per-trace stitched summaries.

    Records sharing a ``trace`` id — the client's root record and the
    service's child record — become one entry::

        {"trace": "<id>",
         "records": [...],            # finished records, oldest first
         "root": {...} | None,        # the record with no parent_span
         "span_count": 17,
         "orphan_spans": [...],       # parent_span points nowhere
         "well_formed": True}         # exactly one root, no orphans

    A record in the ring is finished by construction, so ``root is not
    None`` doubles as "the root finished".  Orphans are records whose
    ``parent_span`` names a span id that appears nowhere in the trace
    — the signature of a parent that died before finishing, e.g. a
    client killed mid-request.
    """
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for rec in records:
        tid = str(rec.get("trace"))
        by_trace.setdefault(tid, []).append(rec)
    out: List[Dict[str, Any]] = []
    for tid in sorted(by_trace):
        recs = sorted(by_trace[tid], key=lambda r: float(r.get("start", 0.0)))
        # Only records carry ids: the spans inside one are its own.
        known: Set[str] = {rec["span_id"] for rec in recs if rec.get("span_id")}
        roots = [r for r in recs if not r.get("parent_span")]
        orphans: List[Dict[str, Any]] = [
            {"name": rec.get("name"), "parent_span": rec["parent_span"]}
            for rec in recs
            if rec.get("parent_span") and rec["parent_span"] not in known
        ]
        span_count = sum(len(rec.get("spans", ())) for rec in recs)
        out.append(
            {
                "trace": tid,
                "records": recs,
                "root": roots[0] if len(roots) == 1 else None,
                "span_count": span_count,
                "orphan_spans": orphans,
                "well_formed": len(roots) == 1 and not orphans,
            }
        )
    return out
