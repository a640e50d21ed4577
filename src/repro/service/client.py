"""``repro.service.Client`` — the line-protocol client.

Synchronous request/response over one TCP connection::

    from repro.service import Client

    with Client("127.0.0.1", 7007) as db:
        db.load("xmark", path="xmark.xml")
        rows = db.query("xmark", "for $x in people/person return $x")
        db.commit("xmark", 'transform copy $a := doc("xmark") modify '
                           "do delete $a//privacy return $a")

Server-side errors re-raise as their typed exception classes
(:class:`~repro.service.errors.OverloadedError`,
:class:`~repro.service.errors.DeadlineError`,
:class:`~repro.store.errors.StoreError`, …) so code written against an
in-process :class:`~repro.service.service.QueryService` ports across
the wire unchanged.  One client is one connection and is **not**
thread-safe — concurrency comes from many clients (each connection is
one server thread), not from sharing one.

Self-healing: transport failures split into two typed classes with
different retry contracts.  :class:`~repro.service.errors.
TransportError` means the request was never sent (the connect failed);
:class:`~repro.service.errors.ResponseLostError` means it was sent —
or may have been — and the response was lost (timeout, EOF, socket
error mid-exchange).  **Idempotent reads** (``ping``/``query``/
``stats``/``metrics``/``traces``) are retried automatically under the
client's :class:`RetryPolicy` — exponential backoff with jitter,
reconnecting a fresh socket each attempt — and raise
:class:`~repro.service.errors.RetryExhaustedError` (carrying the last
failure) when the budget runs out.  **Writes are never auto-retried**:
a lost commit may have been applied, and only the caller knows whether
re-issuing it is correct, so the typed error surfaces immediately.
An explicit :meth:`Client.close` is permanent; only transport-induced
teardown leaves the client reconnectable.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Optional

from repro.obs import Tracer, stitch
from repro.service.errors import (
    ResponseLostError,
    RetryExhaustedError,
    ServiceClosedError,
    TransportError,
    error_for,
)
from repro.service.protocol import encode_frame, read_response

__all__ = ["Client", "IDEMPOTENT_OPS", "RetryPolicy"]

#: Ops whose re-execution is observably equivalent to one execution —
#: the only ops the client will retry on its own.  (``slowlog`` with
#: ``drain`` is destructive server-side, but a retried drain that was
#: half-delivered loses entries either way — re-reading is safe.)
IDEMPOTENT_OPS = frozenset(
    {"ping", "query", "stats", "metrics", "metrics_text", "traces", "slowlog"}
)


class RetryPolicy:
    """Exponential backoff with jitter for idempotent-read retries.

    Attempt *k* (0-based retry index) sleeps
    ``min(max_delay, base_delay * 2**k)`` scaled by a random factor in
    ``[1, 1 + jitter]`` — the jitter decorrelates clients that all saw
    the same server hiccup, so they do not reconnect in lockstep.
    ``attempts=1`` disables retries entirely.
    """

    __slots__ = ("attempts", "base_delay", "max_delay", "jitter")

    def __init__(
        self,
        attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: float = 0.5,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter

    def delay(self, retry_index: int, rng: "random.Random") -> float:
        base = min(self.max_delay, self.base_delay * (2 ** retry_index))
        return base * (1.0 + self.jitter * rng.random())


class Client:
    """One connection to a running ``repro serve``."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7007,
        timeout: Optional[float] = 30.0,
        retry: Optional[RetryPolicy] = None,
        retry_seed: Optional[int] = None,
        trace_sample: int = 16,
        trace_ring: int = 64,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(retry_seed)
        #: The client half of cross-process tracing: every *sampled*
        #: query opens a **root** trace here and ships its ids in the
        #: request frame, so the server's span joins the client's
        #: trace instead of minting its own.  The same deterministic
        #: 1-in-N sampling as the server; ``0`` disables.
        self.tracer = Tracer(
            ring=trace_ring,
            sample_every=trace_sample,
            enabled=trace_sample > 0,
        )
        #: Client-local counters (``service.client.*`` when a loadgen
        #: or harness surfaces them): retries attempted, sockets
        #: reconnected, retry budgets exhausted.
        self.retry_stats = {"retries": 0, "reconnects": 0, "exhausted": 0}
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0
        self._closed = False
        self._connect()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self):
        """Establish the socket; :class:`TransportError` on failure
        (the connect phase — nothing was ever sent)."""
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rwb")
        except OSError as exc:
            self._sock = None
            self._file = None
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from None
        return self._file

    def _teardown(self) -> None:
        """Drop the socket after a transport failure.  Unlike
        :meth:`close`, the client stays usable: the next call
        reconnects."""
        file, self._file = self._file, None
        sock, self._sock = self._sock, None
        for closeable in (file, sock):
            if closeable is None:
                continue
            try:
                closeable.close()
            except OSError:
                pass

    def _call_once(self, op: str, args: dict):
        """One raw request/response round trip on the live (or a
        fresh) connection."""
        file = self._file
        if file is None:
            file = self._connect()
            self.retry_stats["reconnects"] += 1
        self._next_id += 1
        request_id = self._next_id
        frame = {"id": request_id, "op": op}
        frame.update({k: v for k, v in args.items() if v is not None})
        try:
            file.write(encode_frame(frame))
            file.flush()
            response = read_response(file)
        except ResponseLostError as exc:
            # A response cut mid-frame (the server died, or the socket
            # was reset, after part of it was sent) or one that cannot
            # be a frame: a lost response on a stream now out of step,
            # not the caller's malformed request.
            self._teardown()
            raise ResponseLostError(
                f"server at {self.host}:{self.port} {exc}"
            ) from None
        except (ConnectionError, OSError) as exc:
            # Includes socket.timeout: the request was (or may have
            # been) sent and a reply may still be in flight, so the
            # stream is desynchronized — tear the socket down rather
            # than let the next call read this request's late response.
            self._teardown()
            raise ResponseLostError(
                f"connection to {self.host}:{self.port} failed "
                f"mid-request: {exc}"
            ) from None
        if response.get("id") != request_id:  # pragma: no cover - defensive
            self._teardown()
            raise ResponseLostError(
                f"out-of-order response: sent id {request_id}, "
                f"got {response.get('id')!r}"
            )
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise error_for(error.get("code", "error"), error.get("message", "unknown"))

    def call(self, op: str, **args):
        """One request/response exchange; returns the result payload or
        raises the typed error the server answered with.

        Idempotent reads retry transport failures under the client's
        :class:`RetryPolicy`; writes surface the first typed failure.
        """
        if self._closed:
            raise ServiceClosedError("client is closed")
        if op not in IDEMPOTENT_OPS:
            return self._call_once(op, args)
        policy = self.retry
        last: Optional[Exception] = None
        for attempt in range(policy.attempts):
            if attempt:
                self.retry_stats["retries"] += 1
                time.sleep(policy.delay(attempt - 1, self._rng))
            try:
                return self._call_once(op, args)
            except (TransportError, ResponseLostError) as exc:
                last = exc
        self.retry_stats["exhausted"] += 1
        raise RetryExhaustedError(op, policy.attempts, last)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    def ping(self) -> str:
        return self.call("ping")

    def query(
        self,
        target: str,
        text: str,
        *,
        staged: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> list:
        """One read, with the client half of the end-to-end trace.

        A sampled query opens the **root** span of the whole request:
        its ``trace_id``/``parent_span`` travel in the frame, the
        server's ``service.query`` record points back at it, the
        reading of the answer is its ``decode`` span, and any
        transport retries or reconnects the exchange needed are
        stamped onto the root — :meth:`stitched` reassembles the full
        tree.
        """
        trace = self.tracer.trace("client.query", target=target, query=text)
        retries = self.retry_stats["retries"]
        reconnects = self.retry_stats["reconnects"]
        try:
            # Active, so the response reader's ``decode`` span — the
            # client's own layer — lands on this root.
            with trace.activate():
                result = self.call(
                    "query",
                    target=target,
                    text=text,
                    staged=staged or None,
                    deadline_ms=deadline_ms,
                    trace_id=trace.trace_id,
                    parent_span=trace.span_id,
                )
        except Exception as exc:
            self._stamp_transport(trace, retries, reconnects)
            trace.finish(outcome="error", error=str(exc))
            raise
        self._stamp_transport(trace, retries, reconnects)
        trace.finish(outcome="ok")
        return result

    def _stamp_transport(self, trace, retries_before: int, reconnects_before: int) -> None:
        """Record how many retries/reconnects one exchange consumed
        (only when nonzero, so clean records stay small)."""
        retried = self.retry_stats["retries"] - retries_before
        reconnected = self.retry_stats["reconnects"] - reconnects_before
        if retried:
            trace.note(retries=retried)
        if reconnected:
            trace.note(reconnects=reconnected)

    def load(
        self,
        name: str,
        *,
        path: Optional[str] = None,
        xml: Optional[str] = None,
        replace: bool = False,
    ) -> dict:
        return self.call(
            "load", name=name, path=path, xml=xml, replace=replace or None
        )

    def defview(self, name: str, base: str, transform: str) -> dict:
        return self.call("defview", name=name, base=base, transform=transform)

    def transform(self, name: str, text: str) -> str:
        return self.call("transform", name=name, text=text)

    def stage(self, name: str, text: str) -> dict:
        return self.call("stage", name=name, text=text)

    def commit(self, name: str, text: Optional[str] = None) -> dict:
        return self.call("commit", name=name, text=text)

    def rollback(self, name: str, count: Optional[int] = None) -> dict:
        return self.call("rollback", name=name, count=count)

    def stats(self) -> dict:
        return self.call("stats")

    def metrics(self) -> dict:
        """The server's metrics-registry snapshot: flat
        ``layer.component.metric`` names → values."""
        return self.call("metrics")

    def traces(self, *, drain: bool = False, stitched: bool = False) -> list:
        """The server's buffered trace records (destructively when
        *drain*; per-trace summaries when *stitched*)."""
        return self.call(
            "traces", drain=drain or None, stitched=stitched or None
        )

    def local_traces(self, *, drain: bool = False) -> list:
        """This client's own buffered root records."""
        return self.tracer.drain() if drain else self.tracer.records()

    def stitched(self, *, drain: bool = False) -> list:
        """End-to-end stitched traces: the server's records and this
        client's roots merged into per-trace trees — each well-formed
        entry is one request seen from client and service."""
        return stitch(
            self.traces(drain=drain) + self.local_traces(drain=drain)
        )

    def slowlog(self, *, drain: bool = False) -> dict:
        """The server's slow-query ring (entries + counters)."""
        return self.call("slowlog", drain=drain or None)

    def metrics_text(self) -> str:
        """The server's registry snapshot in Prometheus text format."""
        return self.call("metrics_text")

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Permanently close the client (no reconnects after this)."""
        self._closed = True
        self._teardown()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
