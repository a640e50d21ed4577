"""The TCP line-protocol server: many client connections, one
:class:`~repro.service.service.QueryService`.

One daemon thread per connection (``socketserver.ThreadingTCPServer``)
reads newline-delimited JSON frames and answers in order on the same
connection (a ``query`` answer as a header line and its body).  Every query runs start to finish on the connection
thread itself, inside ``service.query`` — answered from the memo,
from an identical evaluation another connection is already running, or
by evaluating it right there — so the connection thread is the only
thing between a socket and the store: the server adds no queueing of
its own on top of the service's admission control, and bounds what it
will read as one frame (:data:`MAX_FRAME_BYTES`).

Graceful shutdown (:meth:`ServiceServer.stop`): stop accepting, wake
the accept loop, let in-flight requests finish (``service.close``
waits for them), then release the port.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Optional

from repro.faults import InjectedFault, fault_point
from repro.service.protocol import (
    decode_line,
    encode_response,
    handle_request,
)
from repro.service.errors import BadRequestError
from repro.service.service import QueryService

__all__ = ["MAX_FRAME_BYTES", "ServiceServer"]

#: The longest request line the server reads (newline included): room
#: for a ``load`` frame with a large inline ``xml``, but a peer that
#: never sends a newline cannot grow the server without bound.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read frames until EOF, answer each in order."""

    def handle(self) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(MAX_FRAME_BYTES)
            except (ConnectionError, OSError):
                return
            if not line:
                return  # client closed the connection
            if not line.strip():
                continue  # blank keep-alive line
            # A full read that still lacks its newline is a cut-off
            # frame: answer once, then hang up — the rest of the line
            # cannot be told apart from the next frame.
            oversized = len(line) == MAX_FRAME_BYTES and not line.endswith(b"\n")
            request_id = result = error = None
            try:
                if oversized:
                    raise BadRequestError(
                        f"frame longer than {MAX_FRAME_BYTES} bytes"
                    )
                frame = decode_line(line)
                request_id = frame.get("id")
                result = handle_request(service, frame)
            except Exception as exc:  # noqa: BLE001 - every error becomes a frame
                error = exc
            try:
                # Chaos hook: the request has been *executed* (a commit
                # is already durable in the WAL) but not yet answered —
                # crash mode here is the acked-vs-durable gap the
                # client's retry taxonomy exists for.
                fault_point("wire.response.pre_send")
            except InjectedFault as exc:
                error = exc
            try:
                # A cached answer leaves as a header line and the body
                # its entry holds, in one sendall (wfile is unbuffered).
                self.wfile.write(encode_response(request_id, result, error))
                self.wfile.flush()
            except (ConnectionError, OSError, ValueError):
                return  # client went away mid-response
            if oversized:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class ServiceServer:
    """Bind, serve, and shut down a :class:`QueryService` over TCP.

    ``port=0`` binds an ephemeral port — read the real one from
    :attr:`address` (what the tests and the CLI's ``--port-file`` do).
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)``."""
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._tcp.serve_forever(poll_interval=0.1)

    def start(self) -> tuple:
        """Serve on a background thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self, close_service: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, release the port."""
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if close_service:
            self.service.close()

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
