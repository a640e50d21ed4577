"""The service's protocol: one JSON object per ``\\n``-terminated
line in both directions, except that a ``query`` answer carries its
items after its line as a length-prefixed body.

Request frames::

    {"id": 1, "op": "query", "target": "xmark",
     "text": "for $x in people/person return $x",
     "staged": false, "deadline_ms": 250}

``id`` is echoed back verbatim (any JSON scalar); ``deadline_ms`` is
optional.  Response frames::

    {"id": 1, "ok": true, "result": {"name": "xmark", "version": 2}}
    {"id": 1, "ok": false,
     "error": {"code": "overloaded", "message": "…"}}

A ``query`` that succeeds is answered by a header line and a body::

    {"id": 1, "ok": true, "items": 2, "bytes": 31}
    <2 × 4-byte little-endian lengths, in code points><the items, UTF-8>

— *items* lengths, then ``"".join(items)`` encoded as UTF-8 with
``surrogatepass`` (:func:`repro.store.answer.wire_body`), *bytes* in
all.  The client reads exactly that many bytes, decodes the text once
and slices it (:func:`read_response`, the one reader; nothing is
JSON-unescaped).  A failed ``query`` is an error line like any other.

Response lines are **byte-stable**: keys in the order ``id``, ``ok``,
then ``result`` / ``error`` / ``items`` and ``bytes``, compact
separators, ASCII only (everything else ``\\uXXXX``-escaped), one
trailing newline.  A ``query`` body is byte-stable too: it is a
function of the items alone.  That is what lets a ``query`` be
answered from bytes: the body of a cached
:class:`~repro.store.answer.Answer` is built once per cache entry and
sent verbatim from then on, after a header carrying the request's own
``id`` (:func:`encode_response`, the one function that builds response
bytes, in one write) — so two responses to one text are byte-equal
after the ``id``.

Ops and their arguments (all strings unless noted):

===========  ==========================================================
``load``     ``name`` + (``path`` | ``xml``), optional ``replace`` (bool)
``defview``  ``name``, ``base``, ``transform``
``query``    ``target``, ``text``, optional ``staged`` (bool),
             ``deadline_ms`` (number), ``trace_id``/``parent_span``
             (strings — propagated client trace context; the service
             span joins the caller's trace instead of minting its own)
``transform````name``, ``text`` — hypothetical, returns serialized XML
``stage``    ``name``, ``text``
``commit``   ``name``, optional ``text`` (stage-then-commit)
``rollback`` ``name``, optional ``count`` (int)
``stats``    — state: ``{"service": {workers, max_queue}, "store": …}``
``metrics``  — every count: the registry snapshot, flat
             ``layer.component.metric`` names → values (histograms as
             summary dicts)
``traces``   optional ``drain`` (bool) — buffered trace records,
             oldest first; ``drain`` empties the ring.  Optional
             ``stitched`` (bool): per-trace summaries (root, span
             count, orphans, well-formedness) instead of raw records
``slowlog``  optional ``drain`` (bool) — the slow-query ring: entries
             over the latency threshold with their stitched trace and
             profile, plus the log's counters
``metrics_text``  — the registry snapshot rendered in Prometheus text
             exposition format (one string)
``ping``     — liveness probe, returns ``"pong"``
===========  ==========================================================

Errors map to codes: the service's typed errors carry their own
(``overloaded``/``deadline``/``bad-request``/``closed``), store errors
travel as ``store``, anything else as ``error``; the client rebuilds
the matching exception class from the code
(:func:`repro.service.errors.error_for`).
"""

from __future__ import annotations

import json
import math
from typing import Optional

from repro.faults import InjectedFault
from repro.obs import span
from repro.service.errors import BadRequestError, ResponseLostError, ServiceError
from repro.store.answer import Answer, body_items
from repro.store.errors import StoreError

__all__ = [
    "OPS",
    "decode_line",
    "encode_frame",
    "encode_response",
    "error_frame",
    "handle_request",
    "read_response",
    "result_frame",
]

#: The ops a server accepts (the ``shutdown`` of a server is process
#: lifecycle — SIGINT/SIGTERM — not a wire op).
OPS = (
    "load", "defview", "query", "transform", "stage", "commit",
    "rollback", "stats", "metrics", "metrics_text", "traces",
    "slowlog", "ping",
)


def encode_frame(frame: dict) -> bytes:
    """One frame as wire bytes (compact JSON + newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one wire line into a frame dict, or raise
    :class:`BadRequestError`."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise BadRequestError("frame must be a JSON object")
    return frame


def result_frame(request_id, result) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_frame(request_id, exc: BaseException) -> dict:
    if isinstance(exc, ServiceError):
        code = exc.code
    elif isinstance(exc, StoreError):
        code = "store"
    elif isinstance(exc, InjectedFault):
        code = "fault"
    else:
        code = "error"
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": str(exc)},
    }


# hot-path
def encode_response(
    request_id, result, error: Optional[BaseException] = None
) -> bytes:
    """One response as wire bytes: the error frame for *error*, else
    the result frame for *result*.  An :class:`Answer` — what
    :func:`handle_request` returns for ``query`` — is its header line
    followed by its body, :meth:`Answer.wire`, as it is (one object,
    so the server sends both in one write)."""
    if error is not None:
        return encode_frame(error_frame(request_id, error))
    if type(result) is Answer:
        body = result.wire()
        return b"".join((
            b'{"id":',
            json.dumps(request_id, separators=(",", ":")).encode("ascii"),
            b',"ok":true,"items":', str(len(result.items)).encode("ascii"),
            b',"bytes":', str(len(body)).encode("ascii"), b"}\n",
            body,
        ))
    return encode_frame(result_frame(request_id, result))


#: The most a body read asks the stream for at once: a header that
#: announces more than its peer sends costs this much memory, not the
#: announced size.  Answers are far smaller, so they are one read.
_BODY_PIECE_BYTES = 1 << 24


def _count(header: dict, key: str) -> int:
    value = header.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ResponseLostError(f"sent a header whose {key!r} is {value!r}")
    return value


def read_response(stream) -> dict:
    """Read one response from the binary *stream* (``readline`` and
    ``read``) and return it as a frame dict: a ``query`` body comes
    back sliced into its items, as ``"result"``.

    A response that ends early or cannot be one — no bytes, a line cut
    before its newline, a line that is not a JSON object, a body
    shorter than its header says, lengths that do not fit the body or
    do not add up to its text, bytes that are not UTF-8 — raises
    :class:`ResponseLostError` with the reason (the stream is then out
    of step and must be dropped).  Transport errors propagate.  Under
    an active trace, everything after the header line arrives is one
    ``decode`` span."""
    line = stream.readline()
    if not line:
        raise ResponseLostError("closed the connection")
    if not line.endswith(b"\n"):
        raise ResponseLostError(
            f"closed the connection {len(line)} bytes into a response"
        )
    with span("decode"):
        try:
            response = decode_line(line)
        except BadRequestError as exc:
            raise ResponseLostError(f"sent a malformed response: {exc}") from None
        if "bytes" not in response:
            return response
        count = _count(response, "items")
        size = _count(response, "bytes")
        pieces = []
        left = size
        while left:
            piece = stream.read(min(left, _BODY_PIECE_BYTES))
            if not piece:
                raise ResponseLostError(
                    f"closed the connection {size - left} bytes into a "
                    f"{size}-byte body"
                )
            pieces.append(piece)
            left -= len(piece)
        body = pieces[0] if len(pieces) == 1 else b"".join(pieces)
        try:
            response["result"] = body_items(body, count)
        except ValueError as exc:
            raise ResponseLostError(f"sent a malformed body: {exc}") from None
        return response


def _require(frame: dict, key: str) -> str:
    value = frame.get(key)
    if not isinstance(value, str) or not value:
        raise BadRequestError(f"op {frame.get('op')!r} needs a string {key!r}")
    return value


def _optional_str(frame: dict, key: str) -> Optional[str]:
    value = frame.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise BadRequestError(f"{key!r} must be a non-empty string")
    return value


def _flag(frame: dict, key: str) -> bool:
    """An optional boolean argument: absent (or null) means false, and
    anything but a JSON boolean is malformed — ``"false"`` is a truthy
    string, and coercing it would show a caller staged updates, or
    drain a ring, it asked not to."""
    value = frame.get(key)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise BadRequestError(f"{key!r} must be a boolean")
    return value


def _deadline_of(frame: dict) -> Optional[float]:
    deadline_ms = frame.get("deadline_ms")
    if deadline_ms is None:
        return None
    # bool subclasses int, so `true` would otherwise read as a 1 ms
    # deadline instead of a malformed frame.  Python's json accepts
    # Infinity and NaN: the one overflows the platform's wait, the
    # other never compares as expired — neither is a deadline.
    if (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or not math.isfinite(deadline_ms)
        or deadline_ms <= 0
    ):
        raise BadRequestError("deadline_ms must be a positive finite number")
    return deadline_ms / 1000.0


def handle_request(service, frame: dict):
    """Dispatch one decoded request frame against a
    :class:`~repro.service.service.QueryService`; returns the result
    payload — for ``query`` the cached :class:`Answer` itself, for
    :func:`encode_response` to frame (exceptions propagate, for its
    *error* argument)."""
    op = frame.get("op")
    if op == "query":
        return service.answer(
            _require(frame, "target"),
            _require(frame, "text"),
            deadline=_deadline_of(frame),
            staged=_flag(frame, "staged"),
            trace_id=_optional_str(frame, "trace_id"),
            parent_span=_optional_str(frame, "parent_span"),
        )
    if op == "ping":
        return "pong"
    if op == "stats":
        return service.stats()
    if op == "metrics":
        return service.metrics()
    if op == "metrics_text":
        return service.metrics_text()
    if op == "traces":
        return service.traces(
            drain=_flag(frame, "drain"), stitched=_flag(frame, "stitched")
        )
    if op == "slowlog":
        return service.slowlog(drain=_flag(frame, "drain"))
    if op == "load":
        name = _require(frame, "name")
        replace = _flag(frame, "replace")
        if frame.get("xml") is not None:
            return service.put(name, _require(frame, "xml"), replace=replace)
        return service.load(name, _require(frame, "path"), replace=replace)
    if op == "defview":
        return service.define_view(
            _require(frame, "name"), _require(frame, "base"),
            _require(frame, "transform"),
        )
    if op == "transform":
        return service.transform(_require(frame, "name"), _require(frame, "text"))
    if op == "stage":
        return service.stage(_require(frame, "name"), _require(frame, "text"))
    if op == "commit":
        text = frame.get("text")
        if text is not None and not isinstance(text, str):
            raise BadRequestError("commit text must be a string")
        return service.commit(_require(frame, "name"), text)
    if op == "rollback":
        count = frame.get("count")
        if count is not None and (
            isinstance(count, bool) or not isinstance(count, int)
        ):
            raise BadRequestError("rollback count must be an integer")
        return service.rollback(_require(frame, "name"), count)
    raise BadRequestError(
        f"unknown op {op!r}; expected one of {', '.join(OPS)}"
    )
