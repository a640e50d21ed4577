"""Text exposition of the metrics registry: Prometheus text format
plus JSON-lines structured events, and a tiny stdlib HTTP server that
serves both.

:func:`render_prometheus` turns a :meth:`MetricsRegistry.snapshot`
into the Prometheus text exposition format (version 0.0.4): dotted
metric names become underscore-joined names under a ``repro_`` prefix,
histogram summary dicts become ``summary`` families with ``quantile``
labels plus exact ``_min``/``_max`` series (bucket-interpolated
percentiles clamp, so the true tails are only visible here), and
non-numeric or non-finite values are skipped rather than emitted as
unparseable text.

:func:`render_events` turns any list of JSON-serializable records
(trace records, slow-query entries) into newline-delimited JSON.

:class:`ExpositionServer` is the scrape surface ``repro serve
--expose`` binds: ``GET /metrics`` (text format), ``GET /events``
(JSONL trace records), ``GET /healthz``.  It is deliberately
dependency-free (``http.server`` from the stdlib) and read-only —
the JSON-line TCP protocol stays the only way to *change* anything.
``http.server`` (and with it ``email``, ``ssl``, ``mimetypes``) is
imported when a server is constructed, not with this module: most
processes that ``import repro`` never expose anything.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "ExpositionServer",
    "render_events",
    "render_prometheus",
]

#: The summary-percentile keys a histogram snapshot carries, mapped to
#: Prometheus ``quantile`` label values.
_QUANTILES: Tuple[Tuple[str, str], ...] = (
    ("p50", "0.5"),
    ("p95", "0.95"),
    ("p99", "0.99"),
)

CONTENT_TYPE_TEXT = "text/plain; version=0.0.4; charset=utf-8"
CONTENT_TYPE_JSONL = "application/x-ndjson; charset=utf-8"


def _metric_name(dotted: str, prefix: str) -> str:
    return prefix + dotted.replace(".", "_")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(float(value))


def render_prometheus(snapshot: Dict[str, Any], prefix: str = "repro_") -> str:
    """The registry snapshot as Prometheus text exposition format.

    Scalars (counters, gauges, flattened probe leaves) become untyped
    single series; histogram summary dicts become one ``summary``
    family with quantile labels plus ``_count``/``_sum``/``_min``/
    ``_max``/``_mean`` series.  Booleans render as 0/1; anything
    non-numeric or non-finite is skipped.
    """
    lines: List[str] = []
    for dotted in sorted(snapshot):
        value = snapshot[dotted]
        name = _metric_name(dotted, prefix)
        if isinstance(value, dict):
            if "count" not in value:
                continue  # not a histogram summary; flattened probes never land here
            lines.append(f"# TYPE {name} summary")
            for key, quantile in _QUANTILES:
                q_value = value.get(key)
                if _is_numeric(q_value):
                    lines.append(
                        f'{name}{{quantile="{quantile}"}} {_format_value(q_value)}'
                    )
            lines.append(f"{name}_count {_format_value(value.get('count', 0))}")
            lines.append(f"{name}_sum {_format_value(value.get('sum', 0.0))}")
            for key in ("min", "max", "mean"):
                sub = value.get(key)
                if _is_numeric(sub):
                    lines.append(f"{name}_{key} {_format_value(sub)}")
        elif isinstance(value, bool):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(value)}")
        elif _is_numeric(value):
            lines.append(f"# TYPE {name} untyped")
            lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def render_events(records: List[Dict[str, Any]]) -> str:
    """Records (trace records, slow-query entries) as JSON lines."""
    if not records:
        return ""
    return "\n".join(
        json.dumps(record, separators=(",", ":"), default=str) for record in records
    ) + "\n"


class ExpositionServer:
    """Read-only HTTP scrape surface over callables.

    *snapshot_fn* returns the registry snapshot dict (``/metrics``);
    *events_fn*, when given, returns the trace/event records
    (``/events``).  ``port=0`` binds an ephemeral port; read
    :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], Dict[str, Any]],
        events_fn: Optional[Callable[[], List[Dict[str, Any]]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = render_prometheus(outer.snapshot_fn())
                    self._reply(200, CONTENT_TYPE_TEXT, body)
                elif path == "/events" and outer.events_fn is not None:
                    body = render_events(outer.events_fn())
                    self._reply(200, CONTENT_TYPE_JSONL, body)
                elif path == "/healthz":
                    self._reply(200, CONTENT_TYPE_TEXT, "ok\n")
                else:
                    self._reply(404, CONTENT_TYPE_TEXT, "not found\n")

            def _reply(self, status: int, content_type: str, body: str) -> None:
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format: str, *args: Any) -> None:
                pass  # scrapes must not spam the serve log

        self.snapshot_fn = snapshot_fn
        self.events_fn = events_fn
        self._server = ThreadingHTTPServer((host, port), _Handler)
        bound = self._server.server_address
        self.address: Tuple[str, int] = (str(bound[0]), int(bound[1]))
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ExpositionServer":
        thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-expose",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
