"""Slow-query log: a bounded ring of requests that blew the latency
threshold, each carrying enough context to diagnose it after the fact.

The service records an entry whenever a request finishes slower than
the configured threshold (default 250 ms).  Each entry is one
JSON-serializable dict::

    {"ts": 1754650000.123, "target": "xmark", "query": "for $x in …",
     "dur_ms": 412.7, "queue_ms": 210.0, "outcome": "ok",
     "snapshot_version": 17, "coalesced": 3,
     "trace": {...} | None,      # the full stitched trace record, when sampled
     "profile": {...} | None}    # the execution profile, when collected

The ring is bounded (old entries fall off; ``dropped`` counts them)
and drained over the wire by the ``slowlog`` op / ``repro store
slowlog``.  An optional *sink* callable receives every entry as it is
recorded — the serve CLI points it at a ``slowlog.jsonl``
write-through file so slow queries survive the process.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Bounded ring of slow-request entries (see module docstring).

    ``threshold`` is in seconds; ``0`` captures everything (useful in
    tests), a negative threshold disables capture entirely.
    """

    # guarded-by[_ring, _recorded, _dropped]: self._lock

    def __init__(
        self,
        threshold: float = 0.25,
        ring: int = 128,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if ring < 1:
            raise ValueError(f"ring must be positive, got {ring}")
        self.threshold = threshold
        self.sink = sink
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=ring)
        self._recorded = 0
        self._dropped = 0

    @property
    def enabled(self) -> bool:
        return self.threshold >= 0.0

    # hot-path
    def should_record(self, dur: float) -> bool:
        """Cheap pre-check call sites use before assembling an entry."""
        return self.threshold >= 0.0 and dur >= self.threshold

    def record(self, entry: Dict[str, Any]) -> None:
        """Push one already-assembled entry (callers gate on
        :meth:`should_record` so fast requests never build the dict)."""
        sink = self.sink
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(entry)
            self._recorded += 1
        if sink is not None:
            try:
                sink(entry)
            except OSError:
                pass  # a full disk must not fail the request

    # ------------------------------------------------------------------

    def entries(self, drain: bool = False) -> List[Dict[str, Any]]:
        """Buffered entries, oldest first; ``drain=True`` also clears."""
        with self._lock:
            out = list(self._ring)
            if drain:
                self._ring.clear()
            return out

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "threshold_ms": round(self.threshold * 1000.0, 3),
                "recorded": self._recorded,
                "buffered": len(self._ring),
                "dropped": self._dropped,
            }
