"""A thread-safe LRU cache with zero package dependencies.

Shared by the store's result and label caches, the compiled-artifact
cache (:mod:`repro.compiled`) and the engine's prepared layer.  It
lives at the package root because the store and the engine both use
it and neither imports the other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Thread-safe: lookups and insertions take an internal lock, and
    :meth:`get_or_compute` runs the factory *outside* the lock so a slow
    parse never blocks unrelated readers (two threads may then compute
    the same value once each; the cache stays consistent either way).
    """

    # guarded-by[hits, misses, evictions, _data]: self._lock

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize  # immutable after construction
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Any) -> Any:
        """:meth:`get` (``None`` when absent) without the side effects:
        no hit/miss tally and no recency promotion.  For a caller
        re-checking a key it has already looked up (and been counted
        for) once."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Any, factory: Callable[[], Any]) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = factory()
            self.put(key, value)
        return value

    def invalidate(self, predicate: Optional[Callable[[Any], bool]] = None) -> int:
        """Drop every entry (or those whose *key* satisfies *predicate*);
        returns the number of entries removed."""
        with self._lock:
            if predicate is None:
                dropped = len(self._data)
                self._data.clear()
                return dropped
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def rekey(self, mapper: Callable[[Any], Optional[Any]]) -> Tuple[int, int]:
        """Rewrite every key through *mapper* in one atomic pass.

        *mapper* returns the key unchanged (keep), a new key (move the
        entry — recency order is preserved), or ``None`` (drop the
        entry).  This is what delta-scoped commit invalidation uses to
        carry provably-unaffected results forward to the new arena:
        uid-stamped keys cannot be kept in place, they must move.
        Returns ``(moved, dropped)``.
        """
        with self._lock:
            moved = 0
            dropped = 0
            out: "OrderedDict[Any, Any]" = OrderedDict()
            for key, value in self._data.items():
                new_key = mapper(key)
                if new_key is None:
                    dropped += 1
                    continue
                if new_key != key:
                    moved += 1
                out[new_key] = value
            self._data = out
            return moved, dropped

    def values(self) -> List[Any]:
        """A point-in-time list of the cached values (most-recently
        used last) — what aggregate metrics probes iterate over."""
        with self._lock:
            return list(self._data.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
