"""A thread-safe LRU cache with zero package dependencies.

Shared by the store's result cache and the compiled-artifact cache
(:mod:`repro.compiled`) that a store and an engine each hold.  It lives
at the package root because the store and the engine both use it and
neither imports the other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Thread-safe: lookups and insertions take an internal lock, and
    :meth:`get_or_compute` runs the factory *outside* the lock so a slow
    parse never blocks unrelated readers (two threads may then compute
    the same value once each; the cache stays consistent either way).

    Recency is kept over **slots**, not keys: ``_slots`` maps a key to
    a slot number and ``_data`` orders ``slot → (key, value)``, so
    :meth:`rekey` renames an entry where it stands.  *group*, when
    given, maps a key to the group :meth:`rekey` finds it under (the
    result cache groups by target name, so a commit visits only the
    entries over the names it can affect).
    """

    # guarded-by[hits, misses, evictions, _data, _slots, _groups, _next_slot]: self._lock

    def __init__(self, maxsize: int = 128, group: Optional[Callable[[Any], Any]] = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize  # immutable after construction
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._group = group  # immutable after construction
        self._data: "OrderedDict[int, Tuple[Any, Any]]" = OrderedDict()
        self._slots: Dict[Any, int] = {}
        #: group → its keys (a dict for insertion order and O(1) delete).
        self._groups: Dict[Any, Dict[Any, None]] = {}
        self._next_slot = 0
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                self.misses += 1
                return default
            self._data.move_to_end(slot)
            self.hits += 1
            return self._data[slot][1]

    def peek(self, key: Any) -> Any:
        """:meth:`get` (``None`` when absent) without the side effects:
        no hit/miss tally and no recency promotion.  For a caller
        re-checking a key it has already looked up (and been counted
        for) once."""
        with self._lock:
            slot = self._slots.get(key)
            return None if slot is None else self._data[slot][1]

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = self._slots[key] = self._next_slot
                self._next_slot += 1
                if self._group is not None:
                    self._groups.setdefault(self._group(key), {})[key] = None
            else:
                self._data.move_to_end(slot)
            self._data[slot] = (key, value)
            while len(self._data) > self.maxsize:
                self._forget(self._data.popitem(last=False)[1][0])
                self.evictions += 1

    def _forget(self, key: Any) -> None:  # holds: self._lock
        """Drop *key* — already gone from ``_data`` — from the side tables."""
        del self._slots[key]
        if self._group is not None:
            group = self._group(key)
            keys = self._groups[group]
            del keys[key]
            if not keys:
                del self._groups[group]

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
                self._slots.clear()
                self._groups.clear()
                return dropped
            doomed = [key for key in self._slots if predicate(key)]
            for key in doomed:
                del self._data[self._slots[key]]
                self._forget(key)
            return len(doomed)

    def rekey(
        self,
        mapper: Callable[[Any, Any], Optional[Tuple[Any, Any]]],
        groups: Iterable[Any],
    ) -> Tuple[int, int]:
        """Rewrite the entries of *groups* through *mapper* in one
        atomic pass; no other entry is visited.

        ``mapper(key, value)`` returns the ``(key, value)`` the entry
        goes on as — unchanged, or renamed and/or with another value,
        **in place**: its recency does not move — or ``None`` to drop
        it.  This is what delta-scoped commit invalidation uses to
        carry provably-unaffected results forward to the new arena:
        uid-stamped keys cannot be kept as they are, they must be
        renamed.  A rename onto a key that is already there (a reader
        that pinned the new arena first published under it) replaces
        that entry, and a key this pass has produced is not visited
        again.  Returns ``(moved, dropped)``.
        """
        if self._group is None:
            raise ValueError("rekey needs a cache built with a group function")
        with self._lock:
            moved = 0
            dropped = 0
            produced = set()
            for group in groups:
                for key in list(self._groups.get(group, ())):
                    if key in produced:
                        continue
                    slot = self._slots[key]
                    mapped = mapper(key, self._data[slot][1])
                    if mapped is None:
                        del self._data[slot]
                        self._forget(key)
                        dropped += 1
                        continue
                    new_key = mapped[0]
                    if new_key != key:
                        moved += 1
                        produced.add(new_key)
                        self._forget(key)
                        taken = self._slots.get(new_key)
                        if taken is not None:
                            del self._data[taken]
                            self._forget(new_key)
                        self._slots[new_key] = slot
                        self._groups.setdefault(self._group(new_key), {})[new_key] = None
                    self._data[slot] = mapped
            return moved, dropped

    def values(self) -> List[Any]:
        """A point-in-time list of the cached values (most-recently
        used last) — what aggregate metrics probes iterate over."""
        with self._lock:
            return [value for _, value in self._data.values()]

    def items(self) -> List[Tuple[Any, Any]]:
        """A point-in-time list of the ``(key, value)`` entries
        (most-recently used last)."""
        with self._lock:
            return list(self._data.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._slots

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
