"""The per-document version chain: structurally-shared frozen arenas.

Every admission and every commit records a
:class:`ChainVersion` in the owning document's :class:`VersionChain`.
Every commit splices: it shares untouched column data with its
predecessor (payload strings and attribute tuples by reference, whole
columns for renames — see :func:`repro.xmltree.arena.splice`), so
keeping the last few versions resident is cheap, and
``pin(version=N)`` time-travel reads land on a chain entry instead of
failing.

The chain carries its own leaf lock: it is recorded into under the
owning document's lock on the write path, but read by ``stat``/metrics
paths that must not contend with commits.

:class:`CommitDelta` is the commit path's receipt — what
``ViewStore.commit_delta`` returns and the ``store.commit.delta.*``
metrics and the service's ``memo_retained`` counter consume.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

__all__ = ["ChainVersion", "CommitDelta", "VersionChain", "sharing_stats"]


@dataclass(frozen=True)
class ChainVersion:
    """One frozen arena pinned into a document's version chain.

    ``kind`` records how the arena came to be: ``"load"``
    (admission) or ``"splice"`` (a commit: O(delta) derivation from
    the previous entry).  ``uid`` is the process-unique arena id
    snapshot caches key on.
    """

    version: int
    uid: int
    arena: Any
    kind: str
    touched_nodes: int = 0


@dataclass(frozen=True)
class CommitDelta:
    """The receipt of one commit: what changed, and what the
    delta-scoped invalidation managed to keep.

    ``labels`` is the conservative delta label set (every element
    label inside a touched range, introduced by a segment, or on an
    attach point's ancestor chain); ``None`` for a no-op commit.  Of
    the cached answers under the affected names, ``results_kept``
    moved to the new arena as they were, ``results_patched`` moved
    with the items a patch landed in re-serialized, and
    ``results_dropped`` went — for the reasons ``drop_reasons`` counts
    (:data:`repro.store.delta.DROP_REASONS`, with the overlapping
    labels after ``label:``).  ``entries == 0`` marks a no-op commit:
    nothing was staged, the version did not move, no cache was
    touched; every other commit spliced.
    """

    doc_name: str
    old_version: int
    new_version: int
    old_uid: int
    new_uid: int
    entries: int
    patches: int = 0
    touched_nodes: int = 0
    labels: Optional[FrozenSet[str]] = None
    results_kept: int = 0
    results_patched: int = 0
    results_dropped: int = 0
    drop_reasons: Mapping[str, int] = field(default_factory=dict)
    mats_kept: int = 0
    mats_dropped: int = 0


class VersionChain:
    """A bounded, newest-last sequence of :class:`ChainVersion`."""

    # guarded-by[_entries]: self._lock

    def __init__(self, limit: int = 8) -> None:
        if limit < 1:
            raise ValueError(f"chain limit must be positive, got {limit}")
        self.limit = limit  # immutable after construction
        self._entries: List[ChainVersion] = []
        self._lock = threading.Lock()

    def record(self, entry: ChainVersion) -> List[ChainVersion]:
        """Append (a document installs each version exactly once, in
        order) and trim to the retention limit, oldest first.  Returns
        the entries trimmed off: the caller lets them go once it holds
        no lock, so freeing an evicted arena never stalls a reader's
        ``pin()``."""
        with self._lock:
            self._entries.append(entry)
            evicted = self._entries[: -self.limit]
            del self._entries[: -self.limit]
        return evicted

    def find(self, version: int) -> Optional[ChainVersion]:
        with self._lock:
            for entry in self._entries:
                if entry.version == version:
                    return entry
            return None

    def latest(self) -> Optional[ChainVersion]:
        with self._lock:
            return self._entries[-1] if self._entries else None

    def versions(self) -> List[int]:
        """Resident version numbers, oldest first."""
        with self._lock:
            return [entry.version for entry in self._entries]

    def snapshot(self) -> List[ChainVersion]:
        """A point-in-time copy of the chain (oldest first)."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _columns(arena: Any) -> Tuple[Any, ...]:
    """The column objects of one arena that a version may share."""
    return (
        arena.sym, arena.up, arena.size, arena.payload, arena.attr_keys,
        arena.attr_values,
    )


def sharing_stats(entries: List[ChainVersion]) -> Dict[str, Any]:
    """Shared vs owned byte accounting across consecutive chain entries.

    A column (or payload string, or attribute tuple) in entry *k*
    counts as **shared** when the identical object already appears in
    entry *k-1* — the structural-sharing guarantee ``repro store stat``
    surfaces.  The first entry is all owned by definition.
    ``per_version`` carries the same split per entry, oldest first.
    """
    shared = 0
    owned = 0
    per_version: List[Dict[str, int]] = []
    prev: Optional[Any] = None
    for entry in entries:
        arena = entry.arena
        entry_shared = 0
        entry_owned = 0
        prev_cols: Set[int] = set()
        prev_strings: Set[int] = set()
        prev_tuples: Set[int] = set()
        if prev is not None:
            prev_cols = {id(column) for column in _columns(prev)}
            for value in prev.payload:
                if value is not None:
                    prev_strings.add(id(value))
            for flat in prev.attr_values:
                prev_tuples.add(id(flat))
        for column in _columns(arena):
            size = sys.getsizeof(column)
            if id(column) in prev_cols:
                entry_shared += size
            else:
                entry_owned += size
        seen: Set[int] = set()
        for value in arena.payload:
            if value is None or id(value) in seen:
                continue
            seen.add(id(value))
            size = sys.getsizeof(value)
            if id(value) in prev_strings:
                entry_shared += size
            else:
                entry_owned += size
        for flat in arena.attr_values:
            size = sys.getsizeof(flat)
            if id(flat) in prev_tuples:
                entry_shared += size
            else:
                entry_owned += size
        shared += entry_shared
        owned += entry_owned
        per_version.append(
            {
                "version": entry.version,
                "shared_bytes": entry_shared,
                "owned_bytes": entry_owned,
            }
        )
        prev = arena
    return {"shared_bytes": shared, "owned_bytes": owned, "per_version": per_version}
