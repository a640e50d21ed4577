"""Resident documents: named, versioned, lock-protected frozen arenas.

What a stored document *is* at rest is decided here and nowhere else:
a :class:`StoredDocument` is a version, a uid and one always-present
:class:`~repro.xmltree.arena.FrozenDocument`.  Admission is eager and
columnar — files and XML text are parsed straight into columns, a
caller's ``Element`` tree is frozen (copied) once, a checkpoint's
column file is read back as columns — so the store never
shares mutable structure with its callers.  The version counter starts
at 1 and moves with every installed commit, and every installed arena
gets a fresh uid; caches key on one or the other, so "invalidate" is
mostly "the old key never matches again".

There is no Node form of a stored document: every read — of the
document, of a view stack over it, of a staged preview — evaluates over
an arena, and only the ``query_naive`` oracle thaws one (locally).

Concurrency model: one :class:`threading.Lock` per document, held to
read or install one consistent (version, arena, uid) row — never
across an evaluation.  Different documents never contend.  The
store-level dict has its own lock for name-table mutation only.
"""

from __future__ import annotations

import itertools
import re
import threading
from typing import Any, Dict, List, NamedTuple, Optional, Union

from repro.store.errors import (
    DuplicateNameError,
    InvalidNameError,
    UnknownNameError,
)
from repro.xmltree.arena import FrozenDocument, freeze
from repro.xmltree.node import Element
from repro.xmltree.parser import parse_file_to_arena, parse_to_arena

#: Names double as state-directory file stems, so keep them path-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Process-unique ids stamped on every installed arena.  (name, version)
#: alone is ambiguous — a dropped-then-reloaded document restarts at
#: version 1 — so snapshot-keyed caches (the store's result cache, the
#: process workers' arena caches) key on the uid, which no two arenas
#: in this process ever share.
_ARENA_UIDS = itertools.count(1)


class Snapshot(NamedTuple):
    """A pinned MVCC read snapshot: one committed document version.

    Produced by :meth:`StoredDocument.pin` (under the document lock)
    and consumed entirely *outside* any lock: the arena is immutable,
    so any number of readers evaluate against it while writers stage
    and commit new versions — single-writer, many-reader discipline
    with no reader-side blocking.  ``version`` is the per-document
    counter the snapshot was taken at; a reader can compare it to
    the document's current version afterwards to tell whether its
    answer was already stale by the time it finished.  ``uid`` is the
    arena's process-unique id — the unambiguous cache key where
    ``(name, version)`` could alias across a drop-and-reload (a
    reloaded document restarts at version 1).
    """

    name: str
    version: int
    arena: FrozenDocument
    uid: int


def validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise InvalidNameError(name)
    return name


class StoredDocument:
    """One resident document: the frozen arena of its current version,
    that version's number and uid, and its locks.

    Every read of a version shares the **same immutable arena** — a
    zero-copy snapshot.  A commit installs the next arena (spliced
    from this one) and drops the store's reference to the old one, so
    the store keeps exactly one version per document; a reader still
    holding a :class:`Snapshot` of the old one keeps a consistent
    pre-commit view for as long as it holds it, and the old arena is
    freed when the last such reader lets go.  ``splices`` counts the
    O(delta) commits; the one O(document) construction is the
    admission.
    """

    __slots__ = (
        "name", "version", "uid", "arena", "lock", "commit_lock",
        "source", "dirty", "state_file", "splices",
    )

    # guarded-by[version, uid, arena]: self.lock
    # guarded-by[dirty, state_file, splices]: self.lock

    def __init__(
        self,
        name: str,
        arena: FrozenDocument,
        version: int = 1,
        source: Optional[str] = None,
    ):
        self.name = name
        #: The single source of truth for this version's content.
        self.arena = arena
        self.version = version
        self.uid = next(_ARENA_UIDS)
        self.lock = threading.Lock()
        #: Serializes whole commits (stage-take → derive → install) so
        #: the next arena is derived *outside* :attr:`lock` without two
        #: writers deriving from the same base.  Ordering: commit_lock
        #: is taken strictly before (never under) :attr:`lock`.
        self.commit_lock = threading.Lock()
        self.source = source  # file path it was loaded from, informational
        #: Content changed since it was last persisted (commit, fresh
        #: put).  The state layer clears it after writing the file.
        self.dirty = True
        #: State-dir filename this version was last loaded from / saved
        #: to (set by the state layer; ``None`` for in-memory documents).
        self.state_file: Optional[str] = None
        self.splices = 0

    # holds: self.lock
    def install(self, arena: FrozenDocument) -> int:
        """Install the spliced *arena* as the next committed version
        (callers hold :attr:`lock`) — the one way a document's content
        ever changes — and return the new version.  The replaced arena
        is not freed here: the committing caller still holds it as its
        base and lets it go after releasing :attr:`lock` (freeing an
        old arena is not work a reader's ``pin()`` should wait
        behind)."""
        self.version += 1
        self.arena = arena
        self.uid = next(_ARENA_UIDS)
        self.dirty = True
        self.splices += 1
        return self.version

    def pin(self) -> Snapshot:
        """Pin the current version for an MVCC reader, taking the
        document lock just long enough to read one consistent
        (version, arena, uid) row; the returned :class:`Snapshot` is
        then consumed lock-free.  A concurrent commit installs a new
        arena — this snapshot keeps observing the old one, fully
        consistent, until the reader drops it."""
        with self.lock:
            return Snapshot(self.name, self.version, self.arena, self.uid)

    def stats(self) -> Dict[str, Any]:
        # One consistent row under the document lock — a commit in
        # flight could otherwise tear version/arena apart — and the
        # arena's figures outside it: the arena is immutable, and a
        # first ``depth()`` walks every node, which no ``pin()`` or
        # commit install may wait behind.
        with self.lock:
            version = self.version
            arena = self.arena
            splices = self.splices
        arena_stats = arena.stats()
        return {
            "version": version,
            "nodes": len(arena),
            "depth": arena.depth(),
            "source": self.source,
            "splices": splices,
            "arena_bytes": arena_stats["total_bytes"],
            "arena_column_bytes": arena_stats["column_bytes"],
            "texts_held": arena_stats["texts_held"],
            "texts_held_chars": arena_stats["texts_held_chars"],
            "leaf_maps": arena_stats["leaf_maps"],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoredDocument({self.name!r}, v{self.version})"  # unguarded: debug repr; a torn version read is harmless


class DocumentStore:
    """The name → :class:`StoredDocument` table."""

    # guarded-by[_docs]: self._lock

    def __init__(self) -> None:
        self._docs: Dict[str, StoredDocument] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def load(
        self,
        name: str,
        path: str,
        *,
        replace: bool = False,
        version: Optional[int] = None,
    ) -> StoredDocument:
        """Parse the file at *path* straight into columns and store it
        under *name*.  *version* is the state layer's: a checkpointed
        document is admitted at the version its file holds."""
        validate_name(name)
        return self.admit(
            name, parse_file_to_arena(path), source=path, replace=replace, version=version
        )

    def put(
        self,
        name: str,
        document: Union[Element, str],
        *,
        replace: bool = False,
    ) -> StoredDocument:
        """Store XML source text (parsed straight into columns) or a
        parsed tree (frozen — the store keeps no reference to it) under
        *name*.

        With ``replace=True`` an existing document is superseded but its
        version counter carries over (+1), so stale cache entries keyed
        on the old version stay dead.
        """
        validate_name(name)
        if isinstance(document, str):
            arena = parse_to_arena(document)
        elif isinstance(document, Element):
            arena = freeze(document)
        else:
            raise TypeError(f"expected an Element or XML text, got {document!r}")
        return self.admit(name, arena, replace=replace)

    def admit(
        self,
        name: str,
        arena: FrozenDocument,
        *,
        source: Optional[str] = None,
        replace: bool = False,
        version: Optional[int] = None,
    ) -> StoredDocument:
        """Store an already built *arena* under *name* — what the load
        paths above end in, and how the state layer admits a document
        read back from its column file (at the version it holds)."""
        validate_name(name)
        with self._lock:
            existing = self._docs.get(name)
            if existing is not None and not replace:
                raise DuplicateNameError(name)
            if version is None:
                version = existing.version + 1 if existing is not None else 1
            doc = StoredDocument(name, arena, version, source)
            self._docs[name] = doc
            return doc

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> StoredDocument:
        with self._lock:
            try:
                return self._docs[name]
            except KeyError:
                raise UnknownNameError(name) from None

    def drop(self, name: str) -> None:
        with self._lock:
            if name not in self._docs:
                raise UnknownNameError(name)
            del self._docs[name]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._docs)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._docs

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)

    def stats(self) -> Dict[str, Dict[str, Any]]:
        return {name: self.get(name).stats() for name in self.names()}
