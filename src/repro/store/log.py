"""The update log: staged hypothetical transforms, commit and rollback.

The paper's transform queries are *hypothetical* — they answer "what
would the document look like if…" without touching it.  The log turns
that into a two-phase workflow per document:

* :meth:`UpdateLog.stage` records a transform against a document.  The
  document is untouched; a what-if read splices the staged entries
  onto the pinned arena, in order, like any other transform
  (:func:`repro.transform.arena.transform_arena`); the ``query_naive``
  oracle runs ``transform_naive`` per entry on a Node tree instead.
* **Commit** (driven by the store facade, which owns the document lock
  and the caches) takes the staged updates, derives the next frozen
  version from them (:mod:`repro.store.delta`) and installs it.
* **Rollback** simply discards staged entries — nothing was ever
  applied, so there is nothing to undo.

Sequential semantics: staged update *i+1* sees update *i*'s result,
exactly like :class:`repro.engine.PreparedStack`.

Of what was committed the log keeps only a count per document: a
commit's texts live in the WAL (when one is attached) until a
checkpoint folds their effect into the document's columns.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.automata.selecting import build_selecting_nfa
from repro.store.errors import NothingStagedError
from repro.transform.query import TransformQuery


class StagedUpdate:
    """One staged transform: the parsed query, its source text, and the
    selecting automaton of its update path — built here, so a path the
    automaton cannot compile is refused (a ``ValueError``) before it is
    staged, and the commit applies the entry with it.  The automaton
    dies with the entry; it never takes a slot in the store's compiled
    cache."""

    __slots__ = ("transform", "text", "nfa")

    def __init__(self, transform: TransformQuery, text: str) -> None:
        self.transform = transform
        self.text = text
        self.nfa = build_selecting_nfa(transform.update.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StagedUpdate({self.text!r})"


class UpdateLog:
    """Per-document staging areas and commit counts."""

    # guarded-by[_staged, _committed]: self._lock

    def __init__(self) -> None:
        self._staged: dict[str, list[StagedUpdate]] = {}
        self._committed: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------

    def stage(self, doc_name: str, transform: TransformQuery, text: str) -> int:
        """Stage a transform against *doc_name*; returns the new depth
        of the staging area."""
        entry = StagedUpdate(transform, text)
        with self._lock:
            queue = self._staged.setdefault(doc_name, [])
            queue.append(entry)
            return len(queue)

    def staged(self, doc_name: str) -> list[StagedUpdate]:
        with self._lock:
            return list(self._staged.get(doc_name, []))

    def has_staged(self, doc_name: str) -> bool:
        with self._lock:
            return bool(self._staged.get(doc_name))

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def take_any(self, doc_name: str) -> list[StagedUpdate]:
        """Remove and return the staged updates (the commit path).  An
        empty staging area yields an empty list — a no-op commit, not
        an error."""
        with self._lock:
            queue = self._staged.get(doc_name)
            if not queue:
                return []
            self._staged[doc_name] = []
            return queue

    def restore(self, doc_name: str, entries: list[StagedUpdate]) -> None:
        """Put consumed entries back at the *front* of the staging area.

        The failed-commit path: ``take_any`` already drained the queue
        when the apply raised, so the entries go back where they were —
        ahead of anything staged meanwhile — and a retry commits the
        same sequence.
        """
        if not entries:
            return
        with self._lock:
            queue = self._staged.setdefault(doc_name, [])
            queue[:0] = entries

    def rollback(self, doc_name: str, count: Optional[int] = None) -> int:
        """Discard the last *count* staged updates (default: all);
        returns how many were dropped."""
        with self._lock:
            queue = self._staged.get(doc_name)
            if not queue:
                raise NothingStagedError(doc_name)
            dropped = len(queue) if count is None else max(0, min(count, len(queue)))
            if dropped:
                del queue[len(queue) - dropped:]
            return dropped

    def record_commit(self, doc_name: str, entries: list[StagedUpdate]) -> None:
        with self._lock:
            self._committed[doc_name] = self._committed.get(doc_name, 0) + len(entries)

    def committed(self, doc_name: str) -> int:
        """How many transforms have been committed to *doc_name*."""
        with self._lock:
            return self._committed.get(doc_name, 0)

    def restore_committed(self, doc_name: str, count: int) -> None:
        """Set the commit count (state-directory restore path)."""
        with self._lock:
            self._committed[doc_name] = count

    def stats(self) -> dict[str, dict[str, int]]:
        with self._lock:
            names = set(self._staged) | set(self._committed)
            return {
                name: {
                    "staged": len(self._staged.get(name, [])),
                    "committed": self._committed.get(name, 0),
                }
                for name in sorted(names)
            }
