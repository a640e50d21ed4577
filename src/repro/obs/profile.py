"""Per-run execution profiles: what the scan *actually* did.

A :class:`Profile` rides along with one run and collects what it
measured — nodes visited, subtrees pruned, nodes skipped by jumps, what
the qualifier sweeps examined (and which ranges were left to per-node
closures, with the rule's verdict), DFA transitions taken and
transition-table growth, whether the run paid a compiled-cache miss
(cold) or found everything compiled (warm), and how many bytes the
serializer produced — next to the strategy that ran and, for an arena
read, the node count an unpruned scan would have visited
(``explain_analyze`` and the slow-query log read the same object).

Like tracing, activation is thread-local and optional: deep engine
code calls :func:`current_profile` (one thread-local read when no
profile is active — the overwhelmingly common case) and adds its
counts only when a profile is attached.  The hot scan loop does not
touch the profile per node; it counts into locals and deposits once
per scan (:meth:`Profile.add_scan`).

A profile is **thread-confined by contract**: it is activated, filled
and read on the thread that runs the query.  No lock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

__all__ = [
    "Profile",
    "current_profile",
    "profiled",
]

_active_profile = threading.local()


# hot-path
def current_profile() -> Optional["Profile"]:
    """The profile active on the calling thread, or None."""
    return getattr(_active_profile, "profile", None)  # unguarded: one thread-local read is the documented cost of the off path


class profiled:
    """Context manager that makes *profile* the calling thread's active
    profile, restoring whatever was active before on exit (and stamping
    the profile's duration)."""

    __slots__ = ("profile", "_previous")

    def __init__(self, profile: "Profile"):
        self.profile = profile
        self._previous: Optional[Profile] = None

    def __enter__(self) -> "Profile":
        self._previous = getattr(_active_profile, "profile", None)
        _active_profile.profile = self.profile
        return self.profile

    def __exit__(self, *exc_info: object) -> bool:
        _active_profile.profile = self._previous
        self.profile.finish()
        return False


class Profile:
    """Measured counters for one query/transform run.

    Thread-confined (see module docstring): no lock, plain int fields.
    ``cache`` starts ``"warm"`` and flips to ``"cold"`` if a
    :class:`~repro.compiled.CompiledCache` misses while this profile is
    active — the run paid the compile, every later run of the same
    text will not.
    """

    __slots__ = (
        "nodes_visited", "subtrees_pruned", "dfa_transitions",
        "nodes_skipped", "qual_sweeps", "qual_swept", "qual_stepped", "qual_verdicts",
        "table_sets_added", "table_moves_added", "serialize_bytes",
        "results", "cache", "strategy", "est_nodes", "_t0", "dur_us",
    )

    def __init__(self) -> None:
        self.nodes_visited = 0
        self.subtrees_pruned = 0
        self.dfa_transitions = 0
        self.nodes_skipped = 0
        self.qual_sweeps = 0
        self.qual_swept = 0
        self.qual_stepped = 0
        self.qual_verdicts: Dict[str, int] = {}
        self.table_sets_added = 0
        self.table_moves_added = 0
        self.serialize_bytes = 0
        self.results = 0
        self.cache = "warm"
        self.strategy: Optional[str] = None
        self.est_nodes: Optional[int] = None
        self._t0 = time.perf_counter()
        self.dur_us = 0

    # ------------------------------------------------------------------
    # Deposits (called at most a handful of times per run)
    # ------------------------------------------------------------------

    def add_scan(
        self, nodes: int = 0, pruned: int = 0, transitions: int = 0, skipped: int = 0
    ) -> None:
        """One scan's worth of counts, deposited after the loop.
        *skipped* is the summed distance of the scan's jumps (nodes of
        either kind it never looked at), counted per jump."""
        self.nodes_visited += nodes
        self.subtrees_pruned += pruned
        self.dfa_transitions += transitions
        self.nodes_skipped += skipped

    def add_qualifiers(
        self, sweeps: int = 0, swept: int = 0, stepped: int = 0,
        verdicts: Optional[Dict[str, int]] = None,
    ) -> None:
        """One scan's qualifier work: ranges *swept* set-at-a-time and
        the leaf postings those sweeps examined, candidates still
        *stepped* (decided one node at a time by a closure), and for
        the ranges left to the closures the rule's verdict
        (``unsupported:<shape>`` / ``leaf-heavy``) with how many."""
        self.qual_sweeps += sweeps
        self.qual_swept += swept
        self.qual_stepped += stepped
        for verdict, count in (verdicts or {}).items():
            self.qual_verdicts[verdict] = self.qual_verdicts.get(verdict, 0) + count

    def add_table_growth(self, sets: int = 0, moves: int = 0) -> None:
        """DFA transition-table growth observed across one scan
        (``dfa.stats()`` deltas): non-zero means this run paid lazy
        subset construction that later runs will not."""
        self.table_sets_added += sets
        self.table_moves_added += moves

    def add_serialize_bytes(self, count: int) -> None:
        self.serialize_bytes += count

    def note_compile(self) -> None:
        """A compiled-cache miss was paid during this run (called by
        the cache, at the miss)."""
        self.cache = "cold"

    def set_plan(self, strategy: str, est_nodes: Optional[int] = None) -> None:
        """The strategy this run executes and, where one exists, the
        node count it is expected to visit (stamped by the code that
        runs the strategy when a profile is active)."""
        self.strategy = strategy
        self.est_nodes = est_nodes

    def add_results(self, count: int) -> None:
        self.results += count

    def finish(self) -> None:
        """Stamp the run duration (idempotent enough: last call wins)."""
        self.dur_us = int((time.perf_counter() - self._t0) * 1e6)

    # ------------------------------------------------------------------

    def visit_ratio(self) -> Optional[float]:
        """Actual nodes visited over the expected count (None when
        either side is missing/zero)."""
        if not self.est_nodes or self.nodes_visited <= 0:
            return None
        return self.nodes_visited / float(self.est_nodes)

    def snapshot(self) -> Dict[str, Any]:
        """The profile as one JSON-serializable dict (the shape the
        slow-query log and ``explain_analyze`` embed)."""
        out: Dict[str, Any] = {
            "strategy": self.strategy,
            "est_nodes": self.est_nodes,
            "nodes_visited": self.nodes_visited,
            "subtrees_pruned": self.subtrees_pruned,
            "dfa_transitions": self.dfa_transitions,
            "nodes_skipped": self.nodes_skipped,
            "qual_sweeps": self.qual_sweeps,
            "qual_swept": self.qual_swept,
            "qual_stepped": self.qual_stepped,
            "qual_verdicts": dict(self.qual_verdicts),
            "table_sets_added": self.table_sets_added,
            "table_moves_added": self.table_moves_added,
            "serialize_bytes": self.serialize_bytes,
            "results": self.results,
            "cache": self.cache,
            "dur_us": self.dur_us,
        }
        ratio = self.visit_ratio()
        if ratio is not None:
            out["visit_ratio"] = round(ratio, 4)
        return out
