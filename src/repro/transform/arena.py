"""The transform kernel: one update over a frozen arena, arena → arena.

:func:`transform_arena` is the only way anything transforms a
:class:`~repro.xmltree.arena.FrozenDocument` — the engine
(``PreparedTransform.run`` on an arena), the service's ``transform``
op, the store's view layers and staged previews, and the commit path
(``store.delta``, under its budget): select the update's targets with
its selecting automaton over the columns, turn the matches into
patches, and :func:`~repro.xmltree.arena.splice` the next arena —
no Node tree, no column rebuild, O(matches) patches on extents shared
with the input, which stays as it was (the paper's transform query).

Alongside the patches it says what a cached answer over the input can
be told from (:func:`repro.store.delta.rekey_verdict`), in two parts.
``changed`` is every element label a node of which **appeared,
disappeared or was renamed** — labels a segment introduces, labels
inside removed ranges, rename sources and the target: a query naming
none of them matches the same nodes before and after.  ``chain`` is
every kept node whose **serialization** changed — the attach points and
their ancestors, and a renamed node itself — as pre-order indices into
the input: an answer item not among them is byte-for-byte what it was.
``labels``, the **delta label set**, is ``changed`` plus the labels on
the chain: the conservative superset a reader that does not know where
its items sit (a view stack, a constructed item) is tested against.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.automata.arena_run import select_indices
from repro.obs import span
from repro.xmltree.arena import (
    FrozenDocument,
    SpliceSegment,
    freeze_segment,
    rename_splice,
    splice_applied,
)
from repro.xmltree.symbols import SymbolTable

__all__ = [
    "ArenaStep", "ArenaTransformError", "PatchRange", "SELECT_ERRORS", "topmost",
    "transform_arena",
]

#: Exceptions the selecting/compile machinery raises on inputs it does
#: not support over arenas (mismatched symbol tables, unsupported
#: qualifier shapes).  Anything else is a real bug and must surface.
SELECT_ERRORS = (ValueError, KeyError, NotImplementedError)

#: One splice patch range: ``(kind, start, stop, attach)``.
PatchRange = Tuple[str, int, int, int]


class ArenaTransformError(ValueError):
    """The update cannot be spliced into this arena; *reason* is
    ``"selector"`` (the selecting machinery rejects the path over it)
    or ``"root"`` (the update would remove the whole document)."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class ArenaStep(NamedTuple):
    """What one :func:`transform_arena` call did: the next arena, how
    many nodes the update removed or introduced, the patch list against
    the arena it was handed, and what changed (module docstring)."""

    arena: FrozenDocument
    touched: int
    ranges: List[PatchRange]
    #: The delta label set: ``changed`` plus the labels on ``chain``.
    labels: Set[str]
    #: Labels of the nodes that appeared, disappeared or were renamed.
    changed: FrozenSet[str] = frozenset()
    #: Input indices of the kept nodes that serialize differently.
    chain: FrozenSet[int] = frozenset()
    #: The patches in applied order and their shift table, as
    #: :func:`~repro.xmltree.arena.splice_applied` hands them back —
    #: what :func:`~repro.xmltree.arena.carry_indices` moves an index
    #: list of the input by; ``None`` when no node moved (a rename, or
    #: nothing matched).
    patches: Optional[list] = None
    cum: Optional[list] = None


def _segment_for(update: Any, symbols: SymbolTable) -> SpliceSegment:
    """The update's constant content as a splice segment, cached on the
    update object (a view layer's update lives in the compiled cache
    and a staged one in its log entry, so the segment is frozen once
    per update per symbol table)."""
    cached: Optional[SpliceSegment] = getattr(update, "_splice_segment", None)
    if cached is not None and cached.symbols is symbols:
        return cached
    segment = freeze_segment(update.content, symbols)
    update._splice_segment = segment
    return segment


def _chain(arena: FrozenDocument, index: int, seen: Set[int]) -> None:
    """Add *index* and its ancestors to *seen* (a walk stops where an
    earlier one already passed)."""
    up = arena.up
    c = index
    while c >= 0 and c not in seen:
        seen.add(c)
        c -= up[c]


def topmost(matches: List[int], size: Any) -> List[int]:
    """Filter doc-order matches to topmost-wins (delete/replace);
    *size* is the arena's subtree-size column."""
    top: List[int] = []
    boundary = 0
    for m in matches:
        if m >= boundary:
            top.append(m)
            boundary = m + size[m]
    return top


def transform_arena(arena: FrozenDocument, update: Any, nfa: Any) -> ArenaStep:
    """One transform, arena → arena: select the update's targets with
    *nfa* (the selecting NFA of ``update.path``), turn the matches into
    patches, splice.  Returns *arena* itself when nothing matches.
    Raises :class:`ArenaTransformError` for a selector the arena
    machinery rejects or an update that removes the root."""
    with span("scan"):
        try:
            matches = select_indices(nfa, arena)
        except SELECT_ERRORS as exc:
            raise ArenaTransformError(
                "selector", f"cannot select update targets: {exc}"
            ) from exc
    ranges: List[PatchRange] = []
    if not matches:
        return ArenaStep(arena, 0, ranges, set())
    with span("splice"):
        sym = arena.sym
        up = arena.up
        size = arena.size
        kind = update.kind
        segment: Optional[SpliceSegment] = None
        if kind in ("insert", "replace"):
            segment = _segment_for(update, arena.symbols)
        if kind == "insert":
            spans = [(m + size[m], m + size[m], m) for m in matches]
        elif kind == "rename":
            spans = [(m, m + 1, m - up[m]) for m in matches]
        else:  # delete / replace: topmost match wins
            spans = [(m, m + size[m], m - up[m]) for m in topmost(matches, size)]
            if spans[0][0] == 0:
                # The whole document is the delta; nothing to share.
                raise ArenaTransformError("root", "update removes the document root")
        # Symbols of every removed or relabelled node (text nodes leave
        # a -1) and the chains; named once, at the end.
        syms: Set[int] = set()
        chain: Set[int] = set()
        touched = len(spans) * len(segment.sym) if segment is not None else 0
        for start, stop, attach in spans:
            touched += stop - start
            syms.update(sym[start:stop])
            # A renamed node is kept, and serializes differently itself.
            _chain(arena, start if kind == "rename" else attach, chain)
            ranges.append((kind, start, stop, attach))
        strings = arena.symbols.strings
        changed = {strings[s] for s in syms if s >= 0}
        patches = cum = None
        if kind == "rename":
            # Point-writes on the symbol column; full column aliasing
            # for everything else.
            spliced = rename_splice(arena, matches, update.new_label)
            changed.add(update.new_label)
        else:
            spliced, patches, cum = splice_applied(
                arena, [s + (segment,) for s in spans]
            )
            if segment is not None:
                changed.update(segment.labels)
        labels = changed | {strings[sym[c]] for c in chain}
    return ArenaStep(
        spliced, touched, ranges, labels, frozenset(changed), frozenset(chain),
        patches, cum,
    )
