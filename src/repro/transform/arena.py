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

Alongside the patches it computes the **delta label set**: a
conservative superset of every element label whose presence, absence,
content or position the update may have changed — labels inside removed
ranges, labels a segment introduces, rename sources/targets, and the
labels on each attach point's ancestor chain (a result subtree that
*contains* a patch is reachable only through those).
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Set, Tuple

from repro.automata.arena_run import select_indices
from repro.obs import span
from repro.xmltree.arena import (
    FrozenDocument,
    SpliceSegment,
    freeze_segment,
    rename_splice,
    splice,
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
    the arena it was handed, and the delta label set."""

    arena: FrozenDocument
    touched: int
    ranges: List[PatchRange]
    labels: Set[str]


def _segment_for(update: Any, symbols: SymbolTable) -> SpliceSegment:
    """The update's constant content as a splice segment, cached on the
    update object (updates live in the compiled cache, so the segment
    is frozen once per distinct transform text per symbol table)."""
    cached: Optional[SpliceSegment] = getattr(update, "_splice_segment", None)
    if cached is not None and cached.symbols is symbols:
        return cached
    segment = freeze_segment(update.content, symbols)
    update._splice_segment = segment
    return segment


def _chain_syms(
    arena: FrozenDocument, index: int, syms: Set[int], seen: Set[int]
) -> None:
    """Add the symbols on the ancestor chain of *index* (inclusive)."""
    sym = arena.sym
    parent = arena.parent
    c = index
    while c >= 0 and c not in seen:
        seen.add(c)
        syms.add(sym[c])
        c = parent[c]


def topmost(matches: List[int], end: Any) -> List[int]:
    """Filter doc-order matches to topmost-wins (delete/replace)."""
    top: List[int] = []
    boundary = 0
    for m in matches:
        if m >= boundary:
            top.append(m)
            boundary = end[m]
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
        parent = arena.parent
        end = arena.end
        kind = update.kind
        segment: Optional[SpliceSegment] = None
        if kind in ("insert", "replace"):
            segment = _segment_for(update, arena.symbols)
        if kind == "insert":
            spans = [(end[m], end[m], m) for m in matches]
        elif kind == "rename":
            spans = [(m, m + 1, parent[m]) for m in matches]
        else:  # delete / replace: topmost match wins
            spans = [(m, end[m], parent[m]) for m in topmost(matches, end)]
            if spans[0][0] == 0:
                # The whole document is the delta; nothing to share.
                raise ArenaTransformError("root", "update removes the document root")
        # Symbols of every removed or relabelled node and of every attach
        # chain (text nodes leave a -1); named once, at the end.
        syms: Set[int] = set()
        seen_chain: Set[int] = set()
        touched = len(spans) * len(segment.sym) if segment is not None else 0
        for start, stop, attach in spans:
            touched += stop - start
            syms.update(sym[start:stop])
            _chain_syms(arena, attach, syms, seen_chain)
            ranges.append((kind, start, stop, attach))
        if kind == "rename":
            # Point-writes on the symbol column; full column aliasing
            # for everything else.
            spliced = rename_splice(arena, matches, update.new_label)
            labels = {update.new_label}
        else:
            spliced = splice(arena, [s + (segment,) for s in spans])
            labels = set(segment.labels) if segment is not None else set()
        strings = arena.symbols.strings
        labels.update(strings[s] for s in syms if s >= 0)
    return ArenaStep(spliced, touched, ranges, labels)
