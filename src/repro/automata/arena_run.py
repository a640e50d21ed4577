"""Arena-native automaton runs: the selecting DFA over pre-order index
ranges.

The Node runners (``run_select``, ``topDown``) spend most of their time
*outside* the automaton — chasing ``Element`` attributes, building
child lists, pushing per-node tuples.  Over a
:class:`~repro.xmltree.arena.FrozenDocument` the same lazy DFA runs as
one pre-order loop with local-variable state:

* the node's symbol id is ``sym[i]`` (already interned — no label
  string, no hash);
* the transition is one dict hit on the memoized move table;
* an empty target set **skips the whole subtree** by jumping
  ``i += size[i]`` — the paper's pruning, now a single int addition
  over the contiguous pre-order range;
* the only per-node allocation is appending a matched index;
* a qualifier on a step is **read, not recomputed, per candidate**:
  the first conditional move into a qualifier-bearing state inside an
  open range has the range's candidates swept set-at-a-time
  (:func:`repro.xpath.arena_compiler.sweep_qualifier` — the set form;
  the compiled closure is the single-node form), every later move in
  that range is a set membership, and a set all of whose consuming
  edges are qualifier-guarded is walked from one passing candidate to
  the next.  The truth sets live in a :class:`~repro.automata.dfa.
  ScanTruth` local to one :func:`select_indices` call.  A range falls
  back to per-candidate closure calls when the one rule
  (:func:`~repro.xpath.arena_compiler.choose_sweep`) says so: the
  qualifier holds a wildcard or ``//`` step or the deferred mid-path
  attribute, the candidate is a wildcard, the range holds only a
  handful of candidates, or its leaves outnumber them many times over.

:func:`select_indices` is the shared walk behind the arena paths of
``run_select``, the store's and the service's reads (documents, views,
staged previews), the transform kernel's target selection
(``repro.transform.arena.transform_arena`` — the one way an arena is
transformed; its result is serialized like any other arena) and the
xquery arena evaluator.
"""

from __future__ import annotations

from typing import Optional

from repro.automata.dfa import ScanTruth
from repro.obs import current_profile
from repro.xmltree.arena import FrozenDocument
from repro.xpath.ast import TrueQual

__all__ = [
    "initial_id_for",
    "select_indices",
    "serialize_arena_items",
]


def initial_id_for(selecting, arena: FrozenDocument, context: int = 0) -> Optional[int]:
    """The interned initial set id at *context*, or ``None`` when a
    context qualifier (``.[q]/…``) fails there — nothing can match."""
    dfa = selecting.dfa()
    if arena.symbols is not dfa.symbols:
        raise ValueError(
            "arena and automaton intern through different symbol tables; "
            "build both against the same SymbolTable"
        )
    context_qual = selecting.context_qual
    if not isinstance(context_qual, TrueQual):
        from repro.xpath.arena_compiler import compile_qualifier_arena

        check = selecting.__dict__.get("_arena_context_check")
        if check is None:
            check = compile_qualifier_arena(context_qual, dfa.symbols)
            selecting._arena_context_check = check
        if not check(arena, context):
            return None
    return dfa.initial_id


# hot-path
def select_indices(
    selecting, arena: FrozenDocument, context: int = 0
) -> list:
    """``r[[p]]`` over the arena: pre-order indices of the selected
    nodes in the subtree of *context*, in document order.

    The arena twin of :meth:`~repro.automata.selecting.SelectingNFA.
    run_select` — same automaton, same memoized move tables, ~none of
    the object traffic.

    **Jump scans.**  While the innermost open set is jumpable
    (:meth:`LazyDFA._jump_key`: no node can change the run before the
    next one labelled in ``R(T)``), the walk does not step node by
    node: it moves ``i`` to the next :meth:`~repro.xmltree.arena.
    FrozenDocument.postings` entry of ``R(T)`` inside the open range,
    or to the range's end.  A node entering a jumpable set whose own
    range holds no such entry is left at once (``i += size[i]``) rather
    than opened.  ``cursor`` keeps, per ``R(T)``, the last answer: the
    walk only moves forward, so an answer at or past ``i`` still
    stands and the postings are searched once per jump, not per
    opened node.  Wildcard steps and sets whose members consume more
    than their ``//`` states do stay on the per-node path.

    **Qualified jumps.**  A conditional move reads its qualifiers from
    ``truth`` — this call's :class:`~repro.automata.dfa.ScanTruth`, in
    which a qualifier-bearing state has the candidates of the open
    range swept once, bottom-up from the leaf label's postings, the
    first time a move enters it there (and again once the walk has
    left that range: an entry never answers for another range).  Where
    the innermost set is *guarded* (:meth:`LazyDFA._guard_key`: every
    node that could enter a state from it must pass a qualifier) the
    walk does not step the failing candidates either: it moves to the
    next member of the sorted truth list exactly as a jump moves to
    the next posting — for a child step, the next member whose parent
    is the set's ``holder``, which is why the ancestor stack carries
    the holders.  Ranges the one rule (:func:`~repro.xpath.
    arena_compiler.choose_sweep`) leaves unswept are walked as before,
    their candidates decided by the compiled closures.

    The loop counts into locals and deposits once, after the walk,
    into the execution profile active on the calling thread (if any):
    elements stepped (one DFA transition each), empty-set prunes,
    nodes jumped over, what the qualifier sweeps examined, and the
    lazy table growth this scan paid.
    """
    out: list = []
    initial_id = initial_id_for(selecting, arena, context)
    if initial_id is None:
        return out
    dfa = selecting.dfa()
    profile = current_profile()  # unguarded: one thread-local read is the documented cost of the off path
    before = dfa.stats() if profile is not None else None
    moves, compile_move, apply_move_arena = dfa.arena_hot_path()
    empty_id = dfa.empty_id
    final_flags = dfa.final_flags
    set_jump = dfa.set_jump
    set_guard = dfa.set_guard
    next_guarded = dfa.next_guarded
    next_posting = arena.next_posting
    cursor: dict = {}
    truth = ScanTruth()
    sym = arena.sym
    size = arena.size
    append = out.append
    limit = context + size[context]
    visited = 0  # elements stepped into a non-empty set ...
    pruned = 0   # ... and into the empty one
    skipped = 0
    # Ancestor stack: sets/ends/holders hold the open chain; top_set
    # mirrors the innermost set so the per-node fast path never indexes
    # [-1].  ``event`` is the next index at which the walk must look at
    # the stack: the end of the innermost range while its set steps
    # node by node, or 0 — every index — while it jumps.
    sets = [initial_id]
    ends = [limit]
    holders = [context]
    top_set = initial_id
    event = 0
    i = context + 1
    while i < limit:
        if event <= i:
            while ends[-1] <= i:
                sets.pop()
                ends.pop()
                holders.pop()
            top_set = sets[-1]
            event = ends[-1]
            # ``at``: the next index this set needs the walk at, or -1
            # while it steps node by node.
            at = -1
            if set_guard[top_set] is not None:
                at = next_guarded(top_set, arena, i, event, holders[-1], truth)
            if at < 0:
                jump = set_jump[top_set]
                if jump is not None:
                    at = cursor.get(jump, 0)
                    if at < i:
                        at = cursor[jump] = next_posting(jump, i)
            if at >= 0:
                if at >= event:
                    skipped += event - i
                    i = event
                    continue
                skipped += at - i
                i = at  # an element: postings hold no text node
                event = 0
        s = sym[i]
        if s < 0:
            i += 1
            continue
        move = moves[top_set].get(s)
        if move is None:
            move = compile_move(top_set, s)
        if move.cond_sids:
            set_id = apply_move_arena(move, arena, i, ends[-1], truth)
        else:
            set_id = move.target0
        if set_id == empty_id:
            pruned += 1
            i += size[i]  # prune: the whole subtree range, skipped
            continue
        visited += 1
        if final_flags[set_id]:
            append(i)
        e = i + size[i]
        i += 1
        # A node holding its parent's set is not opened: the stack
        # only restores a set, and there is none to restore.
        if e > i and set_id != top_set:
            jump = set_jump[set_id]
            if jump is not None:
                at = cursor.get(jump, 0)
                if at < i:
                    at = cursor[jump] = next_posting(jump, i)
                if at >= e:
                    skipped += e - i
                    i = e  # nothing below can change the run: never opened
                    continue
            event = 0 if jump is not None or set_guard[set_id] is not None else e
            sets.append(set_id)
            ends.append(e)
            holders.append(i - 1)
            top_set = set_id
    if profile is not None:
        after = dfa.stats()
        stepped = visited + pruned  # one DFA transition per element stepped
        profile.add_scan(
            nodes=stepped, pruned=pruned, transitions=stepped, skipped=skipped
        )
        profile.add_qualifiers(
            sweeps=truth.sweeps, swept=truth.swept,
            stepped=truth.stepped, verdicts=truth.verdicts,
        )
        profile.add_table_growth(
            sets=after["sets"] - before["sets"],
            moves=after["moves"] - before["moves"],
        )
    return out


def serialize_arena_items(arena: FrozenDocument, items) -> list:
    """Serialize query-result items to text, straight from the columns.

    The shared tail of every serialized read path (``ViewStore.
    query_serialized``, a read's ``run_file``): an ``int`` item is an arena
    index — its text is the arena's :meth:`~repro.xmltree.arena.
    FrozenDocument.serialized` subtree, written from the pre-order
    range with no thaw the first time any read of this version asks
    for that node, and read back every time after; an ``Element`` (a
    constructed template or a Node-path result) takes the Node
    serializer; literals render as text.
    """
    from repro.xmltree.node import Element
    from repro.xmltree.serializer import serialize

    serialized = arena.serialized
    out = []
    for item in items:
        if isinstance(item, int):
            out.append(serialized(item))
        elif isinstance(item, Element):
            out.append(serialize(item))
        else:
            out.append(str(item))
    profile = current_profile()
    if profile is not None:
        profile.add_serialize_bytes(sum(len(text) for text in out))
        profile.add_results(len(out))
    return out
