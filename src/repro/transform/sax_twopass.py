"""Algorithm ``twoPassSAX`` (Section 6): transform evaluation fused
with SAX parsing, for documents too large for DOM-style trees.

Two streaming passes over the same document:

**Pass 1 — SAX bottomUp.**  A stack mirrors the open-element chain.
Each entry holds the filtering-NFA state set, the ``csat``/``dsat``
accumulators, the element's attributes and collected PCDATA.  On every
``startElement`` the paper's *cursor* assigns a fresh id to each
top-level qualifier that will need a value at that node; on
``endElement`` the entry is folded with ``QualDP`` and the values are
recorded in the list ``Ld`` under those ids.

**Pass 2 — SAX topDown.**  A second scan replays *exactly the same
cursor discipline* and looks the values up by id, so every qualifier's
truth is known already at ``startElement`` time — early enough to
suppress a deleted/replaced subtree, rename a tag, or arrange an
insertion before the closing tag.  The output is itself a SAX event
stream (serializable straight to disk).

Cursor alignment (the paper: the two NFAs "have the same structure when
sub-qualifiers … are struck out"): both automata are built from the
same normalized step list, so their spine states are created in step
order, and pass 2 tracks the *unfiltered* state set exactly as pass 1
does — qualifier truth only toggles a per-state ``alive`` flag and
never changes which states are tracked.  Both passes therefore visit
the same (node, qualifier-state) pairs in the same sorted order.

Memory: the stacks are bounded by document depth × |p|, and ``Ld``
holds one boolean per qualifier occurrence.  The paper stores ``Ld``
on disk; here it is an in-memory list, because one slot per occurrence
is small next to the document (the flat-heap test in
``tests/test_sax_twopass.py`` holds the whole transform under 1 MB).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.automata.core import TEST_DOS
from repro.automata.filtering import FilteringNFA, build_filtering_nfa
from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.transform.qualdp import qual_dp
from repro.transform.query import TransformQuery
from repro.updates.ops import Delete, Insert, Rename, Replace
from repro.xmltree.node import Element
from repro.xmltree.sax import (
    EndDocument,
    EndElement,
    SAXEvent,
    StartDocument,
    StartElement,
    TextEvent,
    TwoPassSource,
    events_to_text,
    events_to_tree,
    iter_sax_file,
    tree_to_events,
)

#: A factory producing a fresh SAX event iterator per pass.
EventSource = Callable[[], Iterable[SAXEvent]]


# ----------------------------------------------------------------------
# Pass 1: SAX-integrated bottomUp
# ----------------------------------------------------------------------


class _Pass1Entry:
    """Stack entry of the SAX bottomUp pass (Section 6's five fields)."""

    __slots__ = ("states", "csat", "dsat", "texts", "attrs", "label", "qual_ids")

    def __init__(self, states, size, label, attrs):
        self.states = states            # filtering-NFA DFA set id
        self.csat = [False] * size
        self.dsat = [False] * size
        self.texts: list[str] = []
        self.attrs = attrs
        self.label = label
        self.qual_ids: list = []        # (cursor id, nq_id) pairs to emit


def pass1_collect_ld(events: Iterable[SAXEvent], nfa: FilteringNFA) -> list:
    """Run the SAX bottomUp pass; returns ``Ld`` as a list indexed by
    cursor id (the disk file of the paper, kept in memory).

    The state sets live as interned ids in the filtering NFA's lazy
    DFA; each set's needed qualifier ids (``LQ(S)``, in the sorted
    state order pass 2 mirrors) are precomputed per set, so the per-
    element work is one table hit plus the cursor bookkeeping.
    """
    space = nfa.space
    size = len(space)
    dfa = nfa.dfa()
    step_all = dfa.step_all
    empty_id = dfa.empty_id
    set_nq = dfa.set_nq
    ld: list = []
    stack: list[_Pass1Entry] = []
    prune_depth = 0  # >0 while inside a pruned subtree
    for event in events:
        if isinstance(event, StartElement):
            if prune_depth:
                prune_depth += 1
                continue
            if not stack:
                states = dfa.initial_id  # the root consumes no symbol
            else:
                states = step_all(stack[-1].states, event.name)
                if states == empty_id:
                    prune_depth = 1  # Fig. 9 line 6: skip the subtree
                    continue
            entry = _Pass1Entry(states, size, event.name, event.attrs)
            # Cursor discipline: one id per top-level qualifier needed
            # here, in sorted state order (mirrored exactly by pass 2).
            for nq_id in set_nq[states]:
                entry.qual_ids.append((len(ld), nq_id))
                ld.append(None)  # reserved; filled at endElement
            stack.append(entry)
        elif isinstance(event, EndElement):
            if prune_depth:
                prune_depth -= 1
                continue
            entry = stack.pop()
            sat = qual_dp(
                space, entry.label, "".join(entry.texts), entry.attrs,
                entry.csat, entry.dsat,
            )
            for cursor_id, nq_id in entry.qual_ids:
                ld[cursor_id] = sat[nq_id]
            if stack:
                parent = stack[-1]
                pcsat, pdsat, edsat = parent.csat, parent.dsat, entry.dsat
                for i in range(size):
                    if sat[i]:
                        pcsat[i] = True
                        pdsat[i] = True
                    elif edsat[i]:
                        pdsat[i] = True
        elif isinstance(event, TextEvent):
            if not prune_depth and stack:
                stack[-1].texts.append(event.value)
        # Start/EndDocument: nothing to do.
    return ld


# ----------------------------------------------------------------------
# Pass 2: SAX-integrated topDown
# ----------------------------------------------------------------------


class _Pass2Entry:
    """Stack entry of the SAX topDown pass: the tracked DFA set id and
    alive bitmask, plus the output decision taken at startElement."""

    __slots__ = ("set_id", "alive", "out_label", "insert_after")

    def __init__(self, set_id, alive, out_label, insert_after):
        self.set_id = set_id                  # unfiltered DFA set id
        self.alive = alive                    # bitmask over the set's members
        self.out_label = out_label            # label to emit at endElement (rename)
        self.insert_after = insert_after      # emit content before endElement


def _advance_tracked(
    nfa: SelectingNFA, current: dict, label: str
) -> tuple[dict, list]:
    """One unfiltered transition on the tracked set — the original
    frozenset/dict reference of the compiled tracked move
    (:meth:`repro.automata.dfa.LazyDFA.tracked_move`); kept for the
    equivalence property tests.

    Returns ``(tracked, to_check)``: the new ``sid -> alive`` mapping
    (alive propagated from predecessors, qualifiers not yet applied)
    and the sorted list of entered states whose qualifier needs a
    cursor value at this node.
    """
    states = nfa.states
    tracked: dict = {}
    for sid, alive in current.items():
        state = states[sid]
        if state.test == TEST_DOS:  # '*' self-loop
            tracked[sid] = tracked.get(sid, False) or alive
        for target_id in state.out_consume:
            if states[target_id].enter_matches(label):
                tracked[target_id] = tracked.get(target_id, False) or alive
    to_check = [sid for sid in sorted(tracked) if states[sid].has_qualifier]
    return tracked, to_check


def _close_epsilon(nfa: SelectingNFA, tracked: dict) -> None:
    """Propagate alive flags over ε edges (into dos states), in place —
    reference counterpart of the compiled move's ``eps_pairs``."""
    states = nfa.states
    # ε edges go from state i to the dos state i+1: increasing-id order
    # reaches a fixpoint in one sweep over the semi-linear automaton.
    for sid in sorted(tracked):
        for target_id in states[sid].out_eps:
            current = tracked.get(target_id, False)
            tracked[target_id] = current or tracked[sid]


def pass2_transform(
    events: Iterable[SAXEvent],
    nfa: SelectingNFA,
    query: TransformQuery,
    ld: list,
) -> Iterator[SAXEvent]:
    """Run the SAX topDown pass; yields the transformed event stream.

    The tracked set runs as ``(DFA set id, alive bitmask)``: one
    compiled :meth:`~repro.automata.dfa.LazyDFA.tracked_move` per
    ``(set, label)`` replaces the per-node dict rebuild of the seed —
    the cursor discipline (and hence ``Ld`` alignment with pass 1) is
    byte-for-byte the same.
    """
    update = query.update
    is_insert = isinstance(update, Insert)
    is_delete = isinstance(update, Delete)
    is_replace = isinstance(update, Replace)
    is_rename = isinstance(update, Rename)
    content_events: Optional[list] = None
    if is_insert or is_replace:
        content_events = list(tree_to_events(update.content, document=False))

    dfa = nfa.dfa()
    advance = dfa.advance_tracked
    cursor = 0
    stack: list[_Pass2Entry] = []
    suppress_depth = 0  # >0 inside a deleted/replaced subtree
    yield StartDocument()
    for event in events:
        if isinstance(event, StartElement):
            if not stack:
                # The root consumes no symbol and is never updated; a
                # context qualifier (.[q]/…) consumes its cursor id here,
                # mirroring pass 1's root entry.
                set_id, alive, cursor, _ = dfa.root_tracked(ld, cursor)
                stack.append(_Pass2Entry(set_id, alive, event.name, False))
                yield event
                continue
            parent = stack[-1]
            set_id, alive, cursor, selected = advance(
                parent.set_id, parent.alive, event.name, ld, cursor
            )
            selected = selected and not suppress_depth
            out_label = event.name
            insert_after = False
            if selected and is_delete:
                suppress_depth = 1
                stack.append(_Pass2Entry(set_id, alive, out_label, False))
                continue
            if selected and is_replace:
                yield from content_events
                suppress_depth = 1
                stack.append(_Pass2Entry(set_id, alive, out_label, False))
                continue
            if suppress_depth:
                suppress_depth += 1
                stack.append(_Pass2Entry(set_id, alive, out_label, False))
                continue
            if selected and is_rename:
                out_label = update.new_label
            if selected and is_insert:
                insert_after = True
            stack.append(_Pass2Entry(set_id, alive, out_label, insert_after))
            yield StartElement(out_label, event.attrs)
        elif isinstance(event, EndElement):
            entry = stack.pop()
            if suppress_depth:
                suppress_depth -= 1
                continue
            if entry.insert_after:
                yield from content_events
            yield EndElement(entry.out_label)
        elif isinstance(event, TextEvent):
            if not suppress_depth:
                yield event
    yield EndDocument()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def transform_sax_events(
    source: EventSource,
    query: TransformQuery,
    selecting: Optional[SelectingNFA] = None,
    filtering: Optional[FilteringNFA] = None,
) -> Iterator[SAXEvent]:
    """``twoPassSAX`` over an event source (called once per pass).

    Like :func:`repro.streaming.select.stream_select`, the source must
    be replayable; :class:`repro.xmltree.sax.TwoPassSource` raises a
    ``ValueError`` naming the two-pass requirement when it is not.
    """
    if selecting is None:
        selecting = build_selecting_nfa(query.path)
    if filtering is None:
        filtering = build_filtering_nfa(query.path)
    two_pass = TwoPassSource(source, "twoPassSAX")
    ld = pass1_collect_ld(two_pass.pass1(), filtering)
    return pass2_transform(two_pass.pass2(), selecting, query, ld)


def transform_sax_file(
    in_path: str,
    query: TransformQuery,
    out_path: Optional[str] = None,
    strip_whitespace: bool = True,
    selecting: Optional[SelectingNFA] = None,
    filtering: Optional[FilteringNFA] = None,
) -> Optional[str]:
    """``twoPassSAX`` from file to file (or to a returned string).

    This is the configuration of Fig. 14: memory stays bounded by
    document depth regardless of file size.  Prebuilt automata may be
    supplied (e.g. by a prepared statement) to skip reconstruction.
    """
    def source() -> Iterable[SAXEvent]:
        return iter_sax_file(in_path, strip_whitespace=strip_whitespace)

    result_events = transform_sax_events(source, query, selecting, filtering)
    if out_path is None:
        return events_to_text(result_events)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="utf-8"?>\n')
        events_to_text(result_events, handle)
        handle.write("\n")
    return None


def transform_sax(root: Element, query: TransformQuery) -> Element:
    """``twoPassSAX`` over an in-memory tree (events synthesized from
    the tree) — mainly for tests and cross-algorithm comparisons."""
    def source() -> Iterable[SAXEvent]:
        return tree_to_events(root)

    return events_to_tree(transform_sax_events(source, query))
