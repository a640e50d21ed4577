"""Streaming evaluation of ``X`` path expressions over SAX events.

``stream_select(source, p)`` yields the subtrees of the nodes in
``r[[p]]`` (the root too, for ``//.``), in document order, reading the
document twice (the Section-6 two-pass discipline: pass 1 records
qualifier truths in the cursor-indexed ``Ld`` list, pass 2 runs the
selecting NFA and already knows, at each ``startElement``, whether the
node is selected).

Because the discipline *requires* two reads, the event source must be
replayable: ``source()`` is called once per pass and must return a
fresh iterator each time.  A one-shot source (e.g. ``lambda: events``
around an existing generator) would silently feed pass 2 an exhausted
stream; :func:`stream_select` detects that and raises a ``ValueError``
naming the requirement instead.

Memory is bounded by document depth plus the size of the *currently
open* matches: only subtrees that are being captured are materialized.
A selected node nested inside another selected node yields its own
tree; emission is deferred just enough to preserve document order.

The automaton state per open element is an interned DFA set id plus an
alive bitmask (see :meth:`repro.automata.dfa.LazyDFA.tracked_move`) —
the same compiled tracked moves the SAX pass 2 of
:mod:`repro.transform.sax_twopass` runs on.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.automata.filtering import FilteringNFA, build_filtering_nfa
from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.transform.sax_twopass import pass1_collect_ld
from repro.xmltree.node import Element, Text
from repro.xmltree.sax import (
    EndElement,
    SAXEvent,
    StartElement,
    TextEvent,
    TwoPassSource,
)
from repro.xpath.ast import Path

EventSource = Callable[[], Iterable[SAXEvent]]


class _Capture:
    """One in-flight match being materialized as a tree."""

    __slots__ = ("root", "stack", "done")

    def __init__(self, label: str, attrs: dict):
        self.root = Element(label, dict(attrs), [])
        self.stack = [self.root]
        self.done = False

    def start(self, label: str, attrs: dict) -> None:
        node = Element(label, dict(attrs), [])
        self.stack[-1].children.append(node)
        self.stack.append(node)

    def text(self, value: str) -> None:
        self.stack[-1].children.append(Text(value))

    def end(self) -> None:
        self.stack.pop()
        if not self.stack:
            self.done = True


def stream_select(
    source,
    path: Path,
    selecting: Optional[SelectingNFA] = None,
    filtering: Optional[FilteringNFA] = None,
) -> Iterator[Element]:
    """Yield ``r[[p]]`` subtrees from a two-pass streaming run.

    Raises ``ValueError`` if *source* is not replayable (see the module
    docstring): the Section-6 discipline reads the document twice.

    A :class:`~repro.xmltree.arena.FrozenDocument` may be passed
    directly as *source*: its columns are **replayable by
    construction** (every :func:`~repro.xmltree.arena.arena_to_events`
    call is a fresh stream over immutable arrays), so an arena is the
    natural replay source for the two-pass discipline — no one-shot
    iterator hazard, no second file read.
    """
    from repro.xmltree.arena import FrozenDocument, arena_to_events

    if isinstance(source, FrozenDocument):
        arena = source
        source = lambda: arena_to_events(arena)  # noqa: E731
    if selecting is None:
        selecting = build_selecting_nfa(path)
    if filtering is None:
        filtering = build_filtering_nfa(path)
    two_pass = TwoPassSource(source, "stream_select")
    ld = pass1_collect_ld(two_pass.pass1(), filtering)
    return _select_pass2(two_pass.pass2(), selecting, ld)


def _select_pass2(
    events: Iterable[SAXEvent],
    selecting: SelectingNFA,
    ld: list,
) -> Iterator[Element]:
    dfa = selecting.dfa()
    advance = dfa.advance_tracked
    cursor = 0
    stack: list = []                # (set_id, alive) per open element
    captures: list[_Capture] = []   # in start order (document order)
    for event in events:
        if isinstance(event, StartElement):
            if not stack:
                set_id, alive, cursor, selected = dfa.root_tracked(ld, cursor)
                stack.append((set_id, alive))
                if selected:
                    captures.append(_Capture(event.name, event.attrs))
                continue
            set_id, alive, cursor, selected = advance(
                stack[-1][0], stack[-1][1], event.name, ld, cursor
            )
            stack.append((set_id, alive))
            for capture in captures:
                if not capture.done:
                    capture.start(event.name, event.attrs)
            if selected:
                captures.append(_Capture(event.name, event.attrs))
        elif isinstance(event, EndElement):
            for capture in captures:
                if not capture.done:
                    capture.end()
            stack.pop()
            # Emit completed matches from the front to keep document order.
            while captures and captures[0].done:
                yield captures.pop(0).root
        elif isinstance(event, TextEvent):
            for capture in captures:
                if not capture.done:
                    capture.text(event.value)
    # All captures close with their end tags; nothing can remain open.
    # (TwoPassSource raises before we get here if pass 2 was starved.)

