"""Ablation variants of the evaluation algorithms.

These isolate the two levers the paper credits for its speedups, so the
benchmarks can measure each one's contribution separately:

* :func:`transform_topdown_no_pruning` — ``topDown`` with the
  empty-state-set shortcut disabled (Fig. 3 lines 2-3 removed): every
  subtree is rebuilt.  The gap to the real ``topDown`` is the value of
  NFA-driven pruning.
* :func:`transform_naive_indexed` — the Naive rewriting with the
  membership test ``n ∈ $xp`` answered by a hash set instead of the
  paper's linear scan.  This models an XQuery engine that *does*
  optimize node-identity membership (Section 3.1 conjectures the
  quadratic cost disappears then) — the gap to plain ``NAIVE`` is the
  cost of the unoptimized membership test, and the remaining gap to
  ``topDown`` is the cost of rebuilding untouched subtrees.
"""

from __future__ import annotations

from typing import Optional

from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.transform.query import TransformQuery
from repro.transform.topdown import CheckP, native_checkp
from repro.updates.ops import Update
from repro.xmltree.node import Element, Node
from repro.xpath.evaluator import evaluate


def transform_topdown_no_pruning(
    root: Element,
    query: TransformQuery,
    checkp: CheckP = native_checkp,
    nfa: Optional[SelectingNFA] = None,
) -> Element:
    """``topDown`` without subtree pruning (ablation)."""
    if nfa is None:
        nfa = build_selecting_nfa(query.path)
    initial = nfa.initial_states_for(root)
    fresh = Element(root.label, dict(root.attrs), [])
    for child in root.children:
        fresh.children.extend(
            _subtree_no_pruning(nfa, initial, query.update, child, checkp)
        )
    return fresh


def _subtree_no_pruning(
    nfa: SelectingNFA,
    states: frozenset,
    update: Update,
    node: Node,
    checkp: CheckP,
) -> list[Node]:
    if not node.is_element:
        return [node]
    next_states = nfa.next_states(states, node.label, lambda q: checkp(q, node))
    matched = bool(next_states) and nfa.selects(next_states)
    if matched and not update.recurses_into_match:
        return update.result_for_match(Element(node.label, dict(node.attrs), []))
    # The ablated step: rebuild unconditionally, even when next_states
    # is empty and nothing below can change.
    fresh = Element(node.label, dict(node.attrs), [])
    for child in node.children:
        fresh.children.extend(
            _subtree_no_pruning(nfa, next_states, update, child, checkp)
        )
    if matched:
        return update.result_for_match(fresh)
    return [fresh]


def transform_naive_indexed(root: Element, query: TransformQuery) -> Element:
    """The Naive rewriting with an O(1) membership test (ablation)."""
    from repro.transform.naive import rebuild_with_membership

    update = query.update
    xp_ids = {id(node) for node in evaluate(root, update.path)} - {id(root)}
    rebuilt = rebuild_with_membership(root, lambda n: id(n) in xp_ids, update)
    assert len(rebuilt) == 1 and rebuilt[0].is_element
    return rebuilt[0]
