"""The Top Down Method — Algorithm ``topDown`` (Section 3.3, Fig. 3).

A single recursive traversal driven by the selecting NFA:

* compute ``S' = nextStates(Mp, S, n)`` at each node;
* ``S' = ∅`` → the subtree cannot be affected: it is **shared** with
  the input, unvisited (the paper's "simply copied to the result" —
  and for delete, pruned "without loading" it);
* the final state in ``S'`` → the node is in ``r[[p]]``: apply the
  update's effect;
* otherwise recurse into the children with ``S'``.

**Sharing rule (copy on write).**  Visiting is not copying: a visited
element is rebuilt only if it matched or one of its children's
replacements is not that child itself.  So a result shares with the
input every subtree with no match below it — the whole of ``root``
when nothing matched (``transform_topdown`` then returns ``root``
itself) — and allocates the matched nodes and their ancestor chains,
nothing else.  The input is never mutated; a caller that needs a
private tree calls :func:`~repro.xmltree.node.deep_copy`.

``checkp`` is a strategy, so one traversal serves two of the methods
the experiments compare: the default evaluates qualifiers natively
("native engine", GENTOP) through closures compiled once from the
qualifier ASTs; ``transform_twopass`` substitutes O(1) lookups into
the ``bottomUp`` annotations (TD-BU).

Since the compiled-runtime refactor the traversal steps through the
automaton's lazy DFA (:mod:`repro.automata.dfa`): state sets are dense
interned ids and each ``(set, label)`` transition is a memoized table
hit instead of a recomputed ``nextStates``.  The original frozenset
runner is kept verbatim as :func:`topdown_subtree_nfa` — it is the
reference the property tests and ``benchmarks/bench_dfa.py`` compare
the compiled runtime against.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.transform.query import TransformQuery
from repro.updates.ops import Update
from repro.xmltree.node import Element, Node
from repro.xpath.ast import Qual
from repro.xpath.evaluator import eval_qualifier

#: checkp strategy signature: (qualifier, node) -> bool.
CheckP = Callable[[Qual, Element], bool]

#: A suspended ancestor of the copy-on-write walk (see
#: :func:`topdown_children`): element, matched, set id, its children,
#: cursor, child count, new child list so far.
_Frame = tuple[Any, bool, int, list[Node], int, int, Optional[list[Node]]]


def native_checkp(qual: Qual, node: Element) -> bool:
    """Evaluate the qualifier directly (the host engine's job in the
    paper's GENTOP configuration).

    When this exact function is the ``checkp``, the DFA runner swaps in
    its per-state closures compiled from the same ASTs — identical
    semantics, no per-call AST dispatch.
    """
    return eval_qualifier(node, qual)


def transform_topdown(
    root: Element,
    query: TransformQuery,
    checkp: CheckP = native_checkp,
    nfa: Optional[SelectingNFA] = None,
) -> Element:
    """Evaluate a transform query with algorithm ``topDown``.

    The result shares every subtree with no match below it with the
    input — *root* itself when nothing matches (both are to be treated
    as immutable; see the module docstring).  A pre-built NFA may be
    supplied to amortize construction, e.g. across benchmark iterations
    — its lazy DFA tables come along with it.
    """
    if nfa is None:
        nfa = build_selecting_nfa(query.path)
    initial = nfa.initial_states_for(root)
    if not initial:
        return root  # nothing can match: the "update" is a no-op
    children = topdown_children(nfa, initial, query.update, root.children, checkp)
    if children is None:
        return root
    return Element(root.label, dict(root.attrs), children)


def topdown_subtree(
    nfa: SelectingNFA,
    states: frozenset[int],
    update: Update,
    node: Node,
    checkp: CheckP = native_checkp,
) -> list[Node]:
    """``topDown(Mp, S, Qt, n)`` of Fig. 3 on the compiled runtime:
    transform the subtree at *node* given the automaton states *states*
    reached at its parent.

    Returns the node list that replaces *node* in its parent — empty
    for a deleted node, the replacement for replace, and a single node
    otherwise: *node* itself when nothing below it matched, a rebuilt
    one sharing its untouched subtrees when something did.  Exposed
    separately because the Compose Method splices exactly this call
    into composed queries (Section 4, Example 4.3/Q3).
    """
    replaced = topdown_children(nfa, states, update, [node], checkp)
    return [node] if replaced is None else replaced


def topdown_children(
    nfa: SelectingNFA,
    states: frozenset[int],
    update: Update,
    children: list[Node],
    checkp: CheckP = native_checkp,
) -> Optional[list[Node]]:
    """The copy-on-write kernel: run ``topDown`` over the child list
    *children* of a node at which the automaton reached *states*.

    Returns the transformed child list, or ``None`` when every child
    is its own replacement — so a caller rebuilds the parent only when
    it must.  The same rule applies at every level below: a visited
    element is rebuilt only if it matched or one of its children was
    replaced by something other than itself; otherwise the input node
    is shared.  *states* stays a ``frozenset`` at the boundary (the
    adapter contract); internally the walk runs on interned DFA set
    ids.

    Iterative (explicit frames), so document depth is not limited by
    the interpreter's recursion limit.
    """
    dfa = nfa.dfa()
    # native_checkp (by identity) means: use the closures the DFA
    # compiled from the very same qualifier ASTs.
    plugged = None if checkp is native_checkp else checkp
    # The transition fast path is inlined (resolve symbol, hit the move
    # table, take the no-qualifier target) — this loop runs once per
    # visited node and the call overhead of LazyDFA.step is measurable.
    sym_get, moves, compile_move = dfa.hot_path()
    apply_move = dfa.apply_move
    intern_label = dfa.symbols.intern
    empty_id = dfa.empty_id
    final_flags = dfa.final_flags
    recurses_into_match = update.recurses_into_match
    result_for_match = update.result_for_match
    # The element whose child list is being walked lives in locals:
    # its children, the cursor into them, the set id reached at it,
    # whether it matched, and *fresh* — its new child list, None until
    # the first child that is not its own replacement (then the kept
    # prefix is copied once and the walk appends from there on).
    # Suspended ancestors are the same seven values, as tuples.
    frames: list[_Frame] = []
    node: Any = None  # an Element; None only while walking the outermost list
    child: Any  # narrowed by the is_element flag, which a checker cannot follow
    matched = False
    set_id = dfa.intern_set(states)
    row = moves[set_id]
    cursor = 0
    count = len(children)
    fresh: Optional[list[Node]] = None
    while True:
        while cursor < count:
            child = children[cursor]
            cursor += 1
            if not child.is_element:
                if fresh is not None:
                    fresh.append(child)
                continue
            label = child.label
            move = row.get(sym_get(label))
            if move is None:
                move = compile_move(set_id, intern_label(label))
            if not move.cond_sids:
                next_id = move.target0
            else:
                next_id = apply_move(move, child, plugged)
            if next_id == empty_id:
                # Untouched: share, do not copy (Fig. 3 lines 2-3).
                if fresh is not None:
                    fresh.append(child)
                continue
            child_matched = final_flags[next_id]
            grandchildren = child.children
            if child_matched and not (recurses_into_match and grandchildren):
                # delete/replace prune the subtree without visiting
                # it; a matched leaf has nothing to visit.
                if fresh is None:
                    fresh = children[: cursor - 1]
                fresh.extend(
                    result_for_match(Element(label, dict(child.attrs), []))
                )
                continue
            if not grandchildren:
                if fresh is not None:
                    fresh.append(child)
                continue
            frames.append((node, matched, set_id, children, cursor, count, fresh))
            node = child
            matched = child_matched
            set_id = next_id
            row = moves[set_id]
            children = grandchildren
            cursor = 0
            count = len(children)
            fresh = None
        if not frames:
            return fresh
        # All children walked: finish this element in its parent.
        done, done_matched, below = node, matched, fresh
        node, matched, set_id, children, cursor, count, fresh = frames.pop()
        row = moves[set_id]
        if below is None and not done_matched:
            if fresh is not None:
                fresh.append(done)
            continue
        rebuilt = Element(
            done.label,
            dict(done.attrs),
            below if below is not None else list(done.children),
        )
        if fresh is None:
            fresh = children[: cursor - 1]
        if done_matched:
            fresh.extend(result_for_match(rebuilt))
        else:
            fresh.append(rebuilt)


# ----------------------------------------------------------------------
# The frozenset reference runner (the seed implementation)
# ----------------------------------------------------------------------


def transform_topdown_nfa(
    root: Element,
    query: TransformQuery,
    checkp: CheckP = native_checkp,
    nfa: Optional[SelectingNFA] = None,
) -> Element:
    """``topDown`` on the original frozenset ``nextStates`` runner.

    Semantically identical to :func:`transform_topdown`; kept as the
    baseline the compiled runtime is validated and benchmarked against
    (``tests/test_dfa_properties.py``, ``benchmarks/bench_dfa.py``).
    """
    if nfa is None:
        nfa = build_selecting_nfa(query.path)
    initial = nfa.initial_states_for(root)
    if not initial:
        return root
    fresh = Element(root.label, dict(root.attrs), [])
    for child in root.children:
        fresh.children.extend(
            topdown_subtree_nfa(nfa, initial, query.update, child, checkp)
        )
    return fresh


def topdown_subtree_nfa(
    nfa: SelectingNFA,
    states: frozenset[int],
    update: Update,
    node: Node,
    checkp: CheckP = native_checkp,
) -> list[Node]:
    """The seed's frozenset ``topDown(Mp, S, Qt, n)`` — see
    :func:`transform_topdown_nfa`."""
    result: list[Node] = []
    # Frame: [node, states-at-node, matched, rebuilt, child-cursor, out].
    frames: list[list[Any]] = [[node, states, None, None, 0, result]]
    while frames:
        frame = frames[-1]
        current = frame[0]
        if frame[2] is None:  # first visit: run the automaton step
            if not current.is_element:
                frame[5].append(current)
                frames.pop()
                continue
            next_states = nfa.next_states(
                frame[1], current.label, lambda q, n=current: checkp(q, n)
            )
            if not next_states:
                # Untouched: share, do not copy (Fig. 3 lines 2-3).
                frame[5].append(current)
                frames.pop()
                continue
            matched = nfa.selects(next_states)
            if matched and not update.recurses_into_match:
                # delete/replace: prune the subtree without visiting it.
                frame[5].extend(
                    update.result_for_match(
                        Element(current.label, dict(current.attrs), [])
                    )
                )
                frames.pop()
                continue
            frame[1] = next_states
            frame[2] = matched
            frame[3] = Element(current.label, dict(current.attrs), [])
        children = current.children
        cursor = frame[4]
        rebuilt = frame[3]
        # Fast-forward over consecutive text children.
        while cursor < len(children) and not children[cursor].is_element:
            rebuilt.children.append(children[cursor])
            cursor += 1
        frame[4] = cursor + 1
        if cursor < len(children):
            frames.append([children[cursor], frame[1], None, None, 0, rebuilt.children])
            continue
        # All children processed: finish this node.
        if frame[2]:
            frame[5].extend(update.result_for_match(rebuilt))
        else:
            frame[5].append(rebuilt)
        frames.pop()
    return result
