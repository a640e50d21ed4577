"""Strategy execution: one uniform entry point over the five evaluation
algorithms, threading prebuilt automata through to the ones that take
them.

The rule in :mod:`repro.engine.planner` names a strategy; this module
runs it.  The names and paper names derive from the one table in
:data:`repro.transform.STRATEGIES`, so the prepared objects, the CLI's
``--method`` and the Fig-12 harness cannot disagree about
what the five algorithms are.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.automata.filtering import FilteringNFA
from repro.automata.selecting import SelectingNFA
from repro.obs import current_profile
from repro.transform import STRATEGIES
from repro.transform.query import TransformQuery
from repro.transform.sax_twopass import transform_sax_events
from repro.transform.topdown import transform_topdown
from repro.transform.twopass import transform_twopass
from repro.xmltree.node import Element
from repro.xmltree.sax import SAXEvent, events_to_tree, tree_to_events

#: Strategy names understood by the executor (``sax`` also streams a
#: file to a file; on a resident tree it runs over synthesized events).
TREE_STRATEGIES = tuple(STRATEGIES)

#: The paper's names for each strategy (Fig. 12 legend).
PAPER_NAMES = {name: paper for name, (paper, _) in STRATEGIES.items()}


def run_tree_strategy(
    strategy: str,
    root: Element,
    query: TransformQuery,
    selecting: Optional[SelectingNFA] = None,
    filtering: Optional[FilteringNFA] = None,
) -> Element:
    """Evaluate *query* on a resident tree with the named strategy.

    Prebuilt automata are used when given.  *root* is a Node tree: a
    frozen arena has no strategy to choose (``PreparedTransform.run``
    hands it to :func:`repro.transform.arena.transform_arena`).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    profile = current_profile()
    if profile is not None:
        # Tree strategies all realize at least one full traversal of
        # the input; the measured walk below *is* that visit count
        # (prune-level detail is only measurable on the arena scan,
        # where the DFA loop counts itself — see arena_run).
        profile.set_plan(strategy)
        profile.add_scan(nodes=_count_nodes(root))
    if strategy == "topdown":
        return transform_topdown(root, query, nfa=selecting)
    if strategy in ("twopass", "sax"):
        if strategy == "twopass":
            return transform_twopass(
                root, query, selecting=selecting, filtering=filtering
            )

        def source() -> Iterable[SAXEvent]:
            return tree_to_events(root)

        return events_to_tree(
            transform_sax_events(source, query, selecting, filtering)
        )
    # The baselines (naive, copy) take no automata.
    return STRATEGIES[strategy][1](root, query)


def _count_nodes(root: Element) -> int:
    """Node count of a resident tree (iterative; profiling only, so the
    walk is paid exclusively by explain_analyze-style runs).  Counts
    elements and their text children both."""
    count = 0
    stack: list = [root]
    pop = stack.pop
    push = stack.extend
    while stack:
        node = pop()
        count += 1
        if node.is_element:
            push(node.children)
    return count
