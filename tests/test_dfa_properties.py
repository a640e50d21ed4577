"""Property tests pinning the compiled runtime to its references.

Three layers are held together on random trees and random ``X``
expressions:

* the lazy-DFA runners (``run_select``, ``transform_topdown``, the
  tracked SAX/streaming mode) against the seed's frozenset ``nextStates``
  machinery, which remains in :mod:`repro.automata.core` and as the
  ``*_nfa`` entry points exactly for this purpose;
* both against the specification oracle (:func:`repro.xpath.evaluator.
  evaluate` / :func:`repro.transform.naive.transform_naive` /
  ``transform_copy_update``);
* the per-state qualifier closures compiled by
  :mod:`repro.xpath.compiler` against ``eval_qualifier``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.filtering import build_filtering_nfa
from repro.automata.selecting import build_selecting_nfa
from repro.transform import (
    TransformQuery,
    transform_copy_update,
    transform_naive,
    transform_sax,
    transform_topdown,
    transform_twopass,
)
from repro.transform.sax_twopass import (
    _advance_tracked,
    _close_epsilon,
    pass1_collect_ld,
)
from repro.transform.topdown import transform_topdown_nfa
from repro.streaming.select import stream_select
from repro.updates import parse_update
from repro.xmltree.node import deep_equal
from repro.xmltree.sax import tree_to_events
from repro.xpath.compiler import compile_qualifier
from repro.xpath.evaluator import eval_qualifier, evaluate
from repro.xpath.normalize import UnsupportedPathError
from repro.xpath.parser import parse_xpath

from tests.strategies import trees, xpath_queries


def _automata(query_text):
    """Parse and build both automata, or None outside the core."""
    path = parse_xpath(query_text)
    try:
        return path, build_selecting_nfa(path), build_filtering_nfa(path)
    except (UnsupportedPathError, ValueError):
        return None


class TestSelectEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_dfa_select_agrees_with_nfa_and_oracle(self, tree, query_text):
        built = _automata(query_text)
        if built is None:
            return
        path, selecting, _ = built
        via_dfa = selecting.run_select(tree)
        via_nfa = selecting.run_select_nfa(tree)
        oracle = [node for node in evaluate(tree, path) if node is not tree]
        assert via_dfa == via_nfa, f"DFA/NFA diverge on {query_text}"
        assert via_dfa == oracle, f"DFA/oracle diverge on {query_text}"


class TestTransformEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        tree=trees(),
        query_text=xpath_queries(),
        kind=st.sampled_from(["insert", "delete", "replace", "rename"]),
    )
    def test_every_dfa_strategy_agrees_with_the_references(
        self, tree, query_text, kind
    ):
        target = ("$a" + query_text) if query_text.startswith("//") else f"$a/{query_text}"
        if kind == "insert":
            update_text = f"insert <new>1</new> into {target}"
        elif kind == "delete":
            update_text = f"delete {target}"
        elif kind == "replace":
            update_text = f"replace {target} with <sub/>"
        else:
            update_text = f"rename {target} as renamed"
        query = TransformQuery(parse_update(update_text))
        try:
            expected = transform_copy_update(tree, query)
        except RecursionError:  # pragma: no cover - bounded trees
            return
        strategies = {
            "naive": transform_naive,
            "topdown-dfa": transform_topdown,
            "topdown-frozenset": transform_topdown_nfa,
            "twopass-dfa": transform_twopass,
            "sax-dfa": transform_sax,
        }
        for name, strategy in strategies.items():
            try:
                actual = strategy(tree, query)
            except UnsupportedPathError:
                return  # outside the automaton core (e.g. '//.[q]')
            assert deep_equal(actual, expected), f"{name} diverges on {update_text}"


class TestStreamingEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_stream_select_agrees_with_the_frozenset_runner(self, tree, query_text):
        built = _automata(query_text)
        if built is None:
            return
        _, selecting, filtering = built
        matches = list(stream_select(
            lambda: tree_to_events(tree), parse_xpath(query_text),
            selecting=selecting, filtering=filtering,
        ))
        reference = selecting.run_select_nfa(tree)
        assert len(matches) == len(reference)
        for got, want in zip(matches, reference):
            assert deep_equal(got, want)

    @settings(max_examples=120, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_tracked_moves_agree_with_the_seed_discipline(self, tree, query_text):
        """Walk pass 2's cursor discipline both ways, over the whole
        document: the compiled tracked move's (set, alive-mask) must
        encode exactly the seed's ``sid -> alive`` dict at every node,
        consuming the same number of cursor ids in the same order."""
        built = _automata(query_text)
        if built is None:
            return
        _, selecting, filtering = built
        ld = pass1_collect_ld(tree_to_events(tree), filtering)
        dfa = selecting.dfa()

        def compare(tracked, current_set, current_mask):
            members = dfa.members(current_set)
            assert set(tracked) == set(members)
            for pos, sid in enumerate(members):
                assert tracked[sid] == bool(current_mask >> pos & 1), (
                    f"alive flag diverges at state {sid} on {query_text}"
                )

        # Root entries (the root consumes no symbol).
        seed_tracked = {sid: True for sid in selecting.initial_states()}
        cursor = 0
        root_quals = [
            sid for sid in sorted(seed_tracked)
            if selecting.states[sid].has_qualifier
        ]
        set_id = dfa.initial_id
        mask = (1 << len(dfa.members(set_id))) - 1  # every member alive
        assert len(root_quals) == len(dfa.set_qual_positions[set_id])
        for sid, pos in zip(root_quals, dfa.set_qual_positions[set_id]):
            value = bool(ld[cursor])
            cursor += 1
            seed_tracked[sid] = value
            if not value:
                mask &= ~(1 << pos)
        compare(seed_tracked, set_id, mask)

        def walk(node, seed_state, cur_set, cur_mask, cursor):
            for child in node.child_elements():
                tracked, to_check = _advance_tracked(
                    selecting, seed_state, child.label
                )
                move = dfa.tracked_move(cur_set, child.label)
                assert len(to_check) == len(move.qual_positions), (
                    f"cursor misalignment at <{child.label}> on {query_text}"
                )
                new_mask = 0
                bit = 1
                for feed in move.feeds:
                    if cur_mask & feed:
                        new_mask |= bit
                    bit <<= 1
                for sid, pos in zip(to_check, move.qual_positions):
                    value = bool(ld[cursor])
                    cursor += 1
                    if not value:
                        tracked[sid] = False
                        new_mask &= ~(1 << pos)
                _close_epsilon(selecting, tracked)
                for src, dst in move.eps_pairs:
                    if new_mask >> src & 1:
                        new_mask |= 1 << dst
                compare(tracked, move.target, new_mask)
                assert (
                    tracked.get(selecting.final_id, False)
                    == bool(new_mask & move.final_mask)
                )
                cursor = walk(child, tracked, move.target, new_mask, cursor)
            return cursor

        consumed = walk(tree, seed_tracked, set_id, mask, cursor)
        assert consumed == len(ld), "the walk must drain Ld exactly"


class TestCompiledQualifiers:
    @settings(max_examples=200, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_compiled_closures_agree_with_eval_qualifier(self, tree, query_text):
        path = parse_xpath(query_text)
        quals = []

        def collect(p):
            for step in p.steps:
                for qual in step.quals:
                    quals.append(qual)

        collect(path)
        for qual in quals:
            check = compile_qualifier(qual)
            for node in tree.descendants_or_self():
                assert check(node) == eval_qualifier(node, qual), (
                    f"compiled closure diverges on {qual} at {node!r}"
                )


class TestFilteringEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_filtering_dfa_matches_frozenset_next_states(self, tree, query_text):
        """The unfiltered DFA step over the filtering NFA (bottomUp's
        driver) is pinned to the frozenset ``next_states(check=None)``
        at every node of the document."""
        built = _automata(query_text)
        if built is None:
            return
        _, _, filtering = built
        dfa = filtering.dfa()
        stack = [(child, filtering.initial_states(), dfa.initial_id)
                 for child in tree.child_elements()]
        while stack:
            node, states, set_id = stack.pop()
            next_frozen = filtering.next_states(states, node.label, check=None)
            next_id = dfa.step_all(set_id, node.label)
            assert frozenset(dfa.members(next_id)) == next_frozen
            # Pass 1's cursor order: needed nq ids in sorted-state order.
            expected_nq = [
                filtering.states[sid].nq_id
                for sid in sorted(next_frozen)
                if filtering.states[sid].nq_id is not None
            ]
            assert list(dfa.set_nq[next_id]) == expected_nq
            if next_frozen:
                stack.extend(
                    (child, next_frozen, next_id)
                    for child in node.child_elements()
                )
