"""The copy-on-write contract of ``topDown`` (and ``twoPass``, and the
Compose plans that splice it):

(a) the result equals the paper's definition — copy, then update;
(b) the input is never mutated;
(c) sharing is maximal: the only elements allocated are the matched
    nodes, their ancestor chains and the update's constant content —
    every other result node *is* an input node, and a query that
    matches nothing returns the input root itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    deep_equal,
    parse,
    parse_transform_query,
    serialize,
    transform_naive,
    transform_topdown,
    transform_twopass,
)
from repro.compose.compose import compose, evaluate_composed
from repro.compose.naive import naive_compose
from repro.xmark.generator import deep_chain, generate
from repro.xmark.queries import (
    QUERY_IDS,
    composition_pairs,
    delete_transform,
    insert_transform,
)
from repro.xmltree.node import Element, collect_nodes
from repro.xpath.evaluator import evaluate

from tests.strategies import transform_texts, trees

ALGORITHMS = [transform_topdown, transform_twopass]


def query(body: str):
    return parse_transform_query(f'transform copy $a := doc("d") modify do {body} return $a')


def snapshot(root: Element):
    """What (b) compares: the text, and every element's identity and
    child count.  The node list keeps the elements alive, so an id
    cannot be recycled between the two snapshots."""
    nodes = collect_nodes(root)
    return nodes, serialize(root), [(id(n), n.label, len(n.children)) for n in nodes]


def expected_allocations(root: Element, update) -> int:
    """How many elements a maximally sharing evaluation must allocate:
    each (for delete/replace: topmost) match's proper ancestors once,
    the matches themselves when the update keeps them (insert, rename),
    and one copy of the constant content per match that receives one."""
    matched = {id(n) for n in evaluate(root, update.path)}
    rebuilt: set = set()
    hits = 0
    stack = [(root, None)]  # (element, chain of ancestor ids up to the root)
    while stack:
        node, chain = stack.pop()
        if id(node) in matched:
            hits += 1
            link = chain
            while link is not None and link[0] not in rebuilt:
                rebuilt.add(link[0])
                link = link[1]
            if not update.recurses_into_match:
                continue  # topmost match wins: nothing below it counts
            rebuilt.add(id(node))
        here = (id(node), chain)
        stack.extend((c, here) for c in node.children if c.is_element)
    content = getattr(update, "content", None)
    return len(rebuilt) + hits * (len(collect_nodes(content)) if content is not None else 0)


def check_contract(root: Element, transform_query) -> None:
    kept, text_before, shape_before = snapshot(root)
    input_ids = {id(n) for n in kept}
    want = transform_naive(root, transform_query)
    allocations = expected_allocations(root, transform_query.update)
    for algorithm in ALGORITHMS:
        got = algorithm(root, transform_query)
        assert deep_equal(got, want), algorithm.__name__
        fresh = [n for n in collect_nodes(got) if id(n) not in input_ids]
        assert len(fresh) == allocations, algorithm.__name__
        if not allocations:
            assert got is root
    _, text_after, shape_after = snapshot(root)
    assert (text_after, shape_after) == (text_before, shape_before)


@pytest.fixture(scope="module")
def xmark():
    return generate(0.002)


class TestFig12Transforms:
    @pytest.mark.parametrize("uid", QUERY_IDS)
    @pytest.mark.parametrize("build", [insert_transform, delete_transform])
    def test_contract(self, xmark, build, uid):
        check_contract(xmark, build(uid))

    def test_point_insert_allocates_its_ancestor_chain_and_the_match(self, xmark):
        input_ids = {id(n) for n in collect_nodes(xmark)}
        got = transform_topdown(xmark, insert_transform("U2"))
        fresh = [n.label for n in collect_nodes(got) if id(n) not in input_ids]
        assert fresh == ["site", "people", "person", "new_annotation", "note"]
        # … and every sibling on the way down is the input's own node.
        assert sum(a is b for a, b in zip(got.children, xmark.children)) == len(xmark.children) - 1


class TestFig15Pairs:
    @pytest.mark.parametrize("pair", composition_pairs(), ids=lambda p: f"{p[0]}-{p[1]}")
    def test_composed_plan(self, xmark, pair):
        _, _, transform_query, user_query = pair
        _, text_before, shape_before = snapshot(xmark)
        got = evaluate_composed(xmark, compose(user_query, transform_query))
        want = naive_compose(xmark, user_query, transform_query, transform=transform_naive)
        assert len(got) == len(want)
        assert all(deep_equal(g, w) for g, w in zip(got, want))
        _, text_after, shape_after = snapshot(xmark)
        assert (text_after, shape_after) == (text_before, shape_before)

    def test_unaffected_items_are_the_input_nodes(self, xmark):
        """U4 under ``delete U9``: an item outside the United States
        has no match below it, so the composed answer holds the very
        node of the base tree."""
        _, _, transform_query, user_query = composition_pairs()[2]
        input_ids = {id(n) for n in collect_nodes(xmark)}
        got = evaluate_composed(xmark, compose(user_query, transform_query))
        assert got and all(id(item) in input_ids for item in got)


class TestDeepChain:
    @pytest.mark.parametrize("fanout", [0, 3])
    @pytest.mark.parametrize(
        "body",
        [
            "insert <x/> into $a//a",             # nested: every a, inside every a
            "rename $a//a as z",
            "delete $a//a",                       # topmost wins: one effective match
            "replace $a//a with <x><y/></x>",
            "insert <x/> into $a//b",             # one match, 400 ancestors
            "delete $a//b",
            "rename $a//c as z",                  # the fan-out leaves, at every level
            "delete $a//a/a/c",
            "insert <x/> into $a//nothing",       # no match
            "delete $a/a/a/b",                    # dies two levels down
        ],
    )
    def test_contract(self, body, fanout):
        check_contract(deep_chain(400, fanout=fanout), query(body))


class TestNestedMatches:
    DOC = "<r><a k='1'><a><b>t</b><a/></a>u</a><c><a><a/></a></c></r>"

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("insert <x/> into $a//a",
             '<r><a k="1"><a><b>t</b><a><x/></a><x/></a>u<x/></a><c><a><a><x/></a><x/></a></c></r>'),
            ("delete $a//a", "<r><c/></r>"),
            ("replace $a//a with <x/>", "<r><x/><c><x/></c></r>"),
            ("rename $a//a as z",
             '<r><z k="1"><z><b>t</b><z/></z>u</z><c><z><z/></z></c></r>'),
            ("delete $a//a/a", '<r><a k="1">u</a><c><a/></c></r>'),
        ],
    )
    def test_every_kind(self, body, expected):
        root = parse(self.DOC)
        check_contract(root, query(body))
        assert serialize(transform_topdown(root, query(body))) == expected


class TestRandomTreesAndUpdates:
    @settings(max_examples=300, deadline=None)
    @given(trees(), transform_texts(doc="d"))
    def test_contract(self, tree, text):
        check_contract(tree, parse_transform_query(text))

    @settings(max_examples=100, deadline=None)
    @given(trees(), st.sampled_from(["insert <x/> into", "delete", "rename", "replace"]))
    def test_self_nesting_label(self, tree, kind):
        tail = {"rename": " as e", "replace": " with <x/>"}.get(kind, "")
        check_contract(tree, query(f"{kind} $a//a//a{tail}"))
