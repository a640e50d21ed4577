"""The qualifier sweep held to the oracle, differentially.

``sweep_qualifier`` (the set form) must agree with the compiled closure
(the single-node form) and with ``eval_qualifier`` on the thawed tree;
``select_indices`` — which reads swept truth sets and jumps over failing
candidates — must agree with the frozenset reference runner and with
the selection ``transform_naive`` implies.

The random documents of ``tests/strategies.py`` are a few dozen nodes,
far below :data:`SWEEP_MIN_CANDIDATES`: left alone, the rule would hand
every one of their ranges to the closures and the swept walk would go
untested.  ``swept`` lowers the rule's two constants for a test, so
every supported range is swept; the deterministic cases further down
run under the real constants on documents large enough to cross them.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.arena_run import select_indices
from repro.automata.selecting import build_selecting_nfa
from repro.obs.profile import Profile, profiled
from repro.store import ViewStore
from repro.transform.naive import transform_naive
from repro.transform.query import TransformQuery
from repro.updates import parse_update
from repro.xmark.generator import generate
from repro.xmltree import arena as arena_module
from repro.xmltree.arena import freeze, freeze_segment, rename_splice, splice, thaw
from repro.xmltree.node import Element, Text
from repro.xmltree.serializer import serialize
from repro.xpath import arena_compiler
from repro.xpath.arena_compiler import (
    choose_sweep,
    compile_qualifier_arena,
    sweep_qualifier,
)
from repro.transform import parse_transform_query
from repro.xpath.ast import CmpQual, Path, PathQual, Step
from repro.xpath.compiler import compile_qualifier
from repro.xpath.evaluator import eval_qualifier
from repro.xpath.lexer import XPathSyntaxError
from repro.xpath.normalize import UnsupportedPathError
from repro.xpath.parser import parse_xpath
from repro.xquery.parser import parse_user_query

from tests.strategies import ATTR_NAMES, LABELS, VALUES, trees, xpath_queries


def swept(test):
    """Run *test* with the rule sweeping every range it supports."""
    test = mock.patch.object(arena_compiler, "SWEEP_MIN_CANDIDATES", 1)(test)
    return mock.patch.object(arena_compiler, "SWEEP_LEAF_RATIO", 10 ** 9)(test)


def _qual(text):
    return parse_xpath(f"x[{text}]").steps[0].quals[0]


def _selecting(path_text):
    try:
        return build_selecting_nfa(parse_xpath(path_text))
    except (UnsupportedPathError, ValueError):
        return None


def _node_of(tree, arena):
    """arena element index -> the Node at the same pre-order position."""
    return dict(zip(arena.iter_elements(), tree.descendants_or_self()))


def _reference_indices(selecting, tree, arena, context=0):
    """The frozenset runner on the Node subtree at *context*, as arena
    indices."""
    node_of = _node_of(tree, arena)
    index_of = {id(node): i for i, node in node_of.items()}
    return [index_of[id(n)] for n in selecting.run_select_nfa(node_of[context])]


def _naive_indices(path_text, tree, arena):
    """What ``transform_naive`` selects: rename every match to a label
    no document carries and read the renamed positions back (a rename
    keeps every element at its pre-order position)."""
    target = f"$a{path_text}" if path_text.startswith("//") else f"$a/{path_text}"
    update = parse_update(f"rename {target} as swept_match")
    renamed = transform_naive(tree, TransformQuery(update))
    return [
        i
        for i, node in zip(arena.iter_elements(), renamed.descendants_or_self())
        if node.label == "swept_match" and i
    ]


# ----------------------------------------------------------------------
# (a) the sweep against the closure and the reference evaluator
# ----------------------------------------------------------------------

OPS = ["=", "!=", "<", "<=", ">", ">="]
#: Compared against own-text that is numeric ("1", "12"), non-numeric
#: ("x") and empty (an element with no text child).
LITERALS = ["1", "5", "12", "'5'", "'x'", "''", "'12'"]


@st.composite
def sweep_paths(draw, depth):
    """A qualifier path of mostly label steps — what the sweep covers —
    with a self step, a nested qualifier, a final attribute, and now and
    then a shape it must decline (``*``, ``//``)."""
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        step = draw(st.sampled_from(LABELS + LABELS + LABELS + ["*", "."]))
        if depth > 0 and draw(st.integers(0, 3)) == 0:
            step += f"[{draw(sweep_quals(depth - 1))}]"
        steps.append(step)
    path = draw(st.sampled_from(["/", "/", "/", "//"])).join(steps)
    if draw(st.integers(0, 4)) == 0:
        path += "/@" + draw(st.sampled_from(ATTR_NAMES))
    return path


@st.composite
def sweep_quals(draw, depth=2):
    kind = draw(st.sampled_from(
        ["exists", "cmp", "cmp", "self_cmp", "attr", "attr_cmp", "label", "and", "or", "not"]
    ))
    if kind == "exists":
        return draw(sweep_paths(depth))
    if kind == "cmp":
        return f"{draw(sweep_paths(depth))} {draw(st.sampled_from(OPS))} {draw(st.sampled_from(LITERALS))}"
    if kind == "self_cmp":
        return f". {draw(st.sampled_from(OPS))} {draw(st.sampled_from(LITERALS))}"
    if kind == "attr":
        return "@" + draw(st.sampled_from(ATTR_NAMES + ["absent"]))
    if kind == "attr_cmp":
        name = draw(st.sampled_from(ATTR_NAMES))
        return f"@{name} {draw(st.sampled_from(OPS))} {draw(st.sampled_from(LITERALS))}"
    if kind == "label":
        return f"label() = {draw(st.sampled_from(LABELS))}"
    if depth <= 0:
        return draw(sweep_paths(0))
    if kind == "and":
        return f"({draw(sweep_quals(depth - 1))} and {draw(sweep_quals(depth - 1))})"
    if kind == "or":
        return f"({draw(sweep_quals(depth - 1))} or {draw(sweep_quals(depth - 1))})"
    return f"not({draw(sweep_quals(depth - 1))})"


def _has_shape(qual_text, verdict):
    shape = verdict.split(":", 1)[1]
    return {
        "wildcard-step": "*" in qual_text,
        "descendant-step": "//" in qual_text,
    }[shape]


class TestSweepEqualsClosure:
    @settings(max_examples=400, deadline=None)
    @given(tree=trees(), qual_text=sweep_quals(), data=st.data())
    def test_random_documents_qualifiers_labels_and_ranges(self, tree, qual_text, data):
        qual = _qual(qual_text)
        arena = freeze(tree)
        node_of = _node_of(tree, arena)
        candidate_sym = arena.symbols.intern(data.draw(st.sampled_from(LABELS)))
        # any range whose end encloses its start: [lo, end_of(holder)) for
        # a lo inside holder's subtree (lo may cut a subtree, hi may not)
        holder = data.draw(st.sampled_from(list(arena.iter_elements())))
        hi = arena.end_of(holder)
        lo = data.draw(st.integers(holder, hi))
        got = sweep_qualifier(qual, arena, candidate_sym, lo, hi)
        with mock.patch.object(arena_compiler, "SWEEP_MIN_CANDIDATES", 0):
            verdict, _ = choose_sweep(qual, arena, candidate_sym, lo, hi)
        if got is None:
            assert verdict.startswith("unsupported:"), (qual_text, verdict)
            assert _has_shape(qual_text, verdict), (qual_text, verdict)
            return
        assert not verdict.startswith("unsupported:"), (qual_text, verdict)
        candidates = [
            i for i in arena.postings((candidate_sym,)) if lo <= i < hi
        ]
        closure = compile_qualifier_arena(qual)
        assert got == [i for i in candidates if closure(arena, i)], qual_text
        assert got == [
            i for i in candidates if eval_qualifier(node_of[i], qual)
        ], qual_text

    def test_a_wildcard_candidate_is_not_swept(self):
        arena = freeze(Element("a", {}, [Element("b", {}, [])]))
        assert sweep_qualifier(_qual("b"), arena, -1, 0, len(arena)) is None
        assert choose_sweep(_qual("b"), arena, -1, 0, len(arena)) == (
            "unsupported:wildcard-candidate", 0,
        )

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("literal", ["5", "'5'", "1000"])
    def test_every_operator_over_numeric_non_numeric_and_empty_text(self, op, literal):
        """``!=`` against a number is the sharp one: non-numeric and
        empty text are *not* unequal-and-numeric — they never match;
        ``nan`` parses, and is unequal to every number; an absent
        attribute matches nothing.  Each arena is read twice (the
        second read runs on the leaf maps the first one built), and a
        commit that changes one leaf value is seen by the next read."""
        values = [
            "1", "5", "12", "5.0", "x", "", " 5 ", "-5", "nan",
            "inf", "-0", "1_000", "1e3", "NaN",
        ]
        kids = [
            Element("c", {"k": v}, [Element("v", {}, [Text(v)] if v else [])])
            for v in values
        ]
        kids.append(Element("c", {}, [Element("v", {}, [Text("5")])]))  # no @k
        tree = Element("r", {}, kids)
        arena = freeze(tree)
        sym = arena.symbols.intern("c")
        texts = (f"v {op} {literal}", f"@k {op} {literal}", f"not(v {op} {literal})")

        def agree(arena, tree):
            node_of = _node_of(tree, arena)
            for text in texts:
                qual = _qual(text)
                closure = compile_qualifier_arena(qual)
                candidates = arena.postings((sym,))
                want = [i for i in candidates if eval_qualifier(node_of[i], qual)]
                assert [i for i in candidates if closure(arena, i)] == want, text
                for _ in range(2):
                    assert sweep_qualifier(qual, arena, sym, 0, len(arena)) == want, text

        agree(arena, tree)
        assert arena.stats()["leaf_maps"] >= 1
        if op == "!=" and literal == "5":
            matched = sweep_qualifier(_qual("v != 5"), arena, sym, 0, len(arena))
            texts_matched = [arena.own_text(i + 1) for i in matched]
            assert texts_matched == ["1", "12", "-5", "nan", "inf", "-0", "1_000", "1e3", "NaN"]
        # Commit: the "x" leaf becomes "5", text and attribute both.
        gone = arena.postings((sym,))[values.index("x")]
        segment = freeze_segment(
            Element("c", {"k": "5"}, [Element("v", {}, [Text("5")])]), arena.symbols
        )
        spliced = splice(arena, [(gone, arena.end_of(gone), arena.parent_of(gone), segment)])
        assert spliced.stats()["leaf_maps"] == 0  # leaf maps die with their version
        agree(spliced, thaw(spliced))
        if literal != "1000":
            seen = sweep_qualifier(_qual(f"@k = {literal}"), spliced, sym, 0, len(spliced))
            assert gone in seen
            assert gone not in sweep_qualifier(_qual(f"@k = {literal}"), arena, sym, 0, len(arena))


# ----------------------------------------------------------------------
# (b) the swept walk against the reference runners
# ----------------------------------------------------------------------


def _assert_selects_like_the_references(path_text, tree, context=None):
    selecting = _selecting(path_text)
    assert selecting is not None, path_text
    arena = freeze(tree)
    assert select_indices(selecting, arena) == _reference_indices(
        selecting, tree, arena
    ), path_text
    assert select_indices(selecting, arena) == _naive_indices(
        path_text, tree, arena
    ), path_text
    contexts = list(arena.iter_elements()) if context is None else [context]
    for at in contexts:
        assert select_indices(selecting, arena, at) == _reference_indices(
            selecting, tree, arena, at
        ), (path_text, at)


@st.composite
def nesting_trees(draw, max_depth=5):
    """Deeper than ``trees()`` and over three labels only, so a label
    nests in itself, recurs in sibling subtrees and sits at several
    depths below one holder in almost every example."""
    children = []
    if max_depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 3)):
                children.append(draw(nesting_trees(max_depth - 1)))
            else:
                children.append(Text(draw(st.sampled_from(VALUES))))
    attrs = {"id": "1"} if draw(st.integers(0, 3)) == 0 else {}
    return Element(draw(st.sampled_from(LABELS[:3])), attrs, children)


def _leaf(label, value=None, **attrs):
    return Element(label, dict(attrs), [Text(value)] if value is not None else [])


def _nested_people():
    """``person`` under ``person``, passing and failing at both levels,
    and a second ``people`` so one guarded set opens two ranges."""
    def person(age, *inner):
        return Element("person", {}, [_leaf("age", age), *inner])

    return Element("site", {}, [
        Element("people", {}, [
            person("70", person("20"), person("80", person("90"))),
            person("10", person("75")),       # a passing person below a failing one
            _leaf("age", "99"),               # an age that is nobody's
        ]),
        Element("other", {}, [person("85")]),
        Element("people", {}, [person("65"), person("5")]),
    ])


class TestSweptWalk:
    @swept
    @settings(max_examples=400, deadline=None)
    @given(tree=trees(), path_text=xpath_queries(), data=st.data())
    def test_random_paths_agree_with_the_frozenset_runner(self, tree, path_text, data):
        selecting = _selecting(path_text)
        if selecting is None:
            return
        arena = freeze(tree)
        assert select_indices(selecting, arena) == _reference_indices(
            selecting, tree, arena
        ), path_text
        context = data.draw(st.sampled_from(list(arena.iter_elements())))
        assert select_indices(selecting, arena, context) == _reference_indices(
            selecting, tree, arena, context
        ), (path_text, context)

    @swept
    @settings(max_examples=500, deadline=None)
    @given(
        tree=nesting_trees(),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["/", "//"]),
                st.sampled_from(LABELS[:3]),
                st.sampled_from(["", "", "[{c}]", "[{c} > 1]", "[{c} = 'x' or @id]", "[not({c})]"]),
                st.sampled_from(LABELS[:3]),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_guarded_chains_agree_with_transform_naive(self, tree, steps):
        """Paths that are mostly qualifier-guarded label steps over a
        three-label alphabet: labels nest in themselves, one guarded
        set opens several ranges, two guarded states share a move."""
        text = "".join(
            (sep if index or sep == "//" else "") + label + qual.format(c=child)
            for index, (sep, label, qual, child) in enumerate(steps)
        )
        selecting = _selecting(text)
        if selecting is None:
            return
        arena = freeze(tree)
        got = select_indices(selecting, arena)
        assert got == _reference_indices(selecting, tree, arena), text
        assert got == _naive_indices(text, tree, arena), text

    @swept
    @pytest.mark.parametrize("path_text", [
        "people/person[age > 60]",
        "people/person[age > 60]/person[age > 60]",
        "people/person/person[age > 60]",
        "//person[age > 60]",
        "//person[age > 60]//person[age > 60]",      # two guarded states, one move
        "people//person[age > 60][age < 85]",
        "//people/person[age > 60]",
        "//person[age > 60]/person[not(age > 60)]",
        "people/person[*/age > 60 or age > 60]/person[age > 60]",   # unswept, then swept
        "people/person[age > 60]/person[.//age > 85]",             # swept, then unswept
        "*/person[age > 60]",
        "people/*[age > 60]",
    ])
    def test_a_label_nested_in_itself(self, path_text):
        _assert_selects_like_the_references(path_text, _nested_people())

    @swept
    @pytest.mark.parametrize("path_text", ["//a[b]//a[b]", "a/a[c]/a[c]", "//a[b]/a[c]", "a[b]//a[c]/a[b]"])
    def test_recursive_a(self, path_text):
        def a(*kids):
            return Element("a", {}, list(kids))

        b, c = _leaf("b", "1"), _leaf("c", "2")
        tree = Element("r", {}, [
            a(b, a(c, b, a(c, b), a(b)), a(c, a(c, a(b, c)))),
            a(a(b, c, a(b, c, a(b, c)))),
            a(c, a(c, a(c))),
        ])
        _assert_selects_like_the_references(path_text, tree)

    @swept
    def test_one_truth_set_never_answers_for_another_range(self):
        """``b`` is entered in two disjoint ``a`` ranges: the set swept
        for the first says nothing about the second's candidates."""
        tree = Element("r", {}, [
            Element("a", {}, [Element("b", {}, [_leaf("c", "1")]), Element("b", {}, [])]),
            Element("x", {}, [Element("b", {}, [_leaf("c", "1")])]),
            Element("a", {}, [Element("b", {}, []), Element("b", {}, [_leaf("c", "1")])]),
        ])
        arena = freeze(tree)
        for path_text, want in [("a/b[c]", [2, 12]), ("//a/b[c]", [2, 12]), ("*/b[c = 1]", [2, 7, 12])]:
            assert select_indices(_selecting(path_text), arena) == want, path_text
            _assert_selects_like_the_references(path_text, tree)

    @swept
    def test_a_child_step_jump_stays_among_the_holders_children(self):
        """``a/b[c]``: the ``b[c]`` two levels down is in the swept set
        (it is a ``b`` with a ``c`` inside the range) but is not a
        child of the holder."""
        tree = Element("r", {}, [
            Element("a", {}, [
                Element("x", {}, [Element("b", {}, [_leaf("c", "1")])]),
                Element("b", {}, [_leaf("c", "1")]),
                Element("b", {}, [Element("b", {}, [_leaf("c", "1")])]),
            ]),
        ])
        arena = freeze(tree)
        assert select_indices(_selecting("a/b[c]"), arena) == [6]
        _assert_selects_like_the_references("a/b[c]", tree)
        _assert_selects_like_the_references("a/b[c or b]/b[c]", tree)

    def test_the_real_rule_on_a_document_large_enough_to_cross_it(self):
        """No patched constants: XMark at a factor where ``person`` and
        ``item`` outnumber :data:`SWEEP_MIN_CANDIDATES`."""
        tree = generate(0.004, 11)
        arena = freeze(tree)
        for path_text in [
            "people/person[profile/age > 40]",
            "people/person[@id = 'person3']",
            "regions//item[location = 'United States'][quantity > 1]",
            "open_auctions/open_auction[initial > 50 and reserve > 100]/bidder",
            "closed_auctions/closed_auction[price > 100]",
            "//item[not(payment = 'Cash')]/name",
            "people/person[profile[age > 40]/interest]/name",
        ]:
            selecting = _selecting(path_text)
            profile = Profile()
            with profiled(profile):
                got = select_indices(selecting, arena)
            assert got == _reference_indices(selecting, tree, arena), path_text
            assert got, path_text
            assert profile.qual_sweeps >= 1 and not profile.qual_stepped, (
                path_text, profile.snapshot(),
            )


# ----------------------------------------------------------------------
# (c) the deferred mid-path attribute keeps its moment
# ----------------------------------------------------------------------


class TestMidPathAttributeRefused:
    """An ``@`` step another step follows is refused when the path is
    parsed — in a selecting path, a user query and a transform query —
    and a hand-built AST that still carries one is refused by both
    compilers and by the sweep rule, with the same error."""

    MESSAGE = "attribute step @id must be the final step"

    @pytest.mark.parametrize("text", ["a/b[@id/c]", "//b[@id/c]", "a/b[c = 1]/c[@id//c]"])
    def test_refused_at_parse(self, text):
        with pytest.raises(XPathSyntaxError, match=self.MESSAGE):
            parse_xpath(text)
        with pytest.raises(XPathSyntaxError, match=self.MESSAGE):
            parse_user_query(f"for $x in {text} return $x")
        with pytest.raises(XPathSyntaxError, match=self.MESSAGE):
            parse_transform_query(
                f'transform copy $a := doc("d") modify do delete $a/{text} return $a'
            )

    def test_a_final_attribute_step_still_parses(self):
        assert str(parse_xpath("a/b[c/@id = '1']")) == "a/b[c/@id = '1']"
        assert str(parse_xpath("a/b[@id/.]")) == "a/b[@id]"

    @swept
    def test_a_hand_built_ast_is_refused_at_compile(self):
        arena = freeze(Element("r", {}, [Element("b", {"id": "1"}, [_leaf("c", "1")])]))
        sym = arena.symbols.intern("b")
        path = Path((Step("attr", "id"), Step("label", "c")))
        for qual in (PathQual(path), CmpQual(path, "=", 1.0)):
            with pytest.raises(XPathSyntaxError, match=self.MESSAGE):
                compile_qualifier(qual)
            with pytest.raises(XPathSyntaxError, match=self.MESSAGE):
                compile_qualifier_arena(qual)
            with pytest.raises(XPathSyntaxError, match=self.MESSAGE):
                choose_sweep(qual, arena, sym, 0, len(arena))
            with pytest.raises(XPathSyntaxError, match=self.MESSAGE):
                sweep_qualifier(qual, arena, sym, 0, len(arena))


# ----------------------------------------------------------------------
# (d) swept reads after splice / rename_splice commits
# ----------------------------------------------------------------------


class TestSweptReadsFollowCommits:
    READS = [
        "for $x in people/person[profile/age > 40] return $x",
        "for $x in people/person[watches/watch] return $x/name",
        "for $x in regions//item[quantity > 1][location = 'United States'] return $x/name",
        "for $x in people/person[not(profile/age > 40)]/name return $x",
        "for $x in people/citizen[profile/age > 40] return $x/name",
    ]
    COMMITS = [
        "insert <profile><age>77</age></profile> into $a/people/person[not(profile)]",
        "delete $a/people/person[profile/age > 60]",
        "rename $a/people/person[profile/age > 50] as citizen",
        "replace $a/regions//item[quantity > 1]/location with <location>United States</location>",
    ]

    def test_each_read_equals_query_naive_before_and_after_every_commit(self):
        store = ViewStore()
        store.put("d", generate(0.004, 5))

        def check(moment):
            for text in self.READS:
                want = [serialize(node) for node in store.query_naive("d", text)]
                assert store.query_serialized("d", text) == want, (moment, text)

        check("loaded")  # ... which builds the postings the commits carry
        for update in self.COMMITS:
            delta = store.commit_delta(
                "d", f'transform copy $a := doc("d") modify do {update} return $a'
            )
            assert delta.entries == 1, update
            check(update)
        doc = store.documents.get("d")
        assert doc.splices == len(self.COMMITS)

    @swept
    @settings(max_examples=150, deadline=None)
    @given(tree=trees(), path_text=xpath_queries(), data=st.data())
    def test_postings_carried_by_splice_answer_like_fresh_ones(self, tree, path_text, data):
        selecting = _selecting(path_text)
        if selecting is None:
            return
        base = freeze(tree)
        select_indices(selecting, base)  # builds the leaf labels' postings
        below_root = [i for i in base.iter_elements() if i]
        if not below_root:
            return
        gone = data.draw(st.sampled_from(below_root))
        segment = freeze_segment(Element(
            data.draw(st.sampled_from(LABELS)), {"id": "5"},
            [Element(data.draw(st.sampled_from(LABELS)), {}, [Text("5")])],
        ))
        with mock.patch.object(arena_module, "_NODES_PER_CARRIED_PATCH", 0):
            spliced = splice(base, [(gone, base.end_of(gone), base.parent_of(gone), segment)])
        assert set(spliced._postings) >= set(base._postings)
        assert select_indices(selecting, spliced) == _reference_indices(
            selecting, thaw(spliced), spliced
        ), path_text
        renamed = rename_splice(base, [gone], data.draw(st.sampled_from(LABELS)))
        assert select_indices(selecting, renamed) == _reference_indices(
            selecting, thaw(renamed), renamed
        ), path_text


# ----------------------------------------------------------------------
# (e) both sides of the rule
# ----------------------------------------------------------------------


def _wide(candidates, leaves_each, witness):
    """*candidates* ``c`` elements under one ``h``, each with
    *leaves_each* ``v`` children; ``witness(c, j)`` says which are 'w'."""
    return Element("r", {}, [Element("h", {}, [
        Element("c", {}, [
            _leaf("v", "w" if witness(c, j) else "n") for j in range(leaves_each)
        ])
        for c in range(candidates)
    ])])


class TestTheRule:
    def test_verdicts(self):
        few = freeze(_wide(arena_compiler.SWEEP_MIN_CANDIDATES - 1, 1, lambda c, j: True))
        many = freeze(_wide(arena_compiler.SWEEP_MIN_CANDIDATES, 1, lambda c, j: True))
        heavy = freeze(_wide(
            arena_compiler.SWEEP_MIN_CANDIDATES, arena_compiler.SWEEP_LEAF_RATIO + 1,
            lambda c, j: True,
        ))
        sym = few.symbols.intern("c")
        qual = _qual("v = 'w'")
        assert choose_sweep(qual, few, sym, 0, len(few))[0] == "few-candidates"
        assert choose_sweep(qual, many, sym, 0, len(many)) == (
            "sweep", arena_compiler.SWEEP_MIN_CANDIDATES,
        )
        assert choose_sweep(qual, heavy, sym, 0, len(heavy))[0] == "leaf-heavy"
        # one candidate over many leaves: people[person/name = 'x']
        tree = generate(0.004, 3)
        arena = freeze(tree)
        people = arena.symbols.intern("people")
        assert choose_sweep(
            _qual("person/name = 'x'"), arena, people, 0, len(arena)
        )[0] == "few-candidates"

    @pytest.mark.parametrize("shape", ["few", "many", "heavy"])
    def test_both_sides_give_the_closures_answer(self, shape):
        minimum, ratio = arena_compiler.SWEEP_MIN_CANDIDATES, arena_compiler.SWEEP_LEAF_RATIO
        tree = {
            "few": _wide(1, 40 * ratio, lambda c, j: j == 17),
            "many": _wide(4 * minimum, 2, lambda c, j: c % 3 == 0 and j == 1),
            "heavy": _wide(2 * minimum, ratio + 3, lambda c, j: c % 5 == 1 and j == ratio),
        }[shape]
        arena = freeze(tree)
        sym = arena.symbols.intern("c")
        qual = _qual("v = 'w'")
        closure = compile_qualifier_arena(qual)
        by_closure = [i for i in arena.postings((sym,)) if closure(arena, i)]
        assert by_closure
        assert sweep_qualifier(qual, arena, sym, 0, len(arena)) == by_closure
        selecting = _selecting("h/c[v = 'w']")
        profile = Profile()
        with profiled(profile):
            assert select_indices(selecting, arena) == by_closure
        candidates = len(arena.postings((sym,)))
        if shape == "many":
            assert (profile.qual_sweeps, profile.qual_stepped) == (1, 0)
            assert profile.qual_swept == 2 * candidates
            assert profile.qual_verdicts == {}
            # only the passing candidates were stepped (plus h)
            assert profile.nodes_visited == len(by_closure) + 1
        else:
            verdict = {"few": "few-candidates", "heavy": "leaf-heavy"}[shape]
            assert (profile.qual_sweeps, profile.qual_swept) == (0, 0)
            assert profile.qual_stepped == candidates
            assert profile.qual_verdicts == {verdict: 1}
        # stepped + jumped accounts for the whole range either way
        assert profile.nodes_visited + profile.nodes_skipped >= candidates

    def test_nothing_outlives_the_scan(self):
        tree = _wide(4 * arena_compiler.SWEEP_MIN_CANDIDATES, 1, lambda c, j: c % 2 == 0)
        arena = freeze(tree)
        selecting = _selecting("h/c[v = 'w']")
        slots_before = {name: getattr(arena, name) for name in arena.__slots__ if name != "_postings"}
        postings_before = None
        for _ in range(2):
            assert len(select_indices(selecting, arena)) == 2 * arena_compiler.SWEEP_MIN_CANDIDATES
            # the per-label index is the only thing a scan may leave
            # behind: c and v, and () for the end of the child path
            assert set(arena._postings) == {
                (arena.symbols.intern("c"),), (arena.symbols.intern("v"),), (),
            }
            if postings_before is not None:
                assert dict(arena._postings) == postings_before
            postings_before = dict(arena._postings)
        for name, value in slots_before.items():
            assert getattr(arena, name) is value, name
        dfa = selecting.dfa()
        for name in vars(dfa):
            value = getattr(dfa, name)
            assert not isinstance(value, (set, frozenset)) or not value, name
