"""Property tests pinning the columnar arena to the Node model.

Four layers are held together on random trees, random ``X``
expressions and seeded XMark documents:

* **representation** — ``freeze -> thaw`` is the identity on trees,
  ``thaw -> freeze`` reproduces the columns exactly, and the own-text
  column equals ``Element.own_text()`` everywhere;
* **qualifiers** — the arena closures of
  :mod:`repro.xpath.arena_compiler` agree with ``eval_qualifier`` and
  with the Node closures at every element;
* **selection** — ``select_indices`` (the arena DFA walk) agrees with
  ``run_select`` (the PR-3 Node DFA walk) and with the specification
  oracle, and the streaming selector fed the arena replay source
  yields the same subtrees;
* **queries and transforms** — the arena XQuery evaluator matches
  ``evaluate_query``, and the transform kernel's result, serialized
  from its columns, is byte-identical to serializing
  ``transform_topdown``;
* **jump scans** — descendant-heavy paths (recursive labels,
  qualifiers on and before ``//`` steps, absent and late-interned
  labels, inner contexts) select the same indices as the Node runner,
  before and after ``splice``/``rename_splice`` (whose carried
  postings equal a fresh census), under a two-thread first use, and
  visit no more than the postings they jump through.
"""

import bisect
import itertools
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.arena_run import select_indices
from repro.automata.selecting import build_selecting_nfa
from repro.obs.profile import Profile, profiled
from repro.streaming.select import stream_select
from repro.transform.arena import transform_arena
from repro.transform.naive import transform_naive
from repro.transform.query import TransformQuery
from repro.transform.topdown import transform_topdown
from repro.updates import parse_update
from repro.xmark.generator import generate
from repro.xmark.queries import EMBEDDED_PATHS, user_query_for
from repro.xmltree import arena as arena_module
from repro.xmltree.arena import freeze, freeze_segment, rename_splice, splice, thaw
from repro.xmltree.node import Element, Text, deep_copy, deep_equal
from repro.xmltree.parser import parse
from repro.xmltree.sax import tree_to_events
from repro.xmltree.serializer import serialize, serialize_arena
from repro.xpath.arena_compiler import compile_qualifier_arena
from repro.xpath.compiler import compile_qualifier
from repro.xpath.evaluator import eval_qualifier, evaluate
from repro.xpath.normalize import UnsupportedPathError
from repro.xpath.parser import parse_xpath
from repro.xquery.arena_eval import ArenaEvaluator, evaluate_query_arena
from repro.xquery.ast import PathFrom, UserQuery, VarRef
from repro.xquery.evaluator import evaluate_query

from tests.strategies import LABELS, VALUES, elements, trees, xpath_queries


def _selecting(query_text):
    path = parse_xpath(query_text)
    try:
        return path, build_selecting_nfa(path)
    except (UnsupportedPathError, ValueError):
        return None


def _items_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, Element) != isinstance(y, Element):
            return False
        if isinstance(x, Element):
            if not deep_equal(x, y):
                return False
        elif x != y:
            return False
    return True


class TestRepresentation:
    @settings(max_examples=200, deadline=None)
    @given(tree=trees())
    def test_freeze_thaw_freeze_round_trip(self, tree):
        arena = freeze(tree)
        thawed = thaw(arena)
        assert deep_equal(tree, thawed)
        again = freeze(thawed)
        assert arena.sym == again.sym
        assert arena.size == again.size
        assert arena.up == again.up
        assert arena.payload == again.payload
        assert arena.attr_keys == again.attr_keys
        assert arena.attr_values == again.attr_values

    @settings(max_examples=200, deadline=None)
    @given(tree=trees())
    def test_own_text_column_matches_node_model(self, tree):
        arena = freeze(tree)
        nodes = list(tree.descendants_or_self())
        indices = list(arena.iter_elements())
        assert len(nodes) == len(indices)
        for node, i in zip(nodes, indices):
            assert arena.label(i) == node.label
            assert arena.own_text(i) == node.own_text()
            assert dict(arena.attrs_of(i)) == node.attrs

    @settings(max_examples=150, deadline=None)
    @given(tree=trees())
    def test_serialize_arena_is_byte_identical(self, tree):
        arena = freeze(tree)
        assert serialize_arena(arena) == serialize(tree)
        # ... for every subtree, not just the root.
        nodes = list(tree.descendants_or_self())
        indices = list(arena.iter_elements())
        for node, i in zip(nodes, indices):
            assert serialize_arena(arena, i) == serialize(node)

    @settings(max_examples=100, deadline=None)
    @given(tree=trees())
    def test_size_and_depth_match(self, tree):
        arena = freeze(tree)
        assert len(arena) == tree.size()
        assert arena.depth() == tree.depth()


class TestQualifierEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_arena_closures_match_reference_and_node_closures(
        self, tree, query_text
    ):
        built = _selecting(query_text)
        if built is None:
            return
        _, selecting = built
        arena = freeze(tree)
        nodes = list(tree.descendants_or_self())
        indices = list(arena.iter_elements())
        for state in selecting.states:
            if not state.has_qualifier:
                continue
            node_check = compile_qualifier(state.qual)
            arena_check = compile_qualifier_arena(state.qual)
            for node, i in zip(nodes, indices):
                expected = eval_qualifier(node, state.qual)
                assert node_check(node) == expected
                assert arena_check(arena, i) == expected, (
                    f"arena qualifier diverges at {node.label} for "
                    f"{query_text}"
                )


    @pytest.mark.parametrize(
        "qualifier",
        [
            ".//b",
            ".//b[c]",
            ".//b[.//c][not(d)]",
            ".//b/@id",
            ".//b[@id = '1']/c/@k",
            "a//b[.//c = '5']",
            ".//b//c",
            "*//b[c]/@id = 'x'",
            ".//b = '12'",
        ],
    )
    @settings(max_examples=60, deadline=None)
    @given(tree=trees())
    def test_descendant_label_steps_answered_from_postings(self, qualifier, tree):
        """``//label`` is a walk of the label's postings inside the
        context's range — same truth at every node as both other
        evaluators, with a nested qualifier on the label step, more
        steps after it, or a trailing attribute."""
        qual = parse_xpath(f"x[{qualifier}]").steps[0].quals[0]
        node_check = compile_qualifier(qual)
        arena_check = compile_qualifier_arena(qual)
        arena = freeze(tree)
        for node, i in zip(tree.descendants_or_self(), arena.iter_elements()):
            expected = eval_qualifier(node, qual)
            assert node_check(node) == expected
            assert arena_check(arena, i) == expected, (qualifier, node.label)


class TestSelectEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_arena_select_agrees_with_node_dfa_and_oracle(
        self, tree, query_text
    ):
        built = _selecting(query_text)
        if built is None:
            return
        path, selecting = built
        arena = freeze(tree)
        via_node = selecting.run_select(tree)
        via_arena = select_indices(selecting, arena)
        oracle = [node for node in evaluate(tree, path) if node is not tree]
        assert len(via_arena) == len(via_node) == len(oracle), query_text
        for node, i in zip(oracle, via_arena):
            assert deep_equal(node, thaw(arena, i)), query_text
        # run_select dispatches on the input type.
        assert selecting.run_select(arena) == via_arena

    @settings(max_examples=100, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_streaming_replay_source_matches_event_stream(
        self, tree, query_text
    ):
        built = _selecting(query_text)
        if built is None:
            return
        path, _ = built
        arena = freeze(tree)
        via_events = [
            serialize(n)
            for n in stream_select(lambda: tree_to_events(tree), path)
        ]
        via_arena = [serialize(n) for n in stream_select(arena, path)]
        assert via_arena == via_events, query_text


class TestQueryEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(tree=trees(), query_text=xpath_queries())
    def test_arena_query_matches_node_evaluator(self, tree, query_text):
        try:
            path = parse_xpath(query_text)
        except ValueError:
            return
        query = UserQuery("x", path, [], VarRef("x"))
        arena = freeze(tree)
        want = evaluate_query(tree, query)
        got = evaluate_query_arena(arena, query)
        assert _items_equal(want, got), query_text

    @settings(max_examples=150, deadline=None)
    @given(
        tree=trees(),
        source_text=xpath_queries(),
        value_text=xpath_queries(),
    )
    def test_arena_query_with_nested_paths(self, tree, source_text, value_text):
        try:
            source = parse_xpath(source_text)
            value = parse_xpath(value_text)
        except ValueError:
            return
        query = UserQuery("x", source, [], PathFrom("x", value))
        arena = freeze(tree)
        want = evaluate_query(tree, query)
        got = evaluate_query_arena(arena, query)
        assert _items_equal(want, got), (source_text, value_text)

    def test_a_path_is_resolved_once_per_evaluator_not_once_per_item(self):
        """A ``for``/``where`` body evaluates its paths per bound item;
        a shared ``nfa_for`` is an LRU behind a lock, so asking it per
        item is a convoy under threads (ROADMAP 3a)."""
        from repro.compiled import CompiledCache

        tree = generate(0.002, 3)
        arena = freeze(tree)
        cache = CompiledCache()
        query = cache.user_query(
            "for $p in people/person where $p/profile/age > 30 "
            "return <r> { $p/name, $p/profile/age } </r>"
        )
        asked = []

        def counting(path):
            asked.append(str(path))
            return cache.selecting_nfa_for(path)

        got = ArenaEvaluator(arena, counting).evaluate(query)
        persons = len(evaluate_query(tree, cache.user_query("for $p in people/person return $p")))
        assert persons > 10 and got
        assert _items_equal(evaluate_query(tree, query), got)
        assert sorted(asked) == sorted(set(asked)), asked
        assert set(asked) == {"people/person", "profile/age", "name"}, asked
        # a path outside the NFA fragment is still refused per call, not cached
        bare = cache.user_query("for $p in people/person return $p/.")
        assert _items_equal(
            evaluate_query(tree, bare), ArenaEvaluator(arena, counting).evaluate(bare)
        )


class TestTransformEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        tree=trees(),
        query_text=xpath_queries(),
        kind=st.sampled_from(["insert", "delete", "replace", "rename"]),
    )
    def test_arena_transform_serialize_matches_topdown(
        self, tree, query_text, kind
    ):
        built = _selecting(query_text)
        if built is None:
            return
        _, selecting = built
        target = (
            f"$a{query_text}" if query_text.startswith("//") else f"$a/{query_text}"
        )
        if kind == "insert":
            update_text = f"insert <w><v>1</v></w> into {target}"
        elif kind == "delete":
            update_text = f"delete {target}"
        elif kind == "replace":
            update_text = f"replace {target} with <w>x</w>"
        else:
            update_text = f"rename {target} as renamed"
        try:
            update = parse_update(update_text)
        except ValueError:
            return
        query = TransformQuery(update)
        arena = freeze(tree)
        want = serialize(transform_topdown(tree, query, nfa=selecting))
        got = serialize_arena(transform_arena(arena, update, selecting).arena)
        assert got == want, update_text

    @pytest.mark.parametrize(
        "update_text",
        [
            "insert <w><v>1</v></w> into $a//a",  # nested matches: each gains a child
            "rename $a//a as z",                  # ... each is relabelled in place
            "delete $a//a",                       # topmost match wins
            "replace $a//a with <w>x</w>",        # ... and is replaced once
            "delete $a/b/*",    # a deleted range empties its parent, which must self-close
            "delete $a/*",      # ... and so must the root
            "replace $a/b/a/c with <w/>",         # a replaced leaf keeps its parent open
        ],
    )
    def test_kernel_cases_the_fused_emit_was_checked_for(self, update_text):
        tree = parse('<a x="1"><b><a y="2"><c/>t<a>u</a></a></b><c>u</c><b/></a>')
        update = parse_update(update_text)
        selecting = build_selecting_nfa(update.path)
        want = serialize(transform_topdown(tree, TransformQuery(update), nfa=selecting))
        got = transform_arena(freeze(tree), update, selecting).arena
        assert serialize_arena(got) == want
        assert serialize(thaw(got)) == want


class TestXMarkWorkload:
    """The Fig-11 queries over seeded XMark documents (three seeds)."""

    def _doc(self, seed):
        return generate(0.002, seed)

    def test_selects_and_queries_on_xmark(self):
        for seed in (7, 42, 1234):
            tree = self._doc(seed)
            arena = freeze(tree)
            assert deep_equal(tree, thaw(arena))
            for uid, path_text in EMBEDDED_PATHS.items():
                path = parse_xpath(path_text)
                selecting = build_selecting_nfa(path)
                node_sel = selecting.run_select(tree)
                arena_sel = select_indices(selecting, arena)
                assert len(node_sel) == len(arena_sel), (seed, uid)
                for node, i in zip(node_sel, arena_sel):
                    assert node.label == arena.label(i)
                query = user_query_for(uid)
                want = evaluate_query(tree, query)
                got = ArenaEvaluator(arena).evaluate(query)
                assert _items_equal(want, got), (seed, uid)


# ----------------------------------------------------------------------
# Jump scans
# ----------------------------------------------------------------------

#: Fresh labels for "interned after the arena was built": the global
#: symbol table never forgets, so every example draws a new one.
_late_labels = (f"late{n}" for n in itertools.count())


@st.composite
def descendant_paths(draw):
    """A path that mostly descends: ``//l``, ``//*``, ``a//b//c``,
    qualifiers on and before ``//`` steps, now and then a label no
    document carries, or a final ``//.`` (a selecting ``//`` state)."""
    parts = []
    for index in range(draw(st.integers(1, 4))):
        step = draw(st.sampled_from(LABELS + LABELS + ["*", "nosuch"]))
        if draw(st.integers(0, 3)) == 0:
            child = draw(st.sampled_from(LABELS + ["*"]))
            value = draw(st.sampled_from(VALUES))
            step += draw(st.sampled_from(
                [f"[{child}]", f"[{child} = '{value}']", f"[.//{child}]", "[@id]"]
            ))
        descend = draw(st.integers(0, 3)) > 0
        parts.append(("//" if descend else "/" if index else "") + step)
    if draw(st.integers(0, 5)) == 0:
        parts.append("//.")
    return "".join(parts)


def _node_indices(selecting, tree, arena, context=0):
    """``run_select`` on the Node subtree at *context*, as arena
    indices (pre-order element positions line up by construction)."""
    nodes = list(tree.descendants_or_self())
    index_of = {id(node): i for node, i in zip(nodes, arena.iter_elements())}
    root = nodes[list(arena.iter_elements()).index(context)]
    return [index_of[id(node)] for node in selecting.run_select(root)]


def _assert_postings_exact(arena):
    """Every postings list *arena* holds equals a fresh census of its
    ``sym`` column — however the list got there."""
    for syms, found in arena._postings.items():
        assert list(found) == [
            i for i in arena.iter_elements() if arena.sym[i] in syms
        ], syms


class TestJumpScans:
    @settings(max_examples=300, deadline=None)
    @given(tree=trees(), path_text=descendant_paths(), data=st.data())
    def test_descendant_paths_agree_index_for_index(self, tree, path_text, data):
        built = _selecting(path_text)
        if built is None:
            return
        path, selecting = built
        arena = freeze(tree)
        assert select_indices(selecting, arena) == _node_indices(
            selecting, tree, arena
        ), path_text
        context = data.draw(st.sampled_from(list(arena.iter_elements())))
        assert select_indices(selecting, arena, context) == _node_indices(
            selecting, tree, arena, context
        ), (path_text, context)
        query = UserQuery("x", path, [], VarRef("x"))
        assert _items_equal(
            evaluate_query(tree, query), evaluate_query_arena(arena, query)
        ), path_text

    @settings(max_examples=100, deadline=None)
    @given(tree=trees(), path_text=descendant_paths())
    def test_label_interned_after_the_arena_was_built(self, tree, path_text):
        arena = freeze(tree)
        late = next(_late_labels)
        tail = path_text if path_text.startswith("//") else f"/{path_text}"
        for text in (f"//{late}", f"{path_text}//{late}", f"//{late}{tail}"):
            built = _selecting(text)
            if built is not None:
                assert select_indices(built[1], arena) == [], text
        assert arena.symbols.intern(late) > max(arena.sym)

    @settings(max_examples=150, deadline=None)
    @given(tree=trees(), path_text=descendant_paths(), data=st.data())
    def test_postings_follow_splice_and_rename_splice(self, tree, path_text, data):
        built = _selecting(path_text)
        if built is None:
            return
        _, selecting = built
        base = freeze(tree)
        before = select_indices(selecting, base)  # builds base's postings
        below_root = [i for i in base.iter_elements() if i]
        if not below_root:
            return
        # delete or replace one subtree, insert a small one (once or
        # twice) as a last child elsewhere
        gone = data.draw(st.sampled_from(below_root))
        hosts = [
            i for i in base.iter_elements()
            if not gone <= i < base.end_of(gone) and not i < gone < base.end_of(i)
        ]
        label = data.draw(st.sampled_from(LABELS))
        segment = freeze_segment(
            Element(label, {}, [Element(LABELS[0], {}, [Text("5")])])
        )
        patches = [(
            gone, base.end_of(gone), base.parent_of(gone),
            segment if data.draw(st.booleans()) else None,
        )]
        if hosts:
            host = data.draw(st.sampled_from(hosts))
            patches += [(base.end_of(host), base.end_of(host), host, segment)] * (
                data.draw(st.integers(1, 2))
            )
        # (these trees are so small that a fresh sweep is always the
        # cheaper choice; force the carry, which is what is under test)
        with mock.patch.object(arena_module, "_NODES_PER_CARRIED_PATCH", 0):
            spliced = splice(base, patches)
        # what base had built came along, patched: equal to a fresh sweep
        assert set(spliced._postings) == set(base._postings)
        _assert_postings_exact(spliced)
        assert select_indices(selecting, spliced) == _node_indices(
            selecting, thaw(spliced), spliced
        ), (path_text, patches)
        # rename: //new finds exactly the renamed nodes, //old loses them
        old = base.label(data.draw(st.sampled_from(below_root)))
        new = next(_late_labels)
        find_old = _selecting(f"//{old}")[1]
        find_new = _selecting(f"//{new}")[1]
        old_hits = select_indices(find_old, base)
        renamed_nodes = data.draw(
            st.lists(st.sampled_from(old_hits), min_size=1, unique=True)
        )
        renamed = rename_splice(base, renamed_nodes, new)
        _assert_postings_exact(renamed)  # the shared ones: untouched labels only
        assert select_indices(find_new, renamed) == sorted(renamed_nodes)
        assert select_indices(find_old, renamed) == sorted(
            set(old_hits) - set(renamed_nodes)
        )
        assert select_indices(selecting, renamed) == _node_indices(
            selecting, thaw(renamed), renamed
        ), path_text
        # the old version answers as it did
        assert select_indices(selecting, base) == before
        assert select_indices(find_old, base) == old_hits
        assert select_indices(find_new, base) == []

    @settings(max_examples=150, deadline=None)
    @given(
        tree=trees(),
        path_text=descendant_paths(),
        kind=st.sampled_from(["insert", "delete", "replace", "rename"]),
    )
    def test_transform_under_descendant_targets_matches_naive(
        self, tree, path_text, kind
    ):
        built = _selecting(path_text)
        if built is None:
            return
        _, selecting = built
        target = (
            f"$a{path_text}" if path_text.startswith("//") else f"$a/{path_text}"
        )
        update = parse_update({
            "insert": f"insert <w><v>1</v></w> into {target}",
            "delete": f"delete {target}",
            "replace": f"replace {target} with <w>x</w>",
            "rename": f"rename {target} as renamed",
        }[kind])
        arena = freeze(tree)
        want = serialize(transform_naive(tree, TransformQuery(update)))
        assert serialize_arena(transform_arena(arena, update, selecting).arena) == want

    def test_two_threads_race_the_first_use_of_one_arena(self):
        tree = generate(0.002, 42)
        labels = ["item", "name", "keyword", "listitem", "text", "bidder"]
        nfas = [build_selecting_nfa(parse_xpath(f"//{l}")) for l in labels]
        reference = freeze(tree)
        want = [select_indices(nfa, reference) for nfa in nfas]
        failures: list = []

        def work(arena, barrier, order):
            barrier.wait(timeout=10)
            for k in order:
                if select_indices(nfas[k], arena) != want[k]:
                    failures.append(labels[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                arena = freeze(tree)  # no postings yet
                barrier = threading.Barrier(2)
                threads = [
                    threading.Thread(target=work, args=(arena, barrier, order))
                    for order in (range(len(nfas)), reversed(range(len(nfas))))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                for k, nfa in enumerate(nfas):
                    s = arena.symbols.intern(labels[k])
                    assert list(arena.postings((s,))) == want[k]
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures

    def test_visits_are_bounded_by_the_postings(self):
        arena = freeze(generate(0.01, 42))
        items = arena.postings((arena.symbols.intern("item"),))
        assert len(items) > 100
        selecting = build_selecting_nfa(parse_xpath(
            "regions//item[location = 'United States'][quantity > 1]"
        ))
        prof = Profile()
        with profiled(prof):
            matches = select_indices(selecting, arena)
        assert 0 < len(matches) < len(items)
        assert prof.nodes_visited <= len(items) + 16
        assert prof.nodes_skipped > 10 * prof.nodes_visited
        prof = Profile()
        with profiled(prof):
            none = select_indices(
                build_selecting_nfa(parse_xpath("//nosuch")), arena
            )
        assert none == [] and prof.nodes_visited == 0
        assert prof.nodes_skipped == len(arena) - 1

    def test_postings_are_per_version_and_never_shipped(self):
        base = freeze(generate(0.002, 42))
        s = base.symbols.intern("item")
        assert base.stats()["index_bytes"] == 0
        total = base.nbytes()["total"]
        items = base.postings((s,))
        assert list(items) == [i for i in base.iter_elements() if base.sym[i] == s]
        assert base.stats()["index_bytes"] >= 4 * len(items)
        assert base.nbytes()["total"] == total
        names = base.postings((base.symbols.intern("name"),))
        renamed = rename_splice(base, list(items[:3]), "thing")
        for column in ("up", "size", "payload", "attr_keys", "attr_values"):
            assert getattr(renamed, column) is getattr(base, column)  # aliased ...
        # ... the index is not: a label the rename left alone shares
        # its postings, a label it moved is swept again on demand
        assert list(renamed._postings.values()) == [names]
        assert renamed._postings[(base.symbols.intern("name"),)] is names
        assert list(renamed.postings((s,))) == list(items[3:])
        assert base.postings((s,)) is items

    def test_a_wide_delta_leaves_the_index_to_be_swept_again(self):
        base = freeze(generate(0.002, 42))
        s = base.symbols.intern("item")
        items = list(base.postings((s,)))
        segment = freeze_segment(Element("item", {}, [Text("x")]))
        at = base.end_of(items[0])
        one = splice(base, [(at, at, items[0], segment)])
        assert (s,) in one._postings
        wide = splice(base, [(base.end_of(m), base.end_of(m), m, segment) for m in items])
        assert not wide._postings
        assert len(wide.postings((s,))) == 2 * len(items)
        _assert_postings_exact(one)


# ----------------------------------------------------------------------
# Splice == freeze of the naive result, column for column
# ----------------------------------------------------------------------


def _preorder(root):
    """Every node of *root* (texts too), in arena index order."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if not node.is_text:
            stack.extend(reversed(node.children))
    return out


@st.composite
def spliced_cases(draw):
    """``(tree, patches, contents)``: a random tree whose root ends in an
    attributed element (so attributed nodes sit right of every patch),
    and a patch set mixing removals and replaces of disjoint subtrees
    (attributed ones among them) with insertions of attributed
    segments, some several times at one position.  *contents* holds
    each patch's segment as a Node tree (``None`` for a removal)."""
    tree = draw(trees())
    tree.children.append(Element("tail", {"id": "t", "k": "1"}, [Text("z")]))
    base = freeze(tree)
    n = len(base)
    removed: list = []
    # Elements only: a removed text node would change its parent's own
    # text, which no update does (they select elements).
    below_root = [i for i in base.iter_elements() if i]
    for i in draw(st.lists(st.sampled_from(below_root), max_size=3, unique=True)):
        if all(not (g <= i < base.end_of(g) or i <= g < base.end_of(i)) for g in removed):
            removed.append(i)

    def inside_removal(i):
        return any(g <= i < base.end_of(g) for g in removed)

    hosts = [i for i in base.iter_elements() if not inside_removal(i)]
    patches: list = []
    contents: list = []

    def content():
        node = draw(elements(max_depth=2))
        node.attrs.setdefault("id", draw(st.sampled_from(VALUES)))
        return node

    for g in removed:
        node = content() if draw(st.booleans()) else None
        patches.append((g, base.end_of(g), base.parent_of(g), node))
    for host in draw(st.lists(st.sampled_from(hosts), max_size=3)):
        node = content()
        for _ in range(draw(st.integers(1, 2))):  # twice: one position, two patches
            patches.append((base.end_of(host), base.end_of(host), host, node))
    if not patches:
        node = content()
        patches.append((n, n, 0, node))  # a last child of the root
    return tree, draw(st.permutations(patches))


def _naive_splice(tree, patches):
    """*patches* applied to a copy of *tree* through the Node model:
    what ``splice`` must equal."""
    root = deep_copy(tree)
    nodes = _preorder(root)
    parent_of = {id(child): node for node in nodes if not node.is_text for child in node.children}
    # Insertions into one host append in the order splice emits them.
    for start, stop, attach, content in sorted(patches, key=lambda p: (p[0], -p[2])):
        if stop == start:
            nodes[attach].children.append(deep_copy(content))
            continue
        gone = nodes[start]
        siblings = parent_of[id(gone)].children
        at = next(k for k, child in enumerate(siblings) if child is gone)
        siblings[at:at + 1] = [deep_copy(content)] if content is not None else []
    return root


class TestSpliceEqualsFreeze:
    # No pinned budget: CI's "ci" profile runs it at 400 examples.
    @settings(deadline=None)
    @given(case=spliced_cases())
    def test_spliced_columns_equal_a_fresh_freeze(self, case):
        tree, drawn = case
        base = freeze(tree)
        patches = [
            (start, stop, attach, freeze_segment(node) if node is not None else None)
            for start, stop, attach, node in drawn
        ]
        got = splice(base, patches)
        want = freeze(_naive_splice(tree, drawn))
        assert got.sym == want.sym
        assert got.up == want.up
        assert got.size == want.size
        assert got.payload == want.payload
        assert got.attr_keys == want.attr_keys
        assert got.attr_values == want.attr_values
        assert got.n_elements == want.n_elements
        # The byte copy is right because a kept lane only changes for
        # one of the fixups: size on a chain node, up on a piece root.
        applied = sorted(patches, key=lambda p: (p[0], -p[2]))
        stops = [stop for _, stop, _, _ in applied]
        cum = arena_module.shift_table(applied)
        chain = set()
        for _, _, attach, _ in applied:
            c = attach
            while c >= 0:
                chain.add(c)
                c = base.parent_of(c)
        for i in range(len(base)):
            if any(start <= i < stop for start, stop, _, _ in applied):
                continue  # removed
            piece = bisect.bisect_right(stops, i)
            at = i + cum[piece]
            if i not in chain:
                assert got.size[at] == base.size[i], i
            if i == 0 or bisect.bisect_right(stops, base.parent_of(i)) == piece:
                assert got.up[at] == base.up[i], i
            # and every such lane is the same node, wherever it moved
            assert got.sym[at] == base.sym[i] and got.payload[at] is base.payload[i]

    @settings(deadline=None)
    @given(case=spliced_cases())
    def test_serialized_subtrees_are_exact_on_spliced_versions(self, case):
        """The per-version texts are derived, never carried: a version
        spliced (or renamed) from one whose texts are all built starts
        with none, and writes each one exactly."""
        tree, drawn = case
        base = freeze(tree)
        for i in base.iter_elements():
            assert base.serialized(i) == serialize(thaw(base, i))
        patches = [
            (start, stop, attach, freeze_segment(node) if node is not None else None)
            for start, stop, attach, node in drawn
        ]
        got = splice(base, patches)
        renamed = rename_splice(base, [i for i in base.iter_elements() if i][:1], "renamed")
        for version in (got, renamed):
            assert version.stats()["texts_held"] == 0
            for i in version.iter_elements():
                text = version.serialized(i)
                assert text == serialize(thaw(version, i))
                assert version.serialized(i) is text
