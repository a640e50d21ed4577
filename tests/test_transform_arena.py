"""The one transform over an arena: ``repro.transform.arena.
transform_arena`` behind every surface that takes a ``FrozenDocument``.

* the ``//.`` differential — the context root is never an update
  target, whoever evaluates: the five strategies, the Naive variants,
  the kernel, and the store's ``query_naive`` oracle on a view;
* the engine contract — an arena answers as an arena (the kernel's,
  the input itself on no match, sharing what the update left alone),
  stacks chain arena → arena, and nothing is thawed, planned or
  tallied on the way;
* the acceptance differential — the 20 Fig-12 transforms plus replace
  and rename over an XMark document: ``run(arena)``, the service's
  ``transform`` op and ``run_to_file(arena)`` are byte-identical to
  serializing ``transform_topdown`` on the thawed tree.
"""

import pytest

from repro import Engine, QueryService, ViewStore
from repro.automata.selecting import build_selecting_nfa
from repro.obs import Profile, profiled
from repro.transform import STRATEGIES, parse_transform_query
from repro.transform.naive import transform_naive_indexed
from repro.transform.arena import transform_arena
from repro.transform.topdown import transform_topdown
from repro.xmark.generator import generate
from repro.xmark.queries import (
    QUERY_IDS,
    delete_transform,
    insert_transform,
    rename_transform,
    replace_transform,
)
from repro.xmltree.arena import FrozenDocument, freeze, thaw
from repro.xmltree.node import Element, deep_equal
from repro.xmltree.parser import parse, parse_to_arena
from repro.xmltree.serializer import serialize, serialize_arena
from repro.xmltree.symbols import SymbolTable

NESTED = '<a x="1"><b><a><c/>t</a></b><c>u</c><b/></a>'


def _t(body: str, doc: str = "d") -> str:
    return f'transform copy $a := doc("{doc}") modify do {body} return $a'


@pytest.mark.parametrize(
    "body, want",
    [
        ("rename $a//. as z", '<a x="1"><z><z><z/>t</z></z><z>u</z><z/></a>'),
        (
            "insert <n/> into $a//.",
            '<a x="1"><b><a><c><n/></c>t<n/></a><n/></b><c>u<n/></c><b><n/></b></a>',
        ),
        ("replace $a//. with <n/>", '<a x="1"><n/><n/><n/></a>'),
        ("delete $a//.", '<a x="1"/>'),
        ("rename $a/.//. as z", '<a x="1"><z><z><z/>t</z></z><z>u</z><z/></a>'),
    ],
)
def test_the_context_root_is_never_an_update_target(body, want):
    """``$a//.`` holds ``$a`` itself by XPath; transform updates apply
    below the root.  (Regression: ``transform_naive`` renamed, inserted
    into and replaced the root, and died on a bare assert for delete.)"""
    query = parse_transform_query(_t(body))
    answers = {
        name: serialize(run(parse(NESTED), query))
        for name, (_, run) in STRATEGIES.items()
    }
    answers["naive-indexed"] = serialize(transform_naive_indexed(parse(NESTED), query))
    answers["kernel"] = serialize_arena(
        transform_arena(
            parse_to_arena(NESTED), query.update, build_selecting_nfa(query.path)
        ).arena
    )
    store = ViewStore()
    store.put("d", NESTED)
    store.define_view("v", "d", _t(body))
    whole = "for $x in //. return $x"  # first item: the view's root
    answers["query_naive"] = serialize(store.query_naive("v", whole)[0])
    answers["view read"] = store.query_serialized("v", whole)[0]
    assert answers == dict.fromkeys(answers, want)


CATALOG = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price></supplier>"
    "<supplier><sname>Dell</sname><price>20</price></supplier></part>"
    "<part><pname>mouse</pname><supplier><sname>HP</sname><price>8</price>"
    "</supplier></part><note>plain text</note></db>"
)

KINDS = [
    "insert <flag>1</flag> into $a//supplier",
    "delete $a//price",
    "replace $a/part/pname with <name>x</name>",
    "rename $a//supplier as vendor",
]


class TestEngineContract:
    @pytest.mark.parametrize("body", KINDS)
    def test_an_arena_answers_as_an_arena(self, body, thaw_calls):
        engine = Engine()
        prepared = engine.prepare_transform(_t(body))
        arena = parse_to_arena(CATALOG)
        got = prepared.run(arena)
        assert isinstance(got, FrozenDocument) and got is not arena
        assert thaw_calls == []  # the kernel: no tree on the way
        with profiled(Profile()) as profile:
            prepared.run(arena)
        assert profile.strategy == "scan"  # ... and no strategy
        want = prepared.run(parse(CATALOG))
        assert isinstance(want, Element)
        assert deep_equal(thaw(got), want)
        assert serialize_arena(arena) == CATALOG  # the input is untouched

    def test_no_match_returns_the_input_arena(self):
        arena = parse_to_arena(CATALOG)
        for body in ("delete $a//nosuch", "rename $a/part/nosuch as x"):
            assert Engine().prepare_transform(_t(body)).run(arena) is arena

    def test_the_result_shares_what_the_update_left_alone(self):
        arena = parse_to_arena(CATALOG)
        engine = Engine()
        # A rename point-writes one column: every other one is aliased.
        renamed = engine.prepare_transform(_t("rename $a//supplier as vendor")).run(arena)
        assert renamed.sym is not arena.sym
        for column in ("up", "size", "payload", "attr_keys", "attr_values"):
            assert getattr(renamed, column) is getattr(arena, column)
        assert renamed.symbols is arena.symbols
        # A splice copies extents; the payload strings are the input's.
        deleted = engine.prepare_transform(_t("delete $a//price")).run(arena)
        assert deleted.symbols is arena.symbols
        texts = {id(text) for text in arena.payload if text}
        kept = [text for text in deleted.payload if text]
        assert kept and all(id(text) in texts for text in kept)

    def test_a_stack_chains_arena_to_arena(self, thaw_calls):
        engine = Engine()
        stack = engine.prepare_transform(_t(KINDS[0]))
        for body in KINDS[1:]:
            stack = stack.then(_t(body))
        arena = parse_to_arena(CATALOG)
        got = stack.run(arena)
        assert isinstance(got, FrozenDocument)
        assert thaw_calls == []
        assert deep_equal(thaw(got), stack.run(parse(CATALOG)))
        # then(): raw text or prepared, same chain.
        chained = engine.prepare_transform(_t(KINDS[0])).then(_t(KINDS[1]))
        assert serialize_arena(chained.run(arena)) == serialize(
            chained.run(parse(CATALOG))
        )

    def test_run_naive_of_a_composition_accepts_an_arena(self):
        engine = Engine()
        composed = engine.prepare_composed(
            "for $x in part/supplier return $x", _t("delete $a//price")
        )
        arena = parse_to_arena(CATALOG)
        want = [serialize(item) for item in composed.run_naive(parse(CATALOG))]
        assert want and "price" not in "".join(want)
        assert [serialize(item) for item in composed.run_naive(arena)] == want
        assert [serialize(item) for item in composed.run(arena)] == want

    def test_explain_analyze_reports_the_scan_loops_own_counters(self):
        engine = Engine()
        arena = parse_to_arena(CATALOG)
        prepared = engine.prepare_transform(_t("delete $a//price"))
        report, result = prepared.explain_analyze(arena)
        assert serialize_arena(result) == serialize(prepared.run(parse(CATALOG)))
        assert "no strategy to choose" in report and "strategy:" not in report
        # //price jumps through the postings: three elements stepped,
        # the rest of the document skipped — counted by select_indices.
        assert f"3 nodes visited / {arena.n_elements - 1} estimated" in report
        assert f"{len(arena) - 1 - 3} nodes skipped by jumps" in report

    def test_a_selector_the_arena_rejects_is_the_kernels_error(self):
        arena = freeze(parse(CATALOG), SymbolTable())  # not the NFA's table
        query = parse_transform_query(_t("delete $a//price"))
        with pytest.raises(ValueError, match="symbol table"):
            transform_arena(arena, query.update, build_selecting_nfa(query.path))
        with pytest.raises(ValueError, match="symbol table"):
            Engine().prepare_transform(_t("delete $a//price")).run(arena)


def test_fig12_transforms_answer_byte_identically_on_every_arena_surface(tmp_path):
    """``run(arena)``, the service's ``transform`` op and
    ``run_to_file(arena)`` against ``transform_topdown`` on the thawed
    tree, for insert and delete embedding U1–U10 plus a replace and a
    rename for each.  The op is the kernel and nothing else: it answers
    what ``transform_arena`` serializes to, and leaves no planner or
    prepared-statement trace in the service's registry."""
    tree = generate(0.002, seed=11)
    store = ViewStore()
    store.put("xmark", tree)
    service = QueryService(store)
    engine = Engine()
    arena = store.pin("xmark").arena
    out = tmp_path / "out.xml"
    queries = [
        build(uid)
        for uid in QUERY_IDS
        for build in (insert_transform, delete_transform, replace_transform, rename_transform)
    ]
    changed = 0
    with service:
        for query in queries:
            text = str(query)
            want = serialize(transform_topdown(thaw(arena), query))
            prepared = engine.prepare_transform(text)
            result = prepared.run(arena)
            changed += result is not arena
            assert serialize_arena(result) == want, text
            kernel = transform_arena(arena, query.update, build_selecting_nfa(query.path))
            assert serialize_arena(kernel.arena) == want, text
            assert service.transform("xmark", text) == want, text
            prepared.run_to_file(arena, out)
            assert out.read_text(encoding="utf-8") == (
                '<?xml version="1.0" encoding="utf-8"?>\n' + want + "\n"
            ), text
        assert not [
            name for name in service.registry.snapshot()
            if name.startswith(("engine.planner", "engine.prepared"))
        ]
    assert changed >= 30  # the workload really edits this document
    assert serialize_arena(arena) == serialize(tree)
