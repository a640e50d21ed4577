"""One read path: a document, a view stack and a staged preview all
resolve to one arena and evaluate over it.

Two families of checks:

* **no read thaws a document** — with ``thaw`` guarded against index 0,
  every serialized read succeeds on every kind of target, through the
  store and through the service; a thawing read (``ViewStore.query``)
  thaws exactly its element results;
* **same answers** — ``query_naive`` (thaw, ``transform_naive`` per
  layer, Node evaluator) is the oracle for stacks of every depth,
  update kind and staging state, read cold and from the view arenas a
  first read published, on XMark, on a deep chain and on random small
  documents.

The store splices every layer; the paper's Compose Method over columns
(``PreparedComposed.run`` on an arena) is held to the same oracle on
the same stacks: its outermost layer composed with the query over the
arena a ``PreparedStack`` of the staged entries and inner layers
returns.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, QueryService, serialize
from repro.store import ViewStore
from repro.xmark.generator import deep_chain, generate
from repro.xmark.queries import (
    delete_transform,
    insert_transform,
    rename_transform,
    replace_transform,
)
from repro.xmltree.arena import FrozenDocument
from repro.xmltree.node import Element

from tests.strategies import transform_texts, trees, user_queries

CATALOG = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price><country>A</country></supplier>"
    "<supplier><sname>Dell</sname><price>20</price><country>B</country></supplier>"
    "</part><part><pname>mouse</pname>"
    "<supplier><sname>HP</sname><price>8</price><country>A</country></supplier>"
    "</part></db>"
)


def _t(body: str, doc: str = "db") -> str:
    return f'transform copy $a := doc("{doc}") modify do {body} return $a'


LAYERS = [
    _t("delete $a//supplier[country = 'A']/price"),
    _t("rename $a//sname as vendor"),
    _t("insert <seen/> into $a/part"),
]
STAGED = _t("replace $a/part[pname = 'mouse'] with <part><pname>pad</pname></part>")
QUERIES = [
    "for $x in part/supplier return $x",
    "for $x in part return $x/pname",
    "for $x in //vendor return $x",
    "for $x in part[seen] return $x/pname",
]


def _texts(items) -> list:
    return [serialize(x) if isinstance(x, Element) else str(x) for x in items]


def _stack_store(name, document, layers, staged=()) -> ViewStore:
    """*document* stored under *name*, views ``v1 … vn`` stacked over it
    by *layers*, innermost first, and *staged* staged on it."""
    store = ViewStore()
    store.put(name, document)
    base = name
    for index, text in enumerate(layers, 1):
        store.define_view(f"v{index}", base, text)
        base = f"v{index}"
    for text in staged:
        store.stage(name, text)
    return store


def _stacked(depth=3) -> ViewStore:
    return _stack_store("db", CATALOG, LAYERS[:depth])


# ----------------------------------------------------------------------
# No read thaws a document
# ----------------------------------------------------------------------


def _composed(store, engine, target, query, staged):
    """Answer *query* on *target* by the Compose Method over columns:
    the staged entries and inner layers run as a ``PreparedStack`` on
    the pinned arena, and the outermost layer is composed with the
    query over its result."""
    doc_name, stack = store.views.stack(target)
    texts = [entry.text for entry in store.log.staged(doc_name)] if staged else []
    texts += [view.transform_text for view in stack[:-1]]
    arena = store.pin(doc_name).arena
    if texts:
        inner = engine.prepare_transform(texts[0])
        for text in texts[1:]:
            inner = inner.then(text)
        arena = inner.run(arena)
    return engine.prepare_composed(query, stack[-1].transform_text).run(arena)


def test_serialized_reads_never_thaw_a_document(no_document_thaw):
    store = _stacked()
    store.stage("db", STAGED)
    targets = ["db", "v1", "v2", "v3"]
    for _ in range(2):  # the second pass starts from the view arenas
        store.results.invalidate()
        for target in targets:
            for query in QUERIES:
                for staged in (False, True):
                    got = store.query_serialized(target, query, include_staged=staged)
                    assert all(isinstance(text, str) for text in got)
    materialized = [store.views.get(name).materialized_root for name in targets[1:]]
    assert all(isinstance(m, FrozenDocument) for m in materialized)


def test_composed_reads_thaw_the_document_only_when_nothing_is_pruned(thaw_calls):
    """Compose over columns thaws the subtrees its embedded ``topDown``
    calls transform, and the document root only when the query's path
    opens with a ``//`` step: the composer cannot push the automaton
    through it, so the plan transforms the whole document."""
    store = _stacked()
    store.stage("db", STAGED)
    engine = Engine()
    for target in ("v1", "v2", "v3"):
        for query in QUERIES:
            for staged in (False, True):
                del thaw_calls[:]
                got = _composed(store, engine, target, query, staged)
                opens_descendant = query.split(" in ", 1)[1].startswith("//")
                assert (0 in thaw_calls) == opens_descendant, (target, query)
                want = _texts(store.query_naive(target, query, include_staged=staged))
                assert _texts(got) == want, (target, query, staged)


def test_service_reads_and_transforms_never_thaw_a_document(no_document_thaw):
    service = QueryService(store=_stacked())
    service.stage("db", STAGED)
    try:
        for _ in range(3):
            for target in ("db", "v1", "v2", "v3"):
                for query in QUERIES:
                    for staged in (False, True):
                        service.query(target, query, staged=staged)
        for text in LAYERS + [STAGED, _t("delete $a/part")]:
            assert service.transform("db", text).startswith("<db")
    finally:
        service.close()


@pytest.mark.parametrize("target", ["db", "v2"])
def test_a_thawing_read_thaws_exactly_its_element_results(target, thaw_calls):
    store = _stacked(depth=2)
    if target != "db":
        store.query(target, QUERIES[1])  # publishes v1 and v2
        assert store.views.get(target).materialized_root is not None
    del thaw_calls[:]
    rows = store.query(target, QUERIES[0])
    assert len(rows) == 3 and all(isinstance(row, Element) for row in rows)
    assert len(thaw_calls) == 3 and 0 not in thaw_calls


# ----------------------------------------------------------------------
# Same answers: the differential matrix against query_naive
# ----------------------------------------------------------------------

_XMARK_LAYER = {
    "insert": lambda depth: str(insert_transform("U9")),
    "delete": lambda depth: str(delete_transform(("U5", "U6", "U8")[depth % 3])),
    "replace": lambda depth: str(replace_transform(("U7", "U3")[depth % 2])),
    "rename": lambda depth: str(rename_transform(("U2", "U4")[depth % 2], f"r{depth}")),
}
_XMARK_QUERIES = [
    "for $x in people/person[@id = 'person10'] return $x",
    "for $x in regions//item[location = 'United States'] return $x/name",
    "for $x in open_auctions/open_auction[initial > 10] return $x/bidder",
    "for $x in //r1 return $x",
]
_DEEP_LAYER = {
    "insert": lambda depth: _t("insert <m/> into $a//*[.//b]", "deep"),
    "delete": lambda depth: _t(f"delete $a//a[.//b]/c[{'m' if depth % 2 else 'not(m)'}]", "deep"),
    "replace": lambda depth: _t("replace $a//a[.//b][.//c]/c with <c><m/></c>", "deep"),
    "rename": lambda depth: _t(f"rename $a//*[.//b] as s{depth}", "deep"),
}
_DEEP_QUERIES = [
    "for $x in //b return $x",
    "for $x in //*[.//b][m] return $x/c",
    "for $x in //s1[.//b] return $x/m",
]
_DOCUMENTS = {
    "xmark": lambda: (generate(0.001, seed=42), _XMARK_LAYER, _XMARK_QUERIES),
    # The old twopass regression input: nesting qualifiers on a deep chain.
    "deep": lambda: (deep_chain(60, 1), _DEEP_LAYER, _DEEP_QUERIES),
}


def _stack_of(name, kind):
    """A store holding document *name* under a depth-1–6 stack of one
    update kind, with one update of every other kind staged (so previews
    mix kinds), and every read case over it."""
    root, layer_for, queries = _DOCUMENTS[name]()
    store = _stack_store(
        name, root,
        [layer_for[kind](depth) for depth in range(1, 7)],
        [layer_for[other](0) for other in sorted(layer_for) if other != kind],
    )
    cases = [
        (f"v{depth}", query, staged)
        for depth in range(1, 7) for query in queries for staged in (False, True)
    ]
    return store, cases


@pytest.mark.parametrize("kind", ["insert", "delete", "replace", "rename"])
@pytest.mark.parametrize("name", sorted(_DOCUMENTS))
def test_stacks_match_the_oracle(name, kind):
    """Depth 1–6 stacks of one update kind, committed and staged."""
    store, cases = _stack_of(name, kind)
    oracle = {
        case: _texts(store.query_naive(case[0], case[1], include_staged=case[2]))
        for case in cases
    }
    for _ in range(2):  # cold, then from the view arenas the first read kept
        store.results.invalidate()
        for target, query, staged in cases:
            want = oracle[target, query, staged]
            got = store.query_serialized(target, query, include_staged=staged)
            assert got == want, (target, query, staged)
            got = _texts(store.query(target, query, include_staged=staged))
            assert got == want, (target, query, staged)
    assert all(v["materialized"] for v in store.stats()["views"].values())


@pytest.mark.parametrize("kind", ["insert", "delete", "replace", "rename"])
@pytest.mark.parametrize("name", sorted(_DOCUMENTS))
def test_composed_stacks_match_the_oracle(name, kind):
    """The same stacks and reads by the Compose Method over columns."""
    store, cases = _stack_of(name, kind)
    engine = Engine()
    for target, query, staged in cases:
        want = _texts(store.query_naive(target, query, include_staged=staged))
        got = _composed(store, engine, target, query, staged)
        assert _texts(got) == want, (target, query, staged)


@settings(max_examples=80, deadline=None)
@given(
    tree=trees(),
    layers=st.lists(transform_texts(), min_size=1, max_size=4),
    staged=st.lists(transform_texts(), max_size=2),
    query=user_queries(),
)
def test_random_stacks_match_the_oracle(tree, layers, staged, query):
    store = _stack_store("db", tree, layers, staged)
    top = f"v{len(layers)}"
    for _ in range(2):
        store.results.invalidate()
        for include_staged in (False, True):
            want = _texts(store.query_naive(top, query, include_staged=include_staged))
            got = store.query_serialized(top, query, include_staged=include_staged)
            assert got == want


@settings(max_examples=80, deadline=None)
@given(
    tree=trees(),
    layers=st.lists(transform_texts(), min_size=1, max_size=4),
    staged=st.lists(transform_texts(), max_size=2),
    query=user_queries(),
)
def test_random_composed_stacks_match_the_oracle(tree, layers, staged, query):
    store = _stack_store("db", tree, layers, staged)
    top = f"v{len(layers)}"
    engine = Engine()
    for include_staged in (False, True):
        want = _texts(store.query_naive(top, query, include_staged=include_staged))
        got = _composed(store, engine, top, query, include_staged)
        assert _texts(got) == want


def test_a_view_may_delete_most_of_its_document():
    """A view whose layer removes most of the document reads like any
    other, and so does the same delete committed: a splice."""
    wide = "<db><big><x>1</x><y>2</y><z>3</z></big><s>4</s></db>"
    store = ViewStore()
    store.put("db", wide)
    store.define_view("small", "db", _t("delete $a/big"))
    store.define_view("smaller", "small", _t("rename $a/s as t"))
    store.stage("db", _t("delete $a/big/x"))
    for _ in range(3):
        store.results.invalidate()
        assert store.query_serialized("smaller", "for $i in t return $i") == ["<t>4</t>"]
        assert store.query_serialized("small", "for $i in * return $i") == ["<s>4</s>"]
        assert store.query_serialized(
            "small", "for $i in * return $i", include_staged=True
        ) == ["<s>4</s>"]
    assert len(store.views.get("small").materialized_root) == 3  # db, s, "4"
    delta = store.commit_delta("db", _t("delete $a/big"))
    assert delta.entries == 2 and delta.patches == 2, delta
    assert store.query_serialized("smaller", "for $i in t return $i") == ["<t>4</t>"]


def test_a_redefined_view_is_never_answered_from_the_old_definition():
    store = _stacked(depth=1)
    query = QUERIES[0]
    hidden = store.query_serialized("v1", query)
    store.drop("v1")
    store.define_view("v1", "db", LAYERS[1])
    renamed = store.query_serialized("v1", query)
    assert renamed != hidden
    assert renamed == _texts(store.query_naive("v1", query))
