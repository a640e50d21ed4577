"""View reads against an oracle that shares no code with the store.

``query_naive`` thaws, applies ``transform_naive`` per layer and runs
the Node evaluator — the same XPath and update code the store's kernel
was written against.  Here the judge is ElementTree
(:mod:`tests.oracle_etree`): ``copy.deepcopy`` plus mutation of what
``findall`` selects, compared in C14N 2.0 form with what the store
serializes.  repro is used on this side only to write the document out.

Every layer and query of ``test_view_reads.py`` whose paths fall inside
ElementTree's XPath subset is read here, through every depth of its
stack, committed and staged, cold and from the view arenas a first read
published; :data:`SKIPPED` lists the ones that do not.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.store import ViewStore
from tests import oracle_etree as oracle
from tests.strategies import transform_texts, trees, user_queries
from tests.test_view_reads import (
    _DEEP_LAYER,
    _DOCUMENTS,
    _XMARK_LAYER,
    CATALOG,
    LAYERS,
    QUERIES,
    STAGED,
    _stack_store,
)

KINDS = ["insert", "delete", "replace", "rename"]
_LAYER_FOR = {"deep": _DEEP_LAYER, "xmark": _XMARK_LAYER}

#: What the oracle cannot read — a qualifier with ``>``/``<``, ``and``,
#: ``not`` or a ``//`` path — by (document, what, layer or query).
SKIPPED = {
    ("deep", "delete", "$a//a[.//b]/c[m]"),
    ("deep", "delete", "$a//a[.//b]/c[not(m)]"),
    ("deep", "insert", "$a//*[.//b]"),
    ("deep", "query", "//*[.//b][m]"),
    ("deep", "query", "//s1[.//b]"),
    ("deep", "rename", "$a//*[.//b]"),
    ("deep", "replace", "$a//a[.//b][.//c]/c"),
    ("xmark", "delete", "$a/open_auctions/open_auction[(initial > 10 and reserve > 50)]/bidder"),
    ("xmark", "query", "open_auctions/open_auction[initial > 10]"),
    ("xmark", "replace", "$a/open_auctions/open_auction[bidder/increase > 5]"
                         "/annotation[happiness < 20]/description//text"),
    ("xmark", "replace", "$a/people/person[profile/age > 20]"),
}


def _layer_path(text: str) -> str:
    return "$a" + oracle.parse_transform(text)[1]


def _query_path(text: str) -> str:
    return text.split(" in ", 1)[1].split(" return ", 1)[0]


def _layers(name: str, kind: str, depths=(1, 2, 3, 4, 5, 6)) -> list:
    """The *kind* layers of document *name*'s stack inside the subset."""
    texts = (_LAYER_FOR[name][kind](depth) for depth in depths)
    return [text for text in texts if oracle.transform_in_subset(text)]


#: The (document, kind) stacks with a layer inside the subset: deep's
#: ``.//b`` qualifiers and xmark's numeric replaces leave five out.
STACKS = [(name, kind) for name in sorted(_LAYER_FOR) for kind in KINDS if _layers(name, kind)]


def test_the_skipped_layers_and_queries_are_listed():
    skipped = set()
    for name in _DOCUMENTS:
        _, layer_for, queries = _DOCUMENTS[name]()
        for kind in KINDS:
            for depth in range(7):
                text = layer_for[kind](depth)
                if not oracle.transform_in_subset(text):
                    skipped.add((name, kind, _layer_path(text)))
        for query in queries:
            if not oracle.query_in_subset(query):
                skipped.add((name, "query", _query_path(query)))
    assert skipped == SKIPPED
    # The catalog stack and its queries are read whole.
    assert all(map(oracle.transform_in_subset, LAYERS + [STAGED]))
    assert all(map(oracle.query_in_subset, QUERIES))


def _check(store, layers: list, staged: list, root, queries) -> int:
    """Read every view ``v1 … vn`` of the stack of *layers* with and
    without the *staged* texts, twice, against the oracle on *root*;
    returns how many reads were compared."""
    reads = 0
    for _ in range(2):  # cold, then from the view arenas
        store.results.invalidate()
        for include_staged in (False, True):
            tree = root
            for text in staged if include_staged else []:
                tree = oracle.apply_transform(tree, text)
            for depth, text in enumerate(layers, 1):
                name = f"v{depth}"
                tree = oracle.apply_transform(tree, text)
                for query in queries:
                    got = store.query_serialized(name, query, include_staged=include_staged)
                    want = oracle.run_query(tree, query)
                    assert [oracle.canonical(item) for item in got] == want, (
                        name, query, include_staged,
                    )
                    reads += 1
    return reads


def test_the_catalog_stack_matches_the_etree_oracle():
    store = _stack_store("db", CATALOG, LAYERS, [STAGED])
    reads = _check(store, LAYERS, [STAGED], ET.fromstring(CATALOG), QUERIES)
    assert reads == 2 * 2 * len(LAYERS) * len(QUERIES)


@pytest.mark.parametrize("name, kind", STACKS)
def test_document_stacks_match_the_etree_oracle(name, kind):
    """The depth 1–6 stacks of ``test_stacks_match_the_oracle``, keeping
    the layers inside the subset, with the other kinds staged."""
    root, _, queries = _DOCUMENTS[name]()
    layers = _layers(name, kind)
    staged = [text for other in KINDS if other != kind for text in _layers(name, other, (0,))]
    queries = [query for query in queries if oracle.query_in_subset(query)]
    store = _stack_store(name, root, layers, staged)
    reads = _check(store, layers, staged, ET.fromstring(serialize(root)), queries)
    assert reads == 2 * 2 * len(layers) * len(queries)


def test_text_beside_an_updated_node_stays():
    """ElementTree keeps the text after a node as that node's tail: a
    deleted or replaced node must leave it where it was."""
    mixed = "<db><p>x<e/>u<b>1</b>y<c>2</c>z</p><p><b/>w</p></db>"
    layers = [
        "transform copy $a := doc(\"db\") modify do delete $a/p/b return $a",
        "transform copy $a := doc(\"db\") modify do replace $a/p/c with <d>3</d> return $a",
    ]
    store = _stack_store("db", mixed, layers)
    assert _check(store, layers, [], ET.fromstring(mixed), ["for $x in p return $x"]) == 8
    assert store.query_serialized("v2", "for $x in p return $x") == [
        "<p>x<e/>uy<d>3</d>z</p>", "<p>w</p>",
    ]


@settings(max_examples=80, deadline=None)
@given(
    tree=trees(),
    layers=st.lists(transform_texts(), min_size=1, max_size=4),
    staged=st.lists(transform_texts(), max_size=2),
    query=user_queries(),
)
def test_random_stacks_match_the_etree_oracle(tree, layers, staged, query):
    store = _stack_store("db", tree, layers, staged)
    _check(store, layers, staged, ET.fromstring(serialize(tree)), [query])
