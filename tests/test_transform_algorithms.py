"""Cross-algorithm equivalence for the five transform evaluators.

The copy-and-update baseline executes the conceptual semantics
literally (snapshot, destructive update), so it is the reference; the
four paper algorithms must produce structurally identical trees on the
paper's examples, handcrafted corner cases, and random inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import prepare_transform
from repro.automata.selecting import build_selecting_nfa
from repro.transform import (
    TransformQuery,
    parse_transform_query,
    transform_copy_update,
    transform_naive,
    transform_sax,
    transform_topdown,
    transform_twopass,
)
from repro.transform.naive import transform_naive_indexed
from repro.transform.arena import transform_arena
from repro.updates import parse_update
from repro.xmltree import deep_equal, parse, serialize
from repro.xmltree.parser import parse_to_arena
from repro.xmltree.serializer import serialize_arena
from repro.xpath.normalize import UnsupportedPathError

from tests.strategies import trees, xpath_queries

ALGORITHMS = {
    "naive": transform_naive,
    "topdown": transform_topdown,
    "twopass": transform_twopass,
    "sax": transform_sax,
}


@pytest.fixture
def doc():
    """Fig. 1's shape with concrete values."""
    return parse(
        """
        <db>
          <part>
            <pname>keyboard</pname>
            <supplier><sname>HP</sname><price>12</price><country>US</country></supplier>
            <supplier><sname>Dell</sname><price>20</price><country>A</country></supplier>
            <part>
              <pname>key</pname>
              <supplier><sname>Acme</sname><price>16</price><country>B</country></supplier>
            </part>
          </part>
          <part>
            <pname>mouse</pname>
            <supplier><sname>HP</sname><price>8</price><country>A</country></supplier>
          </part>
        </db>
        """
    )


UPDATES = [
    "delete $a//price",
    "delete $a//supplier[country = 'A']/price",
    "delete $a//supplier[country = 'c1' or country = 'c2']/price",
    "delete $a/part",
    "delete $a/part[pname = 'keyboard']",
    "insert <supplier><sname>New</sname></supplier> into $a//part",
    "insert <checked/> into $a//supplier[price < 15]",
    "insert <x/> into $a//part[pname = 'keyboard']//part"
    "[not(supplier/sname = 'HP') and not(supplier/price < 15)]",
    "replace $a//price with <price>9.99</price>",
    "replace $a/part[pname = 'mouse'] with <discontinued/>",
    "rename $a//pname as name",
    "rename $a/part[part]//supplier as vendor",
    "delete $a//nothing",
    "insert <y/> into $a/part/*",
    "delete $a/part//.",
]


class TestAgainstCopyUpdate:
    @pytest.mark.parametrize("update_text", UPDATES)
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_algorithms_match_reference(self, doc, update_text, name):
        query = TransformQuery(parse_update(update_text))
        expected = transform_copy_update(doc, query)
        actual = ALGORITHMS[name](doc, query)
        assert deep_equal(actual, expected), (
            f"{name} diverges on {update_text}:\n"
            f"  expected {serialize(expected)}\n"
            f"  actual   {serialize(actual)}"
        )

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_source_tree_untouched(self, doc, name):
        before = serialize(doc)
        query = TransformQuery(parse_update("delete $a//price"))
        ALGORITHMS[name](doc, query)
        assert serialize(doc) == before

    def test_example_1_1_delete_price(self, doc):
        # transform copy $a := doc("foo") modify do delete $a//price return $a
        query = parse_transform_query(
            'transform copy $a := doc("foo") modify do delete $a//price return $a'
        )
        result = transform_topdown(doc, query)
        assert "price" not in serialize(result)
        assert "price" in serialize(doc)

    def test_example_1_1_security_view(self, doc):
        query = parse_transform_query(
            'transform copy $a := doc("foo") modify do '
            "delete $a//supplier[country = 'A' or country = 'B']/price return $a"
        )
        result = transform_twopass(doc, query)
        text = serialize(result)
        # US supplier price survives; A and B supplier prices are gone.
        assert "<price>12</price>" in text
        assert "<price>20</price>" not in text
        assert "<price>16</price>" not in text
        assert "<price>8</price>" not in text


ATTRIBUTED = (
    '<db><part id="p1"><pname>kb</pname>'
    "<supplier><price>12</price></supplier></part>"
    "<part><pname>mouse</pname></part></db>"
)


ATTRIBUTED_CASES = [
    (ATTRIBUTED, "delete $a//price"),
    (ATTRIBUTED, "delete $a/part[pname = 'kb']"),
    (ATTRIBUTED, "insert <checked/> into $a//supplier"),
    (ATTRIBUTED, "insert <s/> into $a/part"),
    (ATTRIBUTED, "replace $a//price with <price>0</price>"),
    (ATTRIBUTED, "rename $a//pname as name"),
    (ATTRIBUTED, "delete $a//nothing"),
    ('<r><a k="v" id="i"><b x="1"/></a></r>', "insert <n/> into $a/a"),
]


def _serialized_answer(name, text, query):
    """``query`` over ``text`` by one evaluator, serialized: the four
    paper algorithms, the indexed Naive oracle, or the arena kernel."""
    if name == "kernel":
        nfa = build_selecting_nfa(query.path)
        return serialize_arena(
            transform_arena(parse_to_arena(text), query.update, nfa).arena
        )
    run = transform_naive_indexed if name == "naive-indexed" else ALGORITHMS[name]
    return serialize(run(parse(text), query))


class TestAttributedCatalog:
    """Each kind of update over a small catalog whose parts carry
    attributes, by every evaluator of the transform semantics, against
    the copy-and-update reference."""

    @pytest.mark.parametrize("text, update_text", ATTRIBUTED_CASES)
    @pytest.mark.parametrize(
        "name", sorted(ALGORITHMS) + ["kernel", "naive-indexed"]
    )
    def test_matches_reference(self, name, text, update_text):
        query = TransformQuery(parse_update(update_text))
        expected = serialize(transform_copy_update(parse(text), query))
        assert _serialized_answer(name, text, query) == expected


class TestFileRoute:
    """A file below the stream threshold is read into columns, and
    ``run_to_file`` writes the bytes ``topdown`` writes for it, compact
    and pretty, on every differential shape above."""

    @staticmethod
    def _assert_columns_write_topdown_bytes(text, update_text, tmp_path, pretty):
        src = tmp_path / "in.xml"
        src.write_text(text, encoding="utf-8")
        prepared = prepare_transform(TransformQuery(parse_update(update_text)))
        written = []
        for method in ("auto", "topdown"):
            out = tmp_path / f"{method}.xml"
            prepared.run_to_file(str(src), str(out), method=method, pretty=pretty)
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("update_text", UPDATES)
    def test_fig1_updates(self, doc, tmp_path, update_text, pretty):
        self._assert_columns_write_topdown_bytes(serialize(doc), update_text, tmp_path, pretty)

    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("text, update_text", ATTRIBUTED_CASES)
    def test_attributed_catalog(self, text, update_text, tmp_path, pretty):
        self._assert_columns_write_topdown_bytes(text, update_text, tmp_path, pretty)


class TestTransformQueryParsing:
    def test_parse_full_syntax(self):
        query = parse_transform_query(
            'transform copy $a := doc("T0") modify do delete $a//price return $a'
        )
        assert query.doc == "T0"
        assert query.var == "a"
        assert query.update.kind == "delete"

    def test_parse_insert_with_content(self):
        query = parse_transform_query(
            'transform copy $d := doc("f") modify do '
            "insert <supplier><sname>HP</sname></supplier> into $d//part return $d"
        )
        assert query.update.kind == "insert"
        assert query.var == "d"

    def test_str_round_trip(self):
        text = 'transform copy $a := doc("T0") modify do delete $a//price return $a'
        assert str(parse_transform_query(text)) == text

    def test_wrong_return_variable(self):
        from repro.xpath.lexer import XPathSyntaxError

        with pytest.raises(XPathSyntaxError):
            parse_transform_query(
                'transform copy $a := doc("T") modify do delete $a/x return $b'
            )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "transform copy $a modify do delete $a/x return $a",
            'transform copy $a := doc("T") do delete $a/x return $a',
            'transform copy $a := doc("T") modify do delete $a/x',
            'transform copy $a := doc("T") modify do delete $a/x; return $a',
        ],
    )
    def test_malformed(self, bad):
        from repro.xpath.lexer import XPathSyntaxError

        with pytest.raises(XPathSyntaxError):
            parse_transform_query(bad)


class TestCornerCases:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_update_hits_nothing(self, name):
        doc = parse("<r><a/></r>")
        query = TransformQuery(parse_update("delete $a/zzz"))
        result = ALGORITHMS[name](doc, query)
        assert deep_equal(result, doc)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_nested_matches_insert(self, name):
        doc = parse("<r><a><a><a/></a></a></r>")
        query = TransformQuery(parse_update("insert <m/> into $a//a"))
        expected = transform_copy_update(doc, query)
        assert deep_equal(ALGORITHMS[name](doc, query), expected)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_nested_matches_delete(self, name):
        doc = parse("<r><a><a><b/></a></a><b><a/></b></r>")
        query = TransformQuery(parse_update("delete $a//a"))
        expected = transform_copy_update(doc, query)
        assert deep_equal(ALGORITHMS[name](doc, query), expected)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_mixed_content_preserved(self, name):
        doc = parse("<r>x<a/>y<b/>z</r>", strip_whitespace=False)
        query = TransformQuery(parse_update("delete $a/a"))
        result = ALGORITHMS[name](doc, query)
        assert serialize(result) == "<r>xy<b/>z</r>"

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_attributes_preserved(self, name):
        doc = parse('<r id="1"><a k="v"><b/></a></r>')
        query = TransformQuery(parse_update("delete $a/a/b"))
        result = ALGORITHMS[name](doc, query)
        assert serialize(result) == '<r id="1"><a k="v"/></r>'

    @pytest.mark.parametrize("name", sorted(ALGORITHMS) + ["copy"])
    def test_inserted_copies_are_independent(self, name):
        doc = parse("<r><a/><a/></r>")
        query = TransformQuery(parse_update("insert <m><n/></m> into $a/a"))
        run = transform_copy_update if name == "copy" else ALGORITHMS[name]
        result = run(doc, query)
        assert serialize(result) == "<r><a><m><n/></m></a><a><m><n/></m></a></r>"
        first, second = (a.children[0] for a in result.children)
        assert first is not second
        assert first.children[0] is not second.children[0]
        assert first.children[0] is not query.update.content.children[0]

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_context_qualifier(self, name):
        doc = parse("<r><flag/><a/></r>")
        query = TransformQuery(parse_update("delete $a/.[flag]/a"))
        expected = transform_copy_update(doc, query)
        assert deep_equal(ALGORITHMS[name](doc, query), expected)
        query2 = TransformQuery(parse_update("delete $a/.[zzz]/a"))
        assert deep_equal(ALGORITHMS[name](doc, query2), doc)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_qualifier_needs_descendants(self, name):
        doc = parse("<r><a><x><y><deep/></y></x></a><a><x/></a></r>")
        query = TransformQuery(parse_update("delete $a/a[.//deep]"))
        expected = transform_copy_update(doc, query)
        assert deep_equal(ALGORITHMS[name](doc, query), expected)


class TestPropertyEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        tree=trees(),
        query_text=xpath_queries(),
        kind=st.sampled_from(["insert", "delete", "replace", "rename"]),
    )
    def test_all_algorithms_agree_with_reference(self, tree, query_text, kind):
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
        for name, algorithm in ALGORITHMS.items():
            try:
                actual = algorithm(tree, query)
            except UnsupportedPathError:
                return  # outside the automaton core (e.g. '//.[q]')
            assert deep_equal(actual, expected), (
                f"{name} diverges on {update_text} over {serialize(tree)}"
            )
