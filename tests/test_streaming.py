"""Tests for the streaming selector and the streaming composition
pipeline (the future-work extension), and for the one file door a
prepared read has: ``run_file`` reads a file of any size into columns,
and gives the answer the tree and the stream give."""

import json
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.compose import naive_compose
from repro.engine import planner
from repro.streaming import stream_compose, stream_query, stream_select
from repro.transform import TransformQuery
from repro.updates import parse_update
from repro.xmark import generate
from repro.xmark.generator import write_xmark_file
from repro.xmark.queries import (
    composition_pairs,
    insert_transform,
    user_query_for,
    EMBEDDED_PATHS,
    QUERY_IDS,
)
from repro.xmltree import (
    Element,
    deep_equal,
    parse,
    parse_file,
    serialize,
    tree_to_events,
    write_file,
)
from repro.xmltree.sax import iter_sax_file
from repro.xpath import evaluate, parse_xpath
from repro.xpath.normalize import UnsupportedPathError
from repro.xquery import parse_user_query

from tests.strategies import trees, xpath_queries


def tree_source(tree):
    return lambda: tree_to_events(tree)


def serialized(items) -> list:
    """A read's items as ``run_file`` yields them."""
    return [serialize(item) if isinstance(item, Element) else str(item) for item in items]


def file_source(path):
    return lambda: iter_sax_file(path)


class TestStreamSelect:
    def test_simple_selection(self):
        doc = parse("<db><part><pname>kb</pname></part><part/></db>")
        matches = list(stream_select(tree_source(doc), parse_xpath("part")))
        assert len(matches) == 2
        assert serialize(matches[0]) == "<part><pname>kb</pname></part>"

    def test_qualifier_selection(self):
        doc = parse("<db><part><pname>kb</pname></part><part><pname>m</pname></part></db>")
        matches = list(
            stream_select(tree_source(doc), parse_xpath("part[pname = 'kb']"))
        )
        assert len(matches) == 1

    def test_descendant_selection_document_order(self):
        doc = parse("<r><a><a><a/></a></a><a/></r>")
        matches = list(stream_select(tree_source(doc), parse_xpath("//a")))
        expected = evaluate(doc, parse_xpath("//a"))
        assert len(matches) == len(expected)
        for got, want in zip(matches, expected):
            assert deep_equal(got, want)

    def test_nested_matches_each_yield(self):
        doc = parse("<r><a><b/><a><c/></a></a></r>")
        matches = list(stream_select(tree_source(doc), parse_xpath("//a")))
        assert [serialize(m) for m in matches] == [
            "<a><b/><a><c/></a></a>",
            "<a><c/></a>",
        ]

    def test_no_matches(self):
        doc = parse("<r><a/></r>")
        assert list(stream_select(tree_source(doc), parse_xpath("zzz"))) == []

    def test_from_file(self, tmp_path):
        doc = parse("<db><part><pname>kb</pname></part></db>")
        path = str(tmp_path / "f.xml")
        write_file(doc, path)
        matches = list(stream_select(file_source(path), parse_xpath("part/pname")))
        assert len(matches) == 1 and matches[0].own_text() == "kb"

    @pytest.mark.parametrize(
        "query", ["//.", ".[a]//.", ".[zzz]//.", "//a", ".[a]//a", ".[zzz]//a", ".[zzz]/a"]
    )
    def test_the_context_is_selected_as_the_reference_selects_it(self, query):
        """A path that selects its own context (``//.``) selects the
        root, and a context qualifier that fails at the root selects
        nothing."""
        doc = parse("<r><a><b/></a><a/></r>")
        path = parse_xpath(query)
        matches = [serialize(m) for m in stream_select(tree_source(doc), path)]
        assert matches == [serialize(n) for n in evaluate(doc, path)]

    @pytest.mark.parametrize("uid", QUERY_IDS)
    def test_workload_matches_reference(self, uid):
        doc = generate(0.001, seed=9)
        path = parse_xpath(EMBEDDED_PATHS[uid])
        expected = evaluate(doc, path)
        matches = list(stream_select(tree_source(doc), path))
        assert len(matches) == len(expected)
        for got, want in zip(matches, expected):
            assert deep_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(tree=trees(), query=xpath_queries())
    def test_property_matches_reference(self, tree, query):
        path = parse_xpath(query)
        try:
            matches = list(stream_select(tree_source(tree), path))
        except UnsupportedPathError:
            return
        expected = evaluate(tree, path)
        assert len(matches) == len(expected)
        for got, want in zip(matches, expected):
            assert deep_equal(got, want)


class TestStreamCompose:
    def test_paper_pairs_match_naive(self):
        doc = generate(0.001, seed=9)
        for _tid, _uid, transform_query, user_query in composition_pairs():
            expected = naive_compose(doc, user_query, transform_query)
            actual = list(stream_compose(tree_source(doc), user_query, transform_query))
            assert len(actual) == len(expected)
            for got, want in zip(actual, expected):
                assert deep_equal(got, want)

    def test_where_clause_applies(self):
        doc = parse(
            "<db><part><pname>kb</pname><price>5</price></part>"
            "<part><pname>m</pname><price>50</price></part></db>"
        )
        qt = TransformQuery(parse_update("insert <tag/> into $a/part"))
        q = parse_user_query("for $x in part where $x/price < 10 return $x/pname")
        result = list(stream_compose(tree_source(doc), q, qt))
        assert len(result) == 1 and result[0].own_text() == "kb"

    def test_template_applies(self):
        doc = parse("<db><part><pname>kb</pname></part></db>")
        qt = TransformQuery(parse_update("delete $a//zzz"))
        q = parse_user_query("for $x in part return <row>{ $x/pname }</row>")
        result = list(stream_compose(tree_source(doc), q, qt))
        assert serialize(result[0]) == "<row><pname>kb</pname></row>"

    def test_transform_visible_to_user_query(self):
        doc = parse("<db><part><price>5</price></part></db>")
        qt = TransformQuery(parse_update("delete $a//price"))
        q = parse_user_query("for $x in part/price return $x")
        assert list(stream_compose(tree_source(doc), q, qt)) == []

    def test_insert_visible_to_user_query(self):
        doc = parse("<db><part/></db>")
        qt = TransformQuery(parse_update("insert <flag/> into $a/part"))
        q = parse_user_query("for $x in part/flag return $x")
        assert len(list(stream_compose(tree_source(doc), q, qt))) == 1

    def test_from_file(self, tmp_path):
        doc = generate(0.001, seed=9)
        path = str(tmp_path / "site.xml")
        write_file(doc, path)
        qt = insert_transform("U1")
        q = user_query_for("U2")
        expected = naive_compose(doc, q, qt)
        actual = list(stream_compose(file_source(path), q, qt))
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert deep_equal(got, want)

    def test_a_user_path_the_automata_refuse_is_refused_before_reading(self):
        """The user path compiles before the transform's Ld pass reads
        the source, so a refused path reads nothing."""
        reads = []

        def source():
            reads.append(1)
            return tree_to_events(parse("<db><part><a/></part></db>"))

        qt = TransformQuery(parse_update("delete $a//a"))
        q = parse_user_query("for $x in //.[a] return $x")
        answer = stream_compose(source, q, qt)
        with pytest.raises(UnsupportedPathError):
            next(answer)
        with pytest.raises(UnsupportedPathError):
            stream_query(source, q)
        assert reads == []

    @settings(max_examples=60, deadline=None)
    @given(
        tree=trees(),
        update_path=xpath_queries(),
        user_path=xpath_queries(),
        kind=st.sampled_from(["insert", "delete"]),
    )
    def test_property_matches_naive(self, tree, update_path, user_path, kind):
        target = ("$a" + update_path) if update_path.startswith("//") else f"$a/{update_path}"
        text = f"insert <n/> into {target}" if kind == "insert" else f"delete {target}"
        try:
            qt = TransformQuery(parse_update(text))
            q = parse_user_query(f"for $x in {user_path} return $x")
            actual = list(stream_compose(tree_source(tree), q, qt))
        except UnsupportedPathError:
            return
        expected = naive_compose(tree, q, qt)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            if isinstance(got, Element) and isinstance(want, Element):
                assert deep_equal(got, want)
            else:
                assert got == want


GOLDEN = pathlib.Path(__file__).parent / "front_end_golden.json"

#: Paths the columns answer and the streaming selector's automata do not
#: compile: the context itself, a bare attribute, a qualified ``.``
#: straight after ``//``.
NOT_STREAMED = [
    "for $x in . return $x",
    "for $x in @id return $x",
    "for $x in //.[a] return $x",
    "for $x in a//.[b] return $x",
]

#: Every user query of the front end's corpus, the XMark user queries,
#: and a path that selects its own context.
READS = sorted(
    text
    for text, row in json.loads(GOLDEN.read_text(encoding="utf-8")).items()
    if row["user"] is not None
) + [str(user_query_for(uid)) for uid in QUERY_IDS] + ["for $x in $a//. return $x"]

PAIRS = list(composition_pairs())

CATALOG = (
    "<db><part id='p1'><pname>keyboard</pname>"
    "<supplier><sname>HP</sname><price>12</price><country>US</country></supplier>"
    "<part><pname>key</pname><supplier><sname>Acme</sname><price>16</price></supplier>"
    "</part></part>"
    "<part id='p2'><pname>mouse</pname>"
    "<supplier><sname>HP</sname><price>8</price><country>A</country></supplier></part></db>"
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("reads")
    paths = []
    for name, tree in (("xmark", generate(0.002, seed=42)), ("catalog", parse(CATALOG))):
        path = root / f"{name}.xml"
        write_file(tree, str(path))
        paths.append(str(path))
    return paths


class TestRunFile:
    """A read over a file: columns at every size, and the answer the
    tree and the streaming pipeline give."""

    @pytest.mark.parametrize("text", READS, ids=range(len(READS)))
    def test_columns_stream_and_tree_agree(self, files, text, no_document_thaw):
        prepared = Engine().prepare_query(text)
        for path in files:
            want = serialized(prepared.run(parse_file(path)))
            assert list(prepared.run_file(path)) == want, path
            assert serialized(stream_query(file_source(path), prepared.query)) == want, path

    @pytest.mark.parametrize("text", NOT_STREAMED)
    def test_columns_answer_what_the_stream_refuses(self, files, text):
        """The columnar evaluator answers these (thawing the document
        for a qualified ``.`` after ``//``); the stream refuses them
        before it reads."""
        prepared = Engine().prepare_query(text)
        for path in files:
            want = serialized(prepared.run(parse_file(path)))
            assert list(prepared.run_file(path)) == want, path
            with pytest.raises(ValueError):
                stream_query(file_source(path), prepared.query)

    @pytest.mark.parametrize("pair", PAIRS, ids=[f"{t}-{u}" for t, u, _, _ in PAIRS])
    def test_a_composition_agrees_on_every_door(self, files, pair):
        _tid, _uid, transform, user = pair
        prepared = Engine().prepare_composed(str(user), transform)
        path = files[0]
        want = serialized(prepared.run(parse_file(path)))
        assert list(prepared.run_file(path)) == want == serialized(prepared.run_naive(path))
        streamed = stream_compose(file_source(path), prepared.user.query, prepared.transform.query)
        assert serialized(streamed) == want

    def test_a_file_at_the_threshold_is_still_read_into_columns(self, files, monkeypatch):
        """A read takes no size rule: at or above the stream threshold
        it answers every path, those the automata refuse included."""
        monkeypatch.setattr(planner, "STREAM_THRESHOLD_BYTES", 1)
        for text in NOT_STREAMED:
            prepared = Engine().prepare_query(text)
            want = serialized(prepared.run(parse_file(files[1])))
            assert list(prepared.run_file(files[1])) == want, text
        prepared = Engine().prepare_query("for $x in part return $x")
        assert "evaluation: read into columns" in prepared.explain(files[1])

    def test_the_root_is_selected_on_every_door(self, tmp_path):
        """At XMark 0.01, every node of the document, the root first."""
        path = str(tmp_path / "xmark.xml")
        write_xmark_file(path, 0.01, seed=42)
        prepared = Engine().prepare_query("for $x in $a//. return $x")
        columns = list(prepared.run_file(path))
        streamed = serialized(stream_query(file_source(path), prepared.query))
        assert len(columns) == len(streamed) == 15144 and columns == streamed
        assert streamed[0] == serialize(parse_file(path))

    def test_run_takes_no_path(self, files):
        engine = Engine()
        for prepared in (
            engine.prepare_query("for $x in part return $x"),
            engine.prepare_composed(
                "for $x in part return $x",
                'transform copy $a := doc("db") modify do delete $a//price return $a',
            ),
        ):
            with pytest.raises(ValueError, match=r"run_file\(path\)"):
                prepared.run(files[1])

    def test_the_cli_prints_what_run_file_yields(self, files, capsys):
        from repro.cli import main

        user = "for $x in part return $x"
        transform = 'transform copy $a := doc("db") modify do delete $a//price return $a'
        assert main(["query", "-q", user, "-i", files[1], "--stats"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == list(Engine().prepare_query(user).run_file(files[1]))
        assert "route: columns" in err
        assert main(["compose", "-t", transform, "-u", user, "-i", files[1]]) == 0
        want = list(Engine().prepare_composed(user, transform).run_file(files[1]))
        assert capsys.readouterr().out.splitlines() == want and "<price>" not in want[0]

    def test_explain_names_the_route(self, files):
        prepared = Engine().prepare_query("for $x in part return $x")
        assert "evaluation: read into columns" in prepared.explain(files[1])
        report, results = prepared.explain_analyze(files[1])
        assert results == serialized(prepared.run(parse_file(files[1])))
        assert "2 results" in report and "serialize bytes" in report


def test_a_streamed_read_keeps_a_flat_peak(tmp_path):
    """Fig. 14's pattern for a read: a streamed query consumed lazily
    keeps a small traced heap, flat in the file size (a 4x larger file,
    the same peak)."""
    query = parse_user_query("for $x in people/person[profile/age > 40] return $x")
    peaks = []
    for factor in (0.005, 0.02):  # 0.21 MB and 0.83 MB files
        path = str(tmp_path / f"xmark-{factor}.xml")
        write_xmark_file(path, factor, seed=42)
        tracemalloc.start()
        try:
            for _ in stream_query(file_source(path), query):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert large < 1 << 20 and small < 1 << 20, peaks
    assert large <= 1.25 * small, peaks
