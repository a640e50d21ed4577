"""Unit tests for the SAX layer (streaming scanner and adapters)."""

import io

import pytest

from repro import prepare_transform
from repro.cli import main as cli_main
from repro.xmltree import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    TextEvent,
    XMLSyntaxError,
    deep_equal,
    element,
    events_to_text,
    events_to_tree,
    iter_sax_file,
    iter_sax_string,
    parse,
    parse_to_arena,
    serialize,
    serialize_arena,
    tree_to_events,
)


class TestScanner:
    def test_simple_document_events(self):
        events = list(iter_sax_string("<a><b>x</b></a>"))
        assert events == [
            StartDocument(),
            StartElement("a"),
            StartElement("b"),
            TextEvent("x"),
            EndElement("b"),
            EndElement("a"),
            EndDocument(),
        ]

    def test_self_closing_emits_both(self):
        events = list(iter_sax_string("<a/>"))
        assert events == [StartDocument(), StartElement("a"), EndElement("a"), EndDocument()]

    def test_attributes(self):
        events = list(iter_sax_string('<a x="1" y=\'2\'/>'))
        assert events[1] == StartElement("a", {"x": "1", "y": "2"})

    def test_whitespace_stripped_by_default(self):
        events = list(iter_sax_string("<a>\n  <b/>\n</a>"))
        assert not any(isinstance(e, TextEvent) for e in events)

    def test_whitespace_kept_on_request(self):
        events = list(iter_sax_string("<a> <b/> </a>", strip_whitespace=False))
        texts = [e.value for e in events if isinstance(e, TextEvent)]
        assert texts == [" ", " "]

    def test_entities_decoded(self):
        events = list(iter_sax_string("<a>&lt;x&gt;</a>"))
        assert TextEvent("<x>") in events

    def test_comments_and_pis_skipped(self):
        events = list(iter_sax_string('<?xml version="1.0"?><a><!--c--><?pi?><b/></a>'))
        names = [e.name for e in events if isinstance(e, StartElement)]
        assert names == ["a", "b"]

    def test_cdata(self):
        events = list(iter_sax_string("<a><![CDATA[<&>]]></a>"))
        assert TextEvent("<&>") in events

    def test_doctype_skipped(self):
        events = list(iter_sax_string("<!DOCTYPE a><a/>"))
        assert events[1] == StartElement("a")

    @pytest.mark.parametrize(
        "bad",
        ["", "<a>", "</a>", "<a/><b/>", "text<a/>", "<a>x", "<a><!--x</a>"],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(XMLSyntaxError):
            list(iter_sax_string(bad))

    def test_chunk_boundary_robustness(self):
        # A document much larger than one read chunk, with tags likely
        # to straddle chunk boundaries.
        body = "".join(f'<item id="i{i}">value {i} &amp; more</item>' for i in range(20000))
        doc = f"<root>{body}</root>"
        starts = sum(1 for e in iter_sax_string(doc) if isinstance(e, StartElement))
        assert starts == 20001

    def test_file_streaming(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b>x</b></a>", encoding="utf-8")
        events = list(iter_sax_file(str(path)))
        assert events[1] == StartElement("a")
        assert events[-1] == EndDocument()


class TestAdapters:
    def test_tree_to_events_round_trip(self):
        root = parse('<db><part id="p"><pname>kb</pname></part><part/></db>')
        rebuilt = events_to_tree(tree_to_events(root))
        assert deep_equal(root, rebuilt)

    def test_tree_to_events_no_document_wrapper(self):
        root = element("a", element("b"))
        events = list(tree_to_events(root, document=False))
        assert isinstance(events[0], StartElement)
        assert isinstance(events[-1], EndElement)

    def test_scanner_matches_parser(self):
        doc = '<db><part id="p1"><pname>key&amp;board</pname><price>12</price></part></db>'
        via_sax = events_to_tree(iter_sax_string(doc))
        via_dom = parse(doc)
        assert deep_equal(via_sax, via_dom)

    def test_events_to_text_round_trip(self):
        doc = '<db><part id="p1"><pname>key&amp;board</pname></part><part/></db>'
        text = events_to_text(iter_sax_string(doc))
        assert deep_equal(parse(text), parse(doc))

    def test_events_to_text_stream_output(self):
        out = io.StringIO()
        result = events_to_text(iter_sax_string("<a><b>x</b></a>"), out)
        assert result is None
        assert deep_equal(parse(out.getvalue()), parse("<a><b>x</b></a>"))

    def test_events_to_text_self_closes_empty(self):
        assert events_to_text(iter_sax_string("<a></a>")) == "<a/>"

    def test_events_to_tree_errors(self):
        with pytest.raises(XMLSyntaxError):
            events_to_tree([StartElement("a")])
        with pytest.raises(XMLSyntaxError):
            events_to_tree([EndElement("a")])
        with pytest.raises(XMLSyntaxError):
            events_to_tree([TextEvent("x")])
        with pytest.raises(XMLSyntaxError):
            events_to_tree([])

    def test_deep_tree_adapters_no_recursion_error(self):
        doc = "<n>" * 4000 + "</n>" * 4000
        root = events_to_tree(iter_sax_string(doc))
        text = events_to_text(tree_to_events(root))
        assert text.count("<n>") == 3999  # innermost serializes as <n/>
        assert deep_equal(parse(serialize(root)), root)


#: One tokenizer contract: every input is either the same tree to the
#: tree parser, the arena parser and the streaming scanner, or an
#: ``XMLSyntaxError`` to all three.
WELL_FORMED = [
    "<a/>",
    "<a></a >",
    "<a><b>x</b><b/>tail</a>",
    '<a x="1>2"><b/></a>',
    "<a x='a>b' y=\"c>d\">t</a>",
    '<a x="it\'s" y=\'say "hi"\'/>',
    '<a x="&lt;&amp;&#65;&#x42;">&quot;&apos;</a>',
    '<a x="1"y="2"/>',
    '<a\n  x = "1"\n  y\t=\t"2"\n/>',
    '<a x="/"><b x="/"/></a>',
    '<a x="<b>"/>',
    "<!DOCTYPE a [<!ELEMENT a ANY>]><a/>",
    "<!DOCTYPE a [<!ELEMENT a (b)> <!ATTLIST b x CDATA #IMPLIED>]>\n<a><b/></a>",
    '<!DOCTYPE a SYSTEM "a.dtd"><a/><!DOCTYPE a>',
    '<?xml version="1.0"?><!-- head --><a/><!-- tail --><?done?>',
    "<a><![CDATA[<b>&amp;]]></a>",
    "<a>x<![CDATA[ y ]]>z</a>",
    "<a><![CDATA[]]></a>",
    "<a><!-- </b> > --><?pi </b> ?>t</a>",
    "<a><!-->--><b/></a>",
    "<ns:a xml:lang='en'><_b.c-d/></ns:a>",
    "<a> <b> x </b> </a>",
    "<a>]]> > \" '</a>",
    "\n <a/> \n",
]
MALFORMED = [
    "<a><b><c/></a></b>",
    "<a></b>",
    "<1a/>",
    "<a><-b/></a>",
    "<a></ a>",
    "<a></a b>",
    "< a/>",
    "<a/ >",
    "<a //>",
    "<a=b/>",
    "<a x=1/>",
    "<a x/>",
    '<a 1x="1"/>',
    '<a x y="1"/>',
    '<a x="1/>',
    "<a x='1\"/>",
    '<a x="&bogus;"/>',
    "<a>&bogus;</a>",
    "<a>&amp</a>",
    "<a/><b/>",
    "<a/>junk",
    "junk<a/>",
    "<a/><![CDATA[x]]>",
    "<![CDATA[x]]><a/>",
    "<a><!DOCTYPE a></a>",
    "<a><!ELEMENT b></a>",
    "",
    "  ",
    "<",
    "<a",
    "<a>",
    "<a><b></b>",
    "<a>x",
    "</a>",
    "<a/></a>",
    "<a><!--x</a>",
    "<a><![CDATA[x</a>",
    "<a><?pi</a>",
    "<a></a",
    "<!DOCTYPE a [<!ELEMENT a ANY>",
    "<!DOCTYPE a",
    "\x0c<a/>",
]


def _tree(source):
    return serialize(parse(source, strip_whitespace=False))


def _arena(source):
    return serialize_arena(parse_to_arena(source, strip_whitespace=False))


def _scanned(source):
    return serialize(events_to_tree(iter_sax_string(source, strip_whitespace=False)))


def _scanned_file(source, tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(source, encoding="utf-8")
    return serialize(events_to_tree(iter_sax_file(str(path), strip_whitespace=False)))


class TestOneTokenizerContract:
    @pytest.fixture(params=[1, 2, 3, 7], autouse=True)
    def chunk(self, request, monkeypatch):
        """A read size small enough that every token of every case
        straddles a refill somewhere."""
        monkeypatch.setattr("repro.xmltree.sax._CHUNK", request.param)

    @pytest.mark.parametrize("source", WELL_FORMED)
    def test_every_tokenizer_builds_the_same_tree(self, source, tmp_path):
        want = _tree(source)
        assert _arena(source) == want
        assert _scanned(source) == want
        assert _scanned_file(source, tmp_path) == want

    @pytest.mark.parametrize("source", MALFORMED)
    def test_every_tokenizer_refuses(self, source, tmp_path):
        for tokenize in (_tree, _arena, _scanned):
            with pytest.raises(XMLSyntaxError):
                tokenize(source)
        with pytest.raises(XMLSyntaxError):
            _scanned_file(source, tmp_path)

    def test_a_mismatched_end_tag_is_the_tree_parsers_error(self):
        for tokenize in (_tree, _arena, _scanned):
            with pytest.raises(XMLSyntaxError, match=r"mismatched end tag </a> for <b>"):
                tokenize("<a><b><c/></a></b>")

    @pytest.mark.parametrize("source", ["<a><b><c/></a></b>", "<a></b>", "<1a/>"])
    def test_a_streamed_transform_of_a_malformed_file_leaves_no_answer(
        self, source, tmp_path, capsys
    ):
        """Regression: the scanner counted depth but never compared an
        end tag with the element it closes, so ``method="stream"`` —
        what ``auto`` picks from 8 MiB up — answered ``<a><b/></a>``
        for a file every other method refuses."""
        bad, out = tmp_path / "bad.xml", tmp_path / "out.xml"
        bad.write_text(source, encoding="utf-8")
        prepared = prepare_transform(
            'transform copy $a := doc("bad") modify do delete $a//c return $a'
        )
        for method in ("stream", "sax", "topdown"):
            with pytest.raises(XMLSyntaxError):
                prepared.run_to_file(str(bad), str(out), method=method)
            assert not out.exists()
        for method in ("sax", "topdown"):
            assert cli_main(
                ["transform", "-q", prepared.text, "-i", str(bad), "--method", method]
            ) == 2
            printed = capsys.readouterr()
            assert printed.out == "" and printed.err.startswith("repro: ")
