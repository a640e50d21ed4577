"""Unit tests for the SAX layer (the one XML reader and the adapters)."""

import ast
import codecs
import io
import pathlib
import re
import tempfile
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import prepare_transform
from repro.cli import main as cli_main
from repro.xmltree.node import Element, Text
from repro.xmltree.parser import parse_fragment
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
    parse_file,
    parse_file_to_arena,
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


#: One tokenizer contract: ``src/`` has one XML reader (expat, through
#: the handlers of ``repro.xmltree.sax``) and seven doors into it.
#: Every row is either the tree on its right through every door or an
#: ``XMLSyntaxError`` through every door.
WELL_FORMED = [
    ("<a/>", "<a/>"),
    ("<a></a >", "<a/>"),
    ("<a><b>x</b><b/>tail</a>", "<a><b>x</b><b/>tail</a>"),
    ('<a x="1>2"><b/></a>', '<a x="1&gt;2"><b/></a>'),
    ("<a x='a>b' y=\"c>d\">t</a>", '<a x="a&gt;b" y="c&gt;d">t</a>'),
    ('<a x="it\'s" y=\'say "hi"\'/>', '<a x="it\'s" y="say &quot;hi&quot;"/>'),
    ('<a x="&lt;&amp;&#65;&#x42;">&quot;&apos;</a>', '<a x="&lt;&amp;AB">"\'</a>'),
    ('<a\n  x = "1"\n  y\t=\t"2"\n/>', '<a x="1" y="2"/>'),
    ('<a x="/"><b x="/"/></a>', '<a x="/"><b x="/"/></a>'),
    # Line ends read as "\n", white space in a value as a space; a
    # reference keeps the character.
    (
        '<a x="&#9;&#10;&#13;" y="t\tn\nr\r">&#13;\r\n</a>',
        '<a x="&#9;&#10;&#13;" y="t n r ">&#13;\n</a>',
    ),
    ("<!DOCTYPE a [<!ELEMENT a ANY>]><a/>", "<a/>"),
    (
        "<!DOCTYPE a [<!ELEMENT a (b)> <!ATTLIST b x CDATA #IMPLIED>]>\n<a><b/></a>",
        "<a><b/></a>",
    ),
    ('<!DOCTYPE a SYSTEM "a.dtd"><a/>', "<a/>"),
    ('<?xml version="1.0"?><!-- head --><a/><!-- tail --><?done?>', "<a/>"),
    ("<a><![CDATA[<b>&amp;]]></a>", "<a>&lt;b&gt;&amp;amp;</a>"),
    ("<a>x<![CDATA[ y ]]>z</a>", "<a>x y z</a>"),
    ("<a><![CDATA[]]></a>", "<a/>"),
    ("<a>x<!-- c -->y<?pi?>z</a>", "<a>xyz</a>"),
    ("<a><!-- </b> > --><?pi </b> ?>t</a>", "<a>t</a>"),
    ("<a><!-->--><b/></a>", "<a><b/></a>"),
    ("<ns:a xml:lang='en'><_b.c-d/></ns:a>", '<ns:a xml:lang="en"><_b.c-d/></ns:a>'),
    ("<a> <b> x </b> </a>", "<a> <b> x </b> </a>"),
    ("<a>]] > \" '</a>", "<a>]] &gt; \" '</a>"),
    ("\ufeff<a>Grüße</a>", "<a>Grüße</a>"),
    ("\n <a/> \n", "<a/>"),
    # Character references: digits only, XML characters only.
    ("<a>&#0065;&#x00042;&#9;&#x10FFFF;&#xE000;&#xd7ff;</a>", "<a>AB\t\U0010ffff\ue000\ud7ff</a>"),
    # General entities of the internal subset: text, never re-scanned.
    (
        '<!DOCTYPE a [<!ENTITY uuml "&#252;"> <!ENTITY sz \'&#xDF;\'>]>'
        '<a x="&uuml;">Stra&sz;e &amp; H&uuml;tte</a>',
        '<a x="ü">Straße &amp; Hütte</a>',
    ),
    (
        "<!DOCTYPE a [\n<!ENTITY e 'say \"]>\" &amp; go&gt;'>\n<!-- it's \"a\" > ] -->"
        "<?pi ']' ?>\n<!ENTITY e \"second\"><!ENTITY lt \"no\">\n<!ATTLIST a x CDATA \">\">\n] >"
        "<a>&e;|&lt;</a>",
        '<a x="&gt;">say "]&gt;" &amp; go&gt;|&lt;</a>',
    ),
    ('<!DOCTYPE a PUBLIC "-//x//y" "a>.dtd" [<!ENTITY e "">]><a>[&e;]</a>', "<a>[]</a>"),
]
#: Rows that end after their root does: a fragment parse stops at the
#: root's end and leaves this much of the row unread.
AFTER_THE_ROOT = {
    '<?xml version="1.0"?><!-- head --><a/><!-- tail --><?done?>': "<!-- tail --><?done?>",
    "\n <a/> \n": " \n",
}
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
    # A character reference is digits, and names an XML character.
    "<a>&#1_0;</a>",
    "<a>&#+65;</a>",
    "<a>&# 65 ;</a>",
    "<a>&#0;</a>",
    "<a>&#xD800;</a>",
    '<a x="&#1_0;"/>',
    '<a x="&#+65;"/>',
    '<a x="&# 65 ;"/>',
    '<a x="&#0;"/>',
    '<a x="&#xD800;"/>',
    "<a>&#;</a>",
    "<a>&#x;</a>",
    "<a>&#X41;</a>",
    "<a>&#xFFFE;</a>",
    "<a>&#x110000;</a>",
    pytest.param("<a>&#" + "9" * 5000 + ";</a>", id="5000-digits"),
    "<a>&#\u0663;</a>",  # ARABIC-INDIC DIGIT THREE
    # An attribute is given once.
    '<a x="1" x="2"/>',
    '<a x="1" y="2" x=\'1\'/>',
    # The internal subset: general entities with a literal value only.
    "<a>&uuml;</a>",
    '<!DOCTYPE a [<!ENTITY % p "x">]><a/>',
    "<!DOCTYPE a [%p;]><a/>",
    '<!DOCTYPE a [<!ENTITY e SYSTEM "e.xml">]><a>&e;</a>',
    '<!DOCTYPE a [<!ENTITY e PUBLIC "-//e" "e.xml">]><a>&e;</a>',
    '<!DOCTYPE a [<!ENTITY e "<b/>">]><a>&e;</a>',
    '<!DOCTYPE a [<!ENTITY e "&undeclared;">]><a>&e;</a>',
    '<!DOCTYPE a [<!ENTITY e "&e;">]><a>&e;</a>',
    '<!DOCTYPE a [<!ENTITY d "x"><!ENTITY e "&d;&d;">]><a>&e;</a>',
    '<!DOCTYPE a [<!ENTITY e "&#0;">]><a>&e;</a>',
    "<!DOCTYPE a [<!ENTITY e>]><a/>",
    "<!DOCTYPE a [<!ENTITY e x>]><a/>",
    '<!DOCTYPE a [<!ENTITY 1e "x">]><a/>',
    '<!DOCTYPE a [<!ENTITYe "x">]><a/>',
    '<!DOCTYPE a [<!ENTITY e "x" junk>]><a/>',
    '<!DOCTYPE a [<!ENTITY e "x>]><a/>',
    '<!DOCTYPE a [<!ENTITY e "x">]><a>&E;</a>',
    '<!DOCTYPE a [<!ENTITY e "x">] <a/>',
    "<!DOCTYPE a [junk]><a/>",
    '<!DOCTYPE a SYSTEM "a.dtd><a/>',
    '<a><!DOCTYPE a [<!ENTITY e "x">]>&e;</a>',
    # Rows well-formed before expat read them, each against a rule of
    # XML 1.0: S between attributes (STag [40]); no "<" in an attribute
    # value (WFC: No < in Attribute Values); no "]]>" in text (CharData
    # [14]); one DOCTYPE, before the root (document [1]); PubidChar
    # [13]; and an entity value refused at its declaration, where "&#60;"
    # is a "<".
    '<a x="1"y="2"/>',
    '<a x="<b>"/>',
    "<a>]]> > \" '</a>",
    '<!DOCTYPE a SYSTEM "a.dtd"><a/><!DOCTYPE a>',
    '<!DOCTYPE a PUBLIC "-//x//[y]>" "a>.dtd" [<!ENTITY e "">]><a>[&e;]</a>',
    "<!DOCTYPE a [<!ENTITY e 'say \"]>\" &amp; &#60;go&gt;'>]><a>&e;</a>",
    # What plain expat skips or drops: an entity an external DTD might
    # declare, in text and in an attribute value; an external entity;
    # an undeclared parameter entity in the internal subset.
    '<!DOCTYPE a SYSTEM "a.dtd"><a>&foo;</a>',
    '<!DOCTYPE a SYSTEM "a.dtd" [<!ENTITY e "x">]><a x="&e;&foo;"/>',
    '<!DOCTYPE a SYSTEM "a.dtd" [<!ENTITY e "x"><!ATTLIST a y CDATA "&e;&foo;">]><a/>',
    '<!DOCTYPE a SYSTEM "a.dtd" [<!ENTITY e SYSTEM "e.xml">]><a>&e;</a>',
    '<!DOCTYPE a [<!NOTATION n SYSTEM "n"><!ENTITY e SYSTEM "e" NDATA n>]><a/>',
    '<!DOCTYPE a [<!ELEMENT a ANY> %p; <!ENTITY e "x">]><a>&e;</a>',
    # Input that is not characters: a lone surrogate.
    "<a>\ud800</a>",
]
#: Malformed only in what follows the root ``<a/>``, which a fragment
#: parse does not look at.
ONLY_AFTER_THE_ROOT = {
    "<a/><b/>", "<a/>junk", "<a/><![CDATA[x]]>", "<a/></a>",
    '<!DOCTYPE a SYSTEM "a.dtd"><a/><!DOCTYPE a>',
}


def _file(source, tmp_path):
    """*source* in a UTF-8 file (a lone surrogate as the bytes that are
    not UTF-8), or *source* bytes as they are."""
    path = tmp_path / "doc.xml"
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        path.write_text(source, encoding="utf-8", errors="surrogatepass")
    return str(path)


#: The doors that read a whole document: (source, directory for a file,
#: strip_whitespace) -> the serialized tree.
DOORS = {
    "parse": lambda source, tmp, strip: serialize(parse(source, strip)),
    "parse_to_arena": lambda source, tmp, strip: serialize_arena(parse_to_arena(source, strip)),
    "iter_sax_string": lambda source, tmp, strip: serialize(
        events_to_tree(iter_sax_string(source, strip))
    ),
    "iter_sax_file": lambda source, tmp, strip: serialize(
        events_to_tree(iter_sax_file(_file(source, tmp), strip))
    ),
    "parse_file": lambda source, tmp, strip: serialize(parse_file(_file(source, tmp), strip)),
    "parse_file_to_arena": lambda source, tmp, strip: serialize_arena(
        parse_file_to_arena(_file(source, tmp), strip)
    ),
}
#: The text a fragment is embedded in: no quote and no angle bracket, so
#: it can neither complete nor break a row.
BEFORE, AFTER = "insert ", " into $a/b"


@pytest.fixture(params=[1, 2, 3, 7])
def chunk(request, monkeypatch):
    """A read size small enough that every token of every case
    straddles a refill somewhere."""
    monkeypatch.setattr("repro.xmltree.sax._CHUNK", request.param)


@pytest.mark.usefixtures("chunk")
class TestOneTokenizerContract:
    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("source, tree", WELL_FORMED)
    def test_every_door_builds_the_tree(self, door, source, tree, tmp_path):
        assert DOORS[door](source, tmp_path, False) == tree

    @pytest.mark.parametrize("source, tree", WELL_FORMED)
    def test_a_fragment_is_the_same_tree_and_stops_at_its_end(self, source, tree):
        embedded = BEFORE + source + AFTER
        root, end = parse_fragment(embedded, len(BEFORE), strip_whitespace=False)
        assert serialize(root) == tree
        assert embedded[end:] == AFTER_THE_ROOT.get(source, "") + AFTER

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("source", MALFORMED)
    def test_every_door_refuses(self, door, source, tmp_path):
        with pytest.raises(XMLSyntaxError):
            DOORS[door](source, tmp_path, False)

    @pytest.mark.parametrize("source", MALFORMED)
    def test_a_fragment_refuses_what_is_wrong_up_to_its_end(self, source):
        embedded = BEFORE + source + AFTER
        if source in ONLY_AFTER_THE_ROOT:
            root, end = parse_fragment(embedded, len(BEFORE))
            after = source[source.index("<a/>") + 4 :]
            assert serialize(root) == "<a/>" and embedded[end:] == after + AFTER
        else:
            with pytest.raises(XMLSyntaxError):
                parse_fragment(embedded, len(BEFORE))

    @pytest.mark.parametrize("b", ["<b>text</b>", "<b>tëxt €</b>"])
    def test_an_error_offset_is_absolute(self, b, tmp_path):
        """Wherever a chunk ends, and from a fragment's offset: ``pos``
        counts the characters from the start of the input."""
        source = "<a>" + b * 5 + "<c>&#xD800;</c></a>"
        for door in DOORS:
            with pytest.raises(XMLSyntaxError) as caught:
                DOORS[door](source, tmp_path, False)
            assert caught.value.pos == source.index("&")
        with pytest.raises(XMLSyntaxError) as caught:
            parse_fragment(BEFORE + source, len(BEFORE))
        assert caught.value.pos == len(BEFORE) + source.index("&")
        attribute = '<a><b y="ok" x="12&#0;"/></a>'
        with pytest.raises(XMLSyntaxError) as caught:
            DOORS["parse_file"](attribute, tmp_path, False)
        assert caught.value.pos == attribute.index("&")

    @pytest.mark.parametrize("door", DOORS)
    def test_a_mismatched_end_tag_names_both_tags(self, door, tmp_path):
        with pytest.raises(XMLSyntaxError, match=r"mismatched end tag </a> for <b>"):
            DOORS[door]("<a><b><c/></a></b>", tmp_path, False)

    @pytest.mark.parametrize("source", ["<a><b><c/></a></b>", "<a></b>", "<1a/>"])
    def test_a_streamed_transform_of_a_malformed_file_leaves_no_answer(
        self, source, tmp_path, capsys
    ):
        """Regression: the scanner counted depth but never compared an
        end tag with the element it closes, so ``method="sax"`` —
        the route ``auto`` takes from 8 MiB up — answered ``<a><b/></a>``
        for a file every other method refuses.  ``auto`` below that
        reads the file into columns, and refuses it too."""
        bad, out = tmp_path / "bad.xml", tmp_path / "out.xml"
        bad.write_text(source, encoding="utf-8")
        prepared = prepare_transform(
            'transform copy $a := doc("bad") modify do delete $a//c return $a'
        )
        for method in ("auto", "sax", "topdown"):
            with pytest.raises(XMLSyntaxError):
                prepared.run_to_file(str(bad), str(out), method=method)
            assert not out.exists()
        for method in ("auto", "sax", "topdown"):
            assert cli_main(
                ["transform", "-q", prepared.text, "-i", str(bad), "--method", method]
            ) == 2
            printed = capsys.readouterr()
            assert printed.out == "" and printed.err.startswith("repro: ")


#: A DBLP-shaped document: shallow, wide, attribute-heavy, and — what
#: kept the real one from loading — names written with the entities its
#: DOCTYPE declares.
DBLP = """<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE dblp [
  <!-- Latin-1 letters, as dblp.dtd declares them -->
  <!ENTITY uuml "&#252;">
  <!ENTITY auml "&#228;">
  <!ENTITY ouml '&#xF6;'>
  <!ENTITY szlig "ß">
  <!ENTITY Uuml "&#220;">
  <!ELEMENT dblp (bib)*>
  <!ATTLIST article key CDATA #REQUIRED mdate CDATA "1970-01-01">
]>
<dblp>
<bib>
  <inproceedings mdate="2022-08-03" key="conf/sigmod/HutterAK22">
    <author>Thomas H&uuml;tter</author>
    <author orcid="0000-0002-3036-6201">Nikolaus Augsten</author>
    <title>JEDI: These aren't the JSON documents you're looking for?</title>
    <pages>1584-1597</pages>
    <year>2022</year>
    <booktitle>SIGMOD Conference</booktitle>
  </inproceedings>
  <article mdate="2024-02-05" key="journals/pvldb/SchalerHS23"
           publisher="Wei&szlig; &amp; S&ouml;hne">
    <author>Christine Sch&auml;ler</author>
    <author orcid="0000-0002-7190-6825">Thomas H&uuml;tter</author>
    <title>Benchmarking the &Uuml;bersicht: joins &lt; 1&#xB5;s</title>
    <year>2023</year>
    <journal>Proc. VLDB Endow.</journal>
  </article>
</bib>
</dblp>
"""


@pytest.mark.usefixtures("chunk")
class TestInternalSubsetEntities:
    @pytest.mark.parametrize("door", DOORS)
    def test_the_dblp_slice_loads_through_every_door(self, door, tmp_path):
        loaded = parse(DOORS[door](DBLP, tmp_path, True))
        authors = [a.own_text() for a in loaded.descendants() if a.label == "author"]
        assert authors == [
            "Thomas Hütter", "Nikolaus Augsten", "Christine Schäler", "Thomas Hütter",
        ]
        article = next(e for e in loaded.descendants() if e.label == "article")
        assert article.attrs["publisher"] == "Weiß & Söhne"
        title = next(e for e in article.child_elements() if e.label == "title")
        assert title.own_text() == "Benchmarking the Übersicht: joins < 1µs"

    def test_the_dblp_slice_loads_into_a_store_and_answers(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert cli_main(
            ["store", "load", "-n", "dblp", "-i", _file(DBLP, tmp_path), "--state", state]
        ) == 0
        assert "loaded 'dblp' v1" in capsys.readouterr().out
        assert cli_main(
            ["store", "query", "-n", "dblp", "--state", state,
             "-u", "for $x in bib/inproceedings/author return $x"]
        ) == 0
        assert capsys.readouterr().out.splitlines() == [
            "<author>Thomas Hütter</author>",
            '<author orcid="0000-0002-3036-6201">Nikolaus Augsten</author>',
        ]

    def test_a_bad_character_reference_persists_nothing(self, tmp_path, capsys):
        """Regression: ``&#xD800;`` became a lone surrogate, the load
        printed ``loaded 'sur' v1`` and then died encoding the
        checkpoint, leaving ``doc-sur-v1.xml.tmp`` behind."""
        state = tmp_path / "state"
        assert cli_main(
            ["store", "load", "-n", "sur", "-i", _file("<a>&#xD800;</a>", tmp_path),
             "--state", str(state)]
        ) == 2
        printed = capsys.readouterr()
        assert "loaded" not in printed.out
        assert printed.err.startswith("repro: bad character reference &#xD800;")
        assert not list(state.glob("*.tmp")) and not list(state.glob("doc-*"))

    def test_a_declared_entity_cannot_grow(self):
        """Values are text: a reference inside one is refused, so no
        chain of declarations can expand."""
        bomb = (
            '<!DOCTYPE a [<!ENTITY a0 "xxxxxxxxxx">'
            + "".join(f'<!ENTITY a{i} "&a{i - 1};&a{i - 1};">' for i in range(1, 30))
            + "]><a>&a29;</a>"
        )
        with pytest.raises(XMLSyntaxError, match="unknown entity &a0;"):
            parse(bomb)


#: The doors that read a file.
FILE_DOORS = ("iter_sax_file", "parse_file", "parse_file_to_arena")
#: Files that are not UTF-8 as written: expat reads the byte order mark,
#: and the encoding the XML declaration names.
ENCODED_FILES = {
    "utf-8-bom": "\ufeff<a><b x='ü'>Grüße</b></a>".encode("utf-8"),
    "latin-1": (
        '<?xml version="1.0" encoding="ISO-8859-1"?>\n<a><b x="ü">Grüße</b></a>'
    ).encode("latin-1"),
}
#: The byte order marks expat reads, by the codec each names.
MARKS = {
    "utf-8": codecs.BOM_UTF8,
    "utf-16-le": codecs.BOM_UTF16_LE,
    "utf-16-be": codecs.BOM_UTF16_BE,
}
#: The modules that parse XML; ``repro.xmltree.sax`` alone imports one.
XML_PARSERS = ("pyexpat", "xml.parsers", "xml.sax", "xml.dom", "xml.etree")


@pytest.mark.usefixtures("chunk")
class TestOneReader:
    @pytest.mark.parametrize("door", FILE_DOORS)
    @pytest.mark.parametrize("name", ENCODED_FILES)
    def test_a_file_door_reads_the_encoding_the_file_names(self, door, name, tmp_path):
        assert DOORS[door](ENCODED_FILES[name], tmp_path, True) == '<a><b x="ü">Grüße</b></a>'

    @pytest.mark.parametrize("name", ENCODED_FILES)
    def test_an_encoded_file_loads_into_a_store_and_answers(self, name, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert cli_main(
            ["store", "load", "-n", "enc", "-i", _file(ENCODED_FILES[name], tmp_path),
             "--state", state]
        ) == 0
        assert "loaded 'enc' v1" in capsys.readouterr().out
        assert cli_main(
            ["store", "query", "-n", "enc", "--state", state, "-u", "for $x in b return $x"]
        ) == 0
        assert capsys.readouterr().out.splitlines() == ['<b x="ü">Grüße</b>']

    @pytest.mark.parametrize("door", FILE_DOORS)
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16-le", "utf-16-be"])
    def test_a_file_with_a_byte_order_mark_counts_its_own_characters(
        self, door, encoding, tmp_path
    ):
        """An error counts and quotes characters in the encoding the
        mark names, from after the mark: as the string door does."""
        source = "<a><b>t</c></a>"
        message = re.escape("mismatched end tag </c> for <b> (at offset 9)")
        with pytest.raises(XMLSyntaxError, match=f"^{message}$"):
            DOORS["parse"](source, tmp_path, False)
        with pytest.raises(XMLSyntaxError, match=f"^{message}$"):
            DOORS[door](MARKS[encoding] + source.encode(encoding), tmp_path, False)

    @pytest.mark.parametrize("door", FILE_DOORS)
    def test_a_file_that_is_not_utf8_is_refused_at_its_offset(self, door, tmp_path):
        with pytest.raises(XMLSyntaxError) as caught:
            DOORS[door](b"<a>\xc3\xbc\xff</a>", tmp_path, False)
        assert caught.value.pos == len("<a>ü")

    @pytest.mark.parametrize("door", FILE_DOORS)
    @pytest.mark.parametrize("encoding, message", [
        ("x-bogus", "unknown encoding: x-bogus"),
        ("shift_jis", "multi-byte encodings are not supported"),
    ])
    def test_an_encoding_expat_cannot_read_is_refused(self, door, encoding, message, tmp_path):
        source = f'<?xml version="1.0" encoding="{encoding}"?><a/>'.encode("ascii")
        with pytest.raises(XMLSyntaxError, match=message):
            DOORS[door](source, tmp_path, False)

    @pytest.mark.parametrize("door", DOORS)
    def test_a_lone_surrogate_is_refused_at_its_offset(self, door, tmp_path):
        with pytest.raises(XMLSyntaxError) as caught:
            DOORS[door]("<a>ü\ud800</a>", tmp_path, False)
        assert caught.value.pos == len("<a>ü")
        with pytest.raises(XMLSyntaxError) as caught:
            parse_fragment(BEFORE + "<a>ü\ud800</a>", len(BEFORE))
        assert caught.value.pos == len(BEFORE + "<a>ü")

    @pytest.mark.parametrize("strip", [False, True])
    def test_a_character_run_is_one_text_wherever_a_chunk_ends(self, strip):
        """expat reports a run in pieces — at a reference, a line end,
        a comment, a chunk's end; a reader hands on one text."""
        source = "<a>tëxt &amp;\n<!-- c --><![CDATA[more]]> €<?pi?>!<b/>  \n </a>"
        run = "tëxt &\nmore €!"
        assert [c.value for c in parse(source, strip).children if c.is_text] == (
            [run] if strip else [run, "  \n "]
        )
        texts = [e.value for e in iter_sax_string(source, strip) if isinstance(e, TextEvent)]
        assert texts == ([run] if strip else [run, "  \n "])
        assert len(parse_to_arena(source, strip)) == (3 if strip else 4)

    def test_strip_drops_xml_white_space_only(self):
        """A no-break space is text, not the white space ``strip`` drops."""
        source = "<a><b>\u00a0</b><c>\u2003\n</c> \t\r\n <d/></a>"
        assert serialize(parse(source)) == "<a><b>\u00a0</b><c>\u2003\n</c><d/></a>"
        assert serialize_arena(parse_to_arena(source)) == serialize(parse(source))

    def test_only_the_reader_imports_an_xml_parser(self):
        """One tokenizer, enforced: no other module of the package
        imports pyexpat or a parser of the ``xml`` package."""
        package = pathlib.Path(repro.__file__).parent
        importers = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                if any(n == m or n.startswith(m + ".") for n in names for m in XML_PARSERS):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"xmltree/sax.py"}


def _written(tree, strip):
    """*tree* as a parser hands it back: adjacent text merged, and with
    *strip* whitespace-only text dropped."""
    fresh = Element(tree.label, dict(tree.attrs), [])
    for child in tree.children:
        if not child.is_text:
            fresh.children.append(_written(child, strip))
        elif fresh.children and fresh.children[-1].is_text:
            fresh.children[-1] = Text(fresh.children[-1].value + child.value)
        else:
            fresh.children.append(Text(child.value))
    if strip:
        fresh.children = [c for c in fresh.children if not (c.is_text and c.value.isspace())]
    return fresh


_TEXTS = st.text(alphabet=" \n\t\r<>&'\"]x1ü\U0001f600", min_size=1, max_size=6)


@st.composite
def _documents(draw, depth=3):
    attrs = draw(st.dictionaries(st.sampled_from(["id", "k", "xml:lang"]), _TEXTS, max_size=2))
    children = []
    if depth:
        for _ in range(draw(st.integers(0, 3))):
            children.append(
                draw(_documents(depth=depth - 1)) if draw(st.booleans()) else Text(draw(_TEXTS))
            )
    return Element(draw(st.sampled_from(["a", "b", "ns:c", "_d.e-f"])), attrs, children)


class TestEveryDoorRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(tree=_documents(), chunk=st.sampled_from([1, 2, 3, 7, 1 << 16]), strip=st.booleans())
    def test_what_serialize_writes_every_door_reads_back(self, tree, chunk, strip):
        text = serialize(tree)
        want = serialize(_written(tree, strip))
        with tempfile.TemporaryDirectory() as tmp, mock.patch("repro.xmltree.sax._CHUNK", chunk):
            for door in DOORS:
                assert DOORS[door](text, pathlib.Path(tmp), strip) == want, door
        root, end = parse_fragment(BEFORE + text + AFTER, len(BEFORE), strip)
        assert serialize(root) == want and end == len(BEFORE) + len(text)

    @settings(max_examples=60, deadline=None)
    @given(value=_TEXTS)
    def test_another_parser_reads_back_what_serialize_writes(self, value):
        read = ET.fromstring(serialize(Element("a", {"k": value}, [Text(value)])))
        assert read.attrib == {"k": value} and read.text == value
