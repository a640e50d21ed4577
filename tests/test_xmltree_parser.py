"""Unit tests for the XML parser and serializer."""

import pytest

from repro.xmltree import (
    XMLSyntaxError,
    deep_equal,
    element,
    parse,
    parse_file,
    serialize,
    write_file,
)


class TestBasicParsing:
    def test_single_empty_element(self):
        root = parse("<a/>")
        assert root.label == "a"
        assert root.children == []

    def test_open_close(self):
        root = parse("<a></a>")
        assert root.label == "a" and root.children == []

    def test_text_content(self):
        root = parse("<a>hello</a>")
        assert root.own_text() == "hello"

    def test_nested_elements(self):
        root = parse("<a><b><c/></b></a>")
        assert root.children[0].label == "b"
        assert root.children[0].children[0].label == "c"

    def test_mixed_content(self):
        root = parse("<a>x<b/>y</a>", strip_whitespace=False)
        kinds = [(c.is_text, getattr(c, "value", getattr(c, "label", None))) for c in root.children]
        assert kinds == [(True, "x"), (False, "b"), (True, "y")]

    def test_attributes_double_and_single_quotes(self):
        root = parse("<a x=\"1\" y='two'/>")
        assert root.attrs == {"x": "1", "y": "two"}

    def test_attribute_whitespace_tolerance(self):
        root = parse('<a x = "1" />')
        assert root.attrs == {"x": "1"}

    def test_names_with_punctuation(self):
        root = parse("<ns:a-b.c_d/>")
        assert root.label == "ns:a-b.c_d"


class TestWhitespaceHandling:
    def test_whitespace_stripped_by_default(self):
        root = parse("<a>\n  <b/>\n</a>")
        assert len(root.children) == 1

    def test_whitespace_kept_on_request(self):
        root = parse("<a>\n  <b/>\n</a>", strip_whitespace=False)
        assert len(root.children) == 3
        assert root.children[0].is_text

    def test_significant_text_never_stripped(self):
        root = parse("<a>  x  </a>")
        assert root.own_text() == "  x  "


class TestEntities:
    def test_predefined_entities(self):
        root = parse("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert root.own_text() == "<&>\"'"

    def test_numeric_decimal(self):
        assert parse("<a>&#65;</a>").own_text() == "A"

    def test_numeric_hex(self):
        assert parse("<a>&#x41;</a>").own_text() == "A"

    def test_entity_in_attribute(self):
        assert parse('<a x="a&amp;b"/>').attrs["x"] == "a&b"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&nope;</a>")

    def test_unterminated_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&amp</a>")


class TestMiscMarkup:
    def test_xml_declaration(self):
        root = parse('<?xml version="1.0"?><a/>')
        assert root.label == "a"

    def test_comments_skipped(self):
        root = parse("<a><!-- note --><b/><!-- more --></a>")
        assert [c.label for c in root.child_elements()] == ["b"]

    def test_comment_before_root(self):
        assert parse("<!-- hi --><a/>").label == "a"

    def test_doctype_skipped(self):
        assert parse("<!DOCTYPE a><a/>").label == "a"

    def test_doctype_with_internal_subset(self):
        assert parse("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>").label == "a"

    def test_processing_instruction_inside(self):
        root = parse("<a><?target data?><b/></a>")
        assert [c.label for c in root.child_elements()] == ["b"]

    def test_cdata_becomes_text(self):
        root = parse("<a><![CDATA[<raw> & text]]></a>")
        assert root.own_text() == "<raw> & text"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "<a>",
            "<a></b>",
            "<a",
            "<a x=1/>",
            '<a x="1/>',
            "<a/><b/>",
            "<a></a>trailing",
            "text<a/>",
            "<a><!-- unterminated</a>",
            "<a><![CDATA[ unterminated</a>",
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        try:
            parse("<a></b>")
        except XMLSyntaxError as exc:
            assert exc.pos >= 0
        else:  # pragma: no cover
            pytest.fail("expected XMLSyntaxError")


class TestRoundTrip:
    def test_serialize_compact(self):
        root = element("a", element("b", "x"), attrs={"k": "v"})
        assert serialize(root) == '<a k="v"><b>x</b></a>'

    def test_serialize_self_closing(self):
        assert serialize(element("a")) == "<a/>"

    def test_serialize_escapes_text(self):
        assert serialize(element("a", "x<&>y")) == "<a>x&lt;&amp;&gt;y</a>"

    def test_serialize_escapes_attr(self):
        assert serialize(element("a", attrs={"k": 'a"<b'})) == '<a k="a&quot;&lt;b"/>'

    def test_parse_serialize_round_trip(self):
        doc = '<db><part id="p1"><pname>key&amp;board</pname></part><part/></db>'
        assert serialize(parse(doc)) == doc

    def test_pretty_print_round_trips(self):
        root = element(
            "db",
            element("part", element("pname", "kb"), element("price", "10")),
        )
        pretty = serialize(root, indent="  ")
        assert deep_equal(parse(pretty), root)
        assert "\n" in pretty

    def test_deep_document_round_trip(self):
        doc = "<n>" * 3000 + "x" + "</n>" * 3000
        root = parse(doc)
        assert serialize(root) == doc

    def test_file_round_trip(self, tmp_path):
        root = element("db", element("part", "x"))
        path = str(tmp_path / "doc.xml")
        write_file(root, path)
        assert deep_equal(parse_file(path), root)

    def test_file_round_trip_pretty(self, tmp_path):
        root = element("db", element("part", element("pname", "kb")))
        path = str(tmp_path / "doc.xml")
        write_file(root, path, indent="  ")
        assert deep_equal(parse_file(path), root)
