"""The Node emit kernel against the loops it replaced.

``reference_compact`` and ``reference_pretty`` are the serializer's
former compact loop and recursive pretty-printer, kept here verbatim:
the one kernel in :mod:`repro.xmltree.serializer` must write the same
bytes on every tree, through ``serialize``, ``write_stream`` and
``write_file`` alike — and, unlike the recursive printer, at any depth.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import freeze, parse, serialize, thaw
from repro.xmark.generator import deep_chain, generate
from repro.xmltree.node import Element, Text
from repro.xmltree.serializer import (
    escape_attr,
    escape_text,
    serialize_arena,
    write_arena_file,
    write_file,
    write_stream,
)

# ----------------------------------------------------------------------
# The references (the code the kernel replaced, unchanged)
# ----------------------------------------------------------------------


def reference_compact(node):
    out_parts = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out_parts.append(item)
            continue
        if item.is_text:
            out_parts.append(escape_text(item.value))
            continue
        attrs = "".join(f' {k}="{escape_attr(v)}"' for k, v in item.attrs.items())
        if not item.children:
            out_parts.append(f"<{item.label}{attrs}/>")
            continue
        out_parts.append(f"<{item.label}{attrs}>")
        stack.append(f"</{item.label}>")
        stack.extend(reversed(item.children))
    return "".join(out_parts)


def _write_node(node, out, indent, depth):
    pad = "" if indent is None else indent * depth
    newline = "" if indent is None else "\n"
    if node.is_text:
        out.append(pad + escape_text(node.value) + newline)
        return
    attrs = "".join(f' {k}="{escape_attr(v)}"' for k, v in node.attrs.items())
    if not node.children:
        out.append(f"{pad}<{node.label}{attrs}/>{newline}")
        return
    if len(node.children) == 1 and node.children[0].is_text:
        value = escape_text(node.children[0].value)
        out.append(f"{pad}<{node.label}{attrs}>{value}</{node.label}>{newline}")
        return
    out.append(f"{pad}<{node.label}{attrs}>{newline}")
    for child in node.children:
        _write_node(child, out, indent, depth + 1)
    out.append(f"{pad}</{node.label}>{newline}")


def reference_pretty(node, indent):
    out = []
    _write_node(node, out, indent, 0)
    return "".join(out)


# ----------------------------------------------------------------------
# Trees that reach every branch of the kernel
# ----------------------------------------------------------------------


class Tagged(Element):
    """An Element subclass: dispatched by flag, not by class identity."""

    __slots__ = ()


class Note(Text):
    __slots__ = ()


#: Values with every character either escape function rewrites, the
#: two quotes (only ``"`` is escaped, only in attributes), and nothing.
SPECIAL_VALUES = ["", "x", "12", "a&b", "<", "1>0", 'say "hi"', "it's", "&amp;", "]]>", "a b"]
#: The same without values the parser drops or trims (round-trip only).
SOLID_VALUES = [v for v in SPECIAL_VALUES if v and v == v.strip()]


@st.composite
def nodes(draw, values, max_depth=3):
    """Mixed content, adjacent texts, attribute-only and empty
    elements, single-text leaves, subclasses of both node kinds."""
    make_element = draw(st.sampled_from([Element, Element, Tagged]))
    attrs = draw(
        st.dictionaries(st.sampled_from(["id", "k", "q"]), st.sampled_from(values), max_size=3)
    )
    children = []
    if max_depth > 0:
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):
                children.append(draw(nodes(values, max_depth - 1)))
            else:
                make_text = draw(st.sampled_from([Text, Text, Note]))
                children.append(make_text(draw(st.sampled_from(values))))
    return make_element(draw(st.sampled_from(["a", "b", "price"])), attrs, children)


class TestKernelEqualsTheLoopsItReplaced:
    @settings(max_examples=300, deadline=None)
    @given(nodes(SPECIAL_VALUES))
    def test_compact(self, tree):
        expected = reference_compact(tree)
        assert serialize(tree) == expected
        out = io.StringIO()
        write_stream(tree, out)
        assert out.getvalue() == expected

    @settings(max_examples=300, deadline=None)
    @given(nodes(SPECIAL_VALUES), st.sampled_from(["  ", "\t", ""]))
    def test_pretty(self, tree, indent):
        assert serialize(tree, indent=indent) == reference_pretty(tree, indent)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SPECIAL_VALUES), st.sampled_from([Text, Note]))
    def test_a_text_node_on_its_own(self, value, make_text):
        node = make_text(value)
        assert serialize(node) == reference_compact(node)
        assert serialize(node, indent="  ") == reference_pretty(node, "  ")

    @settings(max_examples=200, deadline=None)
    @given(nodes(SOLID_VALUES))
    def test_parse_round_trip(self, tree):
        text = serialize(tree)
        assert serialize(parse(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(nodes(SPECIAL_VALUES))
    def test_arena_serializer_agrees(self, tree):
        arena = freeze(tree)
        assert serialize(thaw(arena)) == serialize_arena(arena)

    def test_xmark_document(self):
        doc = generate(0.001)
        assert serialize(doc) == reference_compact(doc)
        assert serialize(doc, indent="  ") == reference_pretty(doc, "  ")

    def test_single_text_child_stays_inline_when_pretty(self):
        tree = Element("a", {}, [Element("price", {"c": "eur"}, [Text("12")]), Text("t")])
        assert serialize(tree, indent="  ") == '<a>\n  <price c="eur">12</price>\n  t\n</a>\n'

    def test_files(self, tmp_path):
        doc = generate(0.001)
        declaration = '<?xml version="1.0" encoding="utf-8"?>\n'
        path = str(tmp_path / "out.xml")
        write_file(doc, path)
        assert open(path, encoding="utf-8").read() == declaration + reference_compact(doc) + "\n"
        write_file(doc, path, indent="  ", declaration=False)
        assert open(path, encoding="utf-8").read() == reference_pretty(doc, "  ")


class TestArenaKernel:
    """The column loop (``write_arena_range``) under the Node kernel's
    emit rules: escape only what needs it, a single text child inline,
    the close test against a local — byte for byte the compact
    reference, from every subtree."""

    @settings(max_examples=300, deadline=None)
    @given(nodes(SPECIAL_VALUES))
    def test_every_subtree_equals_the_reference(self, tree):
        arena = freeze(tree)
        for node, i in zip(tree.descendants_or_self(), arena.iter_elements()):
            assert serialize_arena(arena, i) == reference_compact(node)

    @pytest.mark.parametrize("children", [
        [Text("a&b")], [Text("<")], [Text("1>0")], [Text("&amp;")], [Text("]]>")],
        [Text("")],                                   # one empty text: <p></p>, not <p/>
        [Text(""), Text("")], [Text("x"), Text("<"), Text("")],    # adjacent texts
        [Text("a&b"), Element("q", {}, [])], [Element("q", {}, []), Text("a&b")],
        [Element("q", {"k": 'say "hi"', "id": "a&b<>"}, [])],      # attribute-only
        [Element("q", {"k": "v"}, [Text("<")])],
        [Element("q", {}, [Text("")]), Element("q", {}, [Text("x")]), Text("t")],
        [],
    ])
    def test_leaf_positions(self, children):
        for attrs in ({}, {"id": "1"}, {"k": "<&>\""}):
            tree = Element("r", {}, [Element("p", dict(attrs), list(children)), Element("z", {}, [])])
            arena = freeze(tree)
            assert serialize_arena(arena) == reference_compact(tree)
            assert serialize_arena(arena, 1) == reference_compact(tree.children[0])

    def test_a_text_node_and_a_file(self, tmp_path):
        arena = freeze(Element("r", {"k": "a&b"}, [Text("x<y"), Element("p", {}, [Text("1")])]))
        assert serialize_arena(arena, 1) == "x&lt;y"
        path = str(tmp_path / "arena.xml")
        write_arena_file(arena, path, declaration=False)
        assert open(path, encoding="utf-8").read() == '<r k="a&amp;b">x&lt;y<p>1</p></r>\n'

    def test_parts_written(self):
        """``<price>12</price>`` is one part, an attribute-less element
        formats no attribute text, a clean value is passed through."""
        from repro.xmltree.serializer import write_arena_range

        arena = freeze(Element("r", {}, [
            Element("price", {}, [Text("12")]), Element("e", {}, []),
            Element("m", {"k": "v"}, [Text("a"), Text("b")]),
        ]))
        parts = []
        write_arena_range(arena, 0, len(arena), parts.append)
        assert parts == ["<r>", "<price>12</price>", "<e/>", '<m k="v">', "a", "b", "</m>", "</r>"]


class TestAnyDepth:
    """Every entry point on a chain deeper than the recursion limit:
    ``<r><a>…<a><b>x</b></a>…</a></r>``, 3 000 ``a`` deep."""

    DEPTH = 3000

    @pytest.fixture(scope="class")
    def chain(self):
        return deep_chain(self.DEPTH)

    @property
    def compact(self):
        return "<r>" + "<a>" * self.DEPTH + "<b>x</b>" + "</a>" * self.DEPTH + "</r>"

    @property
    def pretty(self):
        opens = [" " * level + "<a>\n" for level in range(1, self.DEPTH + 1)]
        closes = [" " * level + "</a>\n" for level in range(self.DEPTH, 0, -1)]
        leaf = " " * (self.DEPTH + 1) + "<b>x</b>\n"
        return "<r>\n" + "".join(opens) + leaf + "".join(closes) + "</r>\n"

    def test_compact(self, chain):
        assert serialize(chain) == self.compact

    def test_pretty(self, chain):
        assert serialize(chain, indent=" ") == self.pretty

    def test_write_stream(self, chain):
        out = io.StringIO()
        write_stream(chain, out)
        assert out.getvalue() == self.compact

    def test_arena(self, chain):
        assert serialize_arena(freeze(chain)) == self.compact

    def test_write_file(self, chain, tmp_path):
        path = str(tmp_path / "deep.xml")
        write_file(chain, path, declaration=False)
        assert open(path, encoding="utf-8").read() == self.compact + "\n"
        write_file(chain, path, indent=" ", declaration=False)
        assert open(path, encoding="utf-8").read() == self.pretty
