"""Parsing XML into a tree or an arena: the doors into the one tokenizer.

Nothing here reads XML text.  Every function hands its input to the
scanner of :mod:`repro.xmltree.sax` and builds from its event stream —
``Element``/``Text`` nodes through :func:`~repro.xmltree.sax.
events_to_tree`, arena columns through :func:`~repro.xmltree.arena.
events_to_arena` — so the tree parser, the arena parser, the fragment
parser and the SAX layer accept one language of documents:

* elements with attributes (single- or double-quoted, no name twice),
* self-closing tags,
* text with the five predefined entities, the general entities the
  DOCTYPE's internal subset declares, and numeric character references
  (decimal and hex) to XML characters,
* comments, processing instructions, a DOCTYPE declaration and CDATA
  sections (comments/PIs are skipped, CDATA becomes text),
* an optional XML declaration.

By default whitespace-only text between elements is dropped
(``strip_whitespace=True``), which makes pretty-printed documents
round-trip cleanly and matches how the paper's data (XMark) is treated.
"""

from __future__ import annotations

from repro.xmltree.arena import FrozenDocument, events_to_arena
from repro.xmltree.node import Element
from repro.xmltree.sax import (
    XMLSyntaxError,
    _StreamScanner,
    decode_entities,
    events_to_tree,
    iter_sax_file,
)

__all__ = [
    "XMLSyntaxError",
    "decode_entities",
    "parse",
    "parse_file",
    "parse_file_to_arena",
    "parse_fragment",
    "parse_to_arena",
]


def parse(source: str, strip_whitespace: bool = True) -> Element:
    """Parse an XML document from a string; returns the root element."""
    return events_to_tree(_StreamScanner(source, strip_whitespace).events())


def parse_fragment(
    source: str, offset: int = 0, strip_whitespace: bool = True
) -> tuple[Element, int]:
    """Parse a single XML element embedded in surrounding text.

    Starts scanning at *offset* (leading whitespace allowed) and stops
    right after the element's closing tag.  Returns ``(element, end)``
    where ``end`` is the offset just past the element.  Used by the
    update-expression parser for constant element literals
    (``insert <supplier>…</supplier> into …``).
    """
    scanner = _StreamScanner(source, strip_whitespace, offset)
    return events_to_tree(scanner.events(fragment=True)), scanner.pos


def parse_to_arena(source: str, strip_whitespace: bool = True) -> FrozenDocument:
    """Parse straight into a :class:`~repro.xmltree.arena.FrozenDocument`.

    The columnar load path: no intermediate ``Node`` tree is ever
    built — the scanner's events drive the arena's column builder, so
    loading a document for the read-mostly serving path costs the
    columns and the text payloads, nothing else.
    """
    return events_to_arena(_StreamScanner(source, strip_whitespace).events())


def parse_file_to_arena(
    path: str, strip_whitespace: bool = True, encoding: str = "utf-8"
) -> FrozenDocument:
    """Parse a file straight into a frozen columnar document."""
    return events_to_arena(iter_sax_file(path, strip_whitespace, encoding))


def parse_file(path: str, strip_whitespace: bool = True, encoding: str = "utf-8") -> Element:
    """Parse an XML document from a file; returns the root element.

    The file is read a chunk at a time, so what is resident is the tree
    and one chunk.  For memory bounded by the document's depth, consume
    :func:`repro.xmltree.sax.iter_sax_file` instead of building a tree.
    """
    return events_to_tree(iter_sax_file(path, strip_whitespace, encoding))
