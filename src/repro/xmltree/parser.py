"""Parsing XML into a tree or an arena: the doors into the one reader.

Nothing here reads XML text.  Each door hands its input to the expat
reader of :mod:`repro.xmltree.sax` with a sink — a tree sink or a
:class:`~repro.xmltree.arena.FrozenBuilder` — so the tree, arena,
fragment and SAX doors accept one language: XML 1.0 as expat reads it,
less what the reader refuses (README, "What XML is accepted").  By
default whitespace-only text is dropped (``strip_whitespace=True``), as
the paper treats XMark, so pretty-printed documents round-trip.
"""

from __future__ import annotations

from collections import deque

from repro.xmltree.arena import FrozenBuilder, FrozenDocument
from repro.xmltree.node import Element
from repro.xmltree.sax import (
    XMLSyntaxError,
    _read_file,
    _read_fragment,
    _read_string,
    _Tree,
)

__all__ = [
    "XMLSyntaxError",
    "parse",
    "parse_file",
    "parse_file_to_arena",
    "parse_fragment",
    "parse_to_arena",
]


def parse(source: str, strip_whitespace: bool = True) -> Element:
    """Parse an XML document from a string; returns the root element."""
    tree = _Tree()
    deque(_read_string(source, tree, strip_whitespace), 0)
    return tree.root


def parse_fragment(
    source: str, offset: int = 0, strip_whitespace: bool = True
) -> tuple[Element, int]:
    """Parse a single XML element embedded in surrounding text.

    Starts reading at *offset* (leading whitespace allowed) and stops
    right after the element's closing tag.  Returns ``(element, end)``
    where ``end`` is the offset just past the element.  Used by the
    update-expression parser for constant element literals
    (``insert <supplier>…</supplier> into …``).
    """
    tree = _Tree()
    end = _read_fragment(source, offset, tree, strip_whitespace)
    return tree.root, end


def parse_to_arena(source: str, strip_whitespace: bool = True) -> FrozenDocument:
    """Parse straight into a :class:`~repro.xmltree.arena.FrozenDocument`:
    the reader drives the column builder, with no ``Node`` tree and no
    event objects in between."""
    builder = FrozenBuilder()
    deque(_read_string(source, builder, strip_whitespace), 0)
    return builder.finish()


def parse_file_to_arena(path: str, strip_whitespace: bool = True) -> FrozenDocument:
    """Parse a file straight into a frozen columnar document."""
    builder = FrozenBuilder()
    deque(_read_file(path, builder, strip_whitespace), 0)
    return builder.finish()


def parse_file(path: str, strip_whitespace: bool = True) -> Element:
    """Parse an XML document from a file, read a chunk at a time;
    returns the root element.  For memory bounded by the document's
    depth, consume :func:`repro.xmltree.sax.iter_sax_file` instead."""
    tree = _Tree()
    deque(_read_file(path, tree, strip_whitespace), 0)
    return tree.root
