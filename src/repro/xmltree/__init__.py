"""From-scratch XML substrate: tree model, parser, serializer, SAX layer.

This package provides everything the paper's algorithms need from an XML
library, built without any external dependency:

* :mod:`repro.xmltree.node` — the immutable-by-convention tree model
  (:class:`Element` and :class:`Text` nodes) used by every evaluator.
* :mod:`repro.xmltree.parser` — a recursive-descent XML parser.
* :mod:`repro.xmltree.serializer` — tree → text.
* :mod:`repro.xmltree.sax` — a streaming SAX event scanner (never builds
  a tree) plus tree↔event adapters, used by the ``twoPassSAX`` algorithm.
"""

from repro.xmltree.arena import (
    FrozenBuilder,
    FrozenDocument,
    arena_to_events,
    events_to_arena,
    freeze,
    thaw,
)
from repro.xmltree.node import (
    Element,
    Node,
    Text,
    deep_copy,
    deep_equal,
    element,
    text,
)
from repro.xmltree.parser import (
    XMLSyntaxError,
    parse,
    parse_file,
    parse_file_to_arena,
    parse_to_arena,
)
from repro.xmltree.sax import (
    EndDocument,
    EndElement,
    SAXEvent,
    StartDocument,
    StartElement,
    TextEvent,
    events_to_text,
    events_to_tree,
    iter_sax_file,
    iter_sax_string,
    tree_to_events,
)
from repro.xmltree.serializer import (
    serialize,
    serialize_arena,
    write_arena_file,
    write_file,
)

__all__ = [
    "Element",
    "EndDocument",
    "EndElement",
    "FrozenBuilder",
    "FrozenDocument",
    "Node",
    "SAXEvent",
    "StartDocument",
    "StartElement",
    "Text",
    "TextEvent",
    "XMLSyntaxError",
    "arena_to_events",
    "deep_copy",
    "deep_equal",
    "element",
    "events_to_arena",
    "events_to_text",
    "events_to_tree",
    "freeze",
    "iter_sax_file",
    "iter_sax_string",
    "parse",
    "parse_file",
    "parse_file_to_arena",
    "parse_to_arena",
    "serialize",
    "serialize_arena",
    "text",
    "thaw",
    "tree_to_events",
    "write_arena_file",
    "write_file",
]
