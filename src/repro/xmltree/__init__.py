"""From-scratch XML substrate: tree model, parser, serializer, SAX layer.

This package provides everything the paper's algorithms need from an XML
library, built without any external dependency:

* :mod:`repro.xmltree.node` — the immutable-by-convention tree model
  (:class:`Element` and :class:`Text` nodes) used by every evaluator.
* :mod:`repro.xmltree.sax` — the XML tokenizer (one scanner, over a
  string in place or a file in chunks) and the SAX event layer over it:
  the event stream ``twoPassSAX`` consumes without ever building a
  tree, plus tree↔event adapters.
* :mod:`repro.xmltree.parser` — ``parse`` / ``parse_to_arena`` /
  ``parse_fragment`` and their file twins: builders over that scanner's
  events, with no tokenizing code of their own.
* :mod:`repro.xmltree.arena` — the frozen columnar document.
* :mod:`repro.xmltree.serializer` — tree → text.
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
