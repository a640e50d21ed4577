"""SAX event layer: streaming scanner and tree↔event adapters.

Section 6 of the paper integrates the two-pass transform evaluation with
SAX parsing so very large documents are processed with memory bounded by
document depth.  This module provides the substrate:

* the five event types of the paper — ``startDocument()``,
  ``startElement(n)``, ``text(t)``, ``endElement(n)``,
  ``endDocument()`` — as lightweight classes;
* :func:`iter_sax_file` — an incremental scanner that reads the file in
  chunks and **never materializes the document**;
* :func:`iter_sax_string` — the same scanner over an in-memory string;
* :func:`tree_to_events` / :func:`events_to_tree` — adapters between the
  tree model and event streams (the transform result of ``twoPassSAX``
  "may be accessed as a SAX event stream", per the paper);
* :func:`events_to_text` — serialize an event stream to XML text,
  streaming, for writing transform results straight to disk.
"""

from __future__ import annotations

from typing import IO, Callable, Iterable, Iterator, Optional, Union

from repro.xmltree.node import Element, Node, Text
from repro.xmltree.parser import (
    XMLSyntaxError,
    _is_name_char,
    _is_name_start,
    decode_entities,
)
from repro.xmltree.serializer import escape_attr, escape_text
from repro.xmltree.symbols import global_symbols

#: Element names are canonicalized through the process-wide symbol
#: table as events are produced (see :mod:`repro.xmltree.symbols`):
#: the streaming passes then run the compiled automata over labels
#: whose symbol ids are already interned.
_SYMBOLS = global_symbols()


class SAXEvent:
    """Base class for SAX events."""

    __slots__ = ()


class StartDocument(SAXEvent):
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "StartDocument()"

    def __eq__(self, other) -> bool:
        return isinstance(other, StartDocument)

    def __hash__(self) -> int:
        return hash(StartDocument)


class EndDocument(SAXEvent):
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "EndDocument()"

    def __eq__(self, other) -> bool:
        return isinstance(other, EndDocument)

    def __hash__(self) -> int:
        return hash(EndDocument)


class StartElement(SAXEvent):
    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: Optional[dict] = None):
        self.name = name
        self.attrs: dict[str, str] = attrs if attrs is not None else {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"StartElement({self.name!r}, {self.attrs!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StartElement)
            and self.name == other.name
            and self.attrs == other.attrs
        )

    def __hash__(self) -> int:
        return hash(("start", self.name))


class EndElement(SAXEvent):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"EndElement({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, EndElement) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("end", self.name))


class TextEvent(SAXEvent):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"TextEvent({self.value!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, TextEvent) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("text", self.value))


# ----------------------------------------------------------------------
# Streaming scanner
# ----------------------------------------------------------------------

_CHUNK = 1 << 16

#: The whitespace the tree parser skips inside and between markup.
_WS = " \t\r\n"


def _valid_name(name: str) -> bool:
    """Is *name* one the tree parser's ``_read_name`` reads whole?"""
    return bool(name) and _is_name_start(name[0]) and all(map(_is_name_char, name))


class _StreamScanner:
    """Incremental XML tokenizer over a text stream.

    Keeps a buffer with a read position; the consumed prefix is dropped
    only when more input is needed, so tokenizing is amortized linear.
    Buffer size stays bounded by the chunk size plus the largest single
    token (tag, comment or text run between tags).

    Accepts exactly what the tree parser accepts (the differential in
    ``tests/test_xmltree_sax.py`` holds both to one table): names are
    validated, every end tag is checked against the element it closes,
    a start tag ends at the first ``>`` outside a quoted attribute
    value and a DOCTYPE at the first ``>`` outside its bracketed
    internal subset — wherever a chunk refill falls.
    """

    def __init__(self, stream: IO[str], strip_whitespace: bool):
        self.stream = stream
        self.buf = ""
        self.pos = 0        # read position within buf
        self.base = 0       # absolute offset of buf[0], for errors
        self.eof = False
        self.strip = strip_whitespace
        #: Names that passed validation (an element's mapped to its
        #: canonical string): a document has few distinct names, so
        #: each is checked once and the common attribute-free tag
        #: costs one lookup.
        self.names: dict[str, str] = {}
        self.attr_names: set[str] = set()

    def _fill(self) -> bool:
        """Compact and read one more chunk; False at end of input."""
        if self.pos:
            self.base += self.pos
            self.buf = self.buf[self.pos :]
            self.pos = 0
        if self.eof:
            return False
        chunk = self.stream.read(_CHUNK)
        if not chunk:
            self.eof = True
            return False
        self.buf += chunk
        return True

    def _find(self, token: str, offset: int) -> int:
        """Find *token* at or after ``pos + offset``; -1 at EOF.

        The returned index stays valid because a successful find never
        compacts; on a miss the buffer is compacted and refilled, and
        the search resumes with a small overlap.
        """
        start = self.pos + offset
        while True:
            idx = self.buf.find(token, start)
            if idx != -1:
                return idx
            start = max(start, len(self.buf) - len(token) + 1)
            before = self.pos
            if not self._fill():
                return -1
            start -= before  # account for the compaction shift

    def _ensure(self, length: int) -> bool:
        """Make at least *length* characters available at ``pos``."""
        while len(self.buf) - self.pos < length:
            if not self._fill():
                return False
        return True

    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.base + self.pos)

    def _quoted_tag_end(self, end: int) -> int:
        """The ``>`` closing the start tag at ``pos`` — the first one
        outside a quoted attribute value — given *end*, the first one
        there is."""
        offset = 1
        while True:
            double = self.buf.find('"', self.pos + offset, end)
            single = self.buf.find("'", self.pos + offset, end)
            if double == single:  # neither: both are -1
                return end
            quote = single if double == -1 or -1 < single < double else double
            # Offsets, not indices: a refill may compact the buffer.
            close = self._find(self.buf[quote], quote - self.pos + 1)
            if close == -1:
                raise self._error("unterminated attribute value")
            offset = close - self.pos + 1
            end = self._find(">", offset)
            if end == -1:
                raise self._error("unterminated start tag")

    def _skip_doctype(self) -> None:
        """Past the ``>`` that ends the DOCTYPE at ``pos``, an internal
        subset in square brackets skipped whole (what the tree
        parser's ``_skip_doctype`` does)."""
        offset = len("<!DOCTYPE")
        depth = 0
        while True:
            if self.pos + offset >= len(self.buf) and not self._fill():
                raise self._error("unterminated DOCTYPE")
            for at in range(self.pos + offset, len(self.buf)):
                ch = self.buf[at]
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                elif ch == ">" and depth <= 0:
                    self.pos = at + 1
                    return
            offset = len(self.buf) - self.pos

    def _parse_tag_body(self, raw: str) -> tuple[str, dict]:
        """Parse ``name a="v" b='w'`` (the inside of a start tag)."""
        i = 0
        n = len(raw)
        while i < n and raw[i] not in _WS:
            i += 1
        written = raw[:i]
        name = self.names.get(written)
        if name is None:
            if not _valid_name(written):
                raise self._error("expected a name")
            name = self.names[written] = _SYMBOLS.canonical(written)
        attrs: dict[str, str] = {}
        while True:
            while i < n and raw[i] in _WS:
                i += 1
            if i >= n:
                return name, attrs
            eq = raw.find("=", i)
            if eq == -1:
                raise self._error(f"malformed attribute in <{name}>")
            attr_name = raw[i:eq].rstrip(_WS)
            if attr_name not in self.attr_names:
                if not _valid_name(attr_name):
                    raise self._error("expected a name")
                self.attr_names.add(attr_name)
            j = eq + 1
            while j < n and raw[j] in _WS:
                j += 1
            if j >= n or raw[j] not in "\"'":
                raise self._error(f"unquoted attribute value in <{name}>")
            close = raw.find(raw[j], j + 1)
            if close == -1:
                raise self._error(f"unterminated attribute value in <{name}>")
            attrs[attr_name] = decode_entities(raw[j + 1 : close], self.base + self.pos)
            i = close + 1

    def events(self) -> Iterator[SAXEvent]:
        yield StartDocument()
        open_names: list[str] = []
        names = self.names
        seen_root = False
        while True:
            # Text (or inter-markup whitespace) up to the next '<'.
            lt = self._find("<", 0)
            if lt == -1:
                if self.buf[self.pos :].strip(_WS):
                    raise self._error("text outside the root element")
                if open_names:
                    raise self._error(f"unterminated element <{open_names[-1]}>")
                break
            if lt > self.pos:
                raw = self.buf[self.pos : lt]
                if open_names:
                    if not self.strip or not raw.isspace():
                        yield TextEvent(
                            decode_entities(raw, self.base + self.pos) if "&" in raw else raw
                        )
                elif raw.strip(_WS):
                    raise self._error("text outside the root element")
                self.pos = lt
            # Markup starting at buf[pos] == '<'.
            self._ensure(2)
            next_char = self.buf[self.pos + 1] if self.pos + 1 < len(self.buf) else ""
            if next_char == "/":
                end = self._find(">", 2)
                if end == -1:
                    raise self._error("unterminated end tag")
                name = self.buf[self.pos + 2 : end]
                if not open_names or name != open_names[-1]:
                    name = name.rstrip(_WS)
                    if not open_names:
                        raise self._error(f"unmatched end tag </{name}>")
                    if not _valid_name(name):
                        raise self._error("expected a name")
                    if name != open_names[-1]:
                        raise self._error(
                            f"mismatched end tag </{name}> for <{open_names[-1]}>"
                        )
                self.pos = end + 1
                yield EndElement(open_names.pop())
                if not open_names:
                    seen_root = True
                continue
            if next_char == "!":
                self._ensure(9)
                head = self.buf[self.pos : self.pos + 9]
                if head.startswith("<!--"):
                    end = self._find("-->", 4)
                    if end == -1:
                        raise self._error("unterminated comment")
                    self.pos = end + 3
                    continue
                if head == "<![CDATA[":
                    if not open_names:
                        raise self._error("CDATA outside the root element")
                    end = self._find("]]>", 9)
                    if end == -1:
                        raise self._error("unterminated CDATA section")
                    yield TextEvent(self.buf[self.pos + 9 : end])
                    self.pos = end + 3
                    continue
                if head == "<!DOCTYPE" and not open_names:
                    self._skip_doctype()
                    continue
                raise self._error("unrecognized markup")
            if next_char == "?":
                end = self._find("?>", 2)
                if end == -1:
                    raise self._error("unterminated processing instruction")
                self.pos = end + 2
                continue
            # Start tag.
            if not open_names and seen_root:
                raise self._error("multiple root elements")
            end = self._find(">", 1)
            if end == -1:
                raise self._error("unterminated start tag")
            raw_tag = self.buf[self.pos + 1 : end]
            if '"' in raw_tag or "'" in raw_tag:
                end = self._quoted_tag_end(end)
                raw_tag = self.buf[self.pos + 1 : end]
            self_closing = raw_tag.endswith("/")
            if self_closing:
                raw_tag = raw_tag[:-1]
            name = names.get(raw_tag)
            if name is None:
                name, attrs = self._parse_tag_body(raw_tag)
            else:  # a name seen before, and no attributes
                attrs = {}
            self.pos = end + 1
            yield StartElement(name, attrs)
            if self_closing:
                yield EndElement(name)
                if not open_names:
                    seen_root = True
            else:
                open_names.append(name)
        if not seen_root:
            raise self._error("no root element")
        yield EndDocument()


def iter_sax_file(
    path: str, strip_whitespace: bool = True, encoding: str = "utf-8"
) -> Iterator[SAXEvent]:
    """Stream SAX events from a file without building a tree."""
    with open(path, "r", encoding=encoding) as handle:
        yield from _StreamScanner(handle, strip_whitespace).events()


def iter_sax_string(source: str, strip_whitespace: bool = True) -> Iterator[SAXEvent]:
    """Stream SAX events from an in-memory string."""
    import io

    yield from _StreamScanner(io.StringIO(source), strip_whitespace).events()


# ----------------------------------------------------------------------
# Two-pass source discipline
# ----------------------------------------------------------------------


class TwoPassSource:
    """Replays an event-source factory for the Section-6 two-pass
    algorithms, enforcing that it really is replayable.

    ``pass1()`` streams the first read; ``pass2()`` calls the factory
    again and raises ``ValueError`` if it hands back the same — now
    exhausted — iterator, or if the second read produces no events at
    all although the first one did (a shared underlying iterator hiding
    behind fresh wrapper objects).  Both ``stream_select`` and
    ``transform_sax_events`` run on this one guard so the detection
    criteria cannot drift apart.
    """

    __slots__ = ("source", "algorithm", "pass1_saw", "_pass1")

    def __init__(self, source: Callable[[], Iterable[SAXEvent]], algorithm: str):
        self.source = source
        self.algorithm = algorithm
        self.pass1_saw = False
        self._pass1 = source()

    def pass1(self) -> Iterator[SAXEvent]:
        for event in self._pass1:
            self.pass1_saw = True
            yield event

    def pass2(self) -> Iterator[SAXEvent]:
        events = self.source()
        if iter(events) is iter(self._pass1):
            raise ValueError(
                f"{self.algorithm} reads the document twice (the Section-6 "
                "two-pass discipline), but the event source returned the "
                "same — now exhausted — iterator for the second pass; pass "
                "a factory that produces a fresh event iterator per call"
            )
        saw = False
        for event in events:
            saw = True
            yield event
        if self.pass1_saw and not saw:
            raise ValueError(
                f"{self.algorithm} reads the document twice, but the event "
                "source produced no events on the second pass — it appears "
                "to wrap a shared, already-exhausted iterator"
            )


# ----------------------------------------------------------------------
# Tree <-> events adapters
# ----------------------------------------------------------------------


def tree_to_events(root: Element, document: bool = True) -> Iterator[SAXEvent]:
    """Generate the SAX event stream of an in-memory tree.

    Iterative, so it handles documents of any depth.  With
    ``document=False`` the surrounding Start/EndDocument pair is omitted
    (useful when splicing a constant subtree into a larger stream).
    """
    if document:
        yield StartDocument()
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, EndElement):
            yield item
            continue
        if item.is_text:
            yield TextEvent(item.value)
            continue
        yield StartElement(item.label, item.attrs)
        stack.append(EndElement(item.label))
        stack.extend(reversed(item.children))
    if document:
        yield EndDocument()


def events_to_tree(events: Iterable[SAXEvent]) -> Element:
    """Build a tree from an event stream; returns the root element."""
    root: Optional[Element] = None
    stack: list[Element] = []
    for event in events:
        if isinstance(event, StartElement):
            node = Element(_SYMBOLS.canonical(event.name), dict(event.attrs), [])
            if stack:
                stack[-1].children.append(node)
            elif root is None:
                root = node
            else:
                raise XMLSyntaxError("multiple root elements in event stream", 0)
            stack.append(node)
        elif isinstance(event, EndElement):
            if not stack:
                raise XMLSyntaxError("unmatched EndElement in event stream", 0)
            stack.pop()
        elif isinstance(event, TextEvent):
            if not stack:
                raise XMLSyntaxError("text outside the root in event stream", 0)
            stack[-1].children.append(Text(event.value))
        # Start/EndDocument carry no content.
    if stack:
        raise XMLSyntaxError("unclosed elements in event stream", 0)
    if root is None:
        raise XMLSyntaxError("empty event stream", 0)
    return root


def events_to_text(events: Iterable[SAXEvent], out: Optional[IO[str]] = None) -> Optional[str]:
    """Serialize an event stream to XML text.

    Streaming: with an ``out`` stream nothing is buffered; without one
    the text is accumulated and returned.
    """
    parts: Optional[list[str]] = None
    if out is None:
        parts = []
        write = parts.append
    else:
        write = out.write
    pending_open: Optional[StartElement] = None

    def flush_open(self_close: bool) -> None:
        nonlocal pending_open
        if pending_open is None:
            return
        attrs = "".join(
            f' {k}="{escape_attr(v)}"' for k, v in pending_open.attrs.items()
        )
        write(f"<{pending_open.name}{attrs}{'/' if self_close else ''}>")
        pending_open = None

    for event in events:
        if isinstance(event, StartElement):
            flush_open(False)
            pending_open = event
        elif isinstance(event, EndElement):
            if pending_open is not None:
                flush_open(True)
            else:
                write(f"</{event.name}>")
        elif isinstance(event, TextEvent):
            flush_open(False)
            write(escape_text(event.value))
    if parts is not None:
        return "".join(parts)
    return None
