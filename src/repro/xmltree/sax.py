"""The XML tokenizer and the SAX event layer over it.

Section 6 of the paper integrates the two-pass transform evaluation with
SAX parsing so very large documents are processed with memory bounded by
document depth.  This module provides the substrate:

* the five event types of the paper — ``startDocument()``,
  ``startElement(n)``, ``text(t)``, ``endElement(n)``,
  ``endDocument()`` — as lightweight classes;
* :class:`_StreamScanner` — **the** tokenizer: the only code that reads
  XML text.  Every entry point (:func:`iter_sax_file`,
  :func:`iter_sax_string` here; ``parse``, ``parse_fragment``,
  ``parse_to_arena`` and their file twins in
  :mod:`repro.xmltree.parser`) is a consumer of its event stream, so
  they accept one language of documents by construction;
* :func:`iter_sax_file` — the scanner over a file read in chunks, which
  **never materializes the document**;
* :func:`iter_sax_string` — the scanner over an in-memory string;
* :func:`tree_to_events` / :func:`events_to_tree` — adapters between the
  tree model and event streams (the transform result of ``twoPassSAX``
  "may be accessed as a SAX event stream", per the paper);
* :func:`events_to_text` — serialize an event stream to XML text,
  streaming, for writing transform results straight to disk.
"""

from __future__ import annotations

import re
from typing import IO, Callable, Iterable, Iterator, Optional, Union

from repro.xmltree.node import Element, Text
from repro.xmltree.serializer import escape_attr, escape_text
from repro.xmltree.symbols import global_symbols

#: Element names are canonicalized through the process-wide symbol
#: table as events are produced (see :mod:`repro.xmltree.symbols`):
#: identical labels share one interned string (a large XMark document
#: has millions of label occurrences but a few dozen distinct labels),
#: and the compiled automata find their whole alphabet pre-interned.
_SYMBOLS = global_symbols()


class XMLSyntaxError(ValueError):
    """Raised on malformed XML input, with position information."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


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
# Lexical rules
# ----------------------------------------------------------------------

#: The five predefined entities.  A document whose DOCTYPE declares
#: more reads through its own copy of this table, the declared names
#: added (:meth:`_StreamScanner._declare_entity`).
_PREDEFINED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

#: ``#`` + decimal digits or ``#x`` + hex digits, no longer (leading
#: zeros aside) than the largest code point.
_CHAR_REF = re.compile(r"#(?:0*([0-9]{1,7})|x0*([0-9a-fA-F]{1,6}))\Z")


def _char_reference(name: str) -> Optional[str]:
    """The character ``&name;`` stands for (*name* starts with ``#``);
    ``None`` unless it is digits that name an XML ``Char``."""
    match = _CHAR_REF.match(name)
    if match is None:
        return None
    code = int(match[1]) if match[1] else int(match[2], 16)
    if (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    ):
        return chr(code)
    return None


def decode_entities(raw: str, pos: int = 0, entities: dict = _PREDEFINED) -> str:
    """Decode the entity and character references in *raw*, which
    starts at offset *pos* of its document."""
    amp = raw.find("&")
    if amp == -1:
        return raw
    out: list[str] = []
    done = 0
    while amp != -1:
        end = raw.find(";", amp + 1)
        if end == -1:
            raise XMLSyntaxError("unterminated entity reference", pos + amp)
        name = raw[amp + 1 : end]
        if name.startswith("#"):
            value = _char_reference(name)
            if value is None:
                raise XMLSyntaxError(f"bad character reference &{name};", pos + amp)
        else:
            value = entities.get(name)
            if value is None:
                raise XMLSyntaxError(f"unknown entity &{name};", pos + amp)
        out.append(raw[done:amp])
        out.append(value)
        done = end + 1
        amp = raw.find("&", done)
    out.append(raw[done:])
    return "".join(out)


def _valid_name(name: str) -> bool:
    return (
        bool(name)
        and (name[0].isalpha() or name[0] in "_:")
        and all(ch.isalnum() or ch in "_:.-" for ch in name)
    )


# ----------------------------------------------------------------------
# The tokenizer
# ----------------------------------------------------------------------

_CHUNK = 1 << 16

#: The whitespace XML allows inside and between markup.
_WS = " \t\r\n"
_NOT_WS = re.compile(r"[^ \t\r\n]")

#: What ends a start tag or a DTD declaration (``>``) and the head of a
#: DOCTYPE (``[`` or ``>``) — or opens a quoted value that may hold one.
_TAG_STOP = re.compile(r"""[>"']""")
_DOCTYPE_STOP = re.compile(r"""[\[>"']""")

#: The inside of ``<!ENTITY name "value">`` after the keyword.
_ENTITY_DECL = re.compile(
    r"""[ \t\r\n]+([^ \t\r\n%"']+)[ \t\r\n]+(?:"([^"]*)"|'([^']*)')[ \t\r\n]*\Z"""
)


class _StreamScanner:
    """The XML tokenizer: the one loop every entry point reads through.

    *source* is a string — which then **is** the buffer, read in place
    from *offset* and never copied — or a text stream, read in
    ``_CHUNK`` pieces into a buffer whose consumed prefix is dropped
    only when more input is needed, so tokenizing is amortized linear
    and the buffer stays bounded by the chunk size plus the largest
    single token (tag, comment or text run between tags).

    What is well-formed does not depend on where a refill falls
    (``tests/test_xmltree_sax.py::TestOneTokenizerContract``): names
    are validated, every end tag is checked against the element it
    closes, and a start tag or a declaration ends at the first ``>``
    outside a quoted value.
    """

    def __init__(self, source: Union[str, IO[str]], strip_whitespace: bool, offset: int = 0):
        if isinstance(source, str):
            self.stream, self.buf, self.eof = None, source, True
        else:
            self.stream, self.buf, self.eof = source, "", False
        self.pos = offset   # read position within buf
        self.base = 0       # absolute offset of buf[0], for errors
        self.strip = strip_whitespace
        #: Names that passed validation (an element's mapped to its
        #: canonical string): a document has few distinct names, so
        #: each is checked once and the common attribute-free tag
        #: costs one lookup.
        self.names: dict[str, str] = {}
        self.attr_names: set[str] = set()
        self.entities = _PREDEFINED

    def _fill(self) -> bool:
        """Compact and read one more chunk; False at end of input."""
        if self.eof:
            return False
        chunk = self.stream.read(_CHUNK)
        if not chunk:
            self.eof = True
            return False
        self.base += self.pos
        self.buf = self.buf[self.pos :] + chunk
        self.pos = 0
        return True

    def _find(self, token: str, offset: int) -> int:
        """Find *token* at or after ``pos + offset``; -1 at EOF.

        The returned index stays valid because a successful find never
        compacts; on a miss the buffer is compacted and refilled, and
        the search resumes with a small overlap.
        """
        while True:
            idx = self.buf.find(token, self.pos + offset)
            if idx != -1:
                return idx
            # An offset, not an index: the refill compacts the buffer.
            offset = max(offset, len(self.buf) - len(token) + 1 - self.pos)
            if not self._fill():
                return -1

    def _search(self, pattern: "re.Pattern[str]", offset: int) -> Optional["re.Match[str]"]:
        """:meth:`_find` for a one-character *pattern*; None at EOF."""
        while True:
            found = pattern.search(self.buf, self.pos + offset)
            if found is not None:
                return found
            offset = len(self.buf) - self.pos
            if not self._fill():
                return None

    def _find_unquoted(self, stops: "re.Pattern[str]", offset: int, what: str) -> int:
        """The first character *stops* matches at or after ``pos +
        offset`` that is outside a quoted value: where the *what* at
        ``pos`` ends."""
        while True:
            found = self._search(stops, offset)
            if found is None:
                raise self._error(f"unterminated {what}")
            if found[0] not in "\"'":
                return found.start()
            # Offsets, not indices: a refill compacts the buffer.
            close = self._find(found[0], found.start() - self.pos + 1)
            if close == -1:
                raise self._error(f"unterminated quoted value in {what}")
            offset = close - self.pos + 1

    def _skip_past(self, close: str, offset: int, what: str) -> None:
        """Move past the *close* that ends the *what* at ``pos``."""
        end = self._find(close, offset)
        if end == -1:
            raise self._error(f"unterminated {what}")
        self.pos = end + len(close)

    def _ensure(self, length: int) -> bool:
        """Make at least *length* characters available at ``pos``."""
        while len(self.buf) - self.pos < length:
            if not self._fill():
                return False
        return True

    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.base + self.pos)

    def _read_doctype(self) -> None:
        """Move past the DOCTYPE at ``pos``.  Of its internal subset
        (the part in square brackets) the general entity declarations
        are read; element, attribute-list and notation declarations,
        comments and PIs are skipped."""
        at = self._find_unquoted(_DOCTYPE_STOP, 9, "DOCTYPE")
        self.pos = at + 1
        if self.buf[at] == ">":
            return
        while True:
            found = self._search(_NOT_WS, 0)
            if found is None:
                raise self._error("unterminated DOCTYPE")
            self.pos = found.start()
            self._ensure(8)
            head = self.buf[self.pos : self.pos + 8]
            if head[0] == "]":
                self._skip_past(">", 1, "DOCTYPE")
                return
            if head.startswith("<!--"):
                self._skip_past("-->", 4, "comment")
            elif head.startswith("<?"):
                self._skip_past("?>", 2, "processing instruction")
            elif head.startswith("<!"):
                end = self._find_unquoted(_TAG_STOP, 2, "declaration")
                if head == "<!ENTITY":
                    self._declare_entity(self.buf[self.pos + 8 : end])
                self.pos = end + 1
            elif head[0] == "%":
                raise self._error("parameter entities are not supported")
            else:
                raise self._error("unrecognized markup in DOCTYPE")

    def _declare_entity(self, body: str) -> None:
        """``<!ENTITY name "value">``: ``&name;`` is *value* from here
        on.  The value is text — its character references are decoded
        now and it is never scanned again, for markup or for further
        entities, so no reference can expand into more than it says."""
        match = _ENTITY_DECL.match(body)
        if match is None:
            words = body.split()
            if words[:1] == ["%"]:
                raise self._error("parameter entities are not supported")
            if words[1:2] in (["SYSTEM"], ["PUBLIC"]):
                raise self._error("external entities are not supported")
            raise self._error("malformed entity declaration")
        name, double, single = match.groups()
        value = single if double is None else double
        if not _valid_name(name):
            raise self._error("expected a name")
        if "<" in value:
            raise self._error(f"'<' in the value of entity &{name};")
        value = decode_entities(value, self.base + self.pos)
        if self.entities is _PREDEFINED:
            self.entities = dict(_PREDEFINED)
        # The first declaration of a name binds; a predefined one wins.
        self.entities.setdefault(name, value)

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
            if attr_name in attrs:
                raise self._error(f"duplicate attribute {attr_name} in <{name}>")
            j = eq + 1
            while j < n and raw[j] in _WS:
                j += 1
            if j >= n or raw[j] not in "\"'":
                raise self._error(f"unquoted attribute value in <{name}>")
            close = raw.find(raw[j], j + 1)
            if close == -1:
                raise self._error(f"unterminated attribute value in <{name}>")
            # raw[0] sits one past the tag's '<', the value one past its quote.
            attrs[attr_name] = decode_entities(
                raw[j + 1 : close], self.base + self.pos + j + 2, self.entities
            )
            i = close + 1

    def events(self, fragment: bool = False) -> Iterator[SAXEvent]:
        """The events of the document — or, with *fragment*, of the one
        element that starts at ``pos``: the scan stops right behind its
        end tag, where it leaves ``pos``, and whatever follows is not
        looked at."""
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
                        yield TextEvent(decode_entities(raw, self.base + self.pos, self.entities))
                elif raw.strip(_WS):
                    raise self._error("text outside the root element")
                self.pos = lt
            # Markup starting at buf[pos] == '<'.
            self._ensure(2)
            next_char = self.buf[self.pos + 1 : self.pos + 2]
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
                    if fragment:
                        return
                    seen_root = True
                continue
            if next_char == "!":
                self._ensure(9)
                head = self.buf[self.pos : self.pos + 9]
                if head.startswith("<!--"):
                    self._skip_past("-->", 4, "comment")
                elif head == "<![CDATA[":
                    if not open_names:
                        raise self._error("CDATA outside the root element")
                    end = self._find("]]>", 9)
                    if end == -1:
                        raise self._error("unterminated CDATA section")
                    yield TextEvent(self.buf[self.pos + 9 : end])
                    self.pos = end + 3
                elif head == "<!DOCTYPE" and not open_names:
                    self._read_doctype()
                else:
                    raise self._error("unrecognized markup")
                continue
            if next_char == "?":
                self._skip_past("?>", 2, "processing instruction")
                continue
            # Start tag.
            if not open_names and seen_root:
                raise self._error("multiple root elements")
            end = self._find(">", 1)
            if end == -1:
                raise self._error("unterminated start tag")
            raw_tag = self.buf[self.pos + 1 : end]
            if '"' in raw_tag or "'" in raw_tag:
                end = self._find_unquoted(_TAG_STOP, 1, "start tag")
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
                    if fragment:
                        return
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
    return _StreamScanner(source, strip_whitespace).events()


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
