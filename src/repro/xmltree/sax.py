"""The XML reader and the SAX event layer over it.

Section 6 of the paper integrates the two-pass transform evaluation with
SAX parsing so very large documents are processed with memory bounded by
document depth.  This module provides the substrate:

* the five event types of the paper — ``startDocument()``,
  ``startElement(n)``, ``text(t)``, ``endElement(n)``,
  ``endDocument()`` — as lightweight classes;
* :class:`_Reader` — **the** reader, the only code that reads XML text:
  expat (``pyexpat``), fed in byte chunks, whose handlers call
  ``start`` / ``text`` / ``end`` on a sink.  Every door — ``parse``,
  ``parse_fragment``, ``parse_to_arena`` and their file twins in
  :mod:`repro.xmltree.parser`, :func:`iter_sax_file` and
  :func:`iter_sax_string` here — hands it a sink, so they accept one
  language of documents by construction;
* :func:`iter_sax_file` / :func:`iter_sax_string` — events, one chunk's
  at a time: a file is **never materialized**;
* :func:`tree_to_events` / :func:`events_to_tree` — adapters between the
  tree model and event streams (the transform result of ``twoPassSAX``
  "may be accessed as a SAX event stream", per the paper);
* :func:`events_to_text` — serialize an event stream to XML text,
  streaming, for writing transform results straight to disk.
"""

from __future__ import annotations

import re
from codecs import BOM_UTF8, BOM_UTF16_BE, BOM_UTF16_LE
from collections import deque
from functools import partial
from io import BytesIO
from pyexpat import (
    XML_PARAM_ENTITY_PARSING_NEVER,
    ErrorString,
    ExpatError,
    ParserCreate,
    errors,
)
from typing import IO, Callable, Iterable, Iterator, Optional

from repro.xmltree.node import Element, Text
from repro.xmltree.serializer import escape_attr, escape_text
from repro.xmltree.symbols import global_symbols

#: Element names are canonicalized through the process-wide symbol
#: table as they are read (see :mod:`repro.xmltree.symbols`):
#: identical labels share one interned string (a large XMark document
#: has millions of label occurrences but a few dozen distinct labels),
#: and the compiled automata find their whole alphabet pre-interned.
_SYMBOLS = global_symbols()


class XMLSyntaxError(ValueError):
    """Raised on malformed XML input, with position information."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


class SAXEvent:
    """Base class for SAX events: equal when of one class with equal
    fields (an element's attributes left out of its hash)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._fields()[:1])

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"


class StartDocument(SAXEvent):
    __slots__ = ()


class EndDocument(SAXEvent):
    __slots__ = ()


class StartElement(SAXEvent):
    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: Optional[dict] = None):
        self.name = name
        self.attrs: dict[str, str] = attrs if attrs is not None else {}


class EndElement(SAXEvent):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class TextEvent(SAXEvent):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value


# ----------------------------------------------------------------------
# The reader: expat, and the handlers that drive a sink
# ----------------------------------------------------------------------

#: Bytes handed to expat per ``Parse`` call: what an iterating door
#: holds of events at a time is one chunk's.
_CHUNK = 1 << 14

#: A reference to neither a predefined entity nor a character.
_REFERENCE = re.compile(r"&(?!(?:amp|lt|gt|quot|apos|#[0-9]+|#x[0-9a-fA-F]+);)([^;]*);?")
#: A start tag, quoted values whole.
_START_TAG = re.compile(rb"""<(?:[^"'>]|"[^"]*"|'[^']*')*>""")
#: What an error message quotes of the input: an end tag's name, a reference.
_NAME_AT = re.compile(r"[^>\s]*")
_REFERENCE_AT = re.compile(r"&[^;<&\s]{0,40};?")

_MISMATCH = errors.codes[errors.XML_ERROR_TAG_MISMATCH]
_JUNK_AFTER_ROOT = errors.codes[errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT]
#: Errors whose message names the reference at the error.
_AT_REFERENCE = {
    errors.codes[errors.XML_ERROR_BAD_CHAR_REF]: "bad character reference",
    errors.codes[errors.XML_ERROR_UNDEFINED_ENTITY]: "unknown entity",
}


class _Refused(Exception):
    """A handler's refusal: ``(message, byte index)``."""


class _RootClosed(Exception):
    """Stops a fragment's parse at its root element's end."""


def _message(code: int, at: str, open_name: Optional[str]) -> str:
    """expat's error *code* in words; *at* is the input from the error on."""
    ref = _REFERENCE_AT.match(at)
    if code == _MISMATCH:
        return f"mismatched end tag </{_NAME_AT.match(at)[0]}> for <{open_name}>"
    if code in _AT_REFERENCE and ref is not None:
        return f"{_AT_REFERENCE[code]} {ref[0]}"
    if code == _JUNK_AFTER_ROOT and at[:1] != "<":
        return "text outside the root element"
    if code == _JUNK_AFTER_ROOT and at[1:2] not in ("!", "?"):
        return "multiple root elements"
    return ErrorString(code)


class _Reader:
    """The one XML reader: an expat parser whose handlers call
    ``start(name, attrs)``, ``text(value)`` and ``end(name)`` on a sink.

    expat checks well-formedness.  The handlers refuse what expat reads
    and this package does not, and keep what expat alone would not:

    * parameter entities are never read (``SetParamEntityParsing``), and
      a declaration of one or a reference to one is refused;
    * an entity is internal, its value holds no ``<`` and refers to
      nothing but characters and the predefined entities — so no
      reference grows into markup or into more than it says, whatever
      expat's own amplification limit is;
    * an entity the internal subset does not declare is refused where
      expat would skip it (text) or drop it (attribute values) because
      the document names an external subset;
    * one ``text`` per maximal character run, which expat reports in
      pieces; under *strip* a run of XML white space only is dropped.

    *encoding* is what a string was encoded in; ``None`` lets expat
    read a file's from its byte order mark and XML declaration.  Error
    offsets count characters in :attr:`encoding`, after the first
    :attr:`mark` bytes (a byte order mark's).
    """

    __slots__ = ("parser", "names", "encoding", "mark")

    def __init__(self, sink, strip: bool, encoding: Optional[str] = "utf-8"):
        parser = self.parser = ParserCreate(encoding)
        parser.SetParamEntityParsing(XML_PARAM_ENTITY_PARSING_NEVER)
        parser.buffer_text = True
        self.encoding = encoding or "utf-8"   # what error offsets count in
        self.mark = 0
        names: list[str] = []      # the open elements
        pending: list[str] = []    # the current text run
        self.names = names
        start, text, end = sink.start, sink.text, sink.end
        push, pop, join, clear = names.append, names.pop, "".join, pending.clear
        keep = not strip
        declared: set[str] = set()
        external = False

        def refuse_undeclared(raw: str) -> None:
            # Where an external subset might declare an entity, expat
            # lets a reference to it pass, and drops it from a value.
            for ref in _REFERENCE.finditer(raw):
                if ref[1] not in declared:
                    raise _Refused(f"unknown entity &{ref[1]};", parser.CurrentByteIndex)

        def on_start(name: str, attrs: dict) -> None:
            if pending:
                value = join(pending)
                clear()
                if keep or value.strip(" \t\n\r"):
                    text(value)
            if external and attrs:
                tag = _START_TAG.match(parser.GetInputContext())
                if tag is not None:
                    refuse_undeclared(tag[0].decode(self.encoding, "replace"))
            push(name)
            start(name, attrs)

        def on_end(name: str) -> None:
            if pending:
                value = join(pending)
                clear()
                if keep or value.strip(" \t\n\r"):
                    text(value)
            pop()
            end(name)

        def on_doctype(name: str, system_id: Optional[str], public_id, subset) -> None:
            nonlocal external
            external = system_id is not None
            parser.DefaultHandlerExpand = in_doctype
            parser.EndDoctypeDeclHandler = on_doctype_end
            parser.EntityDeclHandler = on_entity
            parser.SkippedEntityHandler = on_skipped

        def in_doctype(data: str) -> None:
            # expat hands here an unread "%name;" between declarations,
            # and the quoted default of an attribute.
            if data[:1] == "%":
                raise _Refused("parameter entities are not supported", parser.CurrentByteIndex)
            if external and data[:1] in ("'", '"'):
                refuse_undeclared(data)

        def on_doctype_end() -> None:
            parser.DefaultHandlerExpand = None

        def on_entity(name, parameter, value, base, system_id, public_id, notation) -> None:
            ref = _REFERENCE.search(value or "")
            if parameter:
                message = "parameter entities are not supported"
            elif value is None:
                message = "external entities are not supported"
            elif "<" in value:
                message = f"'<' in the value of entity &{name};"
            elif ref is not None:
                message = f"unknown entity {ref[0]}"
            else:
                declared.add(name)
                return
            raise _Refused(message, parser.CurrentByteIndex)

        def on_skipped(name: str, parameter: int) -> None:
            reference = f"{'%' if parameter else '&'}{name};"
            raise _Refused(f"unknown entity {reference}", parser.CurrentByteIndex)

        parser.StartElementHandler = on_start
        parser.EndElementHandler = on_end
        parser.CharacterDataHandler = pending.append
        parser.StartDoctypeDeclHandler = on_doctype
        if encoding is None:
            parser.XmlDeclHandler = self._declared

    def _declared(self, version: str, encoding: Optional[str], standalone: int) -> None:
        if not self.mark:  # a byte order mark outranks the declaration
            self.encoding = encoding or self.encoding

    def feed(self, source: IO[bytes], offset: int = 0) -> Iterator[None]:
        """Parse the binary stream *source* ``_CHUNK`` bytes at a time,
        yielding after each chunk.  An error is raised as an
        :class:`XMLSyntaxError` at its character offset, counted from
        *offset*."""
        parser = self.parser
        try:
            for chunk in iter(partial(source.read, _CHUNK), b""):
                parser.Parse(chunk, False)
                yield
            parser.Parse(b"", True)
        except ExpatError as exc:
            raise self._error(source, parser.ErrorByteIndex, offset, exc.code) from None
        except _Refused as exc:
            raise self._error(source, exc.args[1], offset, 0, exc.args[0]) from None
        except (LookupError, ValueError) as exc:
            # pyexpat's own refusal of the encoding a declaration names:
            # unknown to Python, or more than one byte a character.
            if type(exc) not in (LookupError, ValueError):
                raise
            raise XMLSyntaxError(str(exc), offset) from None
        finally:
            # The handlers reach the parser; unset, they leave no cycle,
            # and the parser is freed as soon as it is dropped.
            parser.StartElementHandler = parser.EndElementHandler = None
            parser.StartDoctypeDeclHandler = parser.EndDoctypeDeclHandler = None
            parser.DefaultHandlerExpand = parser.XmlDeclHandler = None
            parser.EntityDeclHandler = parser.SkippedEntityHandler = None

    def _error(
        self, source: IO[bytes], at: int, offset: int, code: int, message: Optional[str] = None
    ) -> XMLSyntaxError:
        at = max(at, 0)
        source.seek(0)
        data = source.read(at + 256)
        before, after = (data[self.mark : at].decode(self.encoding, "replace"),
                         data[at:].decode(self.encoding, "replace"))
        if message is None:
            message = _message(code, after, self.names[-1] if self.names else None)
        return XMLSyntaxError(message, offset + len(before))


def _encoded(source: str, offset: int = 0) -> bytes:
    """*source* from *offset* on as UTF-8; a lone surrogate is refused."""
    try:
        return (source[offset:] if offset else source).encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(exc.object[exc.start])
        raise XMLSyntaxError(f"not a character: U+{code:04X}", offset + exc.start) from None


def _read_string(source: str, sink, strip: bool) -> Iterator[None]:
    """Read the document *source* into *sink*, yielding after each chunk."""
    return _Reader(sink, strip).feed(BytesIO(_encoded(source)))


#: The byte order marks expat reads, and the codec each names.
_MARKS = ((BOM_UTF8, "utf-8"), (BOM_UTF16_LE, "utf-16-le"), (BOM_UTF16_BE, "utf-16-be"))


def _read_file(path: str, sink, strip: bool) -> Iterator[None]:
    """Read the document in the file *path* into *sink*, yielding after
    each chunk.  The file is bytes: expat reads the encoding from the
    byte order mark and the XML declaration, and an error counts the
    characters of that encoding from after the mark."""
    with open(path, "rb") as handle:
        reader = _Reader(sink, strip, None)
        head = handle.read(3)
        for mark, encoding in _MARKS:
            if head.startswith(mark):
                reader.encoding, reader.mark = encoding, len(mark)
                break
        handle.seek(0)
        yield from reader.feed(handle)


def _read_fragment(source: str, offset: int, sink, strip: bool) -> int:
    """Read the one element at *offset* of *source* into *sink*; return
    the offset just past it.  What follows is not looked at."""
    data = _encoded(source, offset)
    reader = _Reader(sink, strip)
    parser = reader.parser
    on_start, on_end = parser.StartElementHandler, parser.EndElementHandler
    root_at = stop = 0

    def root_start(name: str, attrs: dict) -> None:
        nonlocal root_at
        root_at = parser.CurrentByteIndex
        parser.StartElementHandler = on_start
        on_start(name, attrs)

    def root_end(name: str) -> None:
        nonlocal stop
        on_end(name)
        if not reader.names:
            # An empty-element tag is the whole root; else expat is in
            # front of the root's end tag.
            stop = _START_TAG.match(data, root_at).end()
            if data[stop - 2 : stop] != b"/>":
                stop = data.index(b">", parser.CurrentByteIndex) + 1
            raise _RootClosed

    parser.StartElementHandler, parser.EndElementHandler = root_start, root_end
    try:
        deque(reader.feed(BytesIO(data), offset), 0)
    except _RootClosed:
        pass
    return offset + len(data[:stop].decode("utf-8"))


class _Tree:
    """The sink that builds ``Element``/``Text`` nodes."""

    __slots__ = ("root", "stack")

    def __init__(self):
        self.root: Optional[Element] = None
        self.stack: list[Element] = []

    def start(self, name: str, attrs: dict) -> None:
        node = Element(_SYMBOLS.canonical(name), attrs, [])
        stack = self.stack
        if stack:
            stack[-1].children.append(node)
        else:
            self.root = node
        stack.append(node)

    def text(self, value: str) -> None:
        self.stack[-1].children.append(Text(value))

    def end(self, name: str) -> None:
        self.stack.pop()


class _EventSink(list):
    """The iterating doors' sink: one chunk's events at a time."""

    def start(self, name: str, attrs: dict) -> None:
        self.append(StartElement(_SYMBOLS.canonical(name), attrs))

    def text(self, value: str) -> None:
        self.append(TextEvent(value))

    def end(self, name: str) -> None:
        self.append(EndElement(_SYMBOLS.canonical(name)))


def _drain(read: Callable[[_EventSink], Iterator[None]]) -> Iterator[SAXEvent]:
    events = _EventSink()
    yield StartDocument()
    for _ in read(events):
        yield from events
        events.clear()
    yield EndDocument()


def iter_sax_file(path: str, strip_whitespace: bool = True) -> Iterator[SAXEvent]:
    """Stream SAX events from a file without building a tree."""
    return _drain(lambda sink: _read_file(path, sink, strip_whitespace))


def iter_sax_string(source: str, strip_whitespace: bool = True) -> Iterator[SAXEvent]:
    """Stream SAX events from an in-memory string."""
    return _drain(lambda sink: _read_string(source, sink, strip_whitespace))


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
    tree = _Tree()
    for event in events:
        kind = type(event)
        if kind is StartElement and (tree.stack or tree.root is None):
            tree.start(event.name, dict(event.attrs))
        elif kind is TextEvent and tree.stack:
            tree.text(event.value)
        elif kind is EndElement and tree.stack:
            tree.end(event.name)
        elif kind in (StartElement, TextEvent, EndElement):
            raise XMLSyntaxError(f"{kind.__name__} outside the root in event stream", 0)
    if tree.stack or tree.root is None:
        raise XMLSyntaxError("unclosed elements or no root in event stream", 0)
    return tree.root


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
