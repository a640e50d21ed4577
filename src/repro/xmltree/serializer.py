"""Serialization of the tree model back to XML text."""

from __future__ import annotations

from bisect import bisect_left
from typing import IO, TYPE_CHECKING, Any, Callable, Optional

from repro.xmltree.node import Element, Node, Text

if TYPE_CHECKING:
    from repro.xmltree.arena import FrozenDocument

#: Where emitted parts go: ``list.append``, ``handle.write`` …
Write = Callable[[str], object]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _emit(node: Node, write: Write, indent: Optional[str]) -> None:
    """The one Node emit loop: *node*'s subtree through *write*, compact
    (``indent=None``) or one node per line behind ``indent * depth``.

    Iterative, so any depth serializes.  It runs once per node of every
    answer, hence: dispatch on class identity (subclasses fall back to
    ``is_text``), escape only values holding a special character, and
    write ``<price>12</price>`` as one part — a single text child stays
    inline even when pretty-printing, so the value gains no whitespace.
    """
    step, newline = ("", "") if indent is None else (indent, "\n")
    unstep = -len(step)
    pad = ""
    # Nodes to open and ready closing tags (Any: a checker cannot follow
    # the class-identity dispatch).
    stack: list[Any] = [node]
    pop = stack.pop
    while stack:
        item = pop()
        kind = item.__class__
        if kind is str:
            write(item)
            if unstep:
                pad = pad[:unstep]
            continue
        if kind is Text or (kind is not Element and item.is_text):
            value = item.value
            if "&" in value or "<" in value or ">" in value:
                value = escape_text(value)
            write(f"{pad}{value}{newline}")
            continue
        label = item.label
        head = f"{pad}<{label}"
        if item.attrs:
            for k, v in item.attrs.items():
                if "&" in v or "<" in v or ">" in v or '"' in v:
                    v = escape_attr(v)
                head = f'{head} {k}="{v}"'
        children = item.children
        if not children:
            write(f"{head}/>{newline}")
            continue
        if len(children) == 1:
            only = children[0]
            kind = only.__class__
            if kind is Text or (kind is not Element and only.is_text):
                value = only.value
                if "&" in value or "<" in value or ">" in value:
                    value = escape_text(value)
                write(f"{head}>{value}</{label}>{newline}")
                continue
        write(f"{head}>{newline}")
        stack.append(f"{pad}</{label}>{newline}")
        stack += children[::-1]
        pad += step


def serialize(node: Node, indent: Optional[str] = None) -> str:
    """Serialize a subtree to XML text.

    With ``indent`` (e.g. ``"  "``) the output is pretty-printed;
    whitespace-only text nodes are assumed to be absent (the parser
    strips them by default).  Either form is safe at any depth.
    """
    parts: list[str] = []
    _emit(node, parts.append, indent)
    return "".join(parts)


def serialize_arena(arena: FrozenDocument, i: int = 0, indent: Optional[str] = None) -> str:
    """Serialize an arena subtree straight from its columns.

    The fast path of the columnar backend: one pre-order sweep over the
    int columns, no ``thaw`` round-trip, no ``Node`` allocation — an
    untouched subtree is just its contiguous ``[i, i + size[i])`` index
    range, streamed out as text.  Byte-identical to
    ``serialize(thaw(arena, i))`` (asserted by the arena test suite);
    pretty-printing is rare enough that it simply takes that route.
    """
    if indent is not None:
        from repro.xmltree.arena import thaw

        return serialize(thaw(arena, i), indent=indent)
    parts: list[str] = []
    write_arena_range(arena, i, arena.end_of(i), parts.append)
    return "".join(parts)


def _flat_attr_text(flat: tuple[str, ...]) -> str:
    """Render an arena flat attribute tuple as serialized attributes."""
    text = ""
    for k in range(0, len(flat), 2):
        v = flat[k + 1]
        if "&" in v or "<" in v or ">" in v or '"' in v:
            v = escape_attr(v)
        text = f'{text} {flat[k]}="{v}"'
    return text


def write_arena_range(arena: FrozenDocument, start: int, limit: int, write: Write) -> None:
    """Emit the (balanced) node range ``[start, limit)`` as compact XML
    through *write* — the shared core of :func:`serialize_arena` and
    :func:`write_arena_file`.

    The column twin of :func:`_emit`, under the same rules: escape only
    values holding a special character, write ``<price>12</price>`` as
    one part, and test for a closing tag against a local (``close_at``,
    the end of the innermost open element) rather than the stack.  The
    attributes are read with a cursor over the sorted key column: the
    walk meets every element of the range in order, so the next key is
    either this element's or one further on.
    """
    sym = arena.sym
    size = arena.size
    payload = arena.payload
    attr_keys = arena.attr_keys
    attr_values = arena.attr_values
    n_keys = len(attr_keys)
    strings = arena.symbols.strings
    closes: list[str] = []
    ends: list[int] = [limit]  # sentinel: never reached inside the loop
    close_at = limit
    a = bisect_left(attr_keys, start)
    next_attr = attr_keys[a] if a < n_keys else limit
    j = start
    while j < limit:
        while close_at <= j:
            write(closes.pop())
            ends.pop()
            close_at = ends[-1]
        s = sym[j]
        if s < 0:
            value = payload[j]
            if "&" in value or "<" in value or ">" in value:
                value = escape_text(value)
            write(value)
            j += 1
            continue
        label = strings[s]
        if j == next_attr:
            head = f"<{label}{_flat_attr_text(attr_values[a])}"
            a += 1
            next_attr = attr_keys[a] if a < n_keys else limit
        else:
            head = "<" + label
        e = j + size[j]
        j += 1
        if e == j:
            write(head + "/>")
        elif e == j + 1 and sym[j] < 0:
            value = payload[j]
            if "&" in value or "<" in value or ">" in value:
                value = escape_text(value)
            write(f"{head}>{value}</{label}>")
            j = e
        else:
            write(head + ">")
            closes.append(f"</{label}>")
            ends.append(e)
            close_at = e
    while closes:
        write(closes.pop())


def write_arena_file(
    arena: FrozenDocument, path: str, i: int = 0, declaration: bool = True,
    indent: Optional[str] = None,
) -> None:
    """Serialize an arena subtree into a file, straight from the
    columns (pretty-printed, as in :func:`serialize_arena`, on request)."""
    with open(path, "w", encoding="utf-8") as handle:
        if declaration:
            handle.write('<?xml version="1.0" encoding="utf-8"?>\n')
        if indent is not None:
            handle.write(serialize_arena(arena, i, indent))
            return
        write_arena_range(arena, i, arena.end_of(i), handle.write)
        handle.write("\n")


def write_file(node: Node, path: str, indent: Optional[str] = None, declaration: bool = True) -> None:
    """Serialize a subtree into a file, optionally with an XML declaration."""
    with open(path, "w", encoding="utf-8") as handle:
        if declaration:
            handle.write('<?xml version="1.0" encoding="utf-8"?>\n')
        _emit(node, handle.write, indent)
        if indent is None:
            handle.write("\n")


def write_stream(node: Node, handle: IO[str]) -> None:
    """Serialize a subtree to an open text stream without pretty-printing
    (part by part, never the whole text in memory); used by the data
    generator when emitting large files."""
    _emit(node, handle.write, None)
