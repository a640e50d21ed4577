"""The columnar document arena: a frozen struct-of-arrays encoding.

After the compiled-runtime refactor the per-node cost of the hot
select/query loops is no longer automaton bookkeeping — it is Python
object traversal: every step chases ``Element`` attributes, allocates
child lists, and thrashes the allocator.  A :class:`FrozenDocument`
stores one document as parallel **columns** over its pre-order node
sequence instead:

* ``sym``     — ``array('i')``: the interned symbol id of an element's
  label (:mod:`repro.xmltree.symbols`), or ``-1`` for a text node —
  the node-kind column and the label column in one;
* ``up``      — ``array('i')``: how far back the parent is, ``i -
  parent``, so the parent of ``i`` is ``i - up[i]`` (``up[0] == 1``:
  ``-1`` at the root);
* ``size``    — ``array('i')``: the length of the **pre-order range**
  of the subtree: node ``i`` spans exactly the contiguous index range
  ``[i, i + size[i])``.  Child iteration is ``j = i + 1; j +=
  size[j]; …`` — no child lists exist at all;
* ``payload`` — one pointer column for the string a node contributes:
  a text node's PCDATA value, or an element's precomputed *own text*
  (the concatenation of its immediate text children — the value
  qualifier comparisons use), so a ``price < 15`` check is one list
  index, not a child scan.  The two never coexist on one node, which
  is why a single column holds both;
* ``attr_keys`` / ``attr_values`` — the attributes, sparse: the sorted
  ``array('i')`` of the elements that carry any, and beside it the
  list of their flat ``(k1, v1, k2, v2, …)`` tuples.  Most nodes carry
  no attributes and pay nothing, and a one-attribute node pays a
  2-tuple, not a dict.

``up`` and ``size`` are *relative*: a node's lanes say nothing about
where the node sits, only how far its parent and its subtree's end are.
A subtree moved as a block keeps every lane — which is what lets
:func:`splice` derive the next version by copying bytes.

The pre-order range is the arena form of the paper's "simply copied to
the result" subtree sharing: a subtree the automaton proves untouched
is a contiguous ``[i, i + size[i])`` slice that downstream code (the
serializer fast path, :func:`splice`) copies — or skips — as a range,
without visiting its nodes.

The builder also **deduplicates strings**: XMark-shaped data repeats
text values and attribute names/values heavily, and the Node parser
allocates a fresh copy of each occurrence; the columns share one.
Together with the flat layout this is what buys the ≥3× resident-byte
reduction per loaded document (asserted in ``benchmarks/bench_arena.py``).

A ``FrozenDocument`` is **immutable by contract**: every column is
append-only during construction and never mutated afterwards, which is
what lets :class:`repro.store.documents.StoredDocument` hand the same
arena object to any number of concurrent readers as a zero-copy
snapshot of one committed version.  The one exception is **derived
data** — values computed from the columns on first use and kept with
the version: the cached byte counts and height, the per-label
:meth:`~FrozenDocument.postings` the jump scans ask for, the compact
XML of every subtree a read has serialized (:meth:`~FrozenDocument.
serialized`, the one place an item's text is interned), and the
qualifier leaf maps keyed by ``(label, attribute name or None)``
(:meth:`~FrozenDocument.leaf_values`, :meth:`~FrozenDocument.
leaf_numbers`) the set-at-a-time sweeps filter through.  None of it is
a result cache: it is keyed by node and label, never by query text, so
every query text that touches a node shares it.  It lives on the
document object, never on a column (``rename_splice`` aliases columns
into the next version, where data derived from the old ``sym`` would
be wrong), it is never counted in ``nbytes()`` (``stats()`` reports it
apart), and it is published idempotently: two readers racing on a
first use compute equal values and either write is valid.  Only the
postings outlive their version: a ``splice`` hands those its base has
built to the version it returns, carried (:func:`carry_indices`), and a
``rename_splice`` shares those of the labels it left alone — before
the new version is visible to anyone, so the readers after a commit
find the index as warm as those before it.  The texts and leaf maps die
with their version.  The texts can hold one node's serialization twice
over: a nested answer (an item and an ancestor of it, asked for by two
reads) holds the inner text again inside the outer one.

**The splice contract.**  :func:`splice` emits every column the same
way: the untouched prefix, then per kept piece and per segment a raw
byte slice, joined — payload strings and attribute tuples shared by
reference with the base.  Only **three kinds of pointwise fixups**
follow, all on lanes whose value really changes: a chain node (an
ancestor-or-self of an attach point) has its ``size`` grown by the net
of the patches inside it; a piece's top-level root (a kept node whose
parent lies before its piece) has its ``up`` re-pointed at where that
parent landed; a segment's root has its ``up`` set to its attach
point.  Every other kept lane is the base's lane, copied — O(touched +
ancestors) point-writes on top of memory copies.  The attribute key
column is moved like any index list (:func:`carry_indices`).  Sharing
keeps a commit's allocation to the columns themselves, and keeps a
reader that still holds the base cheap beside the new version.  The
store itself holds one version per document: a base outlives its
commit only while some reader's snapshot holds it.

Construction never builds an intermediate ``Node`` tree: the
tokenizer's event stream drives a :class:`FrozenBuilder` directly
(:func:`events_to_arena`, which is all that :func:`repro.xmltree.
parser.parse_to_arena` and ``parse_file_to_arena`` are).
:func:`freeze` / :func:`thaw` bridge to the existing model: ``freeze``
columnarizes a resident tree, ``thaw`` materializes any pre-order range
back into ``Element``/``Text`` nodes (used to hand individual matches
to callers that expect the tree model — only the touched subtrees are
ever thawed).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional

from repro.xmltree.node import Element, Node, Text
from repro.xmltree.symbols import SymbolTable, global_symbols

__all__ = [
    "FrozenBuilder",
    "FrozenDocument",
    "SpliceSegment",
    "arena_to_events",
    "carry_indices",
    "events_to_arena",
    "freeze",
    "freeze_segment",
    "rename_splice",
    "shift_table",
    "splice",
    "splice_applied",
    "thaw",
]


class FrozenDocument:
    """One document, frozen into parallel pre-order columns.

    Instances come from :class:`FrozenBuilder` (via :func:`freeze`,
    :func:`~repro.xmltree.parser.parse_to_arena` or
    :func:`events_to_arena`) and are immutable: readers share them
    freely.  Index 0 is always the root element.
    """

    # unguarded[_postings, _texts, _leaves, _height]: derived data over immutable columns with idempotent inserts; racing first uses compute equal values (last write wins, both valid), and splice/rename_splice fill a new version's postings before anyone else holds it

    __slots__ = (
        "symbols", "sym", "up", "size", "payload", "attr_keys", "attr_values",
        "n_elements", "_nbytes", "_height", "_postings", "_texts", "_leaves",
    )

    def __init__(
        self,
        symbols: SymbolTable,
        sym: array,
        up: array,
        size: array,
        payload: list,
        attr_keys: array,
        attr_values: list,
        n_elements: int,
    ):
        self.symbols = symbols
        self.sym = sym
        self.up = up
        self.size = size
        self.payload = payload
        self.attr_keys = attr_keys
        self.attr_values = attr_values
        self.n_elements = n_elements
        self._nbytes: Optional[dict] = None
        self._height: Optional[int] = None
        self._postings: dict[tuple, array] = {}
        self._texts: dict[int, str] = {}
        self._leaves: dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total node count (elements and texts), like ``root.size()``."""
        return len(self.sym)

    def is_element(self, i: int) -> bool:
        return self.sym[i] >= 0

    def label(self, i: int) -> str:
        """The canonical (interned) label of element *i*."""
        return self.symbols.strings[self.sym[i]]

    def parent_of(self, i: int) -> int:
        """The pre-order index of *i*'s parent (``-1`` at the root)."""
        return i - self.up[i]

    def end_of(self, i: int) -> int:
        """The end of *i*'s subtree range ``[i, end_of(i))``."""
        return i + self.size[i]

    def own_text(self, i: int) -> str:
        """Element *i*'s own text (the qualifier comparison value)."""
        return self.payload[i]

    def _flat_attrs(self, i: int) -> tuple:
        """Element *i*'s flat ``(k1, v1, …)`` tuple, ``()`` when it
        carries none: one bisect of the sorted key column."""
        keys = self.attr_keys
        at = bisect_left(keys, i)
        if at < len(keys) and keys[at] == i:
            return self.attr_values[at]
        return ()

    def attrs_of(self, i: int) -> dict:
        """Element *i*'s attributes as a fresh dict (the columns store
        them as flat tuples; hot paths iterate those directly)."""
        flat = self._flat_attrs(i)
        return {flat[k]: flat[k + 1] for k in range(0, len(flat), 2)}

    def attr(self, i: int, name: str) -> Optional[str]:
        """One attribute value (linear scan of the flat tuple — the
        tuples are tiny, and this beats building a dict)."""
        flat = self._flat_attrs(i)
        for k in range(0, len(flat), 2):
            if flat[k] == name:
                return flat[k + 1]
        return None

    def child_elements(self, i: int) -> Iterator[int]:
        """Pre-order indices of element *i*'s element children."""
        size = self.size
        sym = self.sym
        j = i + 1
        limit = i + size[i]
        while j < limit:
            if sym[j] >= 0:
                yield j
            j += size[j]

    def iter_elements(self, i: int = 0) -> Iterator[int]:
        """All element indices in the subtree range of *i*, pre-order."""
        sym = self.sym
        for j in range(i, i + self.size[i]):
            if sym[j] >= 0:
                yield j

    def depth(self, i: int = 0) -> int:
        """Height of the subtree at *i* (a leaf element has depth 1);
        the whole document's is computed once per version."""
        if i == 0 and self._height is not None:
            return self._height
        size = self.size
        sym = self.sym
        best = 1
        ends: list[int] = []  # open element ranges, nesting = len(ends)
        for j in range(i, i + size[i]):
            while ends and ends[-1] <= j:
                ends.pop()
            if sym[j] >= 0:
                nesting = len(ends) + 1
                if nesting > best:
                    best = nesting
                ends.append(j + size[j])
        if i == 0:
            self._height = best
        return best

    # ------------------------------------------------------------------
    # The per-label index (derived, lazy)
    # ------------------------------------------------------------------

    def postings(self, syms: tuple) -> "array[int]":
        """The sorted pre-order indices of the elements labelled by
        one of the symbols *syms* — built from the ``sym`` column the
        first time a scan asks for that label set, then kept with this
        version and carried into the versions spliced from it.

        One label is a C-speed ``bytes.find`` sweep over the column's
        byte image (a hit counts only on an item boundary); the image
        is a local and dies with the call.  Several labels merge
        their single lists.
        """
        found = self._postings.get(syms)
        if found is None:
            found = array("i")
            if len(syms) == 1:
                size = self.sym.itemsize
                needle = array("i", syms).tobytes()
                find = self.sym.tobytes().find
                at = find(needle)
                while at >= 0:
                    if at % size == 0:
                        found.append(at // size)
                    # the next item boundary past the hit
                    at = find(needle, at - at % size + size)
            else:
                for s in syms:
                    found.extend(self.postings((s,)))
                found = array("i", sorted(found))
            self._postings[syms] = found
        return found

    def next_posting(self, syms: tuple, i: int) -> int:
        """The first pre-order index ``>= i`` labelled by one of
        *syms*, or ``len(self)`` when there is none."""
        found = self.postings(syms)
        at = bisect_left(found, i)
        return found[at] if at < len(found) else len(self.sym)

    # ------------------------------------------------------------------
    # Per-version derived data: serialized subtrees, qualifier leaves
    # ------------------------------------------------------------------

    def serialized(self, i: int) -> str:
        """The compact XML of the subtree at *i* — written from the
        columns (:func:`~repro.xmltree.serializer.write_arena_range`)
        and interned the first time a read asks, then kept with this
        version: every later answer holding node *i* holds this one
        string, and so does an answer on another version that
        serialized an equal subtree."""
        found = self._texts.get(i)
        if found is None:
            from repro.xmltree.serializer import write_arena_range

            parts: list = []
            write_arena_range(self, i, i + self.size[i], parts.append)
            found = self._texts[i] = sys.intern("".join(parts))
        return found

    def leaf_values(self, sym: int, name: str) -> dict:
        """``{index: value}`` of attribute *name* over the elements
        labelled *sym* that carry it — one walk of the label's postings
        with a cursor over the sorted key column, kept with this
        version.  (An element's own text needs no map: the ``payload``
        column already is one.)"""
        key = (sym, name, False)
        found = self._leaves.get(key)
        if found is None:
            found = {}
            keys = self.attr_keys
            flats = self.attr_values
            stop = len(keys)
            at = 0
            for j in self.postings((sym,)):
                at = bisect_left(keys, j, at, stop)
                if at == stop:
                    break
                if keys[at] == j:
                    flat = flats[at]
                    for k in range(0, len(flat), 2):
                        if flat[k] == name:
                            found[j] = flat[k + 1]
                            break
            self._leaves[key] = found
        return found

    def leaf_numbers(self, sym: int, name: Optional[str] = None) -> dict:
        """``{index: float}`` over the elements labelled *sym* whose own
        text (*name* ``None``) or attribute *name* ``float()`` accepts —
        the values a number literal can match, parsed once per version.
        A value ``float()`` rejects, and an absent attribute, has no
        entry: it matches no comparison."""
        key = (sym, name, True)
        found = self._leaves.get(key)
        if found is None:
            if name is None:
                nodes = self.postings((sym,))
                pairs = zip(nodes, map(self.payload.__getitem__, nodes))
            else:
                pairs = self.leaf_values(sym, name).items()
            found = {}
            for j, text in pairs:
                try:
                    found[j] = float(text)
                except ValueError:
                    pass
            self._leaves[key] = found
        return found

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nbytes(self) -> dict:
        """Approximate resident bytes per column group (cached).

        ``columns`` counts the int arrays and the payload pointer
        column; ``strings`` the deduplicated payload strings; ``attrs``
        the attribute key column, the tuple list, the flat tuples and
        their (shared) strings.
        """
        if self._nbytes is None:
            columns = (
                sys.getsizeof(self.sym)
                + sys.getsizeof(self.up)
                + sys.getsizeof(self.size)
                + sys.getsizeof(self.payload)
            )
            seen: set[int] = set()
            strings = 0
            for value in self.payload:
                if value is not None and id(value) not in seen:
                    seen.add(id(value))
                    strings += sys.getsizeof(value)
            attr_bytes = sys.getsizeof(self.attr_keys) + sys.getsizeof(self.attr_values)
            for flat in self.attr_values:
                attr_bytes += sys.getsizeof(flat)
                for value in flat:
                    if id(value) not in seen:
                        seen.add(id(value))
                        attr_bytes += sys.getsizeof(value)
            self._nbytes = {
                "columns": columns,
                "strings": strings,
                "attrs": attr_bytes,
                "total": columns + strings + attr_bytes,
            }
        return dict(self._nbytes)

    def stats(self) -> dict:
        """Shape and memory summary (what ``repro store stat`` and
        ``Prepared.explain()`` surface)."""
        info = self.nbytes()
        texts = list(self._texts.values())
        return {
            "nodes": len(self.sym),
            "elements": self.n_elements,
            "texts": len(self.sym) - self.n_elements,
            "attr_nodes": len(self.attr_keys),
            "column_bytes": info["columns"],
            "total_bytes": info["total"],
            # Derived data built so far, so not part of total_bytes
            # (the document's own footprint): the postings, the
            # serialized subtrees and the qualifier leaf maps.
            "index_bytes": sum(
                sys.getsizeof(found) for found in list(self._postings.values())
            ),
            "texts_held": len(texts),
            "texts_held_chars": sum(map(len, texts)),
            "leaf_maps": len(self._leaves),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenDocument({len(self.sym)} nodes, "
            f"{self.n_elements} elements)"
        )


class FrozenBuilder:
    """Append-only column builder the load paths drive directly.

    ``start``/``text``/``end`` mirror the SAX discipline; ``finish``
    validates balance, compacts the growable columns to exact size and
    hands back the frozen document.  Strings are deduplicated through a
    build-local cache that dies with the builder.
    """

    __slots__ = (
        "symbols", "_sym", "_up", "_size", "_payload", "_attr_keys",
        "_attr_values", "_stack", "_own_parts", "_elements", "_strings",
    )

    def __init__(self, symbols: Optional[SymbolTable] = None):
        self.symbols = symbols if symbols is not None else global_symbols()
        self._sym = array("i")
        self._up = array("i")
        self._size = array("i")
        self._payload: list = []
        self._attr_keys = array("i")
        self._attr_values: list = []
        self._stack: list[int] = []
        self._own_parts: list = []
        self._elements = 0
        self._strings: dict[str, str] = {}

    def start(self, label: str, attrs: Optional[dict] = None) -> int:
        """Open an element; returns its pre-order index."""
        index = len(self._sym)
        if index and not self._stack:
            raise ValueError("multiple root elements in arena input")
        self._sym.append(self.symbols.intern(label))
        self._up.append(index - self._stack[-1] if self._stack else 1)
        self._size.append(0)  # patched by end()
        self._payload.append("")  # own text, patched by end()
        if attrs:
            cache = self._strings.setdefault
            self._attr_keys.append(index)
            self._attr_values.append(tuple(
                cache(part, part) for kv in attrs.items() for part in kv
            ))
        self._stack.append(index)
        self._own_parts.append(None)
        self._elements += 1
        return index

    def text(self, value: str) -> int:
        """Append a text node under the open element."""
        if not self._stack:
            raise ValueError("text outside the root element in arena input")
        index = len(self._sym)
        value = self._strings.setdefault(value, value)
        self._sym.append(-1)
        self._up.append(index - self._stack[-1])
        self._size.append(1)
        self._payload.append(value)
        parts = self._own_parts[-1]
        if parts is None:
            self._own_parts[-1] = [value]
        else:
            parts.append(value)
        return index

    def end(self) -> None:
        """Close the innermost open element."""
        index = self._stack.pop()
        self._size[index] = len(self._sym) - index
        parts = self._own_parts.pop()
        if parts is not None:
            if len(parts) == 1:
                self._payload[index] = parts[0]
            else:
                joined = "".join(parts)
                self._payload[index] = self._strings.setdefault(joined, joined)

    def finish(self) -> FrozenDocument:
        if self._stack:
            raise ValueError(
                f"unclosed element at index {self._stack[-1]} in arena input"
            )
        if not self._sym:
            raise ValueError("empty arena input")
        # Compact: growable arrays/lists carry append slack; the frozen
        # copies are exact-size.
        return FrozenDocument(
            self.symbols,
            array("i", self._sym),
            array("i", self._up),
            array("i", self._size),
            list(self._payload),
            array("i", self._attr_keys),
            list(self._attr_values),
            self._elements,
        )


# ----------------------------------------------------------------------
# Bridges to the Node model
# ----------------------------------------------------------------------

#: Sentinel marking "close the current element" on the freeze stack.
_END = object()


def freeze(root: Element, symbols: Optional[SymbolTable] = None) -> FrozenDocument:
    """Columnarize a resident tree (iterative; any depth)."""
    builder = FrozenBuilder(symbols)
    stack: list = [root]
    while stack:
        item = stack.pop()
        if item is _END:
            builder.end()
            continue
        if item.is_text:
            builder.text(item.value)
            continue
        builder.start(item.label, item.attrs if item.attrs else None)
        stack.append(_END)
        stack.extend(reversed(item.children))
    return builder.finish()


def thaw(arena: FrozenDocument, i: int = 0) -> Node:
    """Materialize the subtree at pre-order index *i* as Node objects.

    The inverse of :func:`freeze` (round-trip identity is property-
    tested); attribute dicts are fresh, so the thawed tree may be
    mutated without touching the frozen snapshot.
    """
    sym = arena.sym
    if sym[i] < 0:
        return Text(arena.payload[i])
    strings = arena.symbols.strings
    size = arena.size
    payload = arena.payload
    attrs_of = arena.attrs_of
    root = Element(strings[sym[i]], attrs_of(i), [])
    limit = i + size[i]
    kids = [root.children]
    ends = [limit]
    j = i + 1
    while j < limit:
        if ends[-1] <= j:
            ends.pop()
            kids.pop()
            while ends[-1] <= j:
                ends.pop()
                kids.pop()
        s = sym[j]
        if s < 0:
            kids[-1].append(Text(payload[j]))
            j += 1
            continue
        node = Element(strings[s], attrs_of(j), [])
        kids[-1].append(node)
        if size[j] > 1:
            kids.append(node.children)
            ends.append(j + size[j])
        j += 1
    return root


# ----------------------------------------------------------------------
# Splicing: deriving the next frozen version at O(delta) cost
# ----------------------------------------------------------------------


class SpliceSegment:
    """A frozen subtree, ready to splice.

    Produced by :func:`freeze_segment`: the columns of a
    :class:`FrozenDocument` whose root is the segment root — already
    position-independent (``up``/``size`` are relative, the attribute
    keys count from the segment's first node), so a segment is emitted
    at any output position as it is, its root's ``up`` the one lane
    rewired to the attach point.  ``labels`` is the set of element
    labels the segment introduces — what delta-scoped cache
    invalidation intersects against.  Immutable by the same contract as
    :class:`FrozenDocument`; a segment built once from an update's
    constant content is reused across every match and every commit of
    that update.
    """

    __slots__ = (
        "symbols", "sym", "up", "size", "payload", "attr_keys",
        "attr_values", "n_elements", "labels",
    )

    def __init__(self, doc: FrozenDocument, labels: frozenset):
        self.symbols = doc.symbols
        self.sym = doc.sym
        self.up = doc.up
        self.size = doc.size
        self.payload = doc.payload
        self.attr_keys = doc.attr_keys
        self.attr_values = doc.attr_values
        self.n_elements = doc.n_elements
        self.labels = labels

    def __len__(self) -> int:
        return len(self.sym)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpliceSegment({len(self.sym)} nodes, labels={sorted(self.labels)})"


def freeze_segment(root: Element, symbols: Optional[SymbolTable] = None) -> SpliceSegment:
    """Columnarize a subtree into a splice segment: :func:`freeze`
    plus a label census."""
    doc = freeze(root, symbols)
    strings = doc.symbols.strings
    return SpliceSegment(doc, frozenset(strings[s] for s in doc.sym if s >= 0))


#: Bytes per ``array('i')`` lane, laid out in native byte order.
_LANE = array("i").itemsize


def _lanes(value: int, count: int) -> bytes:
    """*count* lanes, each holding *value* (non-negative)."""
    return value.to_bytes(_LANE, sys.byteorder) * count


def _moved_lanes(parts: list, shifts: list, sunk: int) -> "array[int]":
    """The runs of lanes in *parts*, joined, each lane plus its lane of
    *shifts* minus *sunk*.

    SWAR on one big integer: every lane — a pre-order index, a shift
    biased by *sunk*, their sum — is non-negative and far below the top
    bit, so one big-int addition moves a whole index list at C speed
    and no lane sum carries into its neighbour.  For the subtraction
    each lane's top bit is set first (a lane smaller than *sunk* then
    borrows from it, not from its neighbour) and flipped back after,
    which leaves the two's-complement difference in every lane.
    """
    order = sys.byteorder
    raw = b"".join(parts)
    big = int.from_bytes(raw, order) + int.from_bytes(b"".join(shifts), order)
    if sunk:
        count = len(raw) // _LANE
        tops = int.from_bytes(_lanes(1 << (8 * _LANE - 1), count), order)
        big = ((big | tops) - int.from_bytes(_lanes(sunk, count), order)) ^ tops
    out = array("i")
    out.frombytes(big.to_bytes(len(raw), order))
    return out


def shift_table(patches: list) -> list:
    """The cumulative shift table of *patches* — ``(start, stop,
    attach, segment)`` tuples in the order :func:`splice` applies them:
    ``cum[k]`` is how far a kept node right of the first *k* patches
    (and left of the next) moves."""
    cum = [0]
    for start, stop, _, seg in patches:
        cum.append(cum[-1] + (len(seg.sym) if seg is not None else 0) - (stop - start))
    return cum


def _segment_postings(seg: "SpliceSegment", syms: tuple, out0: int) -> "array[int]":
    """Where the nodes of *seg* labelled by one of *syms* land when the
    segment is emitted at *out0*."""
    return array("i", [out0 + j for j, s in enumerate(seg.sym) if s in syms])


# hot-path
def carry_indices(
    old: "array[int]", patches: list, cum: list, syms: tuple = (),
    values: Optional[list] = None,
):
    """Carry *old* — a sorted ``array('i')`` of pre-order indices into
    ``base`` — across ``splice(base, patches)`` (*patches* and *cum* as
    :func:`splice_applied` hands them back): an entry before a patch
    moves by the shift there, an entry inside a removal goes (a shorter
    result says some did).  The one mover of index lists: a label's
    postings (*syms* names the label set, and a segment then
    contributes its own nodes so labelled at the position it was
    emitted), a cached answer's ``refs`` (no *syms*: a segment holds
    no kept node), and the attribute key column — *values* is the
    tuple list parallel to it, which rides along slice by slice (the
    tuples shared by reference), a segment contributing its own
    attributes; the result is then ``(keys, values)``.

    Per patch, two bisects and one SWAR add over the run between
    (:func:`_moved_lanes`).
    """
    sunk = -min(cum)
    view = memoryview(old)
    parts: list = []
    shifts: list = []
    kept: list = []
    at = 0
    for k, (start, stop, _, seg) in enumerate(patches):
        upto = bisect_left(old, start, at)
        parts.append(view[at:upto])
        shifts.append(_lanes(cum[k] + sunk, upto - at))
        if values is not None:
            kept += values[at:upto]
            if seg is not None:
                parts.append(seg.attr_keys)
                shifts.append(_lanes(start + cum[k] + sunk, len(seg.attr_keys)))
                kept += seg.attr_values
        elif syms and seg is not None:
            own = _segment_postings(seg, syms, start + cum[k])
            parts.append(own)
            shifts.append(_lanes(sunk, len(own)))
        at = bisect_left(old, stop, upto)
    parts.append(view[at:])
    shifts.append(_lanes(cum[-1] + sunk, len(old) - at))
    moved = _moved_lanes(parts, shifts, sunk)
    if values is None:
        return moved
    kept += values[at:]
    return moved, kept


#: How many nodes of ``sym`` a fresh :meth:`FrozenDocument.postings`
#: sweep covers, at C speed, in the time :func:`carry_indices` spends
#: on one patch in the interpreter.  Measured near 150 per label set on
#: CPython 3.11; set well above, so that carrying is chosen only where
#: it is clearly the cheaper of the two.
_NODES_PER_CARRIED_PATCH = 512


def _carry_postings(
    base: FrozenDocument, spliced: FrozenDocument, patches: list, cum: list
) -> None:
    """Give *spliced* — ``splice(base, patches)``, *cum* its cumulative
    shift table — the postings *base* has built, carried
    (:func:`carry_indices`) instead of re-derived.  A commit that
    touches one node then leaves the next version's index warm, so the
    readers after it neither pay a sweep of ``sym`` each nor race to."""
    if len(patches) * _NODES_PER_CARRIED_PATCH > len(base.sym):
        return  # a wide delta: the labels asked for again are swept again
    for syms, old in list(base._postings.items()):
        spliced._postings[syms] = carry_indices(old, patches, cum, syms)


def _raw(column: "array[int]") -> memoryview:
    """*column*'s bytes, as a view slices of which are byte runs."""
    return memoryview(column).cast("B")


def _joined(parts: list) -> "array[int]":
    """One ``array('i')`` from byte runs (:func:`_raw` slices), copied
    in order."""
    out = array("i")
    for part in parts:
        out.frombytes(part)
    return out


def splice(base: FrozenDocument, patches: list) -> FrozenDocument:
    """A new :class:`FrozenDocument` with *patches* applied to *base*.

    Each patch is a ``(start, stop, attach, segment)`` tuple against
    *base*'s pre-order indices:

    * a **removal** (``stop > start``) drops exactly one subtree range
      (``stop == base.end_of(start)``, ``attach ==
      base.parent_of(start)``) and, when *segment* is not ``None``,
      emits the segment's nodes in its place (a replace);
    * an **insertion** (``stop == start``, *segment* required) emits
      the segment at position ``start`` as the new last child of
      element *attach* (which must satisfy ``base.end_of(attach) ==
      start``).

    Patches must be pairwise disjoint and must never touch the root
    (``start >= 1``).  Every column is emitted as byte copies — the
    untouched prefix, each kept piece, each segment — with payload
    strings and attribute tuples **shared by reference** with *base*;
    because ``up``/``size`` are relative, a kept lane needs no rewrite
    for having moved, and only three kinds of pointwise fixups run
    (module docstring): ``size`` growth on the ancestor chain of each
    attach point, ``up`` of each piece's top-level roots, ``up`` of
    each segment root.  The attribute keys move with
    :func:`carry_indices`.  The returned arena shares *base*'s symbol
    table; readers holding *base* are unaffected.
    """
    return splice_applied(base, patches)[0]


def splice_applied(base: FrozenDocument, patches: list) -> tuple:
    """:func:`splice`, and how it moved what it kept: ``(spliced,
    applied, cum)`` — *patches* in the order they were applied and
    their :func:`shift_table`, what :func:`carry_indices` moves an
    index list of *base* by."""
    if not patches:
        return base, [], [0]
    for patch in patches:
        seg = patch[3]
        if seg is not None and seg.symbols is not base.symbols:
            raise ValueError(
                "splice segment was frozen against a different SymbolTable"
            )
    # At equal positions the deeper attach's content must emit first
    # (it belongs inside the shallower node's subtree): sort by
    # (start, -attach).
    patches = sorted(patches, key=lambda p: (p[0], -p[2]))
    sym0 = base.sym
    up0 = base.up
    size0 = base.size
    pay0 = base.payload
    n = len(sym0)

    # -- validate, and compute the ancestor-chain size growth from the
    #    cumulative shift table.
    cum = shift_table(patches)
    stops: list[int] = []          # per-patch boundary, bisect key for shifts
    starts: list[int] = []         # with stops: which removal holds an index
    corr: dict[int, int] = {}      # kept index -> size growth (ancestor chains)
    removed_elements = 0
    high_water = 1                 # patches may never touch the root
    for k, (start, stop, attach, seg) in enumerate(patches):
        if start < high_water or stop > n or start < 1:
            raise ValueError(
                f"splice patch [{start}, {stop}) overlaps an earlier patch "
                f"or falls outside the document"
            )
        if stop == start:
            if seg is None:
                raise ValueError("insertion patch requires a segment")
            if not (
                0 <= attach < start and attach + size0[attach] == start
                and sym0[attach] >= 0
            ):
                raise ValueError(
                    f"insertion at {start} must attach to the element whose "
                    f"subtree ends there (got attach={attach})"
                )
            idx = bisect_right(stops, attach)
            if idx < len(stops) and starts[idx] <= attach:
                raise ValueError(
                    f"insertion attach {attach} lies inside a removed range"
                )
        else:
            if start + size0[start] != stop:
                raise ValueError(
                    f"removal [{start}, {stop}) is not one subtree "
                    f"(end_of({start}) == {start + size0[start]})"
                )
            if attach != start - up0[start]:
                raise ValueError(
                    f"removal patch attach must be parent_of({start}) == "
                    f"{start - up0[start]}, got {attach}"
                )
            removed_elements += (stop - start) - sym0[start:stop].count(-1)
        starts.append(start)
        stops.append(stop)
        corr[attach] = corr.get(attach, 0) + cum[k + 1] - cum[k]
        high_water = stop if stop > start else start

    # Every kept node whose subtree contains a patch is, by laminarity,
    # an ancestor-or-self of its attach point, where the net was
    # recorded: walk the union of the chains once (a chain stops where
    # another already passed) and push the sums up in reverse pre-order
    # — a node's growth is complete before it is added to its parent's.
    for c in list(corr):
        c -= up0[c]
        while c >= 0 and c not in corr:
            corr[c] = 0
            c -= up0[c]
    # The same sweep places every chain node: walking backwards, the
    # patches ending at or before it only ever drop off.
    chain_pos: dict[int, int] = {}
    at = len(stops)
    for c in sorted(corr, reverse=True):
        if c:
            corr[c - up0[c]] += corr[c]
        while at and stops[at - 1] > c:
            at -= 1
        chain_pos[c] = c + cum[at]

    # The output is the untouched prefix, then kept pieces and segments
    # in order — byte runs of every column, joined.  ``rewired`` collects
    # the lanes whose ``up`` changes: a piece's top-level roots (the only
    # kept nodes whose parent lies before their piece, reached by
    # jumping subtree to subtree — a node strictly inside a subtree
    # rooted in the piece has its parent in the piece) and each segment
    # root, as (output index, where its parent landed).
    first_start = patches[0][0]
    sym_v = _raw(sym0)
    up_v = _raw(up0)
    size_v = _raw(size0)
    head = first_start * _LANE
    sym_parts: list = [sym_v[:head]]
    up_parts: list = [up_v[:head]]
    size_parts: list = [size_v[:head]]
    new_pay = pay0[:first_start]
    seg_views: dict = {}           # id(segment) -> its three byte views
    rewired: list = []
    n_elements = base.n_elements - removed_elements
    prev = first_start
    for k, (start, stop, attach, seg) in enumerate(patches + [(n, n, -1, None)]):
        if prev < start:
            lo, hi = prev * _LANE, start * _LANE
            sym_parts.append(sym_v[lo:hi])
            up_parts.append(up_v[lo:hi])
            size_parts.append(size_v[lo:hi])
            new_pay += pay0[prev:start]
            # A parent left of its child's piece has a patch in between,
            # inside its subtree: it is a chain node.
            shift = cum[k]
            b = prev
            while b < start:
                rewired.append((b + shift, chain_pos[b - up0[b]]))
                b += size0[b]
        if seg is not None:
            # One update's patches share one segment: cast its columns
            # once, not once per patch.
            views = seg_views.get(id(seg))
            if views is None:
                views = seg_views[id(seg)] = (_raw(seg.sym), _raw(seg.up), _raw(seg.size))
            sym_parts.append(views[0])
            up_parts.append(views[1])
            size_parts.append(views[2])
            new_pay += seg.payload
            rewired.append((start + cum[k], chain_pos[attach]))
            n_elements += seg.n_elements
        prev = stop
    new_sym = _joined(sym_parts)
    new_up = _joined(up_parts)
    new_size = _joined(size_parts)
    for i, p in rewired:
        new_up[i] = i - p
    for c, growth in corr.items():
        if growth:
            new_size[chain_pos[c]] += growth
    attr_keys, attr_values = carry_indices(
        base.attr_keys, patches, cum, values=base.attr_values
    )

    spliced = FrozenDocument(
        base.symbols, new_sym, new_up, new_size, new_pay, attr_keys,
        attr_values, n_elements,
    )
    _carry_postings(base, spliced, patches, cum)
    return spliced, patches, cum


def rename_splice(base: FrozenDocument, indices: list, new_label: str) -> FrozenDocument:
    """A new frozen version with the elements at *indices* relabeled.

    A rename changes exactly one column: ``up``/``size``/``payload``
    and the attribute columns are **aliased** from *base* (both arenas
    are immutable, so aliasing is safe and a reader still holding
    *base* costs one ``sym`` column beside the new version), and only
    ``sym`` is copied and point-written.
    """
    sym = array("i", base.sym)
    sid = base.symbols.intern(new_label)
    moved = {sid}  # the labels whose postings the rename changes
    for i in indices:
        if sym[i] < 0:
            raise ValueError(f"cannot rename text node at index {i}")
        moved.add(sym[i])
        sym[i] = sid
    renamed = FrozenDocument(
        base.symbols, sym, base.up, base.size, base.payload,
        base.attr_keys, base.attr_values, base.n_elements,
    )
    # Every other label sits where it sat: its postings are shared
    # with *base* (immutable once published), not re-derived.
    for syms, found in list(base._postings.items()):
        if moved.isdisjoint(syms):
            renamed._postings[syms] = found
    return renamed


# ----------------------------------------------------------------------
# SAX event adapters (the streaming replay source)
# ----------------------------------------------------------------------


def events_to_arena(
    events: Iterable, symbols: Optional[SymbolTable] = None
) -> FrozenDocument:
    """Build a frozen document straight from a SAX event stream.

    This is the arena load path — ``parse_file_to_arena(path)`` is
    ``events_to_arena(iter_sax_file(path))`` — which columnarizes a
    file with no intermediate ``Node`` tree and memory bounded by the
    columns themselves.
    """
    from repro.xmltree.sax import EndElement, StartElement, TextEvent

    builder = FrozenBuilder(symbols)
    for event in events:
        if isinstance(event, StartElement):
            builder.start(event.name, event.attrs if event.attrs else None)
        elif isinstance(event, EndElement):
            builder.end()
        elif isinstance(event, TextEvent):
            builder.text(event.value)
        # Start/EndDocument carry no content.
    return builder.finish()


def arena_to_events(
    arena: FrozenDocument, i: int = 0, document: bool = True
) -> Iterator:
    """Generate the SAX event stream of an arena subtree.

    An arena is **replayable by construction** — calling this again
    yields an identical fresh stream — so an arena can be handed
    directly to the Section-6 two-pass streaming algorithms as their
    replay source, with no one-shot-iterator hazard.
    """
    from repro.xmltree.sax import (
        EndDocument,
        EndElement,
        StartDocument,
        StartElement,
        TextEvent,
    )

    if document:
        yield StartDocument()
    sym = arena.sym
    size = arena.size
    payload = arena.payload
    strings = arena.symbols.strings
    attrs_of = arena.attrs_of
    limit = i + size[i]
    closes: list = []
    ends: list[int] = []
    j = i
    while j < limit:
        while ends and ends[-1] <= j:
            ends.pop()
            yield closes.pop()
        s = sym[j]
        if s < 0:
            yield TextEvent(payload[j])
            j += 1
            continue
        label = strings[s]
        yield StartElement(label, attrs_of(j))
        if size[j] > 1:
            ends.append(j + size[j])
            closes.append(EndElement(label))
        else:
            yield EndElement(label)
        j += 1
    while closes:
        yield closes.pop()
    if document:
        yield EndDocument()
