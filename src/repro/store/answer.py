"""The result cache's key, and its value: one serialized answer, and —
once it has been asked for again — the bytes a server sends for it.

``ViewStore.results`` maps :func:`result_key` to one :class:`Answer`
per key.  ``items`` is the answer every in-process reader copies out
of; :meth:`Answer.wire` is the same answer as the body a ``query``
response carries after its header line (:func:`wire_body`), built
lazily and then kept *on the entry* — so it moves with the entry when
a commit re-keys it (the cache moves values by reference) and goes
with it on drop or eviction.  There is no second cache and no second
key.

An answer read straight off a document — every item a node of the
document's own arena, in document order — also remembers **where its
items sit**: ``refs``, one sorted ``array('i')`` of their pre-order
indices.  That is what lets a commit tell, per entry, whether an item
was removed, contains a patch or is byte-for-byte what it was
(:func:`repro.store.delta.rekey_verdict`), carry the positions across
its splice, and re-serialize only the items a patch landed in
(:meth:`Answer.patched`).  An answer over a view stack or a staged
preview (its items index an arena no commit describes) or holding a
constructed item has ``refs is None`` and is kept or dropped by labels
alone.  Every answer carries those labels, ``labels``
(:func:`repro.store.delta.query_labels` of its query, taken when the
answer is built), so a commit decides an entry without parsing its
query again.

Memory rule: an entry keeps its wire form only once it has been asked
for again.  The first :meth:`Answer.wire` call — the response to the
miss that made the entry — builds the bytes and lets them go; the
second call (a hit, or the first follower of the entry's flight) keeps
what it builds, and every later call returns that object.  A workload
that never repeats a text therefore never holds a wire byte.  ``refs``
costs 4 bytes per item, for as long as the entry lives.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, islice
from operator import le
from typing import FrozenSet, Iterable, List, Literal, Optional, Sequence, Tuple

__all__ = ["Answer", "body_items", "node_refs", "result_key", "wire_body"]

#: The ``array`` type code of a 4-byte unsigned int (``"I"`` wherever
#: CPython runs; ``"L"`` is the fallback the C standard allows).
_U32: Literal["I", "L"] = "I" if array("I").itemsize == 4 else "L"

#: A body's lengths are little-endian; a big-endian host swaps them.
_SWAP = sys.byteorder == "big"


def result_key(
    target: str,
    uid: int,
    query_text: str,
    texts: Tuple[Tuple[str, ...], Tuple[str, ...]],
) -> Tuple[object, ...]:
    """The key of one answer in ``ViewStore.results``: ``(target,
    arena uid, query text, stack texts, staged texts)`` — *uid* and
    *texts* are a pinned read's ``snapshot.uid`` and ``texts``.
    The uid is process-unique per arena build and the texts are a
    view's whole definition, so entries cannot alias across a commit, a
    drop-and-reload (which restarts versions at 1) or a
    drop-and-redefine — even when a reader publishes its answer after
    the drop or the commit has invalidated."""
    return (target, uid, query_text) + texts


def node_refs(items: Sequence) -> "Optional[array[int]]":
    """The raw items of one evaluation (``ViewStore.evaluate``) as an
    answer's ``refs``: their pre-order indices as one ``array('i')``
    when every item is an arena node and they come in document order,
    else ``None``."""
    try:
        refs = array("i", items)
    except TypeError:  # a literal or a constructed element among them
        return None
    if not all(map(le, refs, islice(refs, 1, None))):
        return None
    return refs


def wire_body(items: Sequence[str]) -> bytes:  # hot-path
    """The body of a ``query`` response: ``len(items)`` 4-byte
    little-endian unsigned lengths, in code points, then the items
    joined and encoded as UTF-8 (``surrogatepass``, so any ``str``
    round-trips).  :func:`body_items` decodes the text once and slices
    it by the lengths; nothing is escaped."""
    lengths = array(_U32, map(len, items))
    if _SWAP:
        lengths.byteswap()
    return lengths.tobytes() + "".join(items).encode("utf-8", "surrogatepass")


def body_items(body: bytes, count: int) -> List[str]:
    """The *count* items of a :func:`wire_body`: one decode of the
    text, then one slice per length.  :class:`ValueError` (a
    :class:`UnicodeDecodeError` for bytes that are not UTF-8) when
    *body* cannot be such a body."""
    head = 4 * count
    if len(body) < head:
        raise ValueError(f"{len(body)} bytes cannot hold {count} lengths")
    lengths = array(_U32)
    lengths.frombytes(body[:head])
    if _SWAP:
        lengths.byteswap()
    text = str(memoryview(body)[head:], "utf-8", "surrogatepass")
    bounds = list(accumulate(lengths, initial=0))
    if bounds[-1] != len(text):
        raise ValueError(
            f"lengths sum to {bounds[-1]} code points, the text has {len(text)}"
        )
    return [text[start:end] for start, end in zip(bounds, islice(bounds, 1, None))]


class Answer:
    """One cached answer: the serialized items, immutable, where they
    sit in the document (``refs``, or ``None``), the labels its query
    can depend on, and their wire form from the second time it is asked
    for."""

    # __weakref__: lets a test watch an entry die with its bytes.
    __slots__ = ("items", "refs", "labels", "_asked", "_wire", "__weakref__")

    # unguarded[refs]: read and replaced only by a commit of the document the entry is keyed on, which holds that document's commit lock; readers never look at it
    # unguarded[_asked, _wire]: write-once-then-read fields shared by connection threads without a lock; _wire is published by one attribute store of complete, immutable bytes, and two racing builders produce equal bytes (last store wins, both valid); a lost _asked update only postpones retention by one call

    def __init__(
        self,
        items: Iterable[str],
        refs: "Optional[array[int]]" = None,
        labels: Optional[FrozenSet[str]] = None,
    ) -> None:
        #: Immutable, so no reader can change what another reads; each
        #: in-process caller takes its own ``list(answer.items)``.
        self.items: Tuple[str, ...] = tuple(items)
        #: ``refs[k]`` is where ``items[k]`` sits in the arena the
        #: entry is keyed on; replaced (never edited) when a commit
        #: moves the entry to the next arena.
        self.refs = refs
        #: :func:`~repro.store.delta.query_labels` of the query; ``None``
        #: — unanalyzable — drops the entry at its document's next commit.
        self.labels = labels
        self._asked = False
        self._wire: Optional[bytes] = None

    def patched(self, fresh: dict, refs: "array[int]") -> "Answer":
        """This answer after a commit that landed inside some of its
        items: ``fresh[k]`` replaces ``items[k]``, every other string is
        shared with this answer by reference, *refs* is where they all
        sit now.  The old wire form does not travel — it spells the old
        items — but an entry that had been asked for again keeps the
        next one it builds."""
        items = list(self.items)
        for k, text in fresh.items():
            items[k] = text
        answer = Answer(items, refs, self.labels)
        answer._asked = self._asked
        return answer

    def wire(self) -> bytes:  # hot-path
        """``items`` as a response body (:func:`wire_body`) — what
        :func:`~repro.service.protocol.encode_response` sends after the
        header line."""
        wire = self._wire
        if wire is None:
            wire = wire_body(self.items)
            if self._asked:
                self._wire = wire
            self._asked = True
        return wire

    @property
    def holds_wire(self) -> bool:
        """Whether this entry keeps its wire form (from the second
        :meth:`wire` call on; an empty answer's is zero bytes)."""
        return self._wire is not None

    @property
    def wire_bytes(self) -> int:
        """Bytes of wire form this entry holds (0 until the second
        :meth:`wire` call)."""
        wire = self._wire
        return 0 if wire is None else len(wire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Answer({len(self.items)} items, {self.wire_bytes} wire bytes)"
