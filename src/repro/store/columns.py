"""Column files: a frozen arena's columns on disk, checksummed.

A checkpoint (:func:`repro.store.state.save_store`) writes each changed
document as one column file, and :func:`read` builds the
:class:`~repro.xmltree.arena.FrozenDocument` back from it with no
tokenizer and no builder: the int columns are byte copies, and each
string is one slice of one decoded blob.

Layout — a fixed header, then the sections of :data:`SECTIONS` in
order, each exactly as long as the header says::

    magic b"REPROARN" · format u16 · byte order u8 (0 little, 1 big)
    · itemsize u8 · nodes u64 · elements u64
    · (length u64, crc32 u32) per section · crc32 u32 of all the above

The header's own fields are little-endian on every host, so a file
from a foreign host is recognised as one; the sections are the
writer's native ``array('i')`` bytes:

* ``sym``, ``up``, ``size`` — the structure columns, as in memory;
* ``payload`` — one index into the string table per node;
* ``offsets``, ``strings`` — the string table: every distinct string
  once, joined into one UTF-8 blob, and the code-point offsets that
  cut the decoded blob (one more offset than strings);
* ``attr_keys`` — as in memory; ``attr_lengths`` — the length of each
  flat attribute tuple; ``attr_values`` — their string indexes, joined;
* ``labels`` — ``(symbol id, string index)`` pairs for the symbol ids
  ``sym`` uses, so that a reader maps them into its own table.

Equal strings share one index, so the builder's string sharing
survives the round trip: the reader hands every use of a string the
same object.  Postings are not stored — they stay a cache derived on
first use.

Damage is never a wrong answer: the header's CRC and every section's
are verified before any column is built, and a truncated, torn or
bit-flipped file, a wrong magic or format, or a foreign byte order or
integer width is a :class:`~repro.store.errors.CorruptStateError`
naming the file and the section.
"""

from __future__ import annotations

import io
import os
import struct
import sys
import zlib
from array import array
from itertools import accumulate, islice
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.store.errors import CorruptStateError
from repro.xmltree.arena import FrozenDocument
from repro.xmltree.symbols import SymbolTable, global_symbols

__all__ = ["FORMAT", "MAGIC", "SECTIONS", "ColumnFile", "check", "read", "write"]

MAGIC = b"REPROARN"

#: The layout this module writes and the only one it reads.
FORMAT = 1

SECTIONS = (
    "sym", "up", "size", "payload", "offsets", "strings",
    "attr_keys", "attr_lengths", "attr_values", "labels",
)

_HEAD = struct.Struct("<8sHBBQQ")
_ENTRY = struct.Struct("<QI")
_CRC = struct.Struct("<I")
_CRC_AT = _HEAD.size + _ENTRY.size * len(SECTIONS)
HEADER_BYTES = _CRC_AT + _CRC.size

_ORDERS = ("little", "big")
_ITEMSIZE = array("i").itemsize

#: Sections holding one int per node.
_PER_NODE = frozenset(("sym", "up", "size", "payload"))


class ColumnFile(NamedTuple):
    """What :func:`check` verified: the header's counts, the file's
    length, and each section's ``(name, offset, length)``."""

    nodes: int
    elements: int
    size: int
    sections: Tuple[Tuple[str, int, int], ...]


def write(arena: FrozenDocument, path: str) -> int:
    """Write *arena* to *path* as a column file; returns its length.

    Every section is encoded before *path* is opened, so a string the
    UTF-8 codec refuses leaves nothing behind.  Making it durable
    (fsync, rename) is the caller's protocol.
    """
    index: Dict[str, int] = {}
    slot = index.setdefault  # a new string takes the next index

    def indexes(values: Iterable[str]) -> "array[int]":
        return array("i", [slot(value, len(index)) for value in values])

    payload = indexes(arena.payload)
    attr_lengths = array("i", map(len, arena.attr_values))
    attr_values = indexes(value for flat in arena.attr_values for value in flat)
    labels = array("i")
    for sid in sorted(set(arena.sym) - {-1}):
        labels.append(sid)
        labels.append(slot(arena.symbols.strings[sid], len(index)))
    strings = list(index)
    offsets = array("i", [0])
    offsets.extend(accumulate(map(len, strings)))
    sections: "List[Union[array[int], bytes]]" = [
        arena.sym, arena.up, arena.size, payload, offsets,
        "".join(strings).encode("utf-8"),
        arena.attr_keys, attr_lengths, attr_values, labels,
    ]
    head = _HEAD.pack(
        MAGIC, FORMAT, _ORDERS.index(sys.byteorder), _ITEMSIZE,
        len(arena.sym), arena.n_elements,
    ) + b"".join(
        _ENTRY.pack(memoryview(part).nbytes, zlib.crc32(part)) for part in sections
    )
    with open(path, "wb") as handle:
        # The columns go out as they are, without a copy.
        written = handle.write(head + _CRC.pack(zlib.crc32(head)))
        for part in sections:
            written += handle.write(part)
    return written


def check(path: str) -> ColumnFile:
    """Verify the column file at *path* — header, section lengths and
    every CRC — without building a document (``repro store fsck``)."""
    with open(path, "rb") as handle:
        return _sections(path, handle)[0]


def read(path: str, symbols: Optional[SymbolTable] = None) -> FrozenDocument:
    """The arena a column file holds, its labels interned into
    *symbols* (the process-wide table by default).  Every CRC is
    checked before the document is built."""
    with open(path, "rb") as handle:
        info, blob, ints = _sections(path, handle)
    text = str(blob, "utf-8")
    del blob
    offsets = ints["offsets"]
    strings = [text[a:b] for a, b in zip(offsets, islice(offsets, 1, None))]
    at: Callable[[int], str] = strings.__getitem__
    values = map(at, ints["attr_values"])
    attrs = [tuple(islice(values, length)) for length in ints["attr_lengths"]]

    symbols = symbols if symbols is not None else global_symbols()
    sym = ints["sym"]
    labels = ints["labels"]
    written = labels[0::2]
    interned = array("i", [symbols.intern(at(s)) for s in labels[1::2]])
    if interned != written:
        # Index -1 (a text node) reads the last slot, which stays -1.
        remap = [-1] * (max(written) + 2)
        for old, new in zip(written, interned):
            remap[old] = new
        moved: Callable[[int], int] = remap.__getitem__
        sym = array("i", map(moved, sym))
    return FrozenDocument(
        symbols, sym, ints["up"], ints["size"], list(map(at, ints["payload"])),
        ints["attr_keys"], attrs, info.elements,
    )


def _sections(
    path: str, handle: io.BufferedReader
) -> "Tuple[ColumnFile, bytearray, Dict[str, array[int]]]":
    """The header of the open file *handle*, the ``strings`` blob, and
    every other section read straight into its ``array('i')`` — every
    length and CRC checked; any damage raises
    :class:`CorruptStateError`."""

    def corrupt(section: str, reason: str) -> CorruptStateError:
        return CorruptStateError(path, reason, section=section)

    head = handle.read(HEADER_BYTES)
    if len(head) < _HEAD.size:
        raise corrupt("header", f"truncated: {len(head)} of {HEADER_BYTES} bytes")
    magic, fmt, order, itemsize, nodes, elements = _HEAD.unpack_from(head)
    if magic != MAGIC:
        raise corrupt("header", f"not a column file (magic {magic!r})")
    if fmt != FORMAT:
        raise corrupt("header", f"unsupported column format {fmt} (this build reads {FORMAT})")
    if len(head) < HEADER_BYTES:
        raise corrupt("header", f"truncated: {len(head)} of {HEADER_BYTES} bytes")
    if zlib.crc32(head[:_CRC_AT]) != _CRC.unpack_from(head, _CRC_AT)[0]:
        raise corrupt("header", "checksum mismatch")
    if order >= len(_ORDERS) or _ORDERS[order] != sys.byteorder:
        raise corrupt(
            "header",
            f"foreign byte order {order} (this host is {sys.byteorder}-endian)",
        )
    if itemsize != _ITEMSIZE:
        raise corrupt(
            "header", f"{itemsize}-byte integers (this build uses {_ITEMSIZE})"
        )
    entries = [
        _ENTRY.unpack_from(head, _HEAD.size + k * _ENTRY.size)
        for k in range(len(SECTIONS))
    ]
    # Lay every section out against the file's length before anything
    # is allocated: a cut file names the first section it cut into.
    size = os.fstat(handle.fileno()).st_size
    spans = []
    at = HEADER_BYTES
    for name, (length, _) in zip(SECTIONS, entries):
        if at + length > size:
            raise corrupt(name, f"truncated: {max(0, size - at)} of {length} bytes")
        if name != "strings" and length % _ITEMSIZE:
            raise corrupt(name, f"{length} bytes is not a whole number of integers")
        if name in _PER_NODE and length != nodes * _ITEMSIZE:
            raise corrupt(name, f"{length // _ITEMSIZE} entries for {nodes} nodes")
        spans.append((name, at, length))
        at += length
    if at != size:
        raise corrupt(SECTIONS[-1], f"{size - at} bytes past the last section")
    # Read into the columns themselves: no file-sized buffer is held,
    # and nothing is copied after the CRC.
    blob = bytearray()
    ints: "Dict[str, array[int]]" = {}
    for name, (length, crc) in zip(SECTIONS, entries):
        part: "Union[bytearray, array[int]]"
        if name == "strings":
            part = blob = bytearray(length)
        else:
            part = ints[name] = array("i", [0]) * (length // _ITEMSIZE)
        got = handle.readinto(part)
        if got < length:
            raise corrupt(name, f"truncated: {got} of {length} bytes")
        if zlib.crc32(part) != crc:
            raise corrupt(name, "checksum mismatch")
    return ColumnFile(nodes, elements, size, tuple(spans)), blob, ints
