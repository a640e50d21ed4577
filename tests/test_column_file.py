"""Column files: a checkpoint holds the arena's columns, checksummed.

* ``columns.read(columns.write(a))`` gives back every column of ``a``,
  with equal strings one object, into the writer's symbol table (ids
  kept) or a fresh one (ids remapped, labels kept);
* a truncated, bit-flipped or foreign file is a ``CorruptStateError``
  naming the file and the section — from ``open_store`` and from
  ``fsck`` alike — and never a loaded document;
* a format-1 directory (XML checkpoints) opens, and its next
  checkpoint rewrites it as column files;
* ``open_store`` names its parts: the column reads and the WAL replay.
"""

import json
import os
import random
import re
import shutil
import struct
import sys
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.obs import MetricsRegistry
from repro.store import CorruptStateError, ViewStore, columns
from repro.store.state import fsck, open_store, save_store
from repro.store.wal import wal_path
from repro.xmltree.arena import FrozenDocument, freeze
from repro.xmltree.node import Element
from repro.xmltree.parser import parse_to_arena
from repro.xmltree.serializer import serialize_arena
from repro.xmltree.symbols import SymbolTable

from tests.strategies import VALUES, trees

#: Values beyond the shared alphabet: empty, non-BMP, markup characters.
STRINGS = st.one_of(
    st.sampled_from(VALUES + ["", "\U0001F600", "ü\U00010348x", "a&<b>\"'"]),
    st.text(max_size=4),
)

COLUMNS = ("sym", "up", "size", "payload", "attr_keys", "attr_values", "n_elements")

DOC = (
    '<db><part id="p1" k="x"><pname>kb</pname><price>12</price></part>'
    '<part id="p2"><pname>kb</pname><note>h\U0001F600llo</note></part></db>'
)


@st.composite
def documents(draw):
    """A random tree whose text and attribute values are drawn from
    :data:`STRINGS`."""
    tree = draw(trees())
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            node.attrs = {name: draw(STRINGS) for name in node.attrs}
            stack.extend(node.children)
        else:
            node.value = draw(STRINGS)
    return tree


def _labels(arena):
    return [arena.symbols.strings[s] if s >= 0 else None for s in arena.sym]


def _assert_shared(arena):
    """Every use of one string value is one object."""
    seen = {}
    values = list(arena.payload)
    for flat in arena.attr_values:
        values.extend(flat)
    for value in values:
        assert seen.setdefault(value, value) is value, value


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(documents())
    def test_every_column_survives(self, tree):
        writer_symbols = SymbolTable()
        writer_symbols.intern("padding")  # so a fresh table numbers differently
        arena = freeze(tree, writer_symbols)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "doc.arena")
            assert columns.write(arena, path) == os.path.getsize(path)
            same = columns.read(path, writer_symbols)
            fresh = columns.read(path, SymbolTable())
        for name in COLUMNS:
            assert getattr(same, name) == getattr(arena, name), name
        # A fresh table takes the remap path: other ids, the same labels.
        assert fresh.sym != arena.sym
        assert _labels(fresh) == _labels(arena)
        for name in COLUMNS[1:]:
            assert getattr(fresh, name) == getattr(arena, name), name
        _assert_shared(same)
        _assert_shared(fresh)
        assert serialize_arena(fresh) == serialize_arena(arena)

    def test_a_string_is_one_object_across_payload_and_attributes(self, tmp_path):
        path = str(tmp_path / "doc.arena")
        columns.write(parse_to_arena("<r><a k='kb'>kb</a><b>kb</b></r>"), path)
        back = columns.read(path)
        texts = [back.payload[i] for i in range(len(back)) if back.payload[i] == "kb"]
        assert len(texts) >= 3  # <a>'s and <b>'s own text, and the text nodes
        assert all(text is texts[0] for text in texts)
        assert back.attr_values[0][1] is texts[0]

    def test_an_unencodable_string_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "doc.arena")
        arena = parse_to_arena("<r>x</r>")
        lone_surrogate = FrozenDocument(
            arena.symbols, arena.sym, arena.up, arena.size, ["x", "\ud800"],
            arena.attr_keys, arena.attr_values, arena.n_elements,
        )
        with pytest.raises(UnicodeEncodeError):
            columns.write(lone_surrogate, path)
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Damage: every case is a CorruptStateError naming the section
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_state(tmp_path_factory):
    state_dir = str(tmp_path_factory.mktemp("clean") / "state")
    store = ViewStore()
    store.put("db", DOC)
    save_store(store, state_dir)
    return state_dir


def _damaged(clean_state, tmp_path, damage):
    """A copy of *clean_state* whose column file *damage* rewrote;
    returns (state dir, column file path)."""
    state_dir = shutil.copytree(clean_state, str(tmp_path / "state"))
    (filename,) = [f for f in os.listdir(state_dir) if f.endswith(".arena")]
    path = os.path.join(state_dir, filename)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    with open(path, "wb") as handle:
        handle.write(damage(data))
    return state_dir, path


def _assert_refused(state_dir, path, section, match=None):
    with pytest.raises(CorruptStateError) as opened:
        open_store(state_dir)
    with pytest.raises(CorruptStateError) as checked:
        list(fsck(state_dir))
    for caught in (opened.value, checked.value):
        assert caught.path == path and caught.section == section, str(caught)
        assert repr(path) in str(caught) and repr(section) in str(caught)
        if match:
            assert re.search(match, str(caught)), str(caught)


def _spans(clean_state):
    (filename,) = [f for f in os.listdir(clean_state) if f.endswith(".arena")]
    return columns.check(os.path.join(clean_state, filename))


def _cuts(clean_state):
    """Every section boundary (the header's end included), one offset
    inside the header, one random offset — each with the section a
    cut there must be reported in."""
    info = _spans(clean_state)
    cuts = [(0, "header"), (columns.HEADER_BYTES // 2, "header")]
    for name, offset, length in info.sections:
        assert length > 0, name  # DOC fills every section
        cuts.append((offset, name))
    at = random.Random(32).randrange(columns.HEADER_BYTES, info.size)
    cuts.append((at, next(n for n, o, ln in info.sections if o + ln > at)))
    return cuts


def test_every_section_is_filled_by_the_fixture(clean_state):
    info = _spans(clean_state)
    assert [name for name, _, _ in info.sections] == list(columns.SECTIONS)
    assert info.sections[0][1] == columns.HEADER_BYTES
    assert sum(length for _, _, length in info.sections) + columns.HEADER_BYTES == info.size


@pytest.mark.parametrize("index", range(len(columns.SECTIONS) + 3))
def test_a_truncated_file_names_the_missing_section(clean_state, tmp_path, index):
    cut, section = _cuts(clean_state)[index]
    state_dir, path = _damaged(clean_state, tmp_path, lambda data: data[:cut])
    _assert_refused(state_dir, path, section, "truncated")


@pytest.mark.parametrize("section", ("header",) + columns.SECTIONS)
def test_a_flipped_bit_names_its_section(clean_state, tmp_path, section):
    if section == "header":
        offset, length = 0, columns.HEADER_BYTES
    else:
        (offset, length), = [(o, ln) for n, o, ln in _spans(clean_state).sections if n == section]
    at = offset + length // 2

    def flip(data):
        data[at] ^= 0x10
        return data

    state_dir, path = _damaged(clean_state, tmp_path, flip)
    _assert_refused(state_dir, path, section)


def _patched_header(**fields):
    """Rewrite header fields and re-seal the header's CRC, so only the
    field itself is wrong."""

    def patch(data):
        head = columns._HEAD
        values = dict(zip(
            ("magic", "format", "order", "itemsize", "nodes", "elements"),
            head.unpack_from(data),
        ))
        values.update(fields)
        data[:head.size] = head.pack(*values.values())
        crc_at = columns.HEADER_BYTES - 4
        data[crc_at:columns.HEADER_BYTES] = struct.pack(
            "<I", zlib.crc32(bytes(data[:crc_at]))
        )
        return data

    return patch


@pytest.mark.parametrize("fields,match", [
    ({"magic": b"NOTARENA"}, "not a column file"),
    ({"format": 99}, "unsupported column format 99"),
    ({"order": 1 if sys.byteorder == "little" else 0}, "foreign byte order"),
    ({"order": 7}, "foreign byte order"),
    ({"itemsize": 8 if columns._ITEMSIZE != 8 else 4}, "-byte integers"),
])
def test_a_foreign_file_is_refused(clean_state, tmp_path, fields, match):
    state_dir, path = _damaged(clean_state, tmp_path, _patched_header(**fields))
    _assert_refused(state_dir, path, "header", match)


def test_an_xml_file_under_a_format_2_manifest_is_refused(clean_state, tmp_path):
    state_dir, path = _damaged(clean_state, tmp_path, lambda data: DOC.encode())
    _assert_refused(state_dir, path, "header", "not a column file")


def test_trailing_bytes_are_refused(clean_state, tmp_path):
    state_dir, path = _damaged(clean_state, tmp_path, lambda data: data + b"\0")
    _assert_refused(state_dir, path, columns.SECTIONS[-1], "past the last section")


def test_damage_is_exit_2_naming_the_file_at_the_cli(clean_state, tmp_path, capsys):
    def flip(data):
        data[len(data) // 2] ^= 0xFF
        return data

    state_dir, path = _damaged(clean_state, tmp_path, flip)
    for command in ("fsck", "stat"):
        assert cli_main(["store", command, "--state", state_dir]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("repro: corrupt store state") and path in err[-1], err


# ----------------------------------------------------------------------
# fsck on a clean directory
# ----------------------------------------------------------------------


def test_fsck_prints_one_line_per_object_and_writes_nothing(clean_state, tmp_path, capsys):
    state_dir = shutil.copytree(clean_state, str(tmp_path / "state"))
    store = open_store(state_dir)
    store.commit("db", 'transform copy $a := doc("db") modify do delete $a//note return $a')
    store.wal.close()
    with open(wal_path(state_dir), "ab") as handle:
        handle.write(b'{"crc": 1, "se')  # a torn final record
    before = _sizes(state_dir)
    assert cli_main(["store", "fsck", "--state", state_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "store.json: format 2, 1 document(s), 0 view(s)"
    assert re.match(r"doc-db-v1\.arena: 'db' v1, \d+ nodes, \d+ bytes, 10 sections, checksums ok$",
                    lines[1]), lines[1]
    assert lines[2] == "wal.jsonl: 1 record(s) through seq 1, torn final record (the next open cuts it)"
    assert _sizes(state_dir) == before


def _sizes(state_dir):
    """Byte size per stored file (the lock file is bookkeeping)."""
    return {
        f: os.path.getsize(os.path.join(state_dir, f))
        for f in os.listdir(state_dir) if f != "state.lock"
    }


def test_fsck_of_an_empty_directory(tmp_path):
    assert list(fsck(str(tmp_path))) == [
        "store.json: absent (an empty store)",
        "wal.jsonl: 0 record(s) through seq 0",
    ]


# ----------------------------------------------------------------------
# Format 1: XML checkpoints open, and the next checkpoint upgrades them
# ----------------------------------------------------------------------


def _format_1_state(tmp_path):
    state_dir = tmp_path / "v1"
    state_dir.mkdir()
    (state_dir / "doc-db-v3.xml").write_text(DOC, encoding="utf-8")
    (state_dir / "store.json").write_text(json.dumps({
        "format": 1,
        "documents": {"db": {
            "file": "doc-db-v3.xml", "version": 3, "history": [],
            "staged": ['transform copy $a := doc("db") modify do delete $a//price return $a'],
        }},
        "views": [{
            "name": "public", "base": "db",
            "transform": 'transform copy $a := doc("db") modify do delete $a//note return $a',
        }],
    }), encoding="utf-8")
    return str(state_dir)


def test_a_format_1_directory_opens_and_the_next_checkpoint_upgrades_it(tmp_path):
    state_dir = _format_1_state(tmp_path)
    assert list(fsck(state_dir))[1].startswith("doc-db-v3.xml: 'db' v3, XML (format 1")
    store = open_store(state_dir)
    doc = store.documents.get("db")
    assert doc.version == 3 and doc.dirty
    assert serialize_arena(doc.arena) == serialize_arena(parse_to_arena(DOC))
    assert store.query_serialized("public", "for $x in part/note return $x") == []
    save_store(store, state_dir)
    store.wal.close()
    assert sorted(f for f in os.listdir(state_dir) if f.startswith("doc-")) == ["doc-db-v3.arena"]
    with open(os.path.join(state_dir, "store.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["format"] == 2 and manifest["documents"]["db"]["file"] == "doc-db-v3.arena"
    again = open_store(state_dir)
    assert again.documents.get("db").version == 3
    assert serialize_arena(again.documents.get("db").arena) == serialize_arena(parse_to_arena(DOC))
    assert again.log.staged("db") and "public" in again.views
    again.wal.close()


# ----------------------------------------------------------------------
# The open path names its parts
# ----------------------------------------------------------------------


def test_open_reports_its_parts(clean_state, tmp_path, capsys):
    state_dir = shutil.copytree(clean_state, str(tmp_path / "state"))
    writer = open_store(state_dir)
    for body in ("delete $a//note", "insert <m/> into $a/part"):
        writer.commit("db", f'transform copy $a := doc("db") modify do {body} return $a')
    writer.wal.close()
    (filename,) = [f for f in os.listdir(state_dir) if f.endswith(".arena")]

    store = open_store(state_dir)
    registry = MetricsRegistry()
    store.bind_metrics(registry)
    snapshot = registry.snapshot()
    opened = {
        name: snapshot[f"store.state.{name}"]
        for name in ("open_ms", "columns_ms", "columns_bytes", "replay_ms")
    }
    assert opened == store.open_parts
    assert snapshot["store.wal.replayed"] == 2 and snapshot["store.wal.truncated_tail"] == 0
    assert opened["columns_bytes"] == os.path.getsize(os.path.join(state_dir, filename))
    assert 0 < opened["columns_ms"] < opened["open_ms"]
    assert 0 < opened["replay_ms"] < opened["open_ms"]
    store.wal.close()

    assert cli_main(["store", "stat", "--state", state_dir]) == 0
    out = capsys.readouterr().out
    assert re.search(
        r"opened in [\d.]+ ms: columns [\d.]+ ms \(\d+ bytes\), replay [\d.]+ ms \(2 commits\)",
        out,
    ), out
