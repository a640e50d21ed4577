"""The durability layer: atomic writes, dirty tracking, round trips."""

import os

import pytest

from repro import serialize
from repro.store import ViewStore, columns, open_store, save_store
from repro.xmltree.serializer import serialize_arena

CATALOG = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price></supplier></part></db>"
)

DELETE_PRICES = (
    'transform copy $a := doc("db") modify do delete $a//price return $a'
)


@pytest.fixture
def state_dir(tmp_path):
    store = ViewStore()
    store.put("db", CATALOG)
    store.define_view("public", "db", DELETE_PRICES)
    store.stage("db", DELETE_PRICES)
    save_store(store, str(tmp_path / "st"))
    return str(tmp_path / "st")


class TestRoundTrip:
    def test_everything_survives(self, state_dir):
        store = open_store(state_dir)
        assert store.documents.get("db").version == 1
        assert "public" in store.views
        assert store.log.has_staged("db")
        assert _texts(store.query("public", "for $x in part/supplier return $x")) == [
            "<supplier><sname>HP</sname></supplier>"
        ]

    def test_history_survives(self, state_dir):
        store = open_store(state_dir)
        store.rollback("db")
        store.commit("db", DELETE_PRICES)
        save_store(store, state_dir)
        again = open_store(state_dir)
        assert again.documents.get("db").version == 2
        assert len(again.log.history("db")) == 1
        assert "price" not in serialize_arena(again.documents.get("db").arena)


class TestDirtyTracking:
    def test_manifest_only_save_leaves_document_file_alone(self, state_dir):
        doc_path = os.path.join(state_dir, "doc-db-v1.arena")
        before = os.stat(doc_path).st_mtime_ns
        store = open_store(state_dir)
        store.stage("db", DELETE_PRICES)  # manifest-only change
        save_store(store, state_dir)
        assert os.stat(doc_path).st_mtime_ns == before

    def test_commit_writes_a_fresh_versioned_file(self, state_dir):
        store = open_store(state_dir)
        store.rollback("db")
        store.commit("db", DELETE_PRICES)
        save_store(store, state_dir)
        written = columns.read(os.path.join(state_dir, "doc-db-v2.arena"))
        assert "price" not in serialize_arena(written)
        # The superseded version's file was garbage-collected.
        assert not os.path.exists(os.path.join(state_dir, "doc-db-v1.arena"))

    def test_no_temp_files_left_behind(self, state_dir):
        store = open_store(state_dir)
        store.commit("db", DELETE_PRICES)
        save_store(store, state_dir)
        assert not [f for f in os.listdir(state_dir) if f.endswith(".tmp")]


def _texts(nodes):
    return [n if isinstance(n, str) else serialize(n) for n in nodes]
