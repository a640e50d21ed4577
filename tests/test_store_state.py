"""The durability layer: atomic writes, dirty tracking, round trips."""

import json
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
        assert store.log.staged("db")
        assert _texts(store.query("public", "for $x in part/supplier return $x")) == [
            "<supplier><sname>HP</sname></supplier>"
        ]

    def test_commit_count_survives(self, state_dir):
        store = open_store(state_dir)
        store.rollback("db")
        store.commit("db", DELETE_PRICES)
        save_store(store, state_dir)
        again = open_store(state_dir)
        assert again.documents.get("db").version == 2
        assert again.log.committed("db") == 1
        assert "price" not in serialize_arena(again.documents.get("db").arena)


class TestCommitCount:
    """The manifest keeps a commit *count* per document, not the texts:
    its size does not grow with the number of commits."""

    @staticmethod
    def _entry_after(commits: int, state_dir: str) -> dict:
        store = ViewStore()
        store.put("db", CATALOG)
        for index in range(commits):
            old, new = ("price", "cost") if index % 2 == 0 else ("cost", "price")
            store.commit(
                "db",
                'transform copy $a := doc("db") modify do '
                f"rename $a//{old} as {new} return $a",
            )
        save_store(store, state_dir)
        with open(os.path.join(state_dir, "store.json"), encoding="utf-8") as handle:
            return json.load(handle)["documents"]["db"]

    def test_the_manifest_entry_does_not_grow_with_commits(self, tmp_path):
        one = self._entry_after(1, str(tmp_path / "one"))
        many = self._entry_after(200, str(tmp_path / "many"))
        assert set(one) == set(many)
        assert "history" not in one
        assert (one["committed"], many["committed"]) == (1, 200)
        for key, value in many.items():
            if isinstance(value, list):
                assert len(value) == len(one[key]), key
        assert open_store(str(tmp_path / "many")).log.committed("db") == 200

    def test_a_1_21_history_list_reopens_as_its_count(self, state_dir):
        manifest_path = os.path.join(state_dir, "store.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        entry = manifest["documents"]["db"]
        del entry["committed"]
        entry["history"] = [DELETE_PRICES] * 3
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        store = open_store(state_dir)
        assert store.log.committed("db") == 3
        assert store.stats()["documents"]["db"]["committed"] == 3
        # The next checkpoint writes the count in place of the list.
        save_store(store, state_dir)
        with open(manifest_path, encoding="utf-8") as handle:
            rewritten = json.load(handle)["documents"]["db"]
        assert rewritten["committed"] == 3 and "history" not in rewritten


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
