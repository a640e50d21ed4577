"""The view store: documents, stacked views, caches, commit/rollback.

The oracle throughout is ``query_naive`` — materialize every layer of
the stack with a pure transform, then run the user query.  The store's
composed/cached answers must agree with it on every workload here.
"""

import threading
from unittest import mock

import pytest

import repro.compiled
from repro import serialize
from repro.obs import MetricsRegistry
from repro.store import delta as delta_module
from repro.xmltree import serializer as serializer_module
from repro.xmltree.serializer import serialize_arena
from repro.store import (
    DuplicateNameError,
    InvalidNameError,
    LRUCache,
    NothingStagedError,
    StoreError,
    UnknownNameError,
    ViewStore,
    result_key,
)

CATALOG = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price><country>A</country></supplier>"
    "<supplier><sname>Dell</sname><price>20</price><country>B</country></supplier>"
    "</part><part><pname>mouse</pname>"
    "<supplier><sname>HP</sname><price>8</price><country>A</country></supplier>"
    "</part></db>"
)

HIDE_A = (
    'transform copy $a := doc("db") modify do '
    "delete $a//supplier[country = 'A']/price return $a"
)
ANONYMIZE = (
    'transform copy $a := doc("db") modify do '
    "rename $a//sname as vendor return $a"
)


def _texts(nodes):
    return [n if isinstance(n, str) else serialize(n) for n in nodes]


@pytest.fixture
def store():
    s = ViewStore()
    s.put("db", CATALOG)
    return s


@pytest.fixture
def stacked(store):
    store.define_view("public", "db", HIDE_A)
    store.define_view("partners", "public", ANONYMIZE)
    return store


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)           # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_peek_neither_counts_nor_promotes(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1 and cache.peek("z") is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 0)
        cache.put("c", 3)  # a was peeked, not refreshed: it is still the oldest
        assert "a" not in cache and "b" in cache

    def test_get_or_compute_counts(self):
        cache = LRUCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1

    def test_invalidate_predicate(self):
        cache = LRUCache(maxsize=8)
        cache.put(("x", 1), "a")
        cache.put(("y", 1), "b")
        assert cache.invalidate(lambda key: key[0] == "x") == 1
        assert ("y", 1) in cache

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestDocuments:
    def test_round_trip_and_versions(self, store):
        doc = store.documents.get("db")
        assert doc.version == 1
        assert doc.arena.label(0) == "db"

    def test_duplicate_rejected(self, store):
        with pytest.raises(DuplicateNameError):
            store.put("db", "<db/>")

    def test_replace_carries_version(self, store):
        doc = store.put("db", "<db><part/></db>", replace=True)
        assert doc.version == 2  # stale cache keys stay dead

    def test_unknown_name(self, store):
        with pytest.raises(UnknownNameError):
            store.query("nope", "for $x in a return $x")

    def test_invalid_name(self, store):
        with pytest.raises(InvalidNameError):
            store.put("../evil", "<db/>")

    def test_load_from_file(self, tmp_path, store):
        path = tmp_path / "cat.xml"
        path.write_text(CATALOG, encoding="utf-8")
        doc = store.load("disk", str(path))
        assert doc.source == str(path)
        assert store.query("disk", "for $x in part/pname return $x")


class TestViewStacks:
    QUERIES = [
        "for $x in part/supplier return $x",
        "for $x in part[pname = 'kb']/supplier return $x/sname",
        "for $x in part where $x/supplier/price < 10 return $x/pname",
        "for $x in part/supplier[country = 'B'] return $x",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_depth2_matches_naive(self, stacked, query):
        assert _texts(stacked.query("partners", query)) == _texts(
            stacked.query_naive("partners", query)
        )

    @pytest.mark.parametrize(
        "transform",
        [
            'transform copy $a := doc("public") modify do '
            "insert <audited/> into $a/part return $a",
            'transform copy $a := doc("public") modify do '
            "replace $a//price with <price>0</price> return $a",
            'transform copy $a := doc("public") modify do '
            "delete $a//country return $a",
        ],
    )
    def test_all_update_kinds_stack(self, stacked, transform):
        stacked.define_view("extra", "partners", transform)
        for query in self.QUERIES:
            assert _texts(stacked.query("extra", query)) == _texts(
                stacked.query_naive("extra", query)
            )

    def test_a_view_read_leaves_its_document_alone(self, stacked):
        arena = stacked.documents.get("db").arena
        stacked.query("partners", self.QUERIES[0])
        assert stacked.documents.get("db").arena is arena
        assert "<price>12</price>" in serialize_arena(arena)
        public = stacked.views.get("public").materialized_root
        assert "<price>12</price>" not in serialize_arena(public)

    def test_deep_stack(self, store):
        base = "db"
        for depth in range(1, 6):
            name = f"v{depth}"
            store.define_view(
                name,
                base,
                f'transform copy $a := doc("{base}") modify do '
                f"insert <layer{depth}/> into $a/part return $a",
            )
            base = name
        result = store.query("v5", "for $x in part[pname = 'mouse'] return $x")
        (only,) = result
        text = serialize(only)
        assert all(f"<layer{d}/>" in text for d in range(1, 6))
        assert _texts(result) == _texts(
            store.query_naive("v5", "for $x in part[pname = 'mouse'] return $x")
        )

    def test_duplicate_view_name_rejected(self, stacked):
        with pytest.raises(DuplicateNameError):
            stacked.define_view("public", "db", HIDE_A)
        with pytest.raises(DuplicateNameError):
            stacked.put("public", "<db/>")

    def test_view_over_unknown_base(self, store):
        with pytest.raises(UnknownNameError):
            store.define_view("v", "ghost", HIDE_A)

    def test_drop_protects_dependents(self, stacked):
        with pytest.raises(StoreError):
            stacked.drop("public")   # partners stacks on it
        with pytest.raises(StoreError):
            stacked.drop("db")       # views bottom out in it
        stacked.drop("partners")
        stacked.drop("public")
        stacked.drop("db")
        assert len(stacked.documents) == 0


class TestCaches:
    def test_result_cache_hit_returns_its_own_list(self, stacked):
        query = "for $x in part/supplier return $x"
        first = stacked.query_serialized("partners", query)
        again = stacked.query_serialized("partners", query)
        assert again == first and again is not first
        assert stacked.results.stats()["hits"] == 1

    def test_no_caller_can_change_what_another_reads(self, stacked):
        query = "for $x in part/supplier return $x"
        expected = _texts(stacked.query_naive("partners", query))
        stacked.query_serialized("partners", query).clear()  # the miss's list
        hit = stacked.query_serialized("partners", query)
        assert hit == expected
        hit.clear()
        hit.append("<poison/>")
        assert stacked.query_serialized("partners", query) == expected
        # Thawed trees are the caller's own: evaluated per call, never cached.
        stacked.query("partners", query)[0].children.clear()
        assert _texts(stacked.query("partners", query)) == expected
        assert stacked.query_serialized("partners", query) == expected
        assert len(stacked.results) == 1

    def test_thawed_reads_never_touch_the_result_cache(self, stacked):
        query = "for $x in part/supplier return $x"
        first = stacked.query("partners", query)
        assert stacked.query("partners", query) is not first
        stats = stacked.results.stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 0, 0)
        assert stacked.arena_reads == 2

    def test_compiled_plan_reused_across_targets(self, stacked):
        query = "for $x in part/supplier return $x"
        stacked.query("partners", query)
        built = stacked.compiled.plans.stats()["misses"]
        stacked.query("partners", query)
        assert stacked.compiled.plans.stats()["misses"] == built

    def test_commit_invalidates_results(self, stacked):
        query = "for $x in part/supplier/price return $x"
        before = stacked.query("partners", query)
        version = stacked.commit(
            "db",
            'transform copy $a := doc("db") modify do '
            "delete $a//supplier[country = 'B']/price return $a",
        )
        assert version == 2
        after = stacked.query("partners", query)
        assert after is not before
        assert _texts(after) == _texts(stacked.query_naive("partners", query))
        assert len(after) < len(before)

    def test_unrelated_document_results_survive_commit(self, stacked):
        stacked.put("other", "<db><part><pname>cable</pname></part></db>")
        query = "for $x in part/pname return $x"
        kept = stacked.query_serialized("other", query)
        stacked.commit("db", ANONYMIZE)
        assert stacked.query_serialized("other", query) == kept
        assert stacked.results.stats()["hits"] == 1


PEOPLE = (
    "<db><people>"
    "<person id='p0'><name>ann</name></person>"
    "<person id='p1'><name>bob</name></person>"
    "<person id='p2'><name>cy</name></person>"
    "</people></db>"
)


class TestSerializedItems:
    def test_a_patched_item_is_read_from_the_texts_its_commit_wrote(self):
        """A commit that patches inside item k writes k's new text into
        the new version's texts, so the next read of k is a hit; a kept
        item is written again there, and is the old answer's string."""
        store = ViewStore()
        store.put("db", PEOPLE)
        query = "for $x in people/person return $x"
        before = store.query_serialized("db", query)
        delta = store.commit_delta(
            "db",
            'transform copy $a := doc("db") modify do insert <watch>w</watch> '
            "into $a/people/person[@id = 'p1'] return $a",
        )
        assert delta.results_patched == 1
        [patched] = [answer for key, answer in store.results.items() if key[2] == query]
        written: list = []
        real = serializer_module.write_arena_range

        def counting(arena, start, limit, write):
            written.append(start)
            return real(arena, start, limit, write)

        with mock.patch.object(serializer_module, "write_arena_range", counting):
            after = store.query_serialized("db", "for $x in people/person[name] return $x")
        assert after[1] == '<person id="p1"><name>bob</name><watch>w</watch></person>'
        assert after[1] is patched.items[1]
        assert len(written) == 2  # p0 and p2: p1's text was written by the commit
        assert after[0] is before[0] and after[2] is before[2]


class TestMaterialization:
    """A view's arena is derived data of its document's version: the
    first committed read of a version splices and publishes it."""

    def test_first_read_publishes_the_view_arena(self):
        store = ViewStore()
        store.put("db", CATALOG)
        store.define_view("public", "db", HIDE_A)
        query = "for $x in part/supplier return $x"
        view = store.views.get("public")
        assert view.materialized_root is None
        assert store.stats()["views"]["public"]["materialized"] is False
        first = _texts(store.query("public", query))
        assert store.stats()["views"]["public"]["materialized"] is True
        assert "queries" not in store.stats()["views"]["public"]
        assert view.materialized_version == 1
        kept = view.materialized_root
        assert _texts(store.query("public", query)) == first
        assert view.materialized_root is kept  # the second read spliced nothing
        assert first == _texts(store.query_naive("public", query))

    def test_a_commit_drops_the_arena_and_the_next_read_publishes_it(self):
        store = ViewStore()
        store.put("db", CATALOG)
        store.define_view("public", "db", HIDE_A)
        query = "for $x in part/supplier return $x"
        assert store.query_serialized("public", query) == _texts(
            store.query_naive("public", query)
        )
        view = store.views.get("public")
        old = view.materialized_root
        assert old is not None
        delta = store.commit_delta(
            "db",
            'transform copy $a := doc("db") modify do '
            "rename $a//sname as vendor return $a",
        )
        assert (delta.mats_kept, delta.mats_dropped) == (0, 1), delta
        assert store.stats()["views"]["public"]["materialized"] is False
        assert store.query_serialized("public", query) == _texts(
            store.query_naive("public", query)
        )
        assert store.stats()["views"]["public"]["materialized"] is True
        assert view.materialized_version == delta.new_version == 2
        assert view.materialized_root is not old
        assert _texts(store.query("public", query)) == _texts(
            store.query_naive("public", query)
        )

    def test_a_staged_read_publishes_nothing(self):
        store = ViewStore()
        store.put("db", CATALOG)
        store.define_view("public", "db", HIDE_A)
        store.define_view("partners", "public", ANONYMIZE)
        store.stage(
            "db",
            'transform copy $a := doc("db") modify do delete $a//pname return $a',
        )
        query = "for $x in part return $x"
        for _ in range(3):
            rows = store.query("partners", query, include_staged=True)
            assert _texts(rows) == _texts(
                store.query_naive("partners", query, include_staged=True)
            )
        assert not any(v["materialized"] for v in store.stats()["views"].values())

    def test_a_read_starts_from_the_deepest_published_layer(self, store, monkeypatch):
        import repro.store.store as store_mod

        store.define_view("public", "db", HIDE_A)
        store.define_view("partners", "public", ANONYMIZE)
        query = "for $x in part/supplier return $x"
        store.query("public", query)
        assert store.views.get("public").materialized_root is not None
        assert store.views.get("partners").materialized_root is None
        calls = []
        kernel = store_mod.transform_arena

        def counted(arena, update, nfa):
            calls.append(update.kind)
            return kernel(arena, update, nfa)

        monkeypatch.setattr(store_mod, "transform_arena", counted)
        answer = _texts(store.query("partners", query))
        assert calls == ["rename"]  # public's arena was the start
        assert store.views.get("partners").materialized_root is not None
        assert answer == _texts(store.query_naive("partners", query))


class TestCommitRollback:
    def test_staged_preview_does_not_touch_document(self, stacked):
        stacked.stage(
            "db",
            'transform copy $a := doc("db") modify do '
            "delete $a//price return $a",
        )
        preview = stacked.query(
            "partners", "for $x in part/supplier return $x", include_staged=True
        )
        assert "price" not in "".join(_texts(preview))
        committed = stacked.query("partners", "for $x in part/supplier return $x")
        assert "price" in "".join(_texts(committed))
        assert stacked.documents.get("db").version == 1

    def test_rollback_discards(self, stacked):
        stacked.stage("db", ANONYMIZE)
        assert stacked.rollback("db") == 1
        with pytest.raises(NothingStagedError):
            stacked.rollback("db")
        # A commit with nothing staged is a true no-op: the version
        # does not move and nothing is invalidated.
        doc = stacked.documents.get("db")
        before = doc.version
        query = "for $x in db/part return $x"
        warm = stacked.query_serialized("db", query)
        assert stacked.commit("db") == before
        assert doc.version == before
        delta = stacked.last_delta
        assert delta is not None and delta.entries == 0
        assert delta.old_version == delta.new_version == before
        key = result_key("db", doc.uid, query, stacked.pin_read("db").texts)
        assert stacked.results.get(key).items == tuple(warm)

    def test_commit_is_sequential_over_stages(self, store):
        store.stage(
            "db",
            'transform copy $a := doc("db") modify do '
            "rename $a//price as cost return $a",
        )
        store.stage(
            "db",
            'transform copy $a := doc("db") modify do '
            "delete $a//cost return $a",
        )
        assert store.commit("db") == 2
        assert "cost" not in serialize_arena(store.documents.get("db").arena)
        assert "price" not in serialize_arena(store.documents.get("db").arena)
        assert store.log.committed("db") == 2

    def test_update_operations_reject_views(self, stacked):
        delete_all = (
            'transform copy $a := doc("db") modify do '
            "delete $a//price return $a"
        )
        for operation in (
            lambda: stacked.stage("partners", delete_all),
            lambda: stacked.commit("partners", delete_all),
            lambda: stacked.rollback("partners"),
        ):
            with pytest.raises(StoreError, match="is a view.*document 'db'"):
                operation()

    def test_commit_count_recorded(self, store):
        store.commit(
            "db",
            'transform copy $a := doc("db") modify do '
            "delete $a//price return $a",
        )
        assert store.log.committed("db") == 1

    def test_staged_query_is_cached_under_its_staged_texts(self, stacked):
        """A staged read is cached under its staged texts: it can
        never serve, or be served by, the committed answer."""
        query = "for $x in part/supplier return $x"
        committed = stacked.query_serialized("partners", query)
        assert committed
        drop_suppliers = (
            'transform copy $a := doc("db") modify do '
            "delete $a//supplier return $a"
        )
        stacked.stage("db", drop_suppliers)
        assert stacked.query_serialized("partners", query, include_staged=True) == []
        assert stacked.query_serialized("partners", query, include_staged=True) == []
        # The committed answer is still served, from its own entry.
        assert stacked.query_serialized("partners", query) == committed
        stats = stacked.results.stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (2, 2, 2)
        assert {key[4] for key, _ in stacked.results.items()} == {(), (drop_suppliers,)}
        # A different staging area is a different key, not a stale hit.
        stacked.rollback("db")
        stacked.stage("db", ANONYMIZE)
        assert stacked.query_serialized(
            "partners", query, include_staged=True
        ) == _texts(stacked.query_naive("partners", query, include_staged=True))
        assert stacked.results.stats()["misses"] == 3
        # With nothing staged the same request is the committed read.
        stacked.rollback("db")
        assert stacked.query_serialized(
            "partners", query, include_staged=True
        ) == committed
        assert stacked.results.stats()["hits"] == 3


class TestCommitCost:
    """What a commit does not pay for: queries it already analyzed,
    and views nothing is materialized or cached over."""

    DOC = (
        "<db><people><person id='p0'><name>ann</name></person>"
        "<person id='p1'><name>bob</name></person></people>"
        "<regions><item><name>i0</name></item></regions></db>"
    )

    @staticmethod
    def _t(body):
        return f'transform copy $a := doc("db") modify do {body} return $a'

    def test_a_commit_parses_no_cached_query_text(self):
        # More answers than the compiled cache holds parsed queries (256):
        # each answer carries its query's labels, so the re-key needs no
        # parse to decide it.
        store = ViewStore()
        store.put("db", self.DOC)
        for n in range(300):
            store.query_serialized("db", f"for $x in people/person[@id = 'q{n}'] return $x")
        misses = store.compiled.user_queries.stats()["misses"]
        with mock.patch.object(
            repro.compiled, "parse_user_query", wraps=repro.compiled.parse_user_query
        ) as parse:
            delta = store.commit_delta("db", self._t("insert <x/> into $a/regions"))
        assert parse.call_count == 0
        assert store.compiled.user_queries.stats()["misses"] == misses
        assert delta.results_kept == 300

    def test_views_nobody_reads_cost_a_commit_no_select(self):
        store = ViewStore()
        store.put("db", self.DOC)
        store.define_view("no_names", "db", self._t("delete $a//name"))
        store.define_view("no_people", "db", self._t("delete $a/people"))
        store.define_view("gone", "db", self._t("replace $a/regions/item with <gone/>"))
        insert = self._t("insert <x/> into $a/people/person[@id = 'p1']")
        with mock.patch.object(
            delta_module, "select_indices", wraps=delta_module.select_indices
        ) as select:
            store.commit("db", insert)
            assert select.call_count == 0
            # A view with an answer cached over it pays the swallow
            # test once, and its answer survives on it.
            query = "for $x in people/person return $x"
            store.query_serialized("no_people", query)
            delta = store.commit_delta("db", insert)
        assert select.call_count == 1
        assert delta.results_kept == 1
        assert store.query_serialized("no_people", query) == _texts(
            store.query_naive("no_people", query)
        )


class TestConcurrency:
    def test_parallel_queries_agree(self, stacked):
        query = "for $x in part/supplier return $x"
        expected = _texts(stacked.query_naive("partners", query))
        errors = []
        results = []

        def worker():
            try:
                for _ in range(20):
                    results.append(_texts(stacked.query("partners", query)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == expected for r in results)

    def test_queries_during_commits(self):
        store = ViewStore()
        store.put("db", CATALOG)
        store.define_view("public", "db", HIDE_A)
        query = "for $x in part/supplier return $x"
        errors = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    got = store.query("public", query)
                    assert isinstance(got, list)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        try:
            for index in range(5):
                store.commit(
                    "db",
                    'transform copy $a := doc("db") modify do '
                    f"insert <tick{index}/> into $a/part return $a",
                )
        finally:
            done.set()
            for t in readers:
                t.join()
        assert not errors
        assert store.documents.get("db").version == 6
        final = _texts(store.query("public", query))
        assert final == _texts(store.query_naive("public", query))


class TestStats:
    def test_stats_shape(self, stacked):
        stacked.query_serialized("partners", "for $x in part return $x")
        stats = stacked.stats()
        assert set(stats) == {"documents", "views", "last_commit", "wal"}
        assert stats["documents"]["db"]["version"] == 1
        assert stats["views"]["partners"]["depth"] == 2
        assert stats["views"]["partners"]["document"] == "db"
        assert stats["last_commit"] is None
        assert stats["wal"] == {"attached": False, "seq": 0}
        registry = MetricsRegistry()
        stacked.bind_metrics(registry)
        assert "engine.compiled.plans.misses" in registry.snapshot()
        assert registry.get("store.cache.results.misses") >= 1


class TestOneTransformKernel:
    """The store decides nothing: view layers and staged previews are
    applied by the one arena → arena kernel a commit runs."""

    @pytest.mark.parametrize("package", ["repro.store", "repro.service"])
    def test_store_imports_nothing_from_the_engine(self, package):
        import ast
        import importlib
        import pathlib

        module = importlib.import_module(package)
        for path in pathlib.Path(module.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                assert not any(n.startswith("repro.engine") for n in names), path

    def test_deep_descendant_heavy_stage_previews_like_the_oracle(self):
        """The old twopass regression input: a deep ``//``-heavy staged
        update (a nesting qualifier on a 60-deep chain) previews to the
        oracle's answer."""
        spine = "<b>leaf</b>"
        for _ in range(60):
            spine = f"<a>{spine}</a>"
        store = ViewStore()
        store.put("deep", f"<db>{spine}</db>")
        store.stage(
            "deep",
            'transform copy $a := doc("deep") modify do '
            "rename $a//*[.//b] as seen return $a",
        )
        query = "for $x in //seen return $x"
        rows = store.query("deep", query, include_staged=True)
        assert rows  # the staged rename is visible
        assert _texts(rows) == _texts(
            store.query_naive("deep", query, include_staged=True)
        )

    def test_view_layers_go_through_the_kernel(self, stacked, monkeypatch):
        # A depth-2 stack: both layers are spliced by the kernel, once
        # per version; query_naive stays off it.
        import repro.store.store as store_mod

        calls = []
        kernel = store_mod.transform_arena

        def counted(arena, update, nfa):
            calls.append(update.kind)
            return kernel(arena, update, nfa)

        monkeypatch.setattr(store_mod, "transform_arena", counted)
        stacked.query("partners", "for $x in part/pname return $x")
        assert calls == ["delete", "rename"]
        stacked.query("partners", "for $x in part/supplier return $x")
        stacked.query_naive("partners", "for $x in part/pname return $x")
        assert calls == ["delete", "rename"]

    def test_staged_preview_handles_quoted_string_literals(self):
        """Regression: NFAs are built from the parsed path, never from
        its rendered text — a qualifier literal containing a quote does
        not round-trip through str()."""
        store = ViewStore()
        store.put(
            "db",
            "<db><part><sname>O'Neil</sname><price>5</price></part></db>",
        )
        store.stage(
            "db",
            'transform copy $a := doc("db") modify do '
            'delete $a//part[sname = "O\'Neil"]/price return $a',
        )
        rows = store.query(
            "db", "for $x in part/price return $x", include_staged=True
        )
        assert rows == []  # the staged delete removed the price

    def test_staged_previews_compile_only_the_querys_paths(self, store):
        """A staged entry carries its own automaton: a preview adds the
        query's paths to ``store.compiled`` and nothing else, and the
        commit leaves no staged update's automaton behind."""
        query = "for $x in part/supplier return $x"
        store.query("db", query)
        own = len(store.compiled.selecting)
        assert own >= 1
        for price in (8, 12, 20, 99, 100):
            store.stage(
                "db",
                'transform copy $a := doc("db") modify do '
                f"delete $a//supplier[price = {price}]/sname return $a",
            )
        rows = _texts(store.query("db", query, include_staged=True))
        assert rows == _texts(store.query_naive("db", query, include_staged=True))
        assert not any("<sname>" in row for row in rows)  # every delete applied
        assert len(store.compiled.selecting) == own
        store.commit("db")
        assert len(store.compiled.selecting) == own

    def test_staged_previews_reuse_compiled_automata(self, stacked):
        stacked.stage(
            "db",
            'transform copy $a := doc("db") modify do '
            "rename $a//sname as vendor return $a",
        )
        query = "for $x in part return $x"
        stacked.query("db", query, include_staged=True)
        built = stacked.compiled.selecting.stats()["misses"]
        for _ in range(3):
            stacked.query("db", query, include_staged=True)
        assert stacked.compiled.selecting.stats()["misses"] == built
