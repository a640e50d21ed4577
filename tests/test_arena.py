"""Unit and integration tests for the columnar arena backend: the
builder, the load paths, the serializer fast path, the engine wiring,
the store's zero-copy snapshots and the CLI."""

from unittest import mock

import pytest

from repro.engine.engine import Engine
from repro.engine.executor import run_tree_strategy
from repro.obs import MetricsRegistry
from repro.store.store import ViewStore
from repro.xmark.generator import generate
from repro.xmark.queries import delete_transform, insert_transform
from repro.xmltree.arena import (
    FrozenBuilder,
    FrozenDocument,
    arena_to_events,
    freeze,
    thaw,
)
from repro.xmltree.node import deep_equal
from repro.xmltree.parser import XMLSyntaxError, parse, parse_file, parse_to_arena
from repro.xmltree.sax import events_to_tree, iter_sax_string, tree_to_events
from repro.xmltree import serializer as serializer_module
from repro.xmltree.serializer import serialize, serialize_arena, write_arena_file, write_file

XML = (
    '<db><part id="p1"><pname>kb</pname><price>12</price>tail</part>'
    "<part><pname>mouse</pname><empty/></part><note>x &amp; y</note></db>"
)


class TestBuilder:
    def test_builder_drives_columns(self):
        builder = FrozenBuilder()
        builder.start("a", {"k": "v"})
        builder.text("hi")
        builder.start("b")
        builder.end()
        builder.end()
        arena = builder.finish()
        assert len(arena) == 3
        assert arena.label(0) == "a"
        assert arena.own_text(0) == "hi"
        assert arena.attrs_of(0) == {"k": "v"}
        assert list(arena.child_elements(0)) == [2]
        assert arena.parent_of(2) == 0 and arena.parent_of(1) == 0
        assert arena.parent_of(0) == -1 and arena.end_of(0) == 3
        # relative lanes: how far back the parent is, how long the range
        assert list(arena.up) == [1, 1, 2] and list(arena.size) == [3, 1, 1]

    def test_unbalanced_input_is_rejected(self):
        builder = FrozenBuilder()
        builder.start("a")
        with pytest.raises(ValueError, match="unclosed"):
            builder.finish()

    def test_multiple_roots_are_rejected(self):
        builder = FrozenBuilder()
        builder.start("a")
        builder.end()
        with pytest.raises(ValueError, match="multiple root"):
            builder.start("b")

    def test_text_outside_root_is_rejected(self):
        builder = FrozenBuilder()
        with pytest.raises(ValueError, match="text outside"):
            builder.text("loose")

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FrozenBuilder().finish()


class TestLoadPaths:
    def test_parser_load_path_matches_node_parse(self):
        tree = parse(XML)
        arena = parse_to_arena(XML)
        assert deep_equal(tree, thaw(arena))
        assert arena.sym == freeze(tree).sym

    def test_parser_load_path_keeps_error_behavior(self):
        with pytest.raises(XMLSyntaxError, match="mismatched end tag"):
            parse_to_arena("<a><b></c></a>")
        with pytest.raises(XMLSyntaxError, match="multiple root elements"):
            parse_to_arena("<a/><b/>")

    def test_sax_scanner_load_path(self):
        arena = freeze(events_to_tree(iter_sax_string(XML)))
        assert deep_equal(parse(XML), thaw(arena))
        assert arena.sym == parse_to_arena(XML).sym

    def test_arena_events_replay_identically(self):
        arena = parse_to_arena(XML)
        first = list(arena_to_events(arena))
        second = list(arena_to_events(arena))
        assert first == second
        assert first == list(tree_to_events(parse(XML)))


class TestSerializerFastPath:
    def test_serialize_arena_byte_identical(self):
        tree = parse(XML)
        arena = freeze(tree)
        assert serialize_arena(arena) == serialize(tree)

    def test_serialize_arena_pretty_falls_back(self):
        tree = parse(XML)
        arena = freeze(tree)
        assert serialize_arena(arena, indent="  ") == serialize(tree, indent="  ")

    def test_write_arena_file_matches_write_file(self, tmp_path):
        tree = generate(0.001, 42)
        arena = freeze(tree)
        node_path = tmp_path / "node.xml"
        arena_path = tmp_path / "arena.xml"
        write_file(tree, str(node_path))
        write_arena_file(arena, str(arena_path))
        assert node_path.read_bytes() == arena_path.read_bytes()


class TestEngineWiring:
    def test_transform_run_accepts_arena(self):
        tree = generate(0.001, 42)
        arena = freeze(tree)
        engine = Engine()
        prepared = engine.prepare_transform(str(delete_transform("U4")))
        want = prepared.run(tree)
        got = prepared.run(arena)
        # An arena answers as an arena: the kernel's, not a thawed tree.
        assert isinstance(got, FrozenDocument)
        assert deep_equal(want, thaw(got))

    def test_a_forced_strategy_takes_a_node_tree(self):
        tree = generate(0.001, 42)
        arena = freeze(tree)
        query = insert_transform("U1")
        want = run_tree_strategy("topdown", tree, query)
        prepared = Engine().prepare_transform(str(query))
        with pytest.raises(ValueError, match="repro.thaw it"):
            prepared.run(arena, method="topdown")
        assert deep_equal(want, prepared.run(thaw(arena), method="topdown"))

    def test_run_to_file_takes_the_arena_native_path(self, tmp_path):
        tree = generate(0.001, 42)
        arena = freeze(tree)
        engine = Engine()
        prepared = engine.prepare_transform(str(insert_transform("U9")))
        node_out = tmp_path / "node.xml"
        arena_out = tmp_path / "arena.xml"
        prepared.run_to_file(tree_to_file(tree, tmp_path), node_out)
        prepared.run_to_file(arena, arena_out)
        assert node_out.read_bytes() == arena_out.read_bytes()
        # The columnar path has no strategy to choose — pretty output
        # included, which is the compact output re-parsed and
        # pretty-printed.
        pretty_out = tmp_path / "pretty.xml"
        prepared.run_to_file(arena, pretty_out, pretty=True)
        again = tmp_path / "again.xml"
        write_file(parse_file(str(arena_out)), str(again), indent="  ")
        assert pretty_out.read_bytes() == again.read_bytes()
        assert b"  <" in pretty_out.read_bytes()
        with pytest.raises(ValueError, match="repro.thaw it"):
            prepared.plan_for(arena)

    def test_prepared_query_agrees_across_representations(self):
        tree = generate(0.001, 42)
        arena = freeze(tree)
        engine = Engine()
        prepared = engine.prepare_query(
            "for $x in regions//item[location = 'United States'] return $x"
        )
        want = prepared.run(tree)
        got = prepared.run(arena)
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert deep_equal(a, b)
        refs = prepared.run_refs(arena)
        assert all(isinstance(r, int) for r in refs)
        assert [serialize_arena(arena, r) for r in refs] == [
            serialize(node) for node in want
        ]

    def test_explain_shows_evaluation_and_arena_memory(self):
        tree = generate(0.001, 42)
        arena = freeze(tree)
        engine = Engine()
        prepared_q = engine.prepare_query("for $x in //keyword return $x")
        text = prepared_q.explain(arena)
        assert "scan over the frozen arena" in text
        assert "arena:" in text and "column bytes" in text
        assert "Node tree" in prepared_q.explain(tree)
        prepared_t = engine.prepare_transform(str(delete_transform("U5")))
        text = prepared_t.explain(arena)
        assert "frozen arena" in text
        assert "column bytes" in text


def tree_to_file(tree, tmp_path):
    path = tmp_path / "input.xml"
    write_file(tree, str(path))
    return str(path)


class TestStoreSnapshots:
    def _store(self):
        store = ViewStore()
        store.put("db", generate(0.001, 42))
        return store

    def test_reads_share_one_frozen_snapshot(self):
        store = self._store()
        doc = store.documents.get("db")
        # Admission is eager and columnar: the one arena build happens
        # at put(), before any read, and reads never add another.
        first = doc.arena
        assert doc.pin().arena is first
        queries = [
            "for $x in people/person return $x/name",
            "for $x in //keyword return $x",
            "for $x in regions//item return $x/location",
        ]
        for text in queries:
            store.query("db", text)
            store.query_serialized("db", text)
        assert doc.pin().arena is first, "reads must share one zero-copy snapshot"
        assert doc.splices == 0
        assert store.arena_reads >= len(queries)
        assert doc.arena is first and store.pin("db").arena is first

    def test_query_matches_naive_oracle(self):
        store = self._store()
        text = "for $x in people/person where $x/profile/age > 20 return $x"
        want = store.query_naive("db", text)
        got = store.query("db", text)
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert deep_equal(a, b)

    def test_commit_invalidates_the_snapshot(self):
        store = self._store()
        doc = store.documents.get("db")
        old_arena = doc.arena
        before = store.query("db", "for $x in //keyword return $x")
        store.commit("db", str(delete_transform("U5")))
        after = store.query("db", "for $x in //keyword return $x")
        new_arena = doc.arena
        assert new_arena is not old_arena, "commit must replace the snapshot"
        # A commit splices the next arena and installs it directly.
        assert doc.splices == 1
        assert len(after) < len(before)
        want = store.query_naive("db", "for $x in //keyword return $x")
        assert len(after) == len(want)

    def test_query_serialized_matches_node_serialization(self):
        store = self._store()
        text = "for $x in regions//item[location = 'United States'] return $x"
        via_nodes = [serialize(item) for item in store.query("db", text)]
        via_arena = store.query_serialized("db", text)
        assert via_arena == via_nodes

    def test_staged_previews_bypass_the_snapshot(self):
        store = self._store()
        doc = store.documents.get("db")
        store.query("db", "for $x in //keyword return $x")
        committed_arena = doc.arena
        store.stage("db", str(delete_transform("U5")))
        staged = store.query(
            "db", "for $x in //keyword return $x", include_staged=True
        )
        committed = store.query("db", "for $x in //keyword return $x")
        assert len(staged) < len(committed)
        assert doc.pin().arena is committed_arena and doc.splices == 0, (
            "a staged preview must not replace the committed snapshot"
        )
        serialized = store.query_serialized(
            "db", "for $x in //keyword return $x", include_staged=True
        )
        assert len(serialized) == len(staged)

    def test_drop_then_reload_never_serves_stale_serialized_results(self):
        """A dropped-then-reloaded document restarts at version 1, so
        only the name-based invalidation protects the result caches —
        the serialized keys must match its ``key[0] == name`` predicate."""
        store = ViewStore()
        store.put("db", "<r><a>one</a></r>")
        text = "for $x in a return $x"
        assert store.query_serialized("db", text) == ["<a>one</a>"]
        assert [serialize(i) for i in store.query("db", text)] == ["<a>one</a>"]
        store.drop("db")
        store.put("db", "<r><a>two</a></r>")
        assert store.query_serialized("db", text) == ["<a>two</a>"]
        assert [serialize(i) for i in store.query("db", text)] == ["<a>two</a>"]

    def test_view_targets_keep_the_node_path(self):
        store = self._store()
        store.define_view("pub", "db", str(delete_transform("U5")))
        result = store.query("pub", "for $x in //keyword return $x")
        naive = store.query_naive("pub", "for $x in //keyword return $x")
        assert len(result) == len(naive)
        serialized = store.query_serialized("pub", "for $x in //keyword return $x")
        assert serialized == [serialize(item) for item in result]

    def test_stats_report_arena_memory(self):
        store = self._store()
        store.query("db", "for $x in //keyword return $x")
        registry = MetricsRegistry()
        store.bind_metrics(registry)
        info = store.stats()["documents"]["db"]
        assert "arena_builds" not in info
        assert info["arena_bytes"] > 0
        assert info["arena_column_bytes"] > 0
        assert registry.get("store.arena.reads") == 1


class TestSerializedSubtrees:
    """An answer's item texts are the arena's per-version derived data:
    written once per node, interned, shared by every answer."""

    def _counting(self):
        written: list = []
        real = serializer_module.write_arena_range

        def counting(arena, start, limit, write):
            written.append(start)
            return real(arena, start, limit, write)

        return written, mock.patch.object(serializer_module, "write_arena_range", counting)

    def test_one_node_is_serialized_once_per_version(self):
        store = ViewStore()
        store.put("db", generate(0.001, 42))
        written, counting = self._counting()
        with counting:
            every = store.query_serialized("db", "for $x in people/person return $x")
            some = store.query_serialized(
                "db", "for $x in people/person[profile/age > 20] return $x"
            )
        assert some and len(some) < len(every)
        assert len(written) == len(set(written)) == len(every)
        # Two answers that select one node hold one string.
        held = {id(text) for text in every}
        assert all(id(text) in held for text in some)
        arena = store.pin("db").arena
        assert arena.stats()["texts_held"] == len(every)
        assert arena.stats()["texts_held_chars"] == sum(map(len, every))

    def test_the_text_is_the_subtrees_serialization(self):
        arena = parse_to_arena(XML)
        for i in arena.iter_elements():
            text = arena.serialized(i)
            assert text == serialize_arena(arena, i) == serialize(thaw(arena, i))
            assert arena.serialized(i) is text


class TestCLI:
    def _write_doc(self, tmp_path):
        path = tmp_path / "doc.xml"
        write_file(generate(0.001, 42), str(path))
        return str(path)

    def test_query_command_prints_results_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        doc = self._write_doc(tmp_path)
        code = main(
            ["query", "-q", "for $x in //keyword return $x", "-i", doc, "--stats"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "<keyword>" in captured.out
        assert "route: columns" in captured.err
        assert "peak memory:" in captured.err

    def test_store_stat_reports_arena(self, tmp_path, capsys):
        from repro.cli import main

        doc = self._write_doc(tmp_path)
        state = str(tmp_path / "state")
        assert main(["store", "load", "-n", "db", "-i", doc, "--state", state]) == 0
        capsys.readouterr()
        assert main(["store", "stat", "--state", state]) == 0
        captured = capsys.readouterr()
        assert "arena snapshot:" in captured.out
        assert "column bytes" in captured.out


class TestStreamingReplaySource:
    def test_arena_is_a_replayable_source(self):
        from repro.streaming.select import stream_select
        from repro.xpath.parser import parse_xpath

        tree = generate(0.001, 42)
        arena = freeze(tree)
        path = parse_xpath("regions//item[location = 'United States']")
        via_arena = [serialize(n) for n in stream_select(arena, path)]
        via_events = [
            serialize(n) for n in stream_select(lambda: tree_to_events(tree), path)
        ]
        assert via_arena == via_events

    def test_one_shot_sources_still_raise(self):
        from repro.streaming.select import stream_select
        from repro.xpath.parser import parse_xpath

        tree = generate(0.001, 42)
        events = tree_to_events(tree)
        with pytest.raises(ValueError, match="two-pass|fresh"):
            list(stream_select(lambda: events, parse_xpath("//keyword")))


class TestMemoryFootprint:
    def test_arena_resident_bytes_beat_the_node_tree(self, tmp_path):
        """The smoke-sized memory-regression guard (the full 3x bar
        lives in benchmarks/bench_arena.py): loading a document as an
        arena must allocate no more than loading it as a Node tree."""
        import tracemalloc

        from repro.xmltree.parser import parse_file, parse_file_to_arena

        path = tmp_path / "doc.xml"
        write_file(generate(0.01, 42), str(path))

        tracemalloc.start()
        tree = parse_file(str(path))
        node_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        arena = parse_file_to_arena(str(path))
        arena_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert deep_equal(tree, thaw(arena))
        assert arena_bytes <= node_bytes, (
            f"arena resident bytes regressed: {arena_bytes} > {node_bytes}"
        )
