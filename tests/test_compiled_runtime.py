"""The compiled runtime's plumbing: symbol interning, the path-keyed
NFA caches, cache-counter observability, and the two-pass
replayable-source contract."""

import pytest

from repro import Engine, cli, parse
from repro.lru import LRUCache
from repro.streaming.select import stream_select
from repro.transform.query import parse_transform_query
from repro.transform.sax_twopass import transform_sax_events
from repro.xmltree.sax import iter_sax_string, tree_to_events
from repro.xmltree.symbols import SymbolTable, global_symbols
from repro.xpath.parser import parse_xpath

DOC = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price></supplier>"
    "</part><part><pname>mouse</pname></part></db>"
)

DELETE = (
    'transform copy $a := doc("db") modify do delete $a//price return $a'
)


class TestSymbolTable:
    def test_interning_is_dense_and_stable(self):
        table = SymbolTable()
        a = table.intern("part")
        b = table.intern("pname")
        assert (a, b) == (0, 1)
        assert table.intern("part") == a
        assert table.id_of("part") == a
        assert table.id_of("never-seen") is None
        assert len(table) == 2
        assert "part" in table

    def test_canonical_shares_one_string_object(self):
        table = SymbolTable()
        first = table.canonical("supplier")
        second = table.canonical("suppli" + "er")  # distinct object going in
        assert first is second

    def test_parser_populates_the_global_table(self):
        tree = parse("<totally-unique-label-xyz/>")
        table = global_symbols()
        assert table.id_of("totally-unique-label-xyz") is not None
        assert tree.label is table.canonical("totally-unique-label-xyz")

    def test_sax_scanner_populates_the_global_table(self):
        list(iter_sax_string("<sax-unique-label-abc><x/></sax-unique-label-abc>"))
        assert global_symbols().id_of("sax-unique-label-abc") is not None


#: DELETE's path under another transform text.
RENAME = DELETE.replace("delete $a//price", "rename $a//price as cost")


class TestNFACaches:
    def test_one_automaton_pair_per_path_across_texts(self):
        engine = Engine()
        deleting = engine.prepare_transform(DELETE)
        renaming = engine.prepare_transform(RENAME)
        assert deleting is not renaming
        assert renaming.selecting is deleting.selecting
        assert renaming.filtering is deleting.filtering
        path = deleting.query.path
        assert deleting.selecting is engine.cache.selecting_nfa_for(path)
        assert deleting.filtering is engine.cache.filtering_nfa_for(path)
        stats = engine.cache.stats()
        for name in ("selecting_nfas", "filtering_nfas"):
            assert stats[name]["size"] == 1
            assert stats[name]["misses"] == 1 and stats[name]["hits"] >= 1

    def test_dfa_tables_are_stable_across_runs_and_preparations(self):
        engine = Engine()
        doc = parse(DOC)
        prepared = engine.prepare_transform(DELETE)
        prepared.run(doc, method="topdown")
        before = prepared.selecting.dfa().stats()
        assert before["moves"] > 0
        engine.prepare_transform(DELETE).run(doc, method="topdown")
        engine.prepare_transform(RENAME).run(doc, method="topdown")
        assert prepared.selecting.dfa().stats() == before

    def test_the_tables_probe_sums_every_built_dfa(self):
        """``dfa_stats`` sums the shape cache: one table set per
        automaton shape, bound when the automaton is compiled."""
        engine = Engine()
        prepared = engine.prepare_transform(DELETE)
        shapes = engine.cache.shapes.values()
        # //price carries no qualifier: its filtering NFA has the
        # selecting NFA's shape, so the two share one table set.
        assert len(shapes) == engine.cache.dfa_stats()["dfas"] == 1
        assert prepared.selecting.dfa().tables is prepared.filtering.dfa().tables
        assert prepared.selecting.dfa().tables is shapes[0]
        assert engine.cache.dfa_stats()["moves"] == 0  # nothing stepped yet
        prepared.run(parse(DOC), method="topdown")
        tables = [t.stats() for t in engine.cache.shapes.values()]
        totals = engine.cache.dfa_stats()
        assert totals["dfas"] == len(tables) == 1
        assert totals["sets"] == sum(t["sets"] for t in tables) > 0
        assert totals["moves"] == sum(t["moves"] for t in tables) > 0

    def test_the_nfa_caches_are_surfaced_in_stats(self):
        engine = Engine()
        engine.prepare_transform(DELETE)
        stats = engine.cache.stats()
        assert sorted(stats) == [
            "filtering_nfas", "plans", "selecting_nfas", "shapes", "transforms",
            "user_queries",
        ]
        assert stats["selecting_nfas"]["size"] == stats["filtering_nfas"]["size"] == 1


class TestCounterObservability:
    def test_lru_counts_hits_misses_evictions(self):
        cache = LRUCache(2)
        assert cache.get("a") is None          # miss
        cache.put("a", 1)
        assert cache.get("a") == 1             # hit
        cache.put("b", 2)
        cache.put("c", 3)                      # evicts "a"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1

    def test_prepared_explain_surfaces_dfa_and_cache_counters(self):
        engine = Engine()
        doc = parse(DOC)
        prepared = engine.prepare_transform(DELETE)
        prepared.run(doc, method="topdown")
        explained = prepared.explain(doc)
        assert "selecting DFA:" in explained
        assert "interned state sets" in explained
        assert "memoized transitions" in explained
        assert "engine caches [hits/misses/evictions]:" in explained
        assert "selecting_nfas" in explained

    def test_store_stat_cli_prints_cache_counters(self, tmp_path, capsys):
        doc_path = tmp_path / "db.xml"
        doc_path.write_text(DOC)
        state = str(tmp_path / "state")
        assert cli.main(
            ["store", "load", "-n", "db", "-i", str(doc_path), "--state", state]
        ) == 0
        capsys.readouterr()
        assert cli.main(["store", "stat", "--state", state]) == 0
        out = capsys.readouterr().out
        assert "caches [hits/misses/evictions]:" in out
        assert "results" in out
        assert "selecting_nfas" in out


class TestReplayableSourceContract:
    def test_stream_select_rejects_a_one_shot_iterator(self):
        tree = parse(DOC)
        events = tree_to_events(tree)  # a single generator, not a factory
        with pytest.raises(ValueError, match="two-pass"):
            list(stream_select(lambda: events, parse_xpath("//price")))

    def test_stream_select_accepts_a_real_factory(self):
        tree = parse(DOC)
        matches = list(
            stream_select(lambda: tree_to_events(tree), parse_xpath("//price"))
        )
        assert len(matches) == 1
        assert matches[0].label == "price"

    def test_transform_sax_events_rejects_a_one_shot_iterator(self):
        tree = parse(DOC)
        events = tree_to_events(tree)
        query = parse_transform_query(DELETE)
        with pytest.raises(ValueError, match="twice"):
            list(transform_sax_events(lambda: events, query))

    def test_stream_select_detects_shared_iterator_behind_wrappers(self):
        """A source returning fresh wrapper objects around one shared
        iterator defeats the identity check; the empty-second-pass
        guard must still catch it — including on qualifier-free paths
        where ``Ld`` is empty."""
        import itertools

        tree = parse(DOC)
        shared = tree_to_events(tree)
        with pytest.raises(ValueError, match="second pass"):
            list(stream_select(
                lambda: itertools.chain(shared), parse_xpath("//price")
            ))

    def test_transform_sax_events_detects_shared_iterator_behind_wrappers(self):
        import itertools

        tree = parse(DOC)
        shared = tree_to_events(tree)
        query = parse_transform_query(DELETE)
        with pytest.raises(ValueError, match="second pass"):
            list(transform_sax_events(lambda: itertools.chain(shared), query))


class TestConcurrentDFA:
    def test_one_shared_automaton_serves_many_threads(self):
        """The lazy tables grow under a lock: hammering one automaton
        from many threads over documents with disjoint vocabularies
        (every thread interns new sets/moves) must agree with the
        single-threaded answers."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.automata.selecting import build_selecting_nfa
        from repro.xpath.evaluator import evaluate

        path = parse_xpath("//part[pname = 'kb']//part")
        nfa = build_selecting_nfa(path)
        docs = []
        for i in range(16):
            docs.append(parse(
                f"<db><u{i}><part><pname>kb</pname>"
                f"<w{i}><part><pname>x</pname></part></w{i}>"
                f"</part></u{i}></db>"
            ))
        expected = [evaluate(doc, path) for doc in docs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(5):
                results = list(pool.map(nfa.run_select, docs))
                assert results == expected
