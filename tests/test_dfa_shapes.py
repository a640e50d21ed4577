"""Lazy-DFA tables shared by automaton shape.

A ``CompiledCache`` binds every automaton it builds to the one
``DfaTables`` of its shape (the states with each qualifier reduced to
whether there is one), so query texts that differ only in their
literals step through the same warm tables while each automaton keeps
its own qualifiers.  These tests hold both halves: the tables are
shared, and every answer still equals the oracle — interleaved on one
arena, through every tree strategy, and from several threads at once.
"""

import sys
import threading

import pytest

from repro import Engine, serialize
from repro.automata.arena_run import select_indices
from repro.compiled import CompiledCache
from repro.obs import Profile, profiled
from repro.store import ViewStore
from repro.transform.naive import transform_naive
from repro.transform.topdown import transform_topdown
from repro.xmark.generator import generate
from repro.xmltree.arena import freeze, thaw
from repro.xpath.evaluator import eval_qualifier
from repro.xpath.parser import parse_xpath
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_user_query


@pytest.fixture(scope="module")
def xmark():
    return generate(0.002, seed=7)


def _reads(count):
    """*count* distinct read texts of one selecting shape,
    ``people/person[q]``: point lookups and range predicates."""
    texts = []
    for k in range(count):
        if k % 2:
            texts.append(f"for $x in people/person[@id = 'person{k // 2}'] return $x")
        else:
            texts.append(
                f"for $x in people/person[profile/age > {18 + k % 50}.5] return $x"
            )
    return texts


def _transform(body):
    return f'transform copy $a := doc("x") modify do {body} return $a'


class TestTablesAreShared:
    def test_literals_do_not_split_the_tables(self):
        cache = CompiledCache()
        paths = [
            "people/person[@id = 'person7']",
            "people/person[@id = 'person9']",
            "people/person[profile/age > 61.5]",
        ]
        automata = [cache.selecting_nfa_for(parse_xpath(text)) for text in paths]
        first = automata[0].dfa()
        for other in automata[1:]:
            assert other is not automata[0]
            assert other.dfa().tables is first.tables
            assert other.dfa() is not first  # each keeps its own qualifiers
        assert cache.shapes.stats()["misses"] == 1
        assert cache.shapes.stats()["hits"] == 2
        assert cache.dfa_stats()["dfas"] == 1

    def test_another_shape_gets_other_tables(self):
        cache = CompiledCache()
        child = cache.selecting_nfa_for(parse_xpath("people/person[@id = 'p']"))
        plain = cache.selecting_nfa_for(parse_xpath("people/person"))
        deep = cache.selecting_nfa_for(parse_xpath("people//person[@id = 'p']"))
        tables = {id(nfa.dfa().tables) for nfa in (child, plain, deep)}
        assert len(tables) == 3 == cache.dfa_stats()["dfas"]

    def test_filtering_automata_share_by_shape_too(self):
        cache = CompiledCache()
        a = cache.filtering_nfa_for(parse_xpath("people/person[profile/age > 30]"))
        b = cache.filtering_nfa_for(parse_xpath("people/person[profile/age > 40]"))
        c = cache.filtering_nfa_for(parse_xpath("people/person[@id = 'person1']"))
        assert a.dfa().tables is b.dfa().tables
        assert c.dfa().tables is not a.dfa().tables  # no profile/age branch

    def test_an_automaton_outside_a_cache_owns_its_tables(self):
        from repro.automata.selecting import build_selecting_nfa

        path = parse_xpath("people/person[@id = 'person7']")
        assert build_selecting_nfa(path).dfa().tables is not (
            build_selecting_nfa(path).dfa().tables
        )

    def test_a_shape_warm_scan_grows_no_table(self, xmark):
        arena = freeze(xmark)
        cache = CompiledCache()
        warm = cache.selecting_nfa_for(parse_xpath("people/person[@id = 'person3']"))
        select_indices(warm, arena)
        fresh = cache.selecting_nfa_for(parse_xpath("people/person[@id = 'person4']"))
        profile = Profile()
        with profiled(profile):
            found = select_indices(fresh, arena)
        assert len(found) == 1
        assert (profile.table_sets_added, profile.table_moves_added) == (0, 0)

    def test_arena_reads_compile_no_node_closure(self, xmark):
        arena = freeze(xmark)
        cache = CompiledCache()
        nfa = cache.selecting_nfa_for(parse_xpath("people/person[@id = 'person3']"))
        select_indices(nfa, arena)
        assert nfa.dfa()._checks is None


class TestSharedTablesAnswerAsTheOracle:
    def test_interleaved_reads_on_one_arena(self, xmark):
        store = ViewStore()
        store.put("x", xmark)
        for text in _reads(40):
            want = [serialize(item) for item in store.query_naive("x", text)]
            assert store.query_serialized("x", text) == want, text
        assert store.compiled.dfa_stats()["dfas"] == 1

    @pytest.mark.parametrize("method", ["topdown", "twopass", "sax"])
    def test_transforms_through_every_tree_strategy(self, xmark, method):
        engine = Engine()
        bodies = [
            "delete $a/people/person[@id = 'person3']",
            "delete $a/people/person[profile/age > 40.5]",
            "rename $a/people/person[@id = 'person5'] as vip",
            "delete $a/people/person[profile/age > 25.5]",
            "insert <seen/> into $a/people/person[@id = 'person8']",
        ]
        prepared = [engine.prepare_transform(_transform(body)) for body in bodies]
        assert len({id(p.selecting.dfa().tables) for p in prepared}) == 1
        for p in prepared + prepared:  # the second round runs warm
            want = serialize(transform_naive(xmark, p.query))
            assert serialize(p.run(xmark, method=method)) == want, (method, p.query)

    def test_topdown_with_a_plugged_checkp(self, xmark):
        """The non-native ``checkp`` path reads each view's qualifier
        ASTs over the shared moves' ``cond_sids``."""
        cache = CompiledCache()
        queries = [
            cache.transform(_transform(f"delete $a/people/person[@id = 'person{k}']"))
            for k in range(6)
        ]

        def checkp(qual, node):
            return eval_qualifier(node, qual)

        for query in queries:
            nfa = cache.selecting_nfa_for(query.path)
            got = transform_topdown(xmark, query, checkp=checkp, nfa=nfa)
            assert serialize(got) == serialize(transform_naive(xmark, query))
        assert cache.dfa_stats()["dfas"] == 1

    def test_sax_filtering_shapes_go_through_the_tracked_moves(self, xmark):
        engine = Engine()
        prepared = [
            engine.prepare_transform(
                _transform(f"delete $a/people/person[profile/age > {age}.5]")
            )
            for age in (20, 30, 40, 50)
        ]
        assert len({id(p.filtering.dfa().tables) for p in prepared}) == 1
        for p in prepared:
            want = serialize(transform_naive(xmark, p.query))
            assert serialize(p.run(xmark, method="sax")) == want
        tables = prepared[0].selecting.dfa().tables
        assert tables.stats()["tracked_moves"] > 0

    def test_threads_over_one_shape(self, xmark):
        store = ViewStore()
        store.put("x", xmark)
        root = thaw(store.documents.get("x").pin().arena)
        threads_n, per_thread = 4, 200
        lanes = [
            _reads(threads_n * per_thread)[lane::threads_n] for lane in range(threads_n)
        ]
        want = {
            text: [serialize(item) for item in evaluate_query(root, parse_user_query(text))]
            for lane in lanes
            for text in lane
        }
        failures: list = []

        def read(texts):
            try:
                for text in texts:
                    if store.query_serialized("x", text) != want[text]:
                        failures.append(text)
            except Exception as exc:  # surfaced below, on the test's thread
                failures.append(repr(exc))

        threads = [threading.Thread(target=read, args=(lane,)) for lane in lanes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the cold table growth finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        shapes = store.compiled.shapes.values()
        assert 1 <= len(shapes) <= threads_n  # one, bar racing cold builds
        for tables in shapes:
            # A lost interning update would leave a set id without its
            # row, or two ids for one set.
            count = len(tables._sets)
            assert sorted(tables._ids.values()) == list(range(count))
            assert count == len(tables.final_flags) == len(tables.set_jump) == len(tables._moves)
