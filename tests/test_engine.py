"""The prepared-statement Engine: preparation caching, strategy
round-trips, planning, chaining, composition, and the engine-backed
CLI surface."""

import ast
import glob
import io
import os
import sys
import threading

import pytest

import repro
from repro import (
    Engine,
    apply_update,
    deep_equal,
    freeze,
    parse,
    parse_file,
    parse_transform_query,
    parse_update,
    prepare_transform,
    serialize,
    thaw,
    transform_naive,
    write_file,
)
from repro.obs import Profile, profiled
from repro.cli import main as cli_main
from repro.engine import (
    DEEP_MEAN_DEPTH,
    TREE_STRATEGIES,
    analyze_transform,
    choose_strategy,
    mean_depth,
)
from repro.engine.planner import file_streams
from repro.xmark.generator import deep_chain, generate
from repro.xmark.queries import (
    QUERY_IDS,
    composition_pairs,
    delete_transform,
    insert_transform,
)
from repro.xmltree.node import Element, Text

DOC = (
    "<db>"
    "<part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price><country>US</country></supplier>"
    "<supplier><sname>Dell</sname><price>20</price><country>A</country></supplier>"
    "</part>"
    "<part><pname>mouse</pname>"
    "<supplier><sname>HP</sname><price>8</price><country>A</country></supplier>"
    "</part>"
    "</db>"
)

DELETE = 'transform copy $a := doc("db") modify do delete $a//price return $a'
RENAME = 'transform copy $a := doc("db") modify do rename $a//sname as vendor return $a'
INSERT = (
    'transform copy $a := doc("db") modify do '
    "insert <flag/> into $a/part[pname = 'kb'] return $a"
)
QUAL_DOS = (
    'transform copy $a := doc("db") modify do '
    "delete $a//part[.//country = 'A']/pname return $a"
)


@pytest.fixture()
def doc():
    return parse(DOC)


@pytest.fixture()
def engine():
    return Engine()


def _written(prepared, src, tmp_path, method="auto", pretty=False):
    """The bytes ``run_to_file`` writes for *src*."""
    out = tmp_path / f"out-{method}-{pretty}.xml"
    prepared.run_to_file(str(src), str(out), method=method, pretty=pretty)
    return out.read_bytes()


def _profiled(prepared, doc_or_path, method="auto"):
    """Run under an execution profile: the result, and the profile
    (its ``strategy`` is what the run executed)."""
    with profiled(Profile()) as profile:
        result = prepared.run(doc_or_path, method=method)
    return result, profile


@pytest.fixture()
def executed(monkeypatch):
    """The tree strategies runs executed, in order (a file streamed or
    read into columns runs none)."""
    import repro.engine.prepared as prepared_module

    names = []
    run = prepared_module.run_tree_strategy

    def recording(strategy, *args, **kwargs):
        names.append(strategy)
        return run(strategy, *args, **kwargs)

    monkeypatch.setattr(prepared_module, "run_tree_strategy", recording)
    return names


@pytest.fixture()
def stream_everything(monkeypatch):
    """Make every file 'large': a file's route compares its size with
    the module constant, so the streaming tests lower it instead of
    writing 8 MiB fixtures."""
    monkeypatch.setattr("repro.engine.planner.STREAM_THRESHOLD_BYTES", 1)


class TestPreparation:
    def test_prepare_builds_from_the_cache_entries(self, engine):
        """A prepared object is a fresh holder of the cache's entries:
        preparing a text twice hands back the very same parse and
        automata."""
        first, second = engine.prepare_transform(DELETE), engine.prepare_transform(DELETE)
        for name in ("query", "selecting", "filtering"):
            assert getattr(first, name) is getattr(second, name), name
        assert first.cache is second.cache is engine.cache
        text = "for $x in part return $x"
        assert engine.prepare_query(text).query is engine.prepare_query(text).query

    def test_preparing_n_texts_twice_misses_n_times(self, engine):
        texts = [DELETE, RENAME, INSERT, QUAL_DOS]
        for _ in range(2):
            for text in texts:
                engine.prepare_transform(text)
        stats = engine.cache.transforms.stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (4, 4, 4)

    def test_prepare_parses_exactly_once(self, engine):
        for _ in range(5):
            engine.prepare_transform(DELETE)
        assert engine.cache.transforms.stats()["misses"] == 1

    def test_prepared_accepts_parsed_and_prepared_inputs(self, engine):
        prepared = engine.prepare_transform(DELETE)
        assert engine.prepare_transform(prepared) is prepared
        from_query = engine.prepare_transform(parse_transform_query(DELETE))
        assert from_query.query.update.kind == "delete"

    def test_parsed_queries_with_lossy_rendering_never_share_prepared(self, engine):
        """Regression: str(query) renders float literals with %g, so
        1.0000001 and 1 render identically — parsed-query inputs must
        not be memoized under their rendered text."""
        doc = parse("<db><part><price>1</price></part></db>")
        q_loose = parse_transform_query(
            'transform copy $a := doc("db") modify do '
            "delete $a//part[price = 1.0000001]/price return $a"
        )
        q_exact = parse_transform_query(
            'transform copy $a := doc("db") modify do '
            "delete $a//part[price = 1]/price return $a"
        )
        p_loose = engine.prepare_transform(q_loose)
        p_exact = engine.prepare_transform(q_exact)
        assert "price" in serialize(p_loose.run(doc))   # no match: kept
        assert "price" not in serialize(p_exact.run(doc))  # match: deleted

    def test_automata_shared_across_prepared_texts(self, engine):
        # Two texts with the same embedded path share the compiled NFA.
        engine.prepare_transform(DELETE)
        engine.prepare_transform(
            'transform copy $a := doc("other") modify do delete $a//price return $a'
        )
        assert engine.cache.selecting.stats()["misses"] == 1


class TestRoundTrip:
    """`Engine.prepare_*` round-trips all five strategies with
    identical results (the acceptance criterion)."""

    @pytest.mark.parametrize("text", [DELETE, RENAME, INSERT, QUAL_DOS])
    def test_all_strategies_agree_with_naive(self, engine, doc, text):
        prepared = engine.prepare_transform(text)
        oracle = transform_naive(doc, prepared.query)
        for method in TREE_STRATEGIES + ("auto",):
            result = prepared.run(doc, method=method)
            assert deep_equal(result, oracle), method

    def test_source_document_is_never_touched(self, engine, doc):
        before = serialize(doc)
        engine.prepare_transform(DELETE).run(doc)
        assert serialize(doc) == before

    def test_unknown_method_is_rejected(self, engine, doc):
        with pytest.raises(ValueError, match="unknown method"):
            engine.prepare_transform(DELETE).run(doc, method="galax")

    def test_one_prepared_transform_runs_on_many_inputs(self, engine, doc):
        prepared = engine.prepare_transform(DELETE)
        other = parse("<db><part><price>1</price></part></db>")
        for tree in (doc, other, doc):
            assert deep_equal(prepared.run(tree), transform_naive(tree, prepared.query))

    def test_run_parses_an_oversized_file_beside_a_resident_tree(
        self, engine, tmp_path, monkeypatch, executed
    ):
        """``run`` returns a tree, so it parses an oversized file and
        plans on it like any tree; ``run_to_file`` still streams it."""
        monkeypatch.setattr("repro.engine.planner.STREAM_THRESHOLD_BYTES", 200)
        big = parse("<db>" + "<part><price>2</price></part>" * 20 + "</db>")
        path = tmp_path / "big.xml"
        write_file(big, str(path))
        prepared = engine.prepare_transform(DELETE)
        small = parse("<db><part><price>1</price></part></db>")
        results = [prepared.run(item) for item in (small, str(path))]
        assert deep_equal(results[1], transform_naive(big, prepared.query))
        assert executed == ["topdown", "topdown"]
        out = tmp_path / "out.xml"
        prepared.run_to_file(str(path), str(out))
        assert executed == ["topdown", "topdown"]  # streamed: no tree strategy
        assert deep_equal(parse_file(str(out)), results[1])

    @pytest.mark.parametrize("deep_first", [True, False])
    def test_run_chooses_per_input(self, engine, deep_first, executed):
        """Each run plans for its own input, in either order: a shallow
        tree does not make the next, deep one walk natively.  Asserted
        by count, not by timing."""
        prepared = engine.prepare_transform(NESTING % "//*[.//b]")
        batch = [deep_chain(300), deep_chain(3)]
        if not deep_first:
            batch.reverse()
        results = [prepared.run(tree) for tree in batch]
        assert executed == [prepared.plan_for(doc).strategy for doc in batch]
        assert sorted(executed) == ["topdown", "twopass"]
        for doc, result in zip(batch, results):
            assert deep_equal(result, transform_naive(doc, prepared.query))

    def test_resident_tree_forced_to_sax_runs_over_synthesized_events(
        self, engine, doc
    ):
        """There is no file to stream: a resident tree runs sax over
        synthesized events, as run_to_file always did."""
        prepared = engine.prepare_transform(QUAL_DOS)
        result = prepared.run(doc, method="sax")
        assert deep_equal(result, transform_naive(doc, prepared.query))

    def test_stream_is_not_a_second_name_for_sax(self, engine, doc, tmp_path):
        prepared = engine.prepare_transform(QUAL_DOS)
        with pytest.raises(ValueError, match="unknown method 'stream'"):
            prepared.run(doc, method="stream")
        src = tmp_path / "in.xml"
        src.write_text(serialize(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown method 'stream'"):
            prepared.run_to_file(str(src), str(tmp_path / "out.xml"), method="stream")

    @pytest.mark.parametrize("method", TREE_STRATEGIES)
    def test_a_forced_method_on_an_arena_is_a_value_error(
        self, engine, doc, method, tmp_path
    ):
        """An arena has no strategy to choose.  (Regression kept from
        the thaw days: a forced streaming method once handed the arena's repr
        to the file reader — never a FileNotFoundError.)"""
        prepared = engine.prepare_transform(QUAL_DOS)
        arena = freeze(doc)
        with pytest.raises(ValueError, match="repro.thaw it"):
            prepared.run(arena, method=method)
        with pytest.raises(ValueError, match="repro.thaw it"):
            prepared.run_to_file(arena, tmp_path / "out.xml", method=method)
        with pytest.raises(ValueError, match="repro.thaw it"):
            prepared.then(DELETE).run(arena, method=method)
        # ...and so no plan to ask for: nothing would execute it.
        with pytest.raises(ValueError, match="repro.thaw it"):
            prepared.plan_for(arena)
        assert deep_equal(
            prepared.run(thaw(arena), method=method),
            transform_naive(doc, prepared.query),
        )

    def test_unknown_method_error_lists_the_valid_names(self, engine, doc):
        with pytest.raises(ValueError) as caught:
            engine.prepare_transform(DELETE).run(freeze(doc), method="galax")
        for name in TREE_STRATEGIES + ("auto",):
            assert name in str(caught.value)


NESTING = 'transform copy $a := doc("d") modify do rename $a%s as seen return $a'


class TestStrategyRule:
    def test_strategy_names_derive_from_the_strategy_table(self):
        """One table (repro.transform.STRATEGIES) feeds the engine's
        strategy names, the Fig-12 legend and the CLI's --method."""
        from repro.cli import TREE_METHODS
        from repro.engine import PAPER_NAMES, TREE_STRATEGIES
        from repro.transform import STRATEGIES

        assert TREE_STRATEGIES == tuple(STRATEGIES) == tuple(PAPER_NAMES)
        legend = [PAPER_NAMES[name] for name in TREE_STRATEGIES]
        assert legend == [paper for paper, _ in STRATEGIES.values()]
        assert sorted(legend) == sorted(
            ["GalaXUpdate", "NAIVE", "TD-BU", "GENTOP", "twoPassSAX"]
        )
        assert set(TREE_METHODS) | {"sax"} == set(TREE_STRATEGIES)

    def test_explain_names_a_real_strategy(self, engine, doc):
        for text in (DELETE, QUAL_DOS):
            prepared = engine.prepare_transform(text)
            plan = prepared.plan_for(doc)
            assert plan.strategy in TREE_STRATEGIES
            explained = prepared.explain(doc)
            assert f"strategy: {plan.strategy} ({plan.paper_name})" in explained
            assert "because:" in explained
            assert "shape nests:" in explained

    def test_no_qualifiers_prefers_single_pass(self, engine, doc):
        assert engine.prepare_transform(DELETE).plan_for(doc).strategy == "topdown"

    def test_deep_descendant_qualifier_prefers_twopass(self, engine):
        root = deep_chain(200)
        prepared = engine.prepare_transform(NESTING % "//*[.//b]")
        assert prepared.plan_for(root).strategy == "twopass"
        assert deep_equal(prepared.run(root), transform_naive(root, prepared.query))

    def test_stacked_descendant_qualifiers_on_deep_documents(self, engine):
        """Regression: stacking descendant qualifiers on a deep
        document must never make a baseline the 'cheap' choice."""
        plan = engine.prepare_transform(
            NESTING % "//*[.//b][.//a][.//c]"
        ).plan_for(deep_chain(200, fanout=1))
        assert plan.strategy == "twopass"

    @pytest.mark.parametrize("depth", [5, 20, 50, 100, 200, 400])
    @pytest.mark.parametrize("fanout", [0, 3])
    @pytest.mark.parametrize(
        "path, nests",
        [
            ("//*[.//b]", True),
            ("//a[.//b][.//c]", True),
            ("//a[b]", False),       # child-only qualifier: no subtree walk
            ("/r/a[.//b]", False),   # no // gap reaches a: candidates disjoint
        ],
    )
    def test_twopass_exactly_when_shape_nests_and_document_is_deep(
        self, engine, tmp_path, depth, fanout, path, nests
    ):
        """The rule where the cost model was wrong (depth-50 and -100
        ``//a[.//b][.//c]`` took topdown) and where it was right."""
        prepared = engine.prepare_transform(NESTING % path)
        assert prepared.features.nests == nests
        doc = deep_chain(depth, fanout)
        deep = mean_depth(doc) > DEEP_MEAN_DEPTH
        expected = "twopass" if nests and deep else "topdown"
        plan = prepared.plan_for(doc)
        assert plan.strategy == expected
        assert ("mean_depth" in plan.facts) == nests  # measured only if needed
        # Element and file-path forms of one document agree: run(path)
        # plans on the tree it parses.
        file_path = tmp_path / "chain.xml"
        write_file(doc, str(file_path))
        assert _profiled(prepared, str(file_path))[1].strategy == expected
        assert deep_equal(prepared.run(doc), transform_naive(doc, prepared.query))
        _, profile = _profiled(prepared, doc)
        assert profile.strategy == expected  # what run executed

    def test_qualifier_inside_a_qualifier_can_nest_on_its_own(self):
        """``/r/a[.//b[.//c]]``: a cannot nest, but the b's the inner
        ``//`` reaches can, and each is checked with a subtree walk."""
        shape = analyze_transform(parse_transform_query(NESTING % "/r/a[.//b[.//c]]"))
        assert shape.nests
        shape = analyze_transform(parse_transform_query(NESTING % "/r/a[b[c]]//d"))
        assert not shape.nests

    def test_fig12_transforms_plan_topdown_without_touching_the_tree(
        self, engine, monkeypatch
    ):
        """All 20 Fig-12 paths are qualifier-free or child-qualified:
        planning them does no per-input work at all."""
        tree = generate(0.002, seed=42)
        prepared = [
            engine.prepare_transform(build(uid))
            for build in (insert_transform, delete_transform)
            for uid in QUERY_IDS
        ]
        assert len(prepared) == 20

        def walked(self):
            raise AssertionError("plan_for walked the tree")

        monkeypatch.setattr(Element, "children", property(walked))
        for query in prepared:
            plan = query.plan_for(tree)
            assert plan.strategy == "topdown"
            assert "mean_depth" not in plan.facts

    def test_file_input_is_planned_on_the_parsed_tree(self, engine, tmp_path):
        """A deep document arriving as a file: ``run`` parses it and
        plans on the tree, as ``explain`` of that tree says; the file
        itself is not planned — ``explain(path)`` names its size
        route, and ``plan_for(path)`` refuses."""
        path = tmp_path / "deep.xml"
        write_file(deep_chain(200), str(path))
        prepared = engine.prepare_transform(NESTING % "//*[.//b][.//a]")
        _, profile = _profiled(prepared, str(path))
        assert profile.strategy == "twopass"
        assert "strategy: twopass" in prepared.explain(parse_file(str(path)))
        assert "read into columns" in prepared.explain(str(path))
        with pytest.raises(ValueError, match="route is set by its size"):
            prepared.plan_for(str(path))

    def test_rule_is_a_function_of_observations(self, tmp_path, monkeypatch):
        shape = analyze_transform(parse_transform_query(NESTING % "//*[.//b]"))
        flat = analyze_transform(parse_transform_query(DELETE))

        def never():
            raise AssertionError("depth measured for a shape that cannot nest")

        assert choose_strategy(flat, mean_depth=never).strategy == "topdown"
        assert choose_strategy(shape).strategy == "topdown"  # nothing to measure
        assert choose_strategy(shape, mean_depth=lambda: 16.0).strategy == "topdown"
        assert choose_strategy(shape, mean_depth=lambda: 16.5).strategy == "twopass"
        # A file's route is its size alone: it streams from the threshold up.
        path = tmp_path / "doc.xml"
        path.write_text(DOC, encoding="utf-8")
        size = path.stat().st_size
        monkeypatch.setattr("repro.engine.planner.STREAM_THRESHOLD_BYTES", size)
        assert file_streams(str(path))
        monkeypatch.setattr("repro.engine.planner.STREAM_THRESHOLD_BYTES", size + 1)
        assert not file_streams(str(path))

    def test_large_file_plans_streaming(
        self, engine, doc, tmp_path, stream_everything, executed
    ):
        path = tmp_path / "doc.xml"
        write_file(doc, str(path))
        prepared = engine.prepare_transform(DELETE)
        assert file_streams(str(path))
        assert "twoPassSAX, file to file" in prepared.explain(str(path))
        out = tmp_path / "out.xml"
        with profiled(Profile()) as profile:
            prepared.run_to_file(str(path), str(out))
        # Streamed: no tree strategy ran, and no tree was walked...
        assert executed == []
        assert profile.strategy is None and profile.nodes_visited == 0
        # ...and the streamed result matches the tree result.
        assert deep_equal(parse_file(str(out)), prepared.run(doc))

    def test_run_to_file_stream_and_tree_agree(
        self, engine, doc, tmp_path, monkeypatch
    ):
        """Both size routes — streamed and read into columns — write
        the bytes a forced tree strategy writes."""
        src = tmp_path / "in.xml"
        write_file(doc, str(src))
        prepared = engine.prepare_transform(DELETE)
        written = {}
        for route, threshold in (("stream", 1), ("columns", 1 << 30)):
            monkeypatch.setattr("repro.engine.planner.STREAM_THRESHOLD_BYTES", threshold)
            assert file_streams(str(src)) == (route == "stream")
            written[route] = _written(prepared, src, tmp_path)
        tree = _written(prepared, src, tmp_path, method="topdown")
        assert written["stream"] == written["columns"] == tree

    def test_run_to_file_stream_ignores_pretty_with_warning(
        self, engine, doc, tmp_path, stream_everything
    ):
        src = tmp_path / "in.xml"
        write_file(doc, str(src))
        out = tmp_path / "out.xml"
        prepared = engine.prepare_transform(DELETE)
        with pytest.warns(UserWarning, match="pretty"):
            prepared.run_to_file(str(src), str(out), pretty=True)
        # Streamed anyway: the result is correct, just not indented.
        assert deep_equal(parse_file(str(out)), prepared.run(doc))

    def test_auto_executes_the_plan_and_a_forced_method_overrides_it(self, engine, doc):
        prepared = engine.prepare_transform(DELETE)
        assert prepared.plan_for(doc).strategy == "topdown"
        assert _profiled(prepared, doc)[1].strategy == "topdown"
        assert _profiled(prepared, doc, method="naive")[1].strategy == "naive"

    def test_a_shared_prepared_transform_runs_concurrently(self, engine, doc):
        """Nothing a run touches is per-engine mutable state: threads
        hammering one prepared object all get the oracle's answer."""
        prepared = engine.prepare_transform(DELETE)
        want = serialize(transform_naive(doc, prepared.query))
        threads, runs = 8, 50
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(
                    target=lambda: wrong.extend(
                        got for got in (serialize(prepared.run(doc)) for _ in range(runs))
                        if got != want
                    )
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_mean_depth_agrees_across_resident_forms(self, doc):
        """The level-order walk over Nodes against the depths the
        frozen form's ``up`` column spells out."""
        for tree in (doc, deep_chain(40, fanout=2), generate(0.001, seed=7)):
            up = freeze(tree).up
            depths = [1] * len(up)
            for i in range(1, len(up)):
                depths[i] = depths[i - up[i]] + 1
            assert mean_depth(tree) == pytest.approx(sum(depths) / len(depths))

    def test_features_summarize_shape(self):
        features = analyze_transform(parse_transform_query(QUAL_DOS))
        assert features.kind == "delete"
        assert features.dos_steps > 0
        assert features.qual_dos > 0
        assert features.quals == 1
        assert features.nests


class TestChaining:
    def test_then_matches_sequential_runs(self, engine, doc):
        first = engine.prepare_transform(DELETE)
        second = engine.prepare_transform(RENAME)
        stack = first.then(second)
        expected = second.run(first.run(doc))
        assert deep_equal(stack.run(doc), expected)
        assert len(stack) == 2

    def test_then_with_raw_text_reuses_the_engine_caches(self, engine, doc):
        stack = engine.prepare_transform(DELETE).then(RENAME)
        # The chained text was prepared from the engine's cache:
        # preparing it again is a cache hit, not a reparse.
        misses = engine.cache.transforms.stats()["misses"]
        again = engine.prepare_transform(RENAME)
        assert engine.cache.transforms.stats()["misses"] == misses
        assert stack.stages[1].cache is engine.cache
        assert stack.stages[1].query is again.query

    def test_then_accepts_raw_text(self, engine, doc):
        stack = engine.prepare_transform(DELETE).then(RENAME)
        assert deep_equal(
            stack.run(doc),
            engine.prepare_transform(RENAME).run(
                engine.prepare_transform(DELETE).run(doc)
            ),
        )

    @pytest.mark.parametrize("stacked", ["prepared", "stack"])
    def test_then_prepares_a_parsed_query_from_the_cache(self, engine, doc, stacked):
        """A parsed TransformQuery is a stage like text is (it once was
        appended as-is, and ``run`` raised AttributeError)."""
        head = engine.prepare_transform(DELETE)
        if stacked == "stack":
            head = head.then(INSERT)
        stack = head.then(parse_transform_query(RENAME))
        expected = engine.prepare_transform(RENAME).run(head.run(doc))
        assert deep_equal(stack.run(doc), expected)
        assert deep_equal(thaw(stack.run(freeze(doc))), expected)
        assert stack.stages[-1].cache is engine.cache

    def test_a_stack_then_a_stack_concatenates_stages(self, engine):
        left = engine.prepare_transform(DELETE).then(RENAME)
        right = engine.prepare_transform(INSERT).then(QUAL_DOS)
        both = left.then(right)
        assert both.stages == left.stages + right.stages

    def test_stack_explain(self, engine, doc):
        stack = engine.prepare_transform(DELETE).then(RENAME).then(INSERT)
        explained = stack.explain(doc)
        assert "3 stage(s)" in explained
        assert explained.count("strategy:") == 3
        # On an arena every stage runs the kernel, as `run` does and
        # as PreparedTransform.explain says: no plan is described.
        on_arena = stack.explain(freeze(doc))
        assert on_arena.count("select + splice kernel") == 3
        assert "strategy:" not in on_arena


class TestComposition:
    def test_composed_matches_materialize_then_query(self, engine, doc):
        user = "for $x in part/supplier return $x"
        composed = engine.prepare_composed(user, DELETE)
        direct = composed.run(doc)
        oracle = composed.run_naive(doc)
        assert [serialize(x) if isinstance(x, Element) else x for x in direct] == [
            serialize(x) if isinstance(x, Element) else x for x in oracle
        ]

    def test_composed_over_an_arena_thaws_results_not_the_document(
        self, engine, thaw_calls
    ):
        """The four Fig-15 pairs on a frozen XMark document: the plan
        runs on the columnar evaluator — the answers are ``run_naive``'s
        and the document itself is never thawed."""
        tree = generate(0.005, seed=7)
        arena = freeze(tree)
        answered = 0
        for _, _, transform, user in composition_pairs():
            composed = engine.prepare_composed(str(user), str(transform))
            del thaw_calls[:]
            got = composed.run(arena)
            assert 0 not in thaw_calls
            want = composed.run_naive(tree)
            assert [serialize(x) if isinstance(x, Element) else x for x in got] == [
                serialize(x) if isinstance(x, Element) else x for x in want
            ]
            answered += bool(got)
        assert answered >= 3

    def test_composed_plan_is_cached_per_pair(self, engine):
        user = "for $x in part return $x"
        first = engine.prepare_composed(user, DELETE)
        assert first.plan is engine.prepare_composed(user, DELETE).plan
        assert first.plan is engine.cache.composed(user, DELETE)
        assert engine.cache.plans.stats()["misses"] == 1
        # A parsed transform has no source text to key it by.
        parsed = engine.prepare_composed(user, parse_transform_query(DELETE))
        assert parsed.plan is not first.plan
        assert engine.cache.plans.stats()["size"] == 1

    def test_composed_from_parsed_queries_with_lossy_rendering(self, engine):
        """Regression: two parsed transforms whose float literals render
        identically under %g must not share a composed plan."""
        doc = parse("<db><part><price>1234567.9</price></part></db>")
        user = "for $x in part/price return $x"
        q_a = parse_transform_query(
            'transform copy $a := doc("db") modify do '
            "delete $a//part[price = 1234567.8]/price return $a"
        )
        q_b = parse_transform_query(
            'transform copy $a := doc("db") modify do '
            "delete $a//part[price = 1234567.9]/price return $a"
        )
        assert str(q_a) == str(q_b)  # the rendering really is lossy
        kept = engine.prepare_composed(user, q_a).run(doc)
        deleted = engine.prepare_composed(user, q_b).run(doc)
        assert len(kept) == 1 and deleted == []

    def test_composed_explain_shows_the_plan(self, engine):
        explained = engine.prepare_composed(
            "for $x in part return $x", DELETE
        ).explain()
        assert "composed plan" in explained
        assert "never materialized" in explained


class TestNoDocumentCache:
    """A Node tree is mutable, so nothing may remember a document by
    identity: an answer is computed from the tree as it is now.  (The
    tempting shortcut — an ``id(doc)``-keyed freeze or text cache in
    front of the Node path — answers for a tree that no longer exists.)
    """

    def test_prepared_transform_sees_an_in_place_update(self, engine, doc):
        prepared = engine.prepare_transform(RENAME)
        for method in ("auto", "topdown", "twopass"):
            assert "<price>" in serialize(prepared.run(doc, method=method))
        apply_update(doc, parse_update("delete $a//price"))
        apply_update(doc, parse_update("insert <sname>Acer</sname> into $a/part"))
        for method in ("auto", "topdown", "twopass"):
            got = prepared.run(doc, method=method)
            assert deep_equal(got, transform_naive(doc, prepared.query))
            assert "<price>" not in serialize(got)
            assert serialize(got).count("<vendor>Acer</vendor>") == 2

    def test_prepared_composed_sees_an_in_place_update(self, engine, doc):
        composed = engine.prepare_composed("for $x in part/supplier/vendor return $x", RENAME)
        assert [serialize(x) for x in composed.run(doc)] == [
            "<vendor>HP</vendor>", "<vendor>Dell</vendor>", "<vendor>HP</vendor>"
        ]
        apply_update(doc, parse_update("delete $a/part[pname = 'kb']"))
        after = [serialize(x) for x in composed.run(doc)]
        assert after == [serialize(x) for x in composed.run_naive(doc)] == ["<vendor>HP</vendor>"]

    def test_no_identity_keyed_document_map_in_the_node_path(self):
        """No module of the engine, the transform algorithms or the
        serializer can hold a document→arena or document→text map:
        none imports ``freeze`` or ``weakref``, and ``id()`` appears
        only where a map lives for one evaluation of one tree."""
        per_evaluation = {
            # bottomUp's annotations: built and dropped inside one twoPass call.
            "transform/bottomup.py",
            # the indexed Naive oracle's match set, local to one call.
            "transform/naive.py",
        }
        package = os.path.dirname(repro.__file__)
        files = [os.path.join(package, "xmltree", "serializer.py")]
        for folder in ("engine", "transform"):
            files += sorted(glob.glob(os.path.join(package, folder, "*.py")))
        assert len(files) > 10
        for path in files:
            relative = os.path.relpath(path, package).replace(os.sep, "/")
            tree = ast.parse(open(path, encoding="utf-8").read())
            for node in ast.walk(tree):
                where = f"{relative}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    assert node.func.id != "id" or relative in per_evaluation, (
                        f"{where} keys something by id()"
                    )
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
                    assert not {"weakref", "freeze"} & names, f"{where} imports {names}"


class TestOneArenaTransform:
    """An arena is transformed by ``repro.transform.arena`` and nothing
    else: the engine never expands one to evaluate it, and the scan
    module carries no second, fused implementation of the updates."""

    def test_the_engine_never_thaws(self):
        package = os.path.dirname(repro.__file__)
        files = sorted(glob.glob(os.path.join(package, "engine", "*.py")))
        assert len(files) >= 5
        for path in files:
            tree = ast.parse(open(path, encoding="utf-8").read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    assert called != "thaw", f"{path}:{node.lineno} calls thaw()"
                if isinstance(node, ast.ImportFrom):
                    assert "thaw" not in {alias.name for alias in node.names}, path

    def test_the_scan_module_transforms_nothing(self):
        from repro.automata import arena_run

        for name in ("write_arena", "serialize_arena"):
            fused = name + "_transformed"
            assert not hasattr(arena_run, fused) and fused not in arena_run.__all__
        tree = ast.parse(open(arena_run.__file__, encoding="utf-8").read())

        def modules(nodes):
            return {
                getattr(node, "module", None) or alias.name
                for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }

        assert not [m for m in modules(ast.walk(tree)) if m.startswith("repro.updates")]
        # The Node serializer is reached only to render a constructed
        # Element result (serialize_arena_items), never at import time.
        assert "repro.xmltree.serializer" not in modules(tree.body)

    def test_every_arena_surface_reaches_the_one_kernel(self):
        from repro.engine import prepared
        from repro.store import commit, store
        from repro.transform.arena import transform_arena

        for module in (prepared, commit, store):
            assert module.transform_arena is transform_arena


class TestOneEvaluationSite:
    """A read is evaluated in one place — on the thread of the request
    that leads it, by ``QueryService._evaluate_snapshot`` — and nothing
    selects another: no mode, no pool, no cross-process arena format."""

    def test_service_config_has_no_mode(self):
        from repro.service import ServiceConfig

        assert len(ServiceConfig.__slots__) == 6
        assert "mode" not in ServiceConfig.__slots__
        with pytest.raises(TypeError):
            ServiceConfig(mode="thread")
        # A sampled evaluation is profiled: no second sample rate.
        assert "profile_sample" not in ServiceConfig.__slots__
        with pytest.raises(TypeError):
            ServiceConfig(profile_sample=4)

    def test_serve_rejects_mode(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["serve", "--workers", "2"]).workers == 2
        with pytest.raises(SystemExit) as refused:
            parser.parse_args(["serve", "--mode", "process"])
        assert refused.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_no_pool_is_importable_or_imported(self):
        import importlib
        import subprocess

        with pytest.raises(ImportError):
            importlib.import_module("repro.service.workers")
        loaded = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, repro.service; "
                "print([m for m in ('concurrent.futures', 'multiprocessing') "
                "if m in sys.modules])",
            ],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__))),
            capture_output=True, text=True, timeout=60,
        )
        assert (loaded.returncode, loaded.stdout.strip()) == (0, "[]"), loaded.stderr

    def test_no_cross_process_arena_format_is_left(self):
        package = os.path.dirname(repro.__file__)
        files = glob.glob(os.path.join(package, "**", "*.py"), recursive=True)
        assert len(files) > 50
        for path in files:
            text = open(path, encoding="utf-8").read()
            for gone in ("arena_from_columns", "ProcessWorkers", "add_spans"):
                assert gone not in text, f"{path} mentions {gone}"
        assert not hasattr(repro.FrozenDocument, "columns")


class TestModuleShims:
    def test_prepare_transform_uses_default_engine(self, doc):
        prepared = prepare_transform(DELETE)
        assert prepared.cache is repro.default_engine().cache
        again = prepare_transform(DELETE)
        assert again.query is prepared.query and again.selecting is prepared.selecting
        assert deep_equal(prepared.run(doc), transform_naive(doc, prepared.query))


class TestFileRoute:
    """A file's route is its size: below the stream threshold it is read
    into columns and written by the columnar serializer, with the bytes
    the paper's algorithm writes for it."""

    @pytest.fixture(scope="class")
    def xmark_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("xmark") / "xmark.xml"
        write_file(generate(0.002, seed=42), str(path))
        return path

    def test_a_file_below_the_threshold_never_becomes_a_tree(
        self, engine, doc, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "in.xml"
        write_file(doc, str(src))
        prepared = engine.prepare_transform(DELETE)
        want = _written(prepared, src, tmp_path, method="topdown")

        def refuse(*args, **kwargs):
            raise AssertionError("the file was parsed into a Node tree")

        for target in (
            "repro.engine.prepared.parse_file",
            "repro.xmltree.parser.parse_file",
            "repro.engine.prepared.run_tree_strategy",
        ):
            monkeypatch.setattr(target, refuse)
        assert _written(prepared, src, tmp_path) == want
        out = tmp_path / "cli.xml"
        assert cli_main(["transform", "-q", DELETE, "-i", str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == want
        capsys.readouterr()
        assert cli_main(["transform", "-q", DELETE, "-i", str(src)]) == 0
        # stdout gets the document without the file's XML declaration.
        declaration, body = want.decode("utf-8").split("\n", 1)
        assert declaration.startswith("<?xml") and capsys.readouterr().out == body

    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("build", [insert_transform, delete_transform])
    def test_fig12_grid_writes_the_topdown_bytes(
        self, engine, xmark_file, tmp_path, build, pretty, executed
    ):
        for uid in QUERY_IDS:
            prepared = engine.prepare_transform(build(uid))
            got = _written(prepared, xmark_file, tmp_path, pretty=pretty)
            assert executed == [], uid  # the columns route runs no tree strategy
            want = _written(prepared, xmark_file, tmp_path, "topdown", pretty)
            executed.clear()
            assert got == want, uid

    @pytest.mark.parametrize("path", ["//*[.//b]", "//a[.//b][.//c]"])
    def test_a_deep_file_needs_no_depth_rule(self, engine, tmp_path, path, executed):
        """On a chain of depth 400, where a tree takes twopass, the
        columns route writes twopass's bytes."""
        src = tmp_path / "chain.xml"
        write_file(deep_chain(400, 3), str(src))
        prepared = engine.prepare_transform(NESTING % path)
        got = _written(prepared, src, tmp_path)
        assert executed == []
        assert got == _written(prepared, src, tmp_path, method="twopass")
        assert prepared.plan_for(parse_file(str(src))).strategy == "twopass"


class TestEngineCLI:
    def _write(self, tmp_path, name, text):
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        return str(target)

    def test_transform_method_auto_is_default(self, tmp_path, capsys):
        src = self._write(tmp_path, "in.xml", DOC)
        assert cli_main(["transform", "-q", DELETE, "-i", src]) == 0
        assert "price" not in capsys.readouterr().out

    def test_query_from_file(self, tmp_path, capsys):
        src = self._write(tmp_path, "in.xml", DOC)
        qfile = self._write(
            tmp_path,
            "q.xqu",
            'transform copy $a := doc("db") modify do\n'
            "  delete $a//price\nreturn $a\n",
        )
        assert cli_main(["transform", "-q", f"@{qfile}", "-i", src]) == 0
        assert "price" not in capsys.readouterr().out

    def test_query_from_stdin(self, tmp_path, capsys, monkeypatch):
        src = self._write(tmp_path, "in.xml", DOC)
        monkeypatch.setattr(sys, "stdin", io.StringIO(DELETE + "\n"))
        assert cli_main(["transform", "-q", "-", "-i", src]) == 0
        assert "price" not in capsys.readouterr().out

    def test_two_stdin_query_options_fail_clearly(self, tmp_path, capsys, monkeypatch):
        src = self._write(tmp_path, "in.xml", DOC)
        monkeypatch.setattr(sys, "stdin", io.StringIO(DELETE + "\n"))
        assert cli_main(
            ["compose", "-t", "-", "-u", "-", "-i", src]
        ) == 2
        assert "only one query option" in capsys.readouterr().err

    def test_empty_query_file_is_a_user_error(self, tmp_path, capsys):
        src = self._write(tmp_path, "in.xml", DOC)
        qfile = self._write(tmp_path, "empty.xqu", "  \n")
        assert cli_main(["transform", "-q", f"@{qfile}", "-i", src]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_transform_explain_flag_prints_plan(self, tmp_path, capsys):
        src = self._write(tmp_path, "in.xml", DOC)
        assert cli_main(["transform", "-q", DELETE, "-i", src, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "evaluation: read into columns" in out and "because:" in out

    def test_explain_with_forced_method_says_so_and_does_not_execute(
        self, tmp_path, capsys
    ):
        src = self._write(tmp_path, "in.xml", DOC)
        out = tmp_path / "out.xml"
        for method in ("twopass", "sax"):
            assert cli_main(
                ["transform", "-q", DELETE, "-i", src, "--explain",
                 "--method", method, "-o", str(out)]
            ) == 0
            printed = capsys.readouterr().out
            assert f"method forced by --method: {method}" in printed
            assert not out.exists()  # --explain is a dry run

    def test_explain_command_plans_a_transform(self, tmp_path, capsys):
        src = self._write(tmp_path, "in.xml", DOC)
        assert cli_main(["explain", "-q", DELETE, "-i", src]) == 0
        assert "evaluation: read into columns" in capsys.readouterr().out
        assert cli_main(["explain", "-q", DELETE]) == 0
        assert "strategy: topdown" in capsys.readouterr().out

    def test_explain_command_still_shows_automata(self, capsys):
        assert cli_main(["explain", "-p", "//part[pname = 'kb']"]) == 0
        assert "selecting NFA" in capsys.readouterr().out

    def test_explain_requires_path_or_query(self, capsys):
        assert cli_main(["explain"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_store_stage_from_file(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        src = self._write(tmp_path, "in.xml", DOC)
        qfile = self._write(tmp_path, "q.xqu", DELETE)
        assert cli_main(["store", "load", "-n", "db", "-i", src, "--state", state]) == 0
        assert cli_main(
            ["store", "stage", "-n", "db", "-t", f"@{qfile}", "--state", state]
        ) == 0
        assert cli_main(
            ["store", "query", "-n", "db", "-u",
             "for $x in part/supplier/price return $x", "--staged", "--state", state]
        ) == 0
        out = capsys.readouterr().out
        assert "12" not in out.splitlines()[-1]

    def test_fixed_methods_still_available(self, tmp_path, capsys):
        src = self._write(tmp_path, "in.xml", DOC)
        for method in ("topdown", "twopass", "naive", "copy", "sax"):
            assert cli_main(
                ["transform", "-q", DELETE, "-i", src, "--method", method]
            ) == 0
            assert "price" not in capsys.readouterr().out
