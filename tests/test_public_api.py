"""The public API surface: everything advertised in ``repro.__all__``
must import, and the README's code snippets must work verbatim."""

import pytest

import repro


class TestSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.34.0"

    def test_no_build_tooling_in_the_package(self):
        """1.29.0: the lint pass is a build-time tool under
        ``tools/analysis``; the package neither ships nor loads it, and
        ``lint`` is an unknown subcommand."""
        import importlib.util
        import os
        import subprocess
        import sys

        from repro.cli import main

        assert importlib.util.find_spec(".analysis", "repro") is None
        with pytest.raises(SystemExit) as exc:
            main(["lint"])
        assert exc.value.code == 2
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from repro.cli import build_parser\n"
             "build_parser()\n"
             "print(sorted(m for m in sys.modules if 'analysis' in m))"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert loaded.returncode == 0, loaded.stderr
        assert loaded.stdout.strip() == "[]"

    def test_no_benchmark_code_in_the_package(self):
        """1.27.0: the Section-7 figure drivers live under benchmarks/
        only; the deep-chain document shape tests build moved beside
        the XMark generator."""
        import importlib.util

        from repro.xmark.generator import deep_chain

        assert importlib.util.find_spec("repro.bench") is None
        assert repro.serialize(deep_chain(2, fanout=1)) == (
            "<r><a><a><b>x</b><c/></a><c/></a></r>"
        )

    def test_engine_surface(self):
        """1.21.0: an Engine is a door over its CompiledCache — no
        prepared memo, no strategy tally; a prepared object holds the
        cache it was built from, not the engine."""
        from repro.obs import MetricsRegistry

        engine = repro.Engine()
        for name in ("_prepared", "_build_lock", "_chosen", "count_chosen", "chosen"):
            assert not hasattr(engine, name), name
        strip = engine.prepare_transform(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        rows = engine.prepare_query("for $x in part return $x")
        for prepared in (strip, rows):
            assert prepared.cache is engine.cache and not hasattr(prepared, "engine")
        assert set(engine.stats()) == {"compiled"}
        registry = MetricsRegistry()
        engine.bind_metrics(registry)
        assert not [
            name for name in registry.snapshot()
            if name.startswith(("engine.prepared", "engine.planner"))
        ]

    def test_one_way_to_stack_transforms(self):
        """1.22.0: ``then`` is the only door to a PreparedStack; the
        chain module, the Engine's stack and one-shot wrappers, the
        ``run_many`` loops and the log's text history are gone."""
        import importlib.util

        import repro.transform
        from repro.store.log import UpdateLog

        assert importlib.util.find_spec("repro.transform.chain") is None
        for name in ("TransformChain", "transform_chain", "parse_transform_chain"):
            assert not hasattr(repro.transform, name), name
            assert name not in repro.transform.__all__
        for name in ("prepare_stack", "transform", "query", "composed"):
            assert not hasattr(repro.Engine, name), name
        for kind in (
            repro.PreparedTransform, repro.PreparedStack,
            repro.PreparedQuery, repro.PreparedComposed,
        ):
            assert not hasattr(kind, "run_many"), kind
        for name in ("history", "restore_history"):
            assert not hasattr(UpdateLog, name), name

    def test_one_naive_method(self):
        """1.25.0: the Naive Method is ``transform_naive`` alone; the
        Fig. 2 rewriter, its XQuery program interpreter and its parser
        are gone, as are the two ``ServiceConfig`` knobs nothing set."""
        import importlib
        import importlib.util

        import repro.transform

        for module in ("repro.transform.rewrite", "repro.xquery.program",
                       "repro.xquery.xq_parser"):
            assert importlib.util.find_spec(module) is None, module
            with pytest.raises(ImportError):
                importlib.import_module(module)
        for name in ("rewrite_to_xquery", "transform_naive_xquery"):
            assert not hasattr(repro.transform, name), name
            assert name not in repro.transform.__all__
        assert repro.transform.STRATEGIES["naive"][1] is repro.transform.transform_naive
        config = repro.ServiceConfig()
        for name in ("default_deadline", "slow_ring"):
            assert not hasattr(config, name), name
            with pytest.raises(TypeError):
                repro.ServiceConfig(**{name: 1})

    def test_one_view_read_path(self):
        """1.26.0: a view's arena is built on its first committed read
        of each version; the materialization policy, its threshold, the
        per-view query count and the store's compose-at-read branch are
        gone."""
        import ast
        import inspect
        import pathlib

        import repro.store
        import repro.store.store
        import repro.store.views
        from repro.store import ViewStore, locked_state, open_store

        for module in (repro, repro.store, repro.store.views):
            assert not hasattr(module, "MaterializationPolicy"), module
        for names in (repro.__all__, repro.store.__all__):
            assert "MaterializationPolicy" not in names
        for door in (ViewStore, open_store, locked_state):
            assert "policy" not in inspect.signature(door).parameters, door
        with pytest.raises(TypeError):
            ViewStore(policy=None)
        assert not hasattr(ViewStore().views, "policy")
        assert "query_count" not in repro.store.View.__slots__
        source = pathlib.Path(repro.store.store.__file__).read_text()
        imported = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
            elif isinstance(node, ast.Import):
                imported.extend(alias.name for alias in node.names)
        assert not [name for name in imported if name.startswith("repro.compose")]

    def test_one_derived_attribute_structure(self):
        """1.24.0: the ``{index: tuple}`` attribute dict is gone; point
        lookups bisect the key column and the sweep reads the leaf
        maps, which, like a node's serialized text, live and die with
        one version."""
        arena = repro.parse_to_arena('<db><p id="a">1</p><p>2</p><p id="b"/></db>')
        assert not hasattr(arena, "attr_map") and not hasattr(arena, "_attr_map")
        assert arena.attr(1, "id") == "a" and arena.attr(3, "id") is None
        assert arena.attrs_of(5) == {"id": "b"} and arena.attrs_of(0) == {}
        p = arena.symbols.intern("p")
        assert arena.leaf_values(p, "id") == {1: "a", 5: "b"}
        assert arena.leaf_numbers(p) == {1: 1.0, 3: 2.0}
        assert arena.serialized(1) == '<p id="a">1</p>'
        assert arena.stats()["leaf_maps"] == 2 and arena.stats()["texts_held"] == 1

    def test_a_commit_is_one_plan(self):
        """1.23.0: ``plan_commit`` decides a commit and ``commit_delta``
        logs, installs and publishes it; the outcome object, the
        spliced-entries door and the store's label cache are gone."""
        import repro.store.delta
        from repro.store import ViewStore
        from repro.store.commit import CommitPlan, plan_commit

        for name in ("CommitOutcome", "apply_entries_spliced"):
            assert not hasattr(repro.store.delta, name), name
        for name in ("_rekey_results", "_delta_verdicts", "_rebase_materializations"):
            assert not hasattr(ViewStore, name), name
        assert not hasattr(ViewStore(), "_query_label_cache")
        assert callable(plan_commit) and callable(CommitPlan.decide)

    def test_arena_transform_surface(self):
        """1.12.0: an arena in is an arena out, through the one kernel
        in ``repro.transform.arena``; the fused emit and the thaw-then-
        strategy path are gone, and the kernel left ``store.delta``."""
        import repro.automata.arena_run
        import repro.store.delta
        from repro.transform.arena import ArenaStep, transform_arena

        assert not hasattr(repro.store.delta, "ArenaStep")
        assert "transform_arena" not in repro.store.delta.__all__
        assert not [n for n in dir(repro.automata.arena_run) if n.endswith("_transformed")]
        arena = repro.parse_to_arena("<db><part><price>12</price></part></db>")
        strip = repro.prepare_transform(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        view = strip.run(arena)
        assert isinstance(view, repro.FrozenDocument)
        assert repro.serialize_arena(view) == "<db><part/></db>"
        assert repro.serialize(repro.thaw(view)) == repro.serialize(
            strip.run(repro.thaw(arena), method="naive")
        )
        step = transform_arena(arena, strip.query.update, strip.selecting)
        assert isinstance(step, ArenaStep) and step.labels == {"price", "part", "db"}
        # 1.14.0: the label set in its two parts, and how the rest moved.
        assert step.changed == {"price"} and step.chain == {0, 1}
        assert [patch[:3] for patch in step.patches] == [(2, 4, 1)] and step.cum == [0, -2]
        with pytest.raises(ValueError, match="thaw"):
            strip.run(arena, method="naive")

    def test_answer_surface(self):
        """1.11.0: the result cache's value is an ``Answer``; the wire
        dispatcher hands it out as it is, in-process reads copy it.
        1.30.0: its wire form is a length-prefixed body after a header
        line, not a JSON array."""
        from repro.service.protocol import encode_response, handle_request
        from repro.store import Answer, ViewStore, result_key

        store = ViewStore()
        store.put("db", "<db><a>1</a></db>")
        text = "for $x in a return $x"
        assert store.query_serialized("db", text) == ["<a>1</a>"]
        key = result_key("db", store.pin("db").uid, text, store.pin_read("db").texts)
        assert isinstance(store.results.peek(key), Answer)
        with repro.QueryService(store=store) as service:
            frame = {"id": 1, "op": "query", "target": "db", "text": text}
            answer = handle_request(service, frame)
            assert answer is store.results.peek(key) is service.answer("db", text)
            assert service.query("db", text) == list(answer.items)
            assert encode_response(1, answer) == (
                b'{"id":1,"ok":true,"items":1,"bytes":12}\n\x08\x00\x00\x00<a>1</a>'
            )

    def test_one_name_per_count_surface(self):
        """1.31.0: a count is published once, in the metrics registry —
        ``metrics()`` is its snapshot in-process and over the wire, and
        ``stats()`` is state.  A strategy has one name, and a counter
        that could not move is gone."""
        from repro import engine
        from repro.service import service as service_module
        from repro.store import DocumentStore, StoredDocument, ViewStore

        assert not hasattr(service_module, "_METRIC_NAMES")
        assert not hasattr(engine, "ALL_STRATEGIES") and "stream" not in engine.PAPER_NAMES
        assert not hasattr(DocumentStore, "builds")
        assert "arena_builds" not in StoredDocument.__slots__
        store = ViewStore()
        store.put("db", "<db><a>1</a></db>")
        with repro.QueryService(store=store) as service:
            service.query("db", "for $x in a return $x")
            assert service.metrics() == service.registry.snapshot()
            assert service.metrics()["service.requests.total"] == 1
            assert set(service.stats()["service"]) == {"workers", "max_queue"}
            assert set(store.stats()) == {"documents", "views", "last_commit", "wal"}
        with pytest.raises(ValueError, match="unknown method 'stream'"):
            repro.prepare_transform(
                'transform copy $a := doc("db") modify do delete $a/a return $a'
            ).run(repro.parse("<db><a/></db>"), method="stream")

    def test_one_read_path_surface(self):
        """1.8.0: the store and the service run no Node strategy, so the
        names that exposed one are gone; a pinned read is the new one."""
        from repro.store import PinnedRead, StoredDocument, ViewStore

        assert not hasattr(StoredDocument, "root")
        assert not hasattr(ViewStore, "chosen")
        store = ViewStore()
        store.put("db", "<db><a>1</a></db>")
        assert "planner" not in store.stats()
        assert isinstance(store.pin_read("db"), PinnedRead)
        with repro.QueryService(store=store) as service:
            assert "locked_reads" not in service.metrics()
            assert "service.reads.locked" not in service.registry.snapshot()

    def test_strategy_choice_surface(self):
        """1.7.0: the cost-model names are gone; the rule and its two
        constants are the whole selection surface."""
        import repro.engine

        for name in ("Planner", "InputProfile", "profile_input"):
            assert name not in repro.__all__
            assert name not in repro.engine.__all__
            assert not hasattr(repro.engine, name)
        for name in ("choose_strategy", "DEEP_MEAN_DEPTH", "STREAM_THRESHOLD_BYTES"):
            assert name in repro.engine.__all__
        assert repro.engine.STREAM_THRESHOLD_BYTES == 8 * 1024 * 1024

    def test_a_file_has_one_route(self):
        """1.28.0: the rule is for trees, and a file's route is its
        size; the file doors beside ``run_to_file`` are gone."""
        import importlib.util
        import inspect

        import repro.engine

        params = inspect.signature(repro.engine.choose_strategy).parameters
        assert list(params) == ["features", "mean_depth"]
        for name in ("streams", "stream_to", "stream_if_planned", "stream_file"):
            assert not hasattr(repro.engine.PreparedTransform, name), name
        assert importlib.util.find_spec("repro.transform.ablations") is None
        with pytest.raises(SystemExit):
            from repro.cli import build_parser

            build_parser().parse_args(["query", "-q", "x", "-i", "f", "--backend", "node"])

    def test_readme_quickstart(self):
        doc = repro.parse("<db><part><pname>kb</pname><price>12</price></part></db>")
        qt = repro.parse_transform_query(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        view = repro.transform_topdown(doc, qt)
        assert "price" not in repro.serialize(view)
        assert "price" in repro.serialize(doc)

    def test_readme_composition(self):
        doc = repro.parse("<db><part><pname>kb</pname><price>12</price></part></db>")
        qt = repro.parse_transform_query(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        q = repro.parse_user_query("for $x in part[pname = 'kb']/price return $x")
        qc = repro.compose(q, qt)
        assert repro.evaluate_composed(doc, qc) == []
        assert repro.naive_compose(doc, q, qt) == []

    def test_module_docstring_example(self):
        # The example in repro/__init__.py's docstring.
        doc = repro.parse("<db><part><price>12</price></part></db>")
        qt = repro.parse_transform_query(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        view = repro.transform_topdown(doc, qt)
        assert "price" not in repro.serialize(view)
        assert "price" in repro.serialize(doc)

    def test_readme_engine_api(self):
        # The "Engine API" README section.
        engine = repro.Engine()
        doc = repro.parse("<db><part><price>12</price></part></db>")
        strip = engine.prepare_transform(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        view = strip.run(doc)
        assert "price" not in repro.serialize(view)
        assert "strategy:" in strip.explain(doc)
        audit = strip.then(
            'transform copy $a := doc("db") modify do '
            "insert <audited/> into $a/part return $a"
        )
        assert "<audited/>" in repro.serialize(audit.run(doc))
        rows = engine.prepare_composed("for $x in part return $x", strip).run(doc)
        assert len(rows) == 1


class TestEdgeSemantics:
    """Odd-but-legal inputs every layer must agree on."""

    def test_numeric_text_with_whitespace(self):
        doc = repro.parse("<r><x> 5 </x></r>")
        nodes = repro.evaluate(doc, repro.parse_xpath("x[. = 5]"))
        assert len(nodes) == 1  # float(' 5 ') parses

    def test_float_comparison(self):
        doc = repro.parse("<r><x>5.5</x></r>")
        assert repro.evaluate(doc, repro.parse_xpath("x[. > 5.4]"))
        assert not repro.evaluate(doc, repro.parse_xpath("x[. > 5.6]"))

    def test_empty_element_own_text(self):
        doc = repro.parse("<r><x/></r>")
        assert repro.evaluate(doc, repro.parse_xpath("x[. = '']"))

    def test_unicode_content(self):
        doc = repro.parse("<r><x>héllo wörld — ünïcode</x></r>")
        nodes = repro.evaluate(doc, repro.parse_xpath("x[. = 'héllo wörld — ünïcode']"))
        assert len(nodes) == 1
        assert "héllo" in repro.serialize(doc)

    def test_unicode_through_sax(self, tmp_path):
        doc = repro.parse("<r><x>héllo</x><price>1</price></r>")
        path = str(tmp_path / "u.xml")
        repro.write_file(doc, path)
        qt = repro.parse_transform_query(
            'transform copy $a := doc("f") modify do delete $a//price return $a'
        )
        text = repro.transform_sax_file(path, qt)
        assert "héllo" in text and "price" not in text

    def test_label_equal_to_keyword(self):
        # Elements named like query keywords must still parse as labels.
        doc = repro.parse("<r><label>x</label><insert>y</insert></r>")
        assert repro.evaluate(doc, repro.parse_xpath("label"))
        assert repro.evaluate(doc, repro.parse_xpath("insert"))

    def test_update_hits_root_children_only_below(self):
        # The root element itself is never in r[[p]].
        doc = repro.parse("<part><part/></part>")
        qt = repro.TransformQuery(repro.parse_update("delete $a//part"))
        result = repro.transform_topdown(doc, qt)
        assert repro.serialize(result) == "<part/>"
