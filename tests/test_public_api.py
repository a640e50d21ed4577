"""The public API surface: everything advertised in ``repro.__all__``
must import, and the README's code snippets must work verbatim."""

import pytest

import repro


class TestSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.22.0"

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
        dispatcher hands it out as it is, in-process reads copy it."""
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
            assert encode_response(1, answer) == b'{"id":1,"ok":true,"result":["<a>1</a>"]}\n'

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
