"""Tests for ``repro.obs`` — the metrics registry, query-lifecycle
tracing, and the live stats surface they feed.

Covers the telemetry acceptance criteria end to end: counter and
histogram exactness under a multi-thread hammer, the disabled-mode
zero-allocation fast path, trace-span nesting and ordering through a
full Engine prepare→run, the normalized ``layer.component.metric``
namespace, the
``metrics``/``traces`` wire ops, and a loadgen smoke run against a
live in-process server.
"""

import json
import math
import os
import sys
import threading
import time
import tracemalloc

import pytest

from repro.engine.engine import Engine
from repro.lru import LRUCache
from repro.obs import (
    NULL_SPAN,
    NULL_TRACE,
    MetricsRegistry,
    Tracer,
    check_metric_name,
    current_trace,
    span,
)
from repro.obs.registry import NULL_INSTRUMENT, Counter, Histogram
from repro.service import Client, QueryService, ServiceConfig, ServiceServer
from repro.service.errors import BadRequestError
from repro.store import ViewStore
from repro.xmltree.parser import parse, parse_to_arena

CATALOG = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price><country>A</country></supplier>"
    "<supplier><sname>Dell</sname><price>20</price><country>B</country></supplier>"
    "</part><part><pname>mouse</pname>"
    "<supplier><sname>HP</sname><price>8</price><country>A</country></supplier>"
    "</part></db>"
)

QUERY = "for $x in part/supplier return $x"


# ----------------------------------------------------------------------
# Registry: names, instruments, probes
# ----------------------------------------------------------------------


class TestRegistry:
    def test_name_validation(self):
        for good in ("a.b.c", "store.arena.reads", "service.dispatch.memo_hits"):
            assert check_metric_name(good) == good
        for bad in ("requests", "a.b", "A.b.c", "a.b.c!", "a..c", "a.b.", ""):
            with pytest.raises(ValueError):
                check_metric_name(bad)
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("arena_reads")
        with pytest.raises(ValueError):
            registry.probe("shallow.name", lambda: 1)

    def test_instruments_memoized_by_name(self):
        registry = MetricsRegistry()
        counter = registry.counter("svc.requests.total")
        assert registry.counter("svc.requests.total") is counter
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = registry.gauge("svc.queue.depth")
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2.0
        with pytest.raises(ValueError):
            registry.histogram("svc.requests.total")  # kind conflict
        assert "svc.requests.total" in registry
        assert "svc.other.metric" not in registry

    def test_snapshot_and_probe_flattening(self):
        registry = MetricsRegistry()
        registry.counter("layer.comp.hits").inc(2)
        registry.probe(
            "layer.probe.stats",
            lambda: {"a": 1, "nested": {"b": 2}, "Weird Key!": 3, "scan.arena": 4},
        )
        snap = registry.snapshot()
        assert snap["layer.comp.hits"] == 2
        assert snap["layer.probe.stats.a"] == 1
        assert snap["layer.probe.stats.nested.b"] == 2
        assert snap["layer.probe.stats.weird_key_"] == 3
        # Dots inside probe keys survive as segment separators.
        assert snap["layer.probe.stats.scan.arena"] == 4
        assert list(snap) == sorted(snap)
        assert registry.get("layer.comp.hits") == 2

    def test_counter_exact_under_thread_hammer(self):
        counter = Counter("test.hammer.counter")
        threads_n, per_thread = 8, 2500

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == threads_n * per_thread

    def test_histogram_exact_counts_under_thread_hammer(self):
        histogram = Histogram("test.hammer.latency")
        threads_n, per_thread = 8, 1000

        def hammer(seed: int):
            for i in range(per_thread):
                histogram.observe(0.0001 * ((seed + i) % 17 + 1))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = histogram.snapshot()
        assert snap["count"] == threads_n * per_thread
        expected_sum = sum(
            0.0001 * ((seed + i) % 17 + 1)
            for seed in range(threads_n)
            for i in range(per_thread)
        )
        assert snap["sum"] == pytest.approx(expected_sum)
        assert snap["min"] == pytest.approx(0.0001)
        assert snap["max"] == pytest.approx(0.0017)

    def test_histogram_percentiles(self):
        histogram = Histogram("test.pct.latency")
        for i in range(1, 101):
            histogram.observe(i * 0.001)
        snap = histogram.snapshot()
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        assert snap["p50"] == pytest.approx(0.050, rel=0.5)
        assert snap["p99"] == pytest.approx(0.099, rel=0.5)
        # A single-value histogram reports that value, not a bucket edge.
        single = Histogram("test.single.latency")
        single.observe(0.005)
        one = single.snapshot()
        assert one["p50"] == one["p99"] == pytest.approx(0.005)
        assert Histogram("test.empty.latency").snapshot() == {"count": 0, "sum": 0.0}
        assert Histogram("test.empty.latency2").percentile(99.0) is None
        with pytest.raises(ValueError):
            Histogram("test.bad.buckets", buckets=[2.0, 1.0])

    def test_custom_buckets_for_size_shaped_values(self):
        histogram = Histogram("test.group.size", buckets=[1.0, 2.0, 4.0, 16.0])
        for size in (1, 2, 3, 16, 300):
            histogram.observe(float(size))
        assert histogram.count == 5


class TestDisabledRegistry:
    def test_disabled_hands_out_shared_null_instrument(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("svc.requests.total")
        histogram = registry.histogram("svc.request.latency")
        assert counter is NULL_INSTRUMENT
        assert histogram is NULL_INSTRUMENT
        registry.probe("svc.probe.stats", lambda: {"a": 1})
        assert registry.snapshot() == {}
        assert registry.get("svc.requests.total") is None

    def test_disabled_fast_path_allocates_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("svc.requests.total")
        histogram = registry.histogram("svc.request.latency")
        assert current_trace() is None
        # Warm every code path once before measuring.
        counter.inc()
        histogram.observe(0.001)
        with span("warm"):
            pass
        tracemalloc.start()
        for _ in range(1000):
            counter.inc()
            histogram.observe(0.001)
            with span("noop"):
                pass
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The loop machinery itself may allocate transiently; the bar
        # is that per-event cost is zero, not a growing buffer.
        assert current < 1024, f"disabled instruments retained {current} bytes"
        assert peak < 16384, f"disabled instruments peaked at {peak} bytes"

    def test_module_span_is_null_without_active_trace(self):
        assert current_trace() is None
        assert span("anything") is NULL_SPAN


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracing:
    def test_spans_nest_through_engine_prepare_and_run(self):
        tracer = Tracer(sample_every=1)
        engine = Engine()
        arena = parse_to_arena(CATALOG)
        with tracer.trace("test.query", target="db"):
            prepared = engine.prepare_query(QUERY)
            prepared.run_refs(arena)
        records = tracer.records()
        assert len(records) == 1
        record = records[0]
        assert record["name"] == "test.query"
        assert record["meta"] == {"target": "db"}
        shape = [(s["name"], s["depth"]) for s in record["spans"]]
        # Completion order: the query's parse is compiled first; the
        # scan then meets the query's path and compiles its automaton
        # at that cache miss, nested in the scan (a read has nothing to
        # plan).
        assert shape == [("compile", 0), ("compile", 1), ("scan", 0)]
        by_name = {s["name"]: s for s in record["spans"]}
        assert record["dur_us"] >= by_name["scan"]["dur_us"]

    def test_transform_run_opens_a_plan_span(self):
        tracer = Tracer(sample_every=1)
        prepared = Engine().prepare_transform(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        with tracer.trace("test.transform"):
            prepared.run(parse(CATALOG))
        names = [s["name"] for s in tracer.records()[0]["spans"]]
        assert "plan" in names

    def test_transform_run_on_an_arena_plans_nothing(self):
        tracer = Tracer(sample_every=1)
        prepared = Engine().prepare_transform(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        with tracer.trace("test.transform"):
            prepared.run(parse_to_arena(CATALOG))
        names = [s["name"] for s in tracer.records()[0]["spans"]]
        assert names == ["scan", "splice"]  # the kernel's two phases

    def test_a_commit_opens_one_span_per_phase(self):
        """Splice, verdicts, re-key: a commit's phases, each under its
        own name (the kernel's ``scan`` and ``splice`` nest in the
        first)."""
        store = ViewStore()
        store.put("db", CATALOG)
        store.define_view(
            "v", "db",
            'transform copy $a := doc("db") modify do delete $a//price return $a',
        )
        store.query_serialized("db", "for $x in part return $x/pname")
        tracer = Tracer(sample_every=1)
        with tracer.trace("test.commit"):
            store.commit(
                "db",
                'transform copy $a := doc("db") modify do insert <x/> into $a/part return $a',
            )
        phases = [s["name"] for s in tracer.records()[0]["spans"] if s["depth"] == 0]
        assert phases == ["splice", "verdicts", "rekey"]
        assert len(set(phases)) == len(phases)

    def test_warm_prepare_emits_no_compile_span(self):
        tracer = Tracer(sample_every=1)
        engine = Engine()
        engine.prepare_query(QUERY)  # cold build outside any trace
        with tracer.trace("test.warm"):
            engine.prepare_query(QUERY)
        assert tracer.records()[-1]["spans"] == []

    def test_deterministic_sampling_and_ring_bound(self):
        tracer = Tracer(ring=2, sample_every=2)
        sampled = []
        for _ in range(6):
            trace = tracer.trace("test.sampled")
            if trace.sampled:
                sampled.append(trace)
            trace.finish()
        assert len(sampled) == 3  # every 2nd of 6
        stats = tracer.stats()
        assert stats["started"] == 6
        assert stats["recorded"] == 3
        assert stats["buffered"] == 2  # ring bound
        assert stats["dropped"] == 1

    def test_disabled_tracer_hands_out_null_trace(self):
        for tracer in (Tracer(enabled=False), Tracer(sample_every=0)):
            trace = tracer.trace("test.off")
            assert trace is NULL_TRACE
            with trace:
                with trace.span("noop"):
                    pass
                trace.record_span("queue", 0.001)
                trace.note(ignored=True)
            assert tracer.records() == []

    def test_records_are_json_lines(self):
        tracer = Tracer(sample_every=1)
        with tracer.trace("test.json", target="db") as trace:
            with span("work"):
                pass
            trace.note(outcome="ok")
        dumped = tracer.dump_jsonl()
        lines = [json.loads(line) for line in dumped.splitlines()]
        assert len(lines) == 1
        assert lines[0]["meta"] == {"target": "db", "outcome": "ok"}
        assert lines[0]["spans"][0]["name"] == "work"
        assert tracer.drain() == lines
        assert tracer.records() == []

    def test_activation_attaches_worker_thread_spans(self):
        tracer = Tracer(sample_every=1)
        trace = tracer.trace("test.worker")

        def worker():
            assert current_trace() is None
            with trace.activate():
                assert current_trace() is trace
                with span("work"):
                    pass
            assert current_trace() is None

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        trace.record_span("queue", 0.002)
        trace.finish(outcome="ok")
        record = tracer.records()[0]
        assert {s["name"] for s in record["spans"]} == {"work", "queue"}
        assert record["meta"]["outcome"] == "ok"

    def test_finish_is_idempotent(self):
        tracer = Tracer(sample_every=1)
        trace = tracer.trace("test.twice")
        trace.finish(outcome="first")
        trace.finish(outcome="second")
        records = tracer.records()
        assert len(records) == 1
        assert records[0]["meta"] == {"outcome": "first"}


# ----------------------------------------------------------------------
# Migration of existing counters onto the registry
# ----------------------------------------------------------------------


class TestCounterMigration:
    def test_an_engine_binds_its_compiled_cache_only(self):
        engine = Engine()
        registry = MetricsRegistry()
        engine.bind_metrics(registry)
        arena = parse_to_arena(CATALOG)
        engine.prepare_query(QUERY).run_refs(arena)
        prepared = engine.prepare_transform(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        prepared.run(arena)
        prepared.run(parse(CATALOG))
        assert prepared.plan_for(parse(CATALOG)).strategy == "topdown"
        snap = registry.snapshot()
        assert not [
            name for name in snap if name.startswith(("engine.planner", "engine.prepared"))
        ]
        assert not any("[" in name for name in snap)
        assert snap["engine.compiled.user_queries.size"] == 1
        assert snap["engine.compiled.transforms.size"] == 1
        assert "automata.dfa.tables.sets" in snap

    def test_store_probes_report_attribute_counters(self):
        from repro.store.store import ViewStore

        store = ViewStore()
        registry = MetricsRegistry()
        store.bind_metrics(registry)
        store.put("db", CATALOG)
        store.query_serialized("db", QUERY)
        snap = registry.snapshot()
        assert snap["store.arena.reads"] == store.arena_reads == 1
        assert snap["store.documents.count"] == 1
        assert "store.arena.builds" not in snap  # it always equalled the count

    def test_lru_values_view(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert sorted(cache.values()) == [1, 2]


# ----------------------------------------------------------------------
# The service's telemetry surface
# ----------------------------------------------------------------------


def _wait_for(predicate, timeout: float = 5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError("condition not reached within timeout")


class TestServiceTelemetry:
    def test_metrics_are_the_registry_snapshot(self):
        with QueryService() as svc:
            svc.put("db", CATALOG)
            svc.query("db", QUERY)
            snap = svc.metrics()
            assert snap == svc.registry.snapshot()
            assert snap["service.requests.total"] == 1
            assert snap["service.reads.snapshot"] == 1
            assert snap["service.request.latency"]["count"] == 1
            assert snap["service.request.latency"]["p99"] > 0
            assert "service.dispatch.batches" not in snap
            assert "service.dispatch.batch_size" not in snap
            assert snap["service.queue.depth"] == 0
            assert "store.cache.results.hits" in snap
            assert snap["service.trace.ring.enabled"] is True
            stats = svc.stats()
            assert set(stats) == {"service", "store"}
            assert set(stats["service"]) == {"workers", "max_queue"}

    def test_request_trace_threads_queue_and_engine_spans(self):
        config = ServiceConfig(trace_sample=1)
        with QueryService(config=config) as svc:
            svc.put("db", CATALOG)
            svc.query("db", QUERY)
            records = _wait_for(svc.traces)
            record = records[0]
            assert record["name"] == "service.query"
            assert record["meta"]["target"] == "db"
            assert record["meta"]["outcome"] == "ok"
            names = [s["name"] for s in record["spans"]]
            assert "queue" in names
            assert "scan" in names
            assert "serialize" in names

    def test_disabled_metrics_mode(self):
        config = ServiceConfig(metrics=False)
        with QueryService(config=config) as svc:
            svc.put("db", CATALOG)
            result = svc.query("db", QUERY)
            assert len(result) == 3
            assert svc.registry.snapshot() == {}
            assert svc.metrics() == {}  # null instruments, no probes
            assert svc.traces() == []

    def test_trace_sample_zero_disables_tracing_only(self):
        config = ServiceConfig(trace_sample=0)
        with QueryService(config=config) as svc:
            svc.put("db", CATALOG)
            svc.query("db", QUERY)
            assert svc.traces() == []
            assert svc.metrics()["service.requests.total"] == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(trace_sample=-1)


# ----------------------------------------------------------------------
# The wire surface: metrics/traces ops, loadgen smoke
# ----------------------------------------------------------------------


@pytest.fixture
def wire():
    svc = QueryService(
        config=ServiceConfig(trace_sample=1)
    )
    svc.put("db", CATALOG)
    server = ServiceServer(svc)
    host, port = server.start()
    client = Client(host, port, timeout=10.0)
    yield svc, server, client, host, port
    client.close()
    server.stop()


class TestWire:
    def test_metrics_op_matches_in_process_snapshot(self, wire):
        svc, _, client, _, _ = wire
        client.query("db", QUERY)
        over_wire = client.metrics()
        assert over_wire["service.requests.total"] == 1
        in_process = svc.registry.snapshot()
        assert (
            over_wire["service.requests.total"]
            == in_process["service.requests.total"]
        )
        assert over_wire.keys() == in_process.keys()
        assert "metrics" not in client.stats()

    def test_traces_op_and_drain(self, wire):
        _, _, client, _, _ = wire
        client.query("db", QUERY)
        records = _wait_for(lambda: client.traces())
        assert records[0]["name"] == "service.query"
        assert any(s["name"] == "queue" for s in records[0]["spans"])
        drained = client.traces(drain=True)
        assert drained  # drain returns what was buffered...
        assert client.traces() == []  # ...and empties the ring

    def test_unknown_op_is_typed_error(self, wire):
        _, _, client, _, _ = wire
        with pytest.raises(BadRequestError, match="unknown op"):
            client.call("bogus")
        # The connection survives a bad request.
        assert client.ping() == "pong"

    def test_loadgen_smoke_writes_trajectory(self, wire, tmp_path):
        sys.path.insert(
            0, os.path.join(os.path.dirname(__file__), "..", "benchmarks")
        )
        try:
            import loadgen
        finally:
            sys.path.pop(0)
        _, _, client, host, port = wire
        loadgen.ensure_document(client, "xmark", factor=0.001)
        entry = loadgen.run_load(
            host, port,
            qps=80.0, duration=0.5, clients=2,
            target="xmark", write_every=10, label="smoke",
        )
        assert entry["requests"] >= 1
        assert entry["errors"] == 0
        assert entry["writes"] >= 1
        assert math.isfinite(entry["p99_ms"]) and entry["p99_ms"] > 0
        assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
        out = tmp_path / "BENCH_service.json"
        loadgen.append_run(str(out), entry)
        loadgen.append_run(str(out), dict(entry, label="smoke-2"))
        written = json.loads(out.read_text(encoding="utf-8"))
        assert written["benchmark"] == "service-loadgen"
        assert [run["label"] for run in written["runs"]] == ["smoke", "smoke-2"]

    def test_loadgen_percentiles_exact(self):
        sys.path.insert(
            0, os.path.join(os.path.dirname(__file__), "..", "benchmarks")
        )
        try:
            import loadgen
        finally:
            sys.path.pop(0)
        assert loadgen.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert loadgen.percentile([1.0, 2.0, 3.0, 4.0], 100.0) == pytest.approx(4.0)
        assert loadgen.percentile([7.0], 99.0) == pytest.approx(7.0)
        assert math.isnan(loadgen.percentile([], 50.0))
