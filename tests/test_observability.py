"""End-to-end request observability: cross-process trace propagation,
plan-vs-actual execution profiles, the slow-query log, and the text
exposition surface.

Covers the acceptance criteria of the observability tentpole: a
client-driven request yields ONE stitched trace with the client's and
the service's records under a single trace id; ``explain_analyze``
reports estimated vs actual rows for every Fig-12 read; the slow-query
ring captures over-threshold requests with their trace and profile;
and the Prometheus text rendering exposes every histogram's exact
min/max.
"""

import json
import os
import subprocess
import sys
import time
import urllib.request

import pytest

from repro import cli
from repro.engine.engine import Engine
from repro.obs import (
    ExpositionServer,
    MetricsRegistry,
    Profile,
    SlowQueryLog,
    Tracer,
    current_profile,
    new_span_id,
    process_token,
    profiled,
    render_events,
    render_prometheus,
    stitch,
)
from repro.service import Client, QueryService, ServiceConfig, ServiceServer
from repro.store.answer import wire_body
from repro.xmltree.parser import parse_to_arena

CATALOG = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price><country>A</country></supplier>"
    "<supplier><sname>Dell</sname><price>20</price><country>B</country></supplier>"
    "</part><part><pname>mouse</pname>"
    "<supplier><sname>HP</sname><price>8</price><country>A</country></supplier>"
    "</part></db>"
)

QUERY = "for $x in part/supplier return $x"

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _wait_for(fn, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = fn()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError("condition not met in time")


# ----------------------------------------------------------------------
# Profiles: plan-vs-actual
# ----------------------------------------------------------------------


class TestProfile:
    def test_counters_and_snapshot(self):
        prof = Profile()
        prof.set_plan("scan", est_nodes=100)
        prof.add_scan(nodes=40, pruned=7, transitions=40, skipped=55)
        prof.add_table_growth(sets=2, moves=5)
        prof.add_serialize_bytes(123)
        prof.add_results(9)
        prof.finish()
        snap = prof.snapshot()
        assert snap["strategy"] == "scan"
        assert snap["est_nodes"] == 100
        assert "est_cost" not in snap and "backend" not in snap
        assert snap["nodes_visited"] == 40
        assert snap["subtrees_pruned"] == 7
        assert snap["dfa_transitions"] == 40
        assert snap["nodes_skipped"] == 55
        assert snap["table_sets_added"] == 2
        assert snap["table_moves_added"] == 5
        assert snap["serialize_bytes"] == 123
        assert snap["results"] == 9
        assert snap["visit_ratio"] == pytest.approx(0.4)
        assert snap["dur_us"] >= 0

    def test_qualifier_counters_and_snapshot(self):
        prof = Profile()
        assert prof.snapshot()["qual_verdicts"] == {}
        prof.add_qualifiers(sweeps=1, swept=40, stepped=3, verdicts={"leaf-heavy": 1})
        prof.add_qualifiers(sweeps=2, swept=2, verdicts={"leaf-heavy": 1, "few-candidates": 2})
        prof.add_qualifiers()
        snap = prof.snapshot()
        assert (snap["qual_sweeps"], snap["qual_swept"], snap["qual_stepped"]) == (3, 42, 3)
        assert snap["qual_verdicts"] == {"leaf-heavy": 2, "few-candidates": 2}
        snap["qual_verdicts"]["x"] = 1  # a copy: the slow log keeps its own
        assert "x" not in prof.qual_verdicts

    def test_a_swept_scan_says_so(self):
        """``explain_analyze``, and so the slow log, report what the
        qualifier sweeps examined — or why a range was stepped."""
        people = "".join(
            f"<person><age>{20 + 3 * k}</age><name>n{k}</name></person>" for k in range(24)
        )
        arena = parse_to_arena(f"<site><people>{people}</people></site>")
        engine = Engine()
        report, results = engine.prepare_query(
            "for $x in people/person[age > 60] return $x/name"
        ).explain_analyze(arena)
        assert len(results) == 10
        assert "qualifiers: 1 ranges swept over 24 leaf postings, 0 candidates decided per node" in report
        # jumped-over candidates are skipped, not visited: people + 10 persons
        # + their children
        prof = Profile()
        with profiled(prof):
            engine.prepare_query("for $x in people/person[age > 60] return $x").run_refs(arena)
        assert (prof.qual_sweeps, prof.qual_swept, prof.qual_stepped) == (1, 24, 0)
        assert prof.nodes_visited == 11
        assert prof.nodes_visited + prof.nodes_skipped >= 24
        report, _ = engine.prepare_query(
            "for $x in people/person[*/age > 60 or .//age > 70] return $x"
        ).explain_analyze(arena)
        assert "0 ranges swept over 0 leaf postings, 24 candidates decided per node " \
            "(unsupported:wildcard-step x1)" in report
        report, _ = engine.prepare_query(
            "for $x in people[person/age > 60] return $x"
        ).explain_analyze(arena)
        assert "1 candidates decided per node (few-candidates x1)" in report
        report, _ = engine.prepare_query("for $x in people/person return $x").explain_analyze(arena)
        assert "qualifiers:" not in report

    def test_profiled_activates_and_restores(self):
        assert current_profile() is None
        outer, inner = Profile(), Profile()
        with profiled(outer):
            assert current_profile() is outer
            with profiled(inner):
                assert current_profile() is inner
            assert current_profile() is outer
        assert current_profile() is None

    def test_select_indices_equivalent_with_and_without_profile(self):
        # One scan loop serves both: an active profile only receives
        # its counts, the refs selected are the same.
        arena = parse_to_arena(CATALOG)
        engine = Engine()
        prepared = engine.prepare_query(QUERY)
        bare = prepared.run_refs(arena)
        prof = Profile()
        with profiled(prof):
            again = prepared.run_refs(arena)
        assert again == bare
        assert prof.nodes_visited > 0
        assert prof.dfa_transitions > 0

    def test_full_scan_reports_visit_ratio_one(self):
        # Plan and actual count the same thing on the arena scan — the
        # elements below the root — so //* is a ratio of exactly 1.
        arena = parse_to_arena(CATALOG)
        engine = Engine()
        prepared = engine.prepare_query("for $x in //* return $x")
        prof = Profile()
        with profiled(prof):
            refs = prepared.run_refs(arena)
        assert len(refs) == arena.n_elements - 1
        assert prof.nodes_visited == prof.est_nodes == len(refs)
        assert prof.snapshot()["visit_ratio"] == 1.0
        assert prof.nodes_skipped == 0  # a wildcard step never jumps

    def test_jump_scan_reports_nodes_skipped(self):
        arena = parse_to_arena(CATALOG)
        engine = Engine()
        report, results = engine.prepare_query(
            "for $x in //price return $x"
        ).explain_analyze(arena)
        assert len(results) == 3
        assert "3 nodes visited" in report
        assert f"{len(arena) - 1 - 3} nodes skipped by jumps" in report

    def test_explain_analyze_covers_fig12_mix(self):
        sys.path.insert(
            0, os.path.join(os.path.dirname(__file__), "..", "benchmarks")
        )
        try:
            import loadgen
        finally:
            sys.path.pop(0)
        from repro.xmark.generator import generate
        from repro.xmltree.serializer import serialize

        arena = parse_to_arena(serialize(generate(0.002, seed=42)))
        engine = Engine()
        for text in loadgen.READS:
            report, results = engine.prepare_query(text).explain_analyze(arena)
            assert "estimated" in report and "actual:" in report
            assert "nodes visited" in report
            prof_line = [l for l in report.splitlines() if "estimated" in l and "visited" in l]
            assert prof_line, report

    def test_transform_explain_analyze_reports_the_executed_strategy(self):
        engine = Engine()
        prepared = engine.prepare_transform(
            'transform copy $a := doc("db") modify do delete $a//price return $a'
        )
        from repro.xmltree.parser import parse

        report, result = prepared.explain_analyze(parse(CATALOG))
        assert "strategy: topdown (GENTOP)" in report
        assert "actual:" in report
        assert "nodes visited" in report
        assert result is not None
        assert prepared.plan_for(parse(CATALOG)).strategy == "topdown"


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_gates_and_ring_bounds(self):
        log = SlowQueryLog(threshold=0.5, ring=2)
        assert log.enabled
        assert not log.should_record(0.4)
        assert log.should_record(0.6)
        for i in range(3):
            log.record({"i": i})
        stats = log.stats()
        assert stats["recorded"] == 3
        assert stats["buffered"] == 2
        assert stats["dropped"] == 1
        assert [e["i"] for e in log.entries()] == [1, 2]

    def test_drain_empties_the_ring(self):
        log = SlowQueryLog(threshold=0.0, ring=4)
        log.record({"i": 0})
        assert [e["i"] for e in log.entries(drain=True)] == [0]
        assert log.entries() == []
        assert log.stats()["buffered"] == 0

    def test_negative_threshold_disables(self):
        log = SlowQueryLog(threshold=-1.0)
        assert not log.enabled
        assert not log.should_record(1e9)

    def test_sink_write_through_and_error_isolation(self):
        seen = []
        log = SlowQueryLog(threshold=0.0, sink=seen.append)
        log.record({"i": 1})
        assert seen == [{"i": 1}]

        def boom(entry):
            raise OSError("disk full")

        log = SlowQueryLog(threshold=0.0, sink=boom)
        log.record({"i": 2})  # must not raise
        assert log.stats()["recorded"] == 1

    def test_service_captures_slow_request_with_trace_and_profile(self):
        # A zero threshold captures everything, however fast.
        svc = QueryService(
            config=ServiceConfig(
                trace_sample=1, profile_sample=1, slow_threshold=0.0
            )
        )
        try:
            svc.put("db", CATALOG)
            svc.query("db", QUERY)
            [entry] = svc.slowlog()["entries"]  # recorded before query() returned
            assert entry["target"] == "db"
            assert entry["query"] == QUERY
            assert entry["outcome"] == "ok"
            assert entry["coalesced"] == 0 and "served" not in entry
            assert 0 <= entry["queue_ms"] <= entry["dur_ms"]
            assert entry["snapshot_version"] == 1
            trace = entry["trace"]
            assert trace is not None and trace["name"] == "service.query"
            assert any(s["name"] == "queue" for s in trace["spans"])
            profile = entry["profile"]
            assert profile is not None
            assert profile["strategy"] == "scan"
            assert profile["nodes_visited"] > 0
            # part/supplier ends at a supplier: its subtree is skipped
            assert profile["nodes_skipped"] > 0
            # the qualifier counters ride along (a handful of
            # candidates: the rule leaves them to the closures)
            assert profile["qual_sweeps"] == 0 and profile["qual_swept"] == 0
            assert profile["qual_stepped"] >= 0 and isinstance(profile["qual_verdicts"], dict)
            # plan and actual both count elements below the root
            assert profile["est_nodes"] == 16
            assert profile["serialize_bytes"] > 0
            assert svc.metrics()["service.slowlog.ring.recorded"] >= 1
        finally:
            svc.close()

    def test_a_transform_op_bills_scan_splice_and_serialize_apart(self):
        """Regression: select *and* emit sat under one ``serialize``
        span, so scan time was billed to serialization.  The op emits
        the spans a view read does — and a view read's own layers bill
        their select to ``scan``, their patching to ``splice``."""
        hide = 'transform copy $a := doc("db") modify do delete $a//price return $a'
        svc = QueryService(config=ServiceConfig(trace_sample=1))
        try:
            svc.put("db", CATALOG)
            svc.define_view("stock", "db", hide)
            svc.define_view("anon", "stock", hide.replace("price", "sname"))
            assert "<price>" not in svc.transform("db", hide)
            svc.query("anon", QUERY)
            by_name = {record["name"]: record for record in svc.traces()}
            transform = [s["name"] for s in by_name["service.transform"]["spans"]]
            # The views compiled this text: the op finds it cached.
            assert transform == ["scan", "splice", "serialize"]
            read = [s["name"] for s in by_name["service.query"]["spans"]]
            # The view's first read splices both layers, then scans.
            assert [n for n in read if n in ("scan", "splice", "serialize")] == [
                "scan", "splice", "scan", "splice", "scan", "serialize"
            ]
            # One evaluation site: a staged preview and a plain read
            # are led on this thread too, and bill the same layers to
            # the leader's own trace.
            svc.stage("db", hide.replace("price", "country"))
            svc.query("db", QUERY, staged=True)
            svc.query("db", QUERY)
            view, staged, plain = [
                [s["name"] for s in record["spans"]]
                for record in svc.traces() if record["name"] == "service.query"
            ]
            assert view == read
            for names in (view, staged, plain):
                layers = [n for n in names if n in ("scan", "splice", "serialize")]
                assert layers[0] == "scan" and layers[-1] == "serialize"
            assert "splice" in staged and "splice" not in plain
        finally:
            svc.close()

    def test_store_slowlog_cli_tells_a_hit_from_an_evaluation(self, tmp_path, capsys):
        lines = []
        svc = QueryService(
            config=ServiceConfig(slow_threshold=0.0),
            slow_sink=lambda entry: lines.append(json.dumps(entry, default=str)),
        )
        try:
            svc.put("db", CATALOG)
            svc.query("db", QUERY)
            svc.query("db", QUERY)
        finally:
            svc.close()
        (tmp_path / "slowlog.jsonl").write_text("\n".join(lines) + "\n")
        assert cli.main(["store", "slowlog", "--state", str(tmp_path)]) == 0
        evaluated, hit = capsys.readouterr().out.splitlines()
        assert " ok " in evaluated and "@" not in evaluated
        assert " memo " in hit and "@" not in hit and "queue 0.0 ms" in hit

    SLOWLOG = [
        {"dur_ms": 12.5, "outcome": "ok", "target": "db", "queue_ms": 0.1,
         "query": "for $x in //a return $x", "trace": {"spans": [{"name": "scan"}]}},
        {"dur_ms": 3.0, "outcome": "memo", "target": "db", "queue_ms": 0.0,
         "query": "for $x in //a return $x", "trace": None},
        {"dur_ms": 40.25, "outcome": "ok", "target": "v", "queue_ms": 2.0,
         "query": "for $x in //b return $x", "trace": {"spans": []}},
    ]

    def _write_torn_slowlog(self, tmp_path):
        """The log a server killed mid-write leaves: whole lines, then a
        last line cut short with no newline."""
        whole = "".join(json.dumps(entry) + "\n" for entry in self.SLOWLOG)
        (tmp_path / "slowlog.jsonl").write_text(whole + '{"dur_ms": 7.0, "outc')

    def test_store_slowlog_cli_skips_a_torn_last_line(self, tmp_path, capsys):
        self._write_torn_slowlog(tmp_path)
        assert cli.main(["store", "slowlog", "--state", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        rows = out.splitlines()
        assert len(rows) == 3
        assert "'db'" in rows[0] and "'db'" in rows[1] and "'v'" in rows[2]
        assert " memo " in rows[1] and "0 span(s)" in rows[1]
        assert err.count("skipping malformed slowlog line") == 1
        assert "(3 entries)" in err

    def test_store_slowlog_cli_limit_keeps_the_newest(self, tmp_path, capsys):
        self._write_torn_slowlog(tmp_path)
        argv = ["store", "slowlog", "--state", str(tmp_path), "--limit", "1"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        [row] = out.splitlines()
        assert "40.25 ms" in row and "'v'" in row
        assert "(1 entry)" in err

    def test_store_slowlog_cli_json_emits_the_entries(self, tmp_path, capsys):
        self._write_torn_slowlog(tmp_path)
        assert cli.main(["store", "slowlog", "--state", str(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        assert [json.loads(line) for line in out.splitlines()] == self.SLOWLOG

    def test_disabled_metrics_disables_slowlog(self):
        svc = QueryService(
            config=ServiceConfig(metrics=False, slow_threshold=0.0)
        )
        try:
            svc.put("db", CATALOG)
            svc.query("db", QUERY)
            assert svc.slowlog()["entries"] == []
        finally:
            svc.close()


# ----------------------------------------------------------------------
# Text exposition: Prometheus rendering + the scrape server
# ----------------------------------------------------------------------


class TestExposition:
    def test_histogram_renders_summary_with_exact_min_max(self):
        registry = MetricsRegistry()
        hist = registry.histogram("svc.req.latency")
        for value in (0.002, 0.9, 0.004):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_svc_req_latency summary" in text
        assert 'repro_svc_req_latency{quantile="0.5"}' in text
        assert "repro_svc_req_latency_count 3" in text
        # Satellite: exact min/max land in the exposition, not just the
        # snapshot — interpolated percentiles clamp, the tails do not.
        assert "repro_svc_req_latency_min 0.002" in text
        assert "repro_svc_req_latency_max 0.9" in text

    def test_scalars_bools_and_junk(self):
        text = render_prometheus({
            "a.b.count": 7,
            "a.b.ratio": 0.5,
            "a.b.flag": True,
            "a.b.name": "not-a-number",
            "a.b.bad": float("nan"),
        })
        assert "repro_a_b_count 7" in text
        assert "repro_a_b_ratio 0.5" in text
        assert "# TYPE repro_a_b_flag gauge" in text
        assert "repro_a_b_flag 1" in text
        assert "name" not in text.replace("repro_a_b_name", "")  # skipped
        assert "nan" not in text.lower()

    def test_prometheus_text_parses_line_by_line(self):
        registry = MetricsRegistry()
        registry.counter("x.y.hits").inc(3)
        registry.histogram("x.y.lat").observe(0.25)
        for line in render_prometheus(registry.snapshot()).splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value)  # every sample value must parse as a float

    def test_render_events_jsonl(self):
        out = render_events([{"a": 1}, {"b": [1, 2]}])
        lines = out.strip().splitlines()
        assert [json.loads(l) for l in lines] == [{"a": 1}, {"b": [1, 2]}]
        assert render_events([]) == ""

    def test_exposition_server_serves_metrics_events_healthz(self):
        registry = MetricsRegistry()
        registry.counter("a.b.c").inc()
        server = ExpositionServer(
            snapshot_fn=registry.snapshot,
            events_fn=lambda: [{"trace": "t-1"}],
        ).start()
        host, port = server.address
        try:
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ).read().decode()
            assert "repro_a_b_c 1" in body
            events = urllib.request.urlopen(
                f"http://{host}:{port}/events", timeout=5
            ).read().decode()
            assert json.loads(events.strip()) == {"trace": "t-1"}
            health = urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            ).read().decode()
            assert health.strip() == "ok"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=5)
        finally:
            server.stop()

    def test_import_repro_does_not_import_an_http_stack(self):
        """``http.server`` pulls ``email``, ``ssl`` and ``mimetypes``
        into the process (≈ 7 MB resident); only ``--expose`` needs it."""
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import repro, sys; "
             "print([m for m in ('http.server', 'ssl', 'email') if m in sys.modules])"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
        )
        assert loaded.stdout.strip() == "[]"

    def test_repro_serve_expose_still_answers_healthz(self, tmp_path):
        state, port_file = str(tmp_path / "state"), tmp_path / "expose-port"
        catalog = tmp_path / "catalog.xml"
        catalog.write_text(CATALOG, encoding="utf-8")
        assert cli.main(
            ["store", "load", "-n", "db", "-i", str(catalog), "--state", state]
        ) == 0
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state", state, "--port", "0",
             "--expose", "--expose-port-file", str(port_file)],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            port = _wait_for(
                lambda: port_file.exists() and port_file.read_text().strip(), timeout=60
            )
            health = urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5)
            assert health.read() == b"ok\n"
        finally:
            serve.terminate()
            serve.wait(timeout=30)


# ----------------------------------------------------------------------
# Stitching and id uniqueness
# ----------------------------------------------------------------------


class TestStitch:
    def test_span_ids_are_process_token_prefixed_and_unique(self):
        token = process_token()
        ids = {new_span_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith(token + "-s") for i in ids)

    def test_single_root_tree_is_well_formed(self):
        tracer = Tracer(sample_every=1)
        root = tracer.trace("client.query")
        child = tracer.trace(
            "service.query", trace_id=root.trace_id, parent_span=root.span_id
        )
        child.finish()
        root.finish()
        [entry] = stitch(tracer.records())
        assert entry["well_formed"]
        assert entry["root"]["name"] == "client.query"
        assert [r["name"] for r in entry["records"]] == [
            "client.query", "service.query",
        ]

    def test_orphan_span_is_flagged(self):
        tracer = Tracer(sample_every=1)
        root = tracer.trace("client.query")
        # A service record whose parent died before finishing: its
        # parent id appears nowhere in the stitched set.
        tracer.trace(
            "service.query", trace_id=root.trace_id, parent_span="deadbeef-s0"
        ).finish()
        root.finish()
        [entry] = stitch(tracer.records())
        assert not entry["well_formed"]
        assert entry["orphan_spans"] == [
            {"name": "service.query", "parent_span": "deadbeef-s0"}
        ]
        assert entry["root"] is not None  # the root itself still finished

    def test_two_roots_is_not_well_formed(self):
        tracer = Tracer(sample_every=1)
        for _ in range(2):
            trace = tracer.trace("x", trace_id="shared-1")
            trace.finish()
        [entry] = stitch(tracer.records())
        assert entry["root"] is None
        assert not entry["well_formed"]

    def test_propagated_trace_bypasses_sampling(self):
        tracer = Tracer(sample_every=1000)
        tracer.trace("first")  # deterministic 1-in-N: the first is sampled
        assert not tracer.trace("unsampled").sampled
        adopted = tracer.trace("svc", trace_id="upstream-1", parent_span="up-s1")
        assert adopted.sampled
        assert adopted.trace_id == "upstream-1"
        adopted.finish()
        assert tracer.records()[0]["parent_span"] == "up-s1"


# ----------------------------------------------------------------------
# Cross-process propagation through the full stack
# ----------------------------------------------------------------------


@pytest.fixture
def wire():
    svc = QueryService(
        config=ServiceConfig(
            trace_sample=1, slow_threshold=0.0
        )
    )
    svc.put("db", CATALOG)
    server = ServiceServer(svc)
    host, port = server.start()
    client = Client(host, port, timeout=10.0, trace_sample=1)
    yield svc, server, client
    client.close()
    server.stop()


class TestPropagation:
    def test_client_root_and_service_record_share_one_trace(self, wire):
        svc, _, client = wire
        client.query("db", QUERY)
        server_records = _wait_for(lambda: client.traces())
        [local] = client.local_traces()
        assert local["name"] == "client.query"
        [server_rec] = [r for r in server_records if r["name"] == "service.query"]
        assert server_rec["trace"] == local["trace"]
        assert server_rec["parent_span"] == local["span_id"]

    def test_client_stitched_yields_one_well_formed_tree(self, wire):
        _, _, client = wire
        client.query("db", QUERY)
        _wait_for(lambda: client.traces())
        entries = client.stitched()
        assert len(entries) == 1
        [entry] = entries
        assert entry["well_formed"]
        assert entry["root"]["name"] == "client.query"
        names = sorted(r["name"] for r in entry["records"])
        assert names == ["client.query", "service.query"]

    def test_the_client_decode_is_a_span_of_its_root(self, wire):
        """The client's own layer — header parse, body read and slice
        — shows in the stitched tree as ``decode`` under
        ``client.query``; the server's record has none of it."""
        _, _, client = wire
        answer = client.query("db", QUERY)
        assert answer
        _wait_for(lambda: client.traces())
        [entry] = client.stitched()
        root = entry["root"]
        assert root["name"] == "client.query"
        [decode] = [s for s in root["spans"] if s["name"] == "decode"]
        assert decode["depth"] == 0 and 0 <= decode["dur_us"] <= root["dur_us"]
        [server] = [r for r in entry["records"] if r["name"] == "service.query"]
        assert server["parent_span"] == root["span_id"]
        assert "decode" not in [s["name"] for s in server["spans"]]
        # Other ops open no trace, so they record no span.
        client.ping()
        assert len(client.local_traces()) == 1

    def test_traces_op_stitched_flag(self, wire):
        _, _, client = wire
        client.query("db", QUERY)
        _wait_for(lambda: client.traces())
        [entry] = client.traces(stitched=True)
        assert entry["span_count"] >= 1
        assert "well_formed" in entry

    def test_slowlog_and_metrics_text_ops(self, wire):
        _, _, client = wire
        client.query("db", QUERY)
        out = _wait_for(lambda: client.slowlog()["entries"])
        assert out[0]["query"] == QUERY
        text = client.metrics_text()
        assert "# TYPE repro_service_request_latency summary" in text
        drained = client.slowlog(drain=True)
        assert drained["entries"]
        assert client.slowlog()["entries"] == []

    def test_memo_hit_is_traced_and_slow_logged(self, wire):
        svc, _, client = wire
        first = client.query("db", QUERY)
        assert client.query("db", QUERY) == first
        assert svc.metrics()["service.dispatch.evaluations"] == 1
        records = _wait_for(
            lambda: [
                r for r in client.traces()
                if r["name"] == "service.query" and r["meta"]["outcome"] == "memo"
            ]
        )
        [hit] = records
        assert "served" not in hit["meta"] and hit["spans"] == []
        # It joined the trace the client opened for that second call ...
        miss_root, hit_root = client.local_traces()
        assert hit["trace"] == hit_root["trace"] != miss_root["trace"]
        assert hit["parent_span"] == hit_root["span_id"]
        # ... so both requests stitch into one well-formed tree each.
        entries = client.stitched()
        assert len(entries) == 2 and all(e["well_formed"] for e in entries)
        # slow_threshold=0.0 captures everything, hits included.
        [slow] = [e for e in client.slowlog()["entries"] if e["outcome"] == "memo"]
        assert "served" not in slow
        assert slow["queue_ms"] == 0.0
        assert slow["snapshot_version"] == 1
        assert slow["trace"] == hit
        [evaluated] = [e for e in client.slowlog()["entries"] if e["outcome"] == "ok"]
        assert evaluated["queue_ms"] >= 0
        assert any(s["name"] == "queue" for s in evaluated["trace"]["spans"])

    def test_unsampled_client_sends_no_context(self):
        svc = QueryService(
            config=ServiceConfig(trace_sample=1)
        )
        svc.put("db", CATALOG)
        server = ServiceServer(svc)
        host, port = server.start()
        client = Client(host, port, timeout=10.0, trace_sample=0)
        try:
            client.query("db", QUERY)
            records = _wait_for(lambda: client.traces())
            # The service still samples its own trace, but as a root
            # (no propagated parent), and the client buffered nothing.
            [rec] = [r for r in records if r["name"] == "service.query"]
            assert "parent_span" not in rec
            assert client.local_traces() == []
        finally:
            client.close()
            server.stop()


class TestWireLayer:
    """``service.wire.*`` and the wire forms' share of the result
    cache, read the way an operator does: over the ``metrics`` op."""

    def test_a_repeat_reuses_and_the_probe_reports_what_the_forms_hold(self, wire):
        svc, _, client = wire
        client.query("db", QUERY)  # the miss: built, let go
        client.query("db", QUERY)  # the first hit: built, kept
        before = client.metrics()
        assert before["store.cache.results.wire_entries"] == 1
        held = before["store.cache.results.wire_bytes"]
        assert held == len(wire_body(svc.query("db", QUERY)))
        client.query("db", QUERY)
        after = client.metrics()
        assert after["service.wire.reused"] - before["service.wire.reused"] == 1
        assert after["service.wire.built"] == before["service.wire.built"] == 2
        assert after["store.cache.results.wire_bytes"] == held
        # An in-process read is no response: it moved neither count.
        assert svc.metrics()["service.wire.built"] + svc.metrics()["service.wire.reused"] == 3
        assert f"repro_store_cache_results_wire_bytes {held}" in client.metrics_text()
        svc.drop("db")
        dropped = client.metrics()
        assert dropped["store.cache.results.wire_bytes"] == 0
        assert dropped["store.cache.results.wire_entries"] == 0

    def test_the_trace_and_the_slow_log_say_built_or_reused(self, wire):
        _, _, client = wire
        for _ in range(3):
            client.query("db", QUERY)

        def all_three():
            records = [r for r in client.traces() if r["name"] == "service.query"]
            return records if len(records) == 3 else None

        records = _wait_for(all_three)
        assert [(r["meta"]["outcome"], r["meta"]["wire"]) for r in records] == [
            ("ok", "built"), ("memo", "built"), ("memo", "reused"),
        ]
        entries = client.slowlog()["entries"]
        assert [e["wire"] for e in entries] == ["built", "built", "reused"]
        assert [e["trace"]["meta"]["wire"] for e in entries] == [e["wire"] for e in entries]

    def test_an_in_process_read_carries_no_wire_verdict(self):
        with QueryService(
            config=ServiceConfig(trace_sample=1, slow_threshold=0.0)
        ) as svc:
            svc.put("db", CATALOG)
            svc.query("db", QUERY)
            svc.query("db", QUERY)
            assert all("wire" not in r["meta"] for r in svc.traces())
            assert [e["wire"] for e in svc.slowlog()["entries"]] == [None, None]
            assert svc.metrics()["service.wire.built"] == svc.metrics()["service.wire.reused"] == 0
