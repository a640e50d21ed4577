"""Service benchmarks: single-flight concurrent serving vs a serial
one-request-at-a-time baseline, what the read path costs on top of an
evaluation, and snapshot isolation under load.

The workload is the Fig-12 user-query mix over an XMark document
(factor 0.1 ≈ 10.4 MB at full size), served to 16 concurrent clients
with a writer committing between rounds so the per-version memo
cannot carry answers across versions:

* **serial baseline** — every request pins its snapshot and evaluates
  individually (:meth:`~repro.service.service.QueryService.
  query_direct`): the one-request-at-a-time server with no
  cross-request result reuse.
* **single-flight service** — the same total request list through
  :meth:`~repro.service.service.QueryService.query`: identical
  in-flight requests share one evaluation per (document, version,
  query) and the memo serves repeats within a version.  The acceptance
  bar is ≥ 4× the serial baseline's throughput (asserted at full size;
  informational in smoke mode, where an evaluation is microseconds).

The repeats experiment is the count bar for that sharing: 16 clients
each ask the same text many times over an unchanged document, and —
whatever the host, in smoke mode too — that costs ONE evaluation;
every other request is a memo hit or a follower of the one evaluation.
Its memo-hit p50 is printed beside the counts.

The distinct-texts experiment is the other side: two closed-loop
clients that never share a text, so every request is a miss that runs
its own evaluation on the thread that brought it.  Its miss p50 is
printed beside the p50 of the same texts through ``query_direct`` —
the difference is what admission, the flight table and the memo cost
a request that gains nothing from them.  Only the counts are asserted.

The hits-are-bytes experiment is the wire layer's table: for each of
the six answers, what building its wire form costs (the length-prefixed
body; beside it, the JSON array the response carried before 1.30.0,
and the two sizes), what framing the cached
:class:`~repro.store.answer.Answer` costs instead (the server's
time-to-bytes on a repeat hit — bars, for every answer of 100 KB or
more: at most a fifth of the JSON encode and half of the build), and
one connection's round trip on the hit that builds the wire form
against the repeats that reuse it.

The isolation experiment hammers the same service with paired-marker
commits (two staged inserts committed atomically) and asserts no
reader — all of them running through pinned MVCC snapshots — ever
observes an odd marker count, i.e. a torn or staged state.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q -s
"""

import json
import statistics
import threading
import time

from harness import (
    DATASET_SEED,
    SMOKE,
    dataset,
    format_table,
    smoke_factor,
    smoke_rounds,
)
from repro.service import Client, QueryService, ServiceConfig, ServiceServer
from repro.service.protocol import encode_response
from repro.store import Answer
from repro.store.answer import wire_body
from repro.xmark.queries import EMBEDDED_PATHS

FACTOR = smoke_factor(0.1)
CLIENTS = 16
ROUNDS = smoke_rounds(3, 1)

#: The ledger's serving document (``serve_hot`` repeats REQUESTS over
#: it): the wire table's answers are the ones that workload sends.
WIRE_FACTOR = smoke_factor(0.05, cap=0.004)

#: The Fig-12 query mix in FLWR form (the paper's U-paths as user
#: queries, same shapes bench_fig12_methods.py transforms against;
#: ``loadgen.READS`` is this list).
REQUESTS = [
    f"for $x in {EMBEDDED_PATHS[uid]} return $x"
    for uid in ("U1", "U2", "U3", "U4", "U8", "U9")
]

#: The between-rounds write: a tiny committed insert that bumps the
#: version (and thereby kills every memoized answer for it).
BUMP = (
    'transform copy $a := doc("xmark") modify do '
    "insert <served_round/> into $a/regions return $a"
)


def _fresh_service(**config) -> QueryService:
    service = QueryService(config=ServiceConfig(**config))
    service.store.put("xmark", dataset(FACTOR, seed=DATASET_SEED))
    return service


def _run_serial(service: QueryService) -> float:
    """The baseline: all CLIENTS × REQUESTS × ROUNDS requests, one at
    a time, a commit between rounds."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for _ in range(CLIENTS):
            for text in REQUESTS:
                service.query_direct("xmark", text)
        service.commit("xmark", BUMP)
    return time.perf_counter() - start


def _run_concurrent(service: QueryService) -> float:
    """The same request list from CLIENTS concurrent client threads,
    through ``query``; same commit between rounds."""
    errors: list = []

    def client():
        try:
            for text in REQUESTS:
                service.query("xmark", text)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    start = time.perf_counter()
    for _ in range(ROUNDS):
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.commit("xmark", BUMP)
    elapsed = time.perf_counter() - start
    assert not errors, errors[:3]
    return elapsed


def test_single_flight_throughput_vs_serial_baseline():
    total = CLIENTS * len(REQUESTS) * ROUNDS

    serial_service = _fresh_service()
    serial = _run_serial(serial_service)
    serial_service.close()

    shared_service = _fresh_service(workers=4)
    shared = _run_concurrent(shared_service)
    metrics = shared_service.metrics()
    shared_service.close()

    rows = [
        ("serial (one at a time)", serial, total / serial, 1.0),
        ("single-flight (16 clients)", shared, total / shared, serial / shared),
    ]
    print()
    print(format_table(
        f"service throughput, Fig-12 mix x{CLIENTS} clients x{ROUNDS} rounds "
        f"(factor {FACTOR}, commit between rounds)",
        ["mode", "seconds", "req/s", "speedup"],
        [(n, f"{s:.3f}", f"{r:.0f}", f"{x:.2f}x") for n, s, r, x in rows],
    ))
    print(
        f"single-flight metrics: {metrics['service.dispatch.evaluations']} evaluations "
        f"for {metrics['service.requests.total']} requests "
        f"({metrics['service.dispatch.coalesced']} coalesced, "
        f"{metrics['service.dispatch.memo_hits']} memo hits, "
        f"{metrics['service.reads.stale']} stale reads)"
    )
    # Every request was answered from a pinned snapshot, and sharing
    # actually collapsed work: far fewer evaluations than requests.
    assert metrics["service.requests.total"] == total
    assert metrics["service.reads.snapshot"] == total
    assert total == (
        metrics["service.dispatch.evaluations"]
        + metrics["service.dispatch.memo_hits"]
        + metrics["service.dispatch.coalesced"]
    )
    assert metrics["service.dispatch.evaluations"] < total
    if not SMOKE:
        # The acceptance bar: coalescing + memoized fan-out must beat
        # one-at-a-time serving by at least 4x on the same hardware.
        assert shared * 4 <= serial, (
            f"single-flight {shared:.3f}s not 4x faster than serial {serial:.3f}s"
        )


def test_repeats_cost_one_evaluation():
    """K clients x R repeats of one text, no commits: exact counts, so
    asserted at every size.  ``evaluations == 1`` is independent of
    timing: a first request either finds the flight on the table and
    joins it, or — the leader publishes memo first, table second —
    finds the answer already in the memo."""
    repeats = smoke_rounds(200, 20)
    service = _fresh_service(workers=4)
    text = REQUESTS[0]
    hit_latencies: list = []
    errors: list = []
    start = threading.Barrier(CLIENTS)

    def client():
        try:
            start.wait(timeout=30.0)
            first = service.query("xmark", text)
            for _ in range(repeats - 1):
                began = time.perf_counter()
                again = service.query("xmark", text)
                hit_latencies.append(time.perf_counter() - began)
                assert again == first and again is not first  # the hit's own list
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    metrics = service.metrics()
    service.close()
    assert not errors, errors[:3]
    total = CLIENTS * repeats
    hit_p50_ms = statistics.median(hit_latencies) * 1000.0
    print()
    print(format_table(
        f"one text x{CLIENTS} clients x{repeats} repeats, no commits "
        f"(factor {FACTOR})",
        ["requests", "evaluations", "memo hits", "coalesced", "memo-hit p50 ms"],
        [(str(total), str(metrics["service.dispatch.evaluations"]),
          str(metrics["service.dispatch.memo_hits"]), str(metrics["service.dispatch.coalesced"]),
          f"{hit_p50_ms:.4f}")],
    ))
    assert metrics["service.requests.total"] == metrics["service.reads.snapshot"] == total
    assert metrics["service.dispatch.evaluations"] == 1
    assert (
        metrics["service.dispatch.memo_hits"] + metrics["service.dispatch.coalesced"]
        == total - 1
    )
    assert metrics["service.dispatch.memo_hits"] >= CLIENTS * (repeats - 1)


def test_distinct_texts_pay_one_evaluation_each():
    """Two closed-loop clients, every text new: what a request that
    can share nothing pays for going through ``query`` at all.

    The two paths take turns, a short chunk each, on a service each,
    so a host that slows down for a second slows both alike."""
    chunk = 25
    chunks = smoke_rounds(8, 1)
    direct_service, service = _fresh_service(), _fresh_service()
    latencies: dict = {"direct": [], "query": []}
    errors: list = []

    def client(name, call, lane, first):
        try:
            for i in range(first, first + chunk):
                text = (
                    f"for $x in people/person[@id = 'person{2 * i + lane}'] "
                    "return $x/name"
                )
                began = time.perf_counter()
                call("xmark", text)
                latencies[name].append(time.perf_counter() - began)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    for index in range(chunks):
        for name, call in (
            ("direct", direct_service.query_direct), ("query", service.query)
        ):
            threads = [
                threading.Thread(target=client, args=(name, call, lane, index * chunk))
                for lane in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    metrics = service.metrics()
    direct_service.close()
    service.close()
    assert not errors, errors[:3]
    direct_p50, miss_p50 = (
        statistics.median(latencies[name]) * 1000.0 for name in ("direct", "query")
    )
    print()
    print(format_table(
        f"2 closed-loop clients x{chunks * chunk} distinct texts (factor {FACTOR})",
        ["requests", "evaluations", "coalesced", "memo hits",
         "query_direct p50 ms", "query (miss) p50 ms", "read-path cost ms"],
        [(str(metrics["service.requests.total"]), str(metrics["service.dispatch.evaluations"]),
          str(metrics["service.dispatch.coalesced"]), str(metrics["service.dispatch.memo_hits"]),
          f"{direct_p50:.3f}", f"{miss_p50:.3f}", f"{miss_p50 - direct_p50:+.3f}")],
    ))
    assert (
        metrics["service.requests.total"] == metrics["service.reads.snapshot"]
        == 2 * chunks * chunk
    )
    assert metrics["service.dispatch.evaluations"] == metrics["service.requests.total"]
    assert metrics["service.dispatch.coalesced"] == metrics["service.dispatch.memo_hits"] == 0
    assert metrics["service.requests.shed"] == metrics["service.requests.deadline_miss"] == 0


def test_instrumentation_overhead_within_three_percent():
    """The telemetry substrate's acceptance bar: running the Fig-12
    mix with the metrics registry + sampled tracer on (the
    default) may cost at most 3% over the same service with
    ``metrics=False`` (every instrument a shared no-op, tracing off).

    Best-of-3 each way to damp scheduler noise; the bar is asserted at
    full size only (in smoke mode evaluations are microseconds and
    thread start-up dominates both runs, so the ratio is noise).
    """

    def best_concurrent(**config) -> float:
        best = float("inf")
        for _ in range(3):
            service = _fresh_service(workers=4, **config)
            best = min(best, _run_concurrent(service))
            service.close()
        return best

    enabled = best_concurrent()
    disabled = best_concurrent(metrics=False)
    overhead = (enabled / disabled - 1.0) * 100.0
    print()
    print(
        f"instrumentation overhead: enabled {enabled:.3f}s vs "
        f"disabled {disabled:.3f}s ({overhead:+.1f}%)"
    )
    if not SMOKE:
        assert enabled <= disabled * 1.03 + 0.005, (
            f"telemetry costs {overhead:.1f}% on the Fig-12 mix "
            f"(enabled {enabled:.3f}s vs disabled {disabled:.3f}s); "
            "the bar is 3%"
        )


def _median_ms(call, rounds: int) -> float:
    samples = []
    for index in range(rounds):
        began = time.perf_counter()
        call(index)
        samples.append(time.perf_counter() - began)
    return statistics.median(samples) * 1000.0


def test_a_repeat_hit_is_framed_not_encoded():
    """The wire layer, answer by answer.  ``body`` is what building the
    wire form costs, which a repeat hit no longer pays, and ``json``
    what the same answer cost as the JSON array responses carried
    before 1.30.0 (what every hit paid before 1.11.0); ``framed`` is
    what a repeat hit pays now; the two round-trip columns are one connection's p50
    on the hit that builds (and keeps) the wire form and on the hits
    after it."""
    rounds = smoke_rounds(15, 3)
    service = QueryService()
    service.store.put("xmark", dataset(WIRE_FACTOR, seed=DATASET_SEED))
    rows, bars = [], []
    with ServiceServer(service) as server, Client(*server.address) as client:
        for text in REQUESTS:
            items = service.query("xmark", text)
            json_ms = _median_ms(
                lambda i: json.dumps(items, separators=(",", ":")).encode("ascii"),
                rounds * 4,
            )
            body_ms = _median_ms(lambda i: wire_body(items), rounds * 4)
            warm = Answer(items)
            assert encode_response(0, warm) == encode_response(0, warm)  # second call keeps
            assert warm.holds_wire
            framed_ms = _median_ms(lambda i: encode_response(i, warm), rounds * 4)
            first_hit, repeat = [], []
            for _ in range(rounds):
                service.store.results.invalidate()
                expected = client.query("xmark", text)  # the miss
                for samples, count in ((first_hit, 1), (repeat, 4)):
                    for _ in range(count):
                        began = time.perf_counter()
                        again = client.query("xmark", text)
                        samples.append(time.perf_counter() - began)
                        assert again == expected == items
            rows.append((
                text[len("for $x in "):-len(" return $x")][:44],
                str(len(json.dumps(items, separators=(",", ":")))), str(warm.wire_bytes),
                f"{json_ms:.3f}", f"{body_ms:.3f}", f"{framed_ms:.4f}",
                f"{statistics.median(first_hit) * 1000.0:.3f}",
                f"{statistics.median(repeat) * 1000.0:.3f}",
            ))
            if warm.wire_bytes >= 100_000:
                bars.append((text, framed_ms, json_ms, body_ms))
        metrics = service.metrics()
    print()
    print(format_table(
        f"hits are bytes: the six answers at factor {WIRE_FACTOR}, one connection, "
        f"p50 of {rounds} rounds",
        ["path", "json B", "body B", "json ms", "body ms", "framed ms",
         "first-hit rt ms", "repeat rt ms"],
        rows,
    ))
    # + the in-process read
    assert metrics["service.dispatch.evaluations"] == len(REQUESTS) * (rounds + 1)
    assert metrics["service.wire.built"] == len(REQUESTS) * rounds * 2  # the miss, the first hit
    assert metrics["service.wire.reused"] == len(REQUESTS) * rounds * 4
    for text, framed_ms, json_ms, body_ms in bars:
        assert framed_ms <= 0.2 * json_ms, (
            f"repeat-hit time-to-bytes {framed_ms:.3f} ms is more than a fifth "
            f"of the {json_ms:.3f} ms JSON encode for {text!r}"
        )
        # Framing copies the held body once; a build joins, encodes
        # and prefixes it, so a rebuilt hit would cost at least twice.
        assert framed_ms <= 0.5 * body_ms, (
            f"repeat-hit time-to-bytes {framed_ms:.3f} ms is more than half "
            f"of the {body_ms:.3f} ms body build for {text!r}"
        )
    if not SMOKE:
        assert len(bars) >= 3, "the bar needs answers of 100 KB and more"


def test_snapshot_isolation_under_load():
    """No reader ever sees a partially-committed or staged version:
    markers are inserted in atomically-committed pairs, so every
    committed version holds an even count."""
    service = _fresh_service(workers=4)
    pair = [
        'transform copy $a := doc("xmark") modify do '
        "insert <iso_marker/> into $a/people return $a",
        'transform copy $a := doc("xmark") modify do '
        "insert <iso_marker/> into $a/regions return $a",
    ]
    readers_done = threading.Event()
    torn: list = []
    errors: list = []
    commits = [0]

    def writer():
        # At least one paired commit even if the readers (on a slow or
        # single-core host) finish their rounds first.
        while not readers_done.is_set() or commits[0] == 0:
            for text in pair:
                service.stage("xmark", text)
            service.commit("xmark")
            commits[0] += 1

    def reader():
        try:
            for _ in range(smoke_rounds(20, 5)):
                rows = service.query("xmark", "for $x in //iso_marker return $x")
                if len(rows) % 2:
                    torn.append(len(rows))
                # A staged-but-uncommitted preview must stay invisible
                # to plain reads; the staged flag flips it on.
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)
        finally:
            readers_done.set()

    writer_thread = threading.Thread(target=writer)
    reader_threads = [threading.Thread(target=reader) for _ in range(4)]
    writer_thread.start()
    for thread in reader_threads:
        thread.start()
    for thread in reader_threads:
        thread.join()
    writer_thread.join()
    metrics = service.metrics()
    service.close()
    print()
    print(
        f"isolation hammer: {commits[0]} paired commits, "
        f"{metrics['service.reads.snapshot']} snapshot reads, "
        f"{metrics['service.reads.stale']} stale reads, 0 torn"
    )
    assert not errors, errors[:3]
    assert not torn, f"readers observed torn versions: {torn[:5]}"
    assert commits[0] >= 1
