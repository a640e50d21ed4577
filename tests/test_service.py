"""The query service: MVCC snapshot reads, single-flight evaluation
on the caller's thread, admission control, and the line-protocol
server/client.

The oracle for every read is ``query_naive``, serialized — the store's
own ``query_serialized`` reads the one result cache the service fills,
so it would compare an answer with itself.  The service must return
the same strings from the leader, to every follower, and over the
wire.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro import QueryService, ServiceConfig
from repro.automata.selecting import build_selecting_nfa
from repro.service import (
    BadRequestError,
    Client,
    DeadlineError,
    OverloadedError,
    ResponseLostError,
    RetryExhaustedError,
    RetryPolicy,
    ServiceClosedError,
    ServiceServer,
    TransportError,
)
from repro.service.protocol import decode_line, encode_frame, encode_response
from repro.store import Answer, StoreError, ViewStore
from repro.transform.arena import transform_arena
from repro.transform.naive import transform_naive
from repro.transform.query import parse_transform_query
from repro.xmltree.arena import thaw
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize, serialize_arena
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_user_query

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
INSERT_T = (
    'transform copy $a := doc("db") modify do insert <t/> into $a/left return $a'
)

QUERIES = [
    "for $x in part return $x/pname",
    "for $x in part/supplier[price < 10] return $x",
    "for $x in part[pname = 'kb']/supplier return $x/sname",
]


def _dispatch(metrics):
    """Where the reads were answered: ``(evaluations, coalesced,
    memo_hits)`` of a metrics snapshot (``service.dispatch.*``)."""
    return tuple(
        metrics[f"service.dispatch.{name}"] for name in ("evaluations", "coalesced", "memo_hits")
    )


def _oracle(store, target, text, include_staged=False):
    return [
        item if isinstance(item, str) else serialize(item)
        for item in store.query_naive(target, text, include_staged=include_staged)
    ]


@pytest.fixture
def service():
    svc = QueryService()
    svc.put("db", CATALOG)
    yield svc
    svc.close()


# ----------------------------------------------------------------------
# MVCC snapshot reads
# ----------------------------------------------------------------------


def test_query_matches_store_oracle(service):
    for text in QUERIES:
        assert service.query("db", text) == _oracle(service.store, "db", text)


def test_view_and_staged_reads_match_the_store(service):
    service.define_view("public", "db", HIDE_A)
    text = "for $x in part/supplier return $x"
    assert service.query("public", text) == _oracle(service.store, "public", text)
    service.stage(
        "db",
        'transform copy $a := doc("db") modify do '
        "delete $a/part[pname = 'kb'] return $a",
    )
    staged = service.query("db", "for $x in part return $x/pname", staged=True)
    assert staged == ["<pname>mouse</pname>"]
    # ...while the committed state is unchanged for plain reads.
    assert service.query("db", "for $x in part return $x/pname") == [
        "<pname>kb</pname>",
        "<pname>mouse</pname>",
    ]
    m = service.metrics()
    assert m["service.reads.snapshot"] == m["service.requests.total"] == 3
    service.rollback("db")


def test_the_transform_op_chooses_no_strategy(service):
    """A wire transform is the kernel plus the columnar serializer on
    the pinned arena, compiled into the store's one cache: there is no
    engine, so no rule is consulted and no prepared statement kept."""
    text = (
        'transform copy $a := doc("db") modify do '
        "rename $a//pname as name return $a"
    )
    answer = service.transform("db", text)
    assert "<name>kb</name>" in answer
    query = parse_transform_query(text)
    kernel = transform_arena(
        service.store.pin("db").arena, query.update, build_selecting_nfa(query.path)
    )
    assert answer == serialize_arena(kernel.arena)
    assert service.store.compiled.transforms.stats()["misses"] == 1
    snap = service.registry.snapshot()
    assert not [
        name for name in snap if name.startswith(("engine.planner", "engine.prepared"))
    ]


def test_a_service_takes_no_engine():
    with pytest.raises(TypeError):
        QueryService(engine=object())
    with QueryService() as svc:
        assert not hasattr(svc, "engine")


def test_a_server_compiles_each_text_once(service, monkeypatch):
    """Reads, a view, a read through it and a commit compile into the
    store's one cache: N distinct read texts and the view read's text
    are parsed once each, the view's transform once."""
    import repro.compiled

    parsed = {"user": 0, "transform": 0}

    def counting(kind, parse_text):
        def parse_counted(text):
            parsed[kind] += 1
            return parse_text(text)
        return parse_counted

    monkeypatch.setattr(repro.compiled, "parse_user_query",
                        counting("user", repro.compiled.parse_user_query))
    monkeypatch.setattr(repro.compiled, "parse_transform_query",
                        counting("transform", repro.compiled.parse_transform_query))
    for text in QUERIES:
        service.query("db", text)
    service.define_view("public", "db", HIDE_A)
    service.query("public", "for $x in part/supplier return $x/sname")
    service.commit("db", INSERT_T.replace("$a/left", "$a/part"))
    compiled = service.store.compiled
    assert compiled.user_queries.stats()["misses"] == len(QUERIES) + 1
    assert compiled.transforms.stats()["misses"] == 1
    assert parsed == {"user": len(QUERIES) + 1, "transform": 1}
    snap = service.registry.snapshot()
    assert snap["engine.compiled.user_queries.misses"] == len(QUERIES) + 1
    assert not [name for name in snap if name.startswith("store.cache.compiled")]


def test_a_cold_read_is_a_traced_profiled_compile():
    """The first read of a new text pays its compile at the compiled
    cache's miss and says so: a ``compile`` span in its trace and a
    ``cold`` profile.  Evaluated again after the result cache dropped
    it, the same text compiles nothing and reads warm."""
    text = "for $x in part/supplier return $x/sname"
    svc = QueryService(
        config=ServiceConfig(trace_sample=1, profile_sample=1, slow_threshold=0.0)
    )
    try:
        svc.put("db", CATALOG)
        svc.query("db", text)
        svc.store.results.invalidate()
        svc.query("db", text)
        cold, warm = svc.slowlog()["entries"]
        assert (cold["outcome"], warm["outcome"]) == ("ok", "ok")
        assert "compile" in [s["name"] for s in cold["trace"]["spans"]]
        assert cold["profile"]["cache"] == "cold"
        assert "compile" not in [s["name"] for s in warm["trace"]["spans"]]
        assert warm["profile"]["cache"] == "warm"
        assert svc.store.compiled.user_queries.stats()["misses"] == 1
    finally:
        svc.close()


def test_the_dfa_tables_probe_sums_the_read_automata(service):
    """``automata.dfa.tables`` sums the store's shape cache — one table
    set per automaton shape, which every read automaton of that shape
    steps through."""
    for text in QUERIES:
        service.query("db", text)
    compiled = service.store.compiled
    built = [tables.stats() for tables in compiled.shapes.values()]
    read_tables = {id(nfa.dfa().tables) for nfa in compiled.selecting.values()}
    assert read_tables <= {id(tables) for tables in compiled.shapes.values()}
    snap = service.registry.snapshot()
    assert snap["automata.dfa.tables.sets"] > 0
    assert snap["automata.dfa.tables.sets"] == sum(stats["sets"] for stats in built)
    assert snap["automata.dfa.tables.dfas"] == len(built)
    assert snap["engine.compiled.shapes.misses"] == len(built)


@pytest.mark.parametrize(
    "body",
    [
        "insert <note>new</note> into $a/part[pname = 'kb']",
        "delete $a//supplier[country = 'A']/price",
        "delete $a/part/supplier/*",  # empties its parents: they self-close
        "delete $a/part",  # ...and so does the root
        "replace $a//price[. > 10] with <price>0</price>",
        "rename $a//supplier as vendor",
        "delete $a/nosuch",
    ],
)
def test_transform_op_answers_are_the_naive_document(service, body):
    text = f'transform copy $a := doc("db") modify do {body} return $a'
    want = serialize(transform_naive(parse(CATALOG), parse_transform_query(text)))
    assert service.transform("db", text) == want


def test_snapshot_pinned_reader_survives_commit(service):
    snapshot = service.store.pin("db")
    assert snapshot.version == 1
    service.commit(
        "db",
        'transform copy $a := doc("db") modify do '
        "delete $a/part[pname = 'kb'] return $a",
    )
    # The pinned arena still serializes the pre-commit document.
    assert "kb" in serialize_arena(snapshot.arena)
    assert service.store.pin("db").version == 2
    assert "kb" not in service.transform(
        "db", 'transform copy $a := doc("db") modify do '
        "rename $a//pname as name return $a"
    )


def test_pin_rejects_views(service):
    service.define_view("public", "db", HIDE_A)
    with pytest.raises(StoreError, match="cannot be pinned"):
        service.store.pin("public")


def test_commit_is_visible_to_later_reads(service):
    before = service.query("db", "for $x in part return $x/pname")
    service.commit(
        "db",
        'transform copy $a := doc("db") modify do '
        "delete $a/part[pname = 'mouse'] return $a",
    )
    after = service.query("db", "for $x in part return $x/pname")
    assert before == ["<pname>kb</pname>", "<pname>mouse</pname>"]
    assert after == ["<pname>kb</pname>"]


def test_unknown_target_raises_store_error(service):
    with pytest.raises(StoreError):
        service.query("nope", "for $x in a return $x")


def test_bad_query_text_raises_value_error(service):
    with pytest.raises(ValueError):
        service.query("db", "for $x in ][ return $x")


# ----------------------------------------------------------------------
# Single flight: one evaluation per (document, version, query) in flight
# ----------------------------------------------------------------------


def _hold_evaluations(svc):
    """Make every evaluation *svc* runs wait for ``release``;
    ``evaluating`` is set once one has got its slot and started."""
    evaluating, release = threading.Event(), threading.Event()
    evaluate = svc._evaluate_snapshot

    def held(snapshot, text):
        evaluating.set()
        assert release.wait(timeout=10.0)
        return evaluate(snapshot, text)

    svc._evaluate_snapshot = held
    return evaluating, release


class _Call(threading.Thread):
    """``fn(*args, **kwargs)`` on a thread of its own."""

    def __init__(self, fn, *args, **kwargs):
        super().__init__()
        self.call = lambda: fn(*args, **kwargs)
        self.value = self.error = None
        self.start()

    def run(self):
        try:
            self.value = self.call()
        except BaseException as exc:  # noqa: BLE001 - re-raised by result()
            self.error = exc

    def result(self, timeout=10.0):
        self.join(timeout)
        assert not self.is_alive(), "the call never returned"
        if self.error is not None:
            raise self.error
        return self.value


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached within timeout"
        time.sleep(0.002)


def test_no_service_thread_exists_in_thread_mode(service):
    service.query("db", QUERIES[0])
    assert not [
        t.name for t in threading.enumerate() if t.name.startswith("repro-service")
    ]


def test_identical_concurrent_misses_share_one_evaluation():
    clients = 8
    svc = QueryService(config=ServiceConfig(workers=1, trace_sample=1))
    svc.put("db", CATALOG)
    _, release = _hold_evaluations(svc)
    barrier = threading.Barrier(clients)

    def together():
        barrier.wait(timeout=10.0)
        return svc.query("db", QUERIES[1])

    calls = [_Call(together) for _ in range(clients)]
    try:
        # One leads (and is held); the rest can only have joined it.
        _wait_for(lambda: svc.metrics()["service.requests.total"] == clients)
        assert _dispatch(svc.metrics())[:2] == (0, 0)
    finally:
        release.set()
    answers = [call.result() for call in calls]
    svc.close()
    assert answers[0] == _oracle(svc.store, "db", QUERIES[1])
    assert all(answer == answers[0] for answer in answers)
    # One evaluation fanned out, but every caller owns its list.
    assert len({id(answer) for answer in answers}) == clients
    answers[1].clear()
    assert answers[2] == answers[0] != []
    m = svc.metrics()
    assert _dispatch(m) == (1, clients - 1, 0)
    assert m["service.requests.total"] == m["service.reads.snapshot"] == clients
    memo = svc.store.results.stats()
    assert (memo["misses"], memo["hits"]) == (clients, 0)  # one counted lookup each
    records = [r for r in svc.traces() if r["name"] == "service.query"]
    assert len(records) == clients
    assert all(r["meta"]["outcome"] == "ok" for r in records)
    [leader] = [r for r in records if "coalesced" in r["meta"]]
    assert leader["meta"]["coalesced"] == clients - 1
    assert {"queue", "scan", "serialize"} <= {s["name"] for s in leader["spans"]}
    for follower in records:
        if follower is not leader:
            assert [s["name"] for s in follower["spans"]] == ["follow"]


def test_a_malformed_query_fails_the_leader_and_every_follower_alike():
    clients = 5
    svc = QueryService(config=ServiceConfig(workers=1))
    svc.put("db", CATALOG)
    _, release = _hold_evaluations(svc)
    bad = "for $x in ][ return $x"
    calls = [_Call(svc.query, "db", bad) for _ in range(clients)]
    try:
        _wait_for(lambda: svc.metrics()["service.requests.total"] == clients)
    finally:
        release.set()
    errors = []
    for call in calls:
        with pytest.raises(ValueError, match="expected a step") as caught:
            call.result()
        errors.append(caught.value)
    assert all(error is errors[0] for error in errors)  # the leader's own
    assert svc._flights == {} and svc.metrics()["service.queue.depth"] == 0
    assert len(svc.store.results) == 0
    m = svc.metrics()
    assert _dispatch(m) == (0, 0, 0)
    # The slot came back: the service still answers.
    assert svc.query("db", QUERIES[0]) == _oracle(svc.store, "db", QUERIES[0])
    svc.close()


def test_memo_serves_repeat_queries_until_commit(service):
    text = QUERIES[0]
    first = service.query("db", text)
    again = service.query("db", text)
    assert again == first and again is not first  # the hit's own list
    assert service.metrics()["service.dispatch.memo_hits"] == 1
    evaluations = service.metrics()["service.dispatch.evaluations"]
    service.commit(
        "db",
        'transform copy $a := doc("db") modify do '
        "delete $a/part[pname = 'kb'] return $a",
    )
    assert service.query("db", text) == ["<pname>mouse</pname>"]
    assert service.metrics()["service.dispatch.evaluations"] == evaluations + 1


def test_no_caller_can_change_what_another_reads(service):
    text = QUERIES[0]
    expected = _oracle(service.store, "db", text)
    service.query("db", text).clear()  # the leader's list
    hit = service.query("db", text)
    assert hit == expected
    hit.clear()
    hit.append("<poison/>")
    assert service.query("db", text) == expected
    # The store reads the same cache, and hands out its own lists too.
    assert service.store.query_serialized("db", text) == expected
    assert service.store.results.stats()["hits"] == 3


# ----------------------------------------------------------------------
# Admission: slots, the bound on waiters, and who never needs either
# ----------------------------------------------------------------------


def test_admission_bounds_waiters_but_never_a_hit_or_a_follower():
    svc = QueryService(config=ServiceConfig(workers=1, max_queue=1))
    svc.put("db", CATALOG)
    hot = QUERIES[0]
    first = svc.query("db", hot)
    evaluating, release = _hold_evaluations(svc)
    try:
        running = _Call(svc.query, "db", QUERIES[1])  # takes the only slot
        assert evaluating.wait(timeout=5.0)
        waiting = _Call(svc.query, "db", QUERIES[2])  # admitted, waits for the slot
        _wait_for(lambda: svc.metrics()["service.queue.depth"] == 1)
        with pytest.raises(OverloadedError, match="1 requests waiting"):
            svc.query("db", "for $x in part[pname = 'none'] return $x")
        assert svc.metrics()["service.requests.shed"] == 1
        # Neither a hit nor a follower needs a slot.
        started = time.perf_counter()
        for _ in range(10):
            assert svc.query("db", hot) == first
        assert time.perf_counter() - started < 0.1
        admitted = svc.metrics()["service.requests.total"]
        follower = _Call(svc.query, "db", QUERIES[1])
        _wait_for(lambda: svc.metrics()["service.requests.total"] == admitted + 1)
        assert svc.metrics()["service.queue.depth"] == 1
        assert running.is_alive() and waiting.is_alive() and follower.is_alive()
    finally:
        release.set()
    assert follower.result() == running.result()
    assert waiting.result() == _oracle(svc.store, "db", QUERIES[2])
    m = svc.metrics()
    svc.close()
    assert _dispatch(m) == (3, 1, 10)
    # The shed one is not admitted.
    assert m["service.requests.total"] == m["service.reads.snapshot"] == 14
    assert svc.metrics()["service.queue.depth"] == 0


def test_views_and_staged_reads_take_the_one_read_path(service):
    service.define_view("public", "db", HIDE_A)
    text = "for $x in part/supplier return $x"
    first = service.query("public", text)
    assert service.query("public", text) == first  # a repeated view read is a hit
    assert service.metrics()["service.dispatch.memo_hits"] == 1
    assert service.query("db", text) == service.query("db", text)
    service.stage("db", ANONYMIZE)
    staged = service.query("db", text, staged=True)  # memoised text, staged read
    assert staged == _oracle(service.store, "db", text, include_staged=True)
    assert staged != service.query("db", text)
    assert service.query("db", text, staged=True) == staged
    service.rollback("db")
    # Nothing staged any more: the same request is the plain read again.
    assert service.query("db", text, staged=True) == service.query("db", text)
    m = service.metrics()
    assert _dispatch(m) == (3, 0, 6)
    assert m["service.reads.snapshot"] == m["service.requests.total"] == 9
    assert service._flights == {}


def test_a_redefined_view_never_serves_the_old_answer(service):
    text = "for $x in part/supplier return $x"
    service.define_view("v", "db", HIDE_A)
    hidden = service.query("v", text)
    service.drop("v")
    service.define_view("v", "db", ANONYMIZE)
    renamed = service.query("v", text)
    assert renamed != hidden
    assert renamed == [
        serialize(item) for item in service.store.query_naive("v", text)
    ]
    # Even an entry published after the drop's invalidation (a leader
    # that finishes late) cannot alias: the key carries the stack texts.
    uid = service.store.pin("db").uid
    keys = [key for key, _ in service.store.results.items()]
    assert {key[3] for key in keys if key[0] == "v"} == {(ANONYMIZE,)}
    assert all(key[1] == uid for key in keys)


def test_a_commit_drops_view_and_staged_entries_with_the_old_arena():
    service = QueryService()
    service.put("db", "<db><left/><part><pname>kb</pname></part></db>")
    service.define_view(
        "public", "db",
        'transform copy $a := doc("db") modify do delete $a/left/t return $a',
    )
    text = "for $x in part return $x/pname"
    service.query("public", text)
    service.query("db", text)
    service.stage("db", INSERT_T)
    service.query("db", text, staged=True)
    assert len(service.store.results) == 3
    service.commit("db")
    # The document's entry is label-disjoint and re-keyed; the view's
    # stack mentions the delta's labels and the preview's staging area
    # is gone: both are dropped (not left to the LRU).
    assert [key[0] for key, _ in service.store.results.items()] == ["db"]
    assert [key[3:] for key, _ in service.store.results.items()] == [((), ())]
    assert service.metrics()["service.dispatch.memo_retained"] == 1
    assert service.query("public", text) == _oracle(service.store, "public", text)
    service.close()


def test_a_view_entry_survives_a_disjoint_or_swallowed_commit():
    """The store's re-key rule, through the service: a view read's
    entry moves to the new arena when the commit is label-disjoint
    from the query and the stack, or swallowed by the stack — and is
    dropped by a commit that overlaps."""
    service = QueryService()
    service.put(
        "db",
        "<db><left/><part><pname>kb</pname><secret><cost>1</cost></secret>"
        "</part></db>",
    )
    service.define_view(
        "public", "db",
        'transform copy $a := doc("db") modify do delete $a/part/secret return $a',
    )
    text = "for $x in part return $x/pname"

    def commit_then_read(body):
        before = service.metrics()
        service.commit(
            "db", f'transform copy $a := doc("db") modify do {body} return $a'
        )
        answer = service.query("public", text)
        assert answer == _oracle(service.store, "public", text)
        after = service.metrics()
        return {
            key.rpartition(".")[2]: after[key] - before[key]
            for key in (
                "service.dispatch.memo_hits",
                "service.dispatch.evaluations",
                "service.dispatch.memo_retained",
            )
        }

    first = service.query("public", text)
    assert first == _oracle(service.store, "public", text) == ["<pname>kb</pname>"]
    # Label-disjoint: neither the query nor the stack mentions left/t.
    assert commit_then_read("insert <t/> into $a/left") == {
        "memo_hits": 1, "evaluations": 0, "memo_retained": 1,
    }
    # Swallowed: the patch lands inside a subtree the view deletes.
    assert commit_then_read("insert <cost>2</cost> into $a/part/secret") == {
        "memo_hits": 1, "evaluations": 0, "memo_retained": 1,
    }
    # Overlapping: the commit touches what the query reads.
    assert commit_then_read("insert <pname>mouse</pname> into $a/part") == {
        "memo_hits": 0, "evaluations": 1, "memo_retained": 0,
    }
    assert service.query("public", text) == [
        "<pname>kb</pname>", "<pname>mouse</pname>",
    ]
    uid = service.store.pin("db").uid
    assert all(key[1] == uid for key, _ in service.store.results.items())
    service.close()


def test_a_late_publisher_leaves_a_dead_key_nobody_is_served():
    """A leader that pinned the old arena and finishes after the
    commit publishes under the old uid: the entry can never be looked
    up again, and the next commit sweeps it out."""
    svc = QueryService(config=ServiceConfig(workers=2))
    svc.put("db", "<db><left/><part><pname>kb</pname></part></db>")
    text = "for $x in left/t return $x"
    old_uid = svc.store.pin("db").uid
    evaluating, release = _hold_evaluations(svc)
    late = _Call(svc.query, "db", text)
    assert evaluating.wait(timeout=5.0)
    svc.commit("db", INSERT_T)
    release.set()
    assert late.result() == []  # consistent with the snapshot it pinned
    new_uid = svc.store.pin("db").uid
    assert [key[1] for key, _ in svc.store.results.items()] == [old_uid]
    assert svc.metrics()["service.reads.stale"] == 1
    # Nobody is served the dead entry...
    assert svc.query("db", text) == _oracle(svc.store, "db", text) == ["<t/>"]
    assert svc.metrics()["service.dispatch.memo_hits"] == 0
    assert sorted(key[1] for key, _ in svc.store.results.items()) == [old_uid, new_uid]
    # ...and the next commit drops it with the arena's other leftovers.
    svc.commit("db", INSERT_T)
    assert [key[1] for key, _ in svc.store.results.items()] == []
    svc.close()


def test_memo_tallies_count_each_request_once(service):
    texts = [f"for $x in part[pname = 'p{i}'] return $x" for i in range(7)]
    for text in texts:
        service.query("db", text)
    memo = service.store.results.stats()
    assert (memo["misses"], memo["hits"]) == (7, 0)
    for text in texts:
        service.query("db", text)
    memo = service.store.results.stats()
    assert (memo["misses"], memo["hits"]) == (7, 7)


def test_hits_are_never_older_than_the_last_acknowledged_commit():
    """Two readers and one writer over the short path.  A commit that
    touches a query's labels must be visible to every hit admitted
    after it returned; one that does not re-keys the entry, so the
    very same list keeps being served."""
    touched = "for $x in left/t return $x"
    untouched = "for $x in part return $x/pname"
    svc = QueryService(config=ServiceConfig(workers=2))
    svc.put("db", "<db><left/><part><pname>kb</pname></part></db>")

    def oracle(text):
        tree = thaw(svc.store.pin("db").arena)
        return [serialize(item) for item in evaluate_query(tree, parse_user_query(text))]

    # Deterministic first: one commit, then hits on both texts.
    kept, stale = svc.query("db", untouched), svc.query("db", touched)
    assert stale == []
    svc.commit("db", INSERT_T)
    assert svc.metrics()["service.dispatch.memo_retained"] == 1
    hits = svc.metrics()["service.dispatch.memo_hits"]
    assert svc.query("db", untouched) == kept  # the re-keyed entry
    assert svc.metrics()["service.dispatch.memo_hits"] == hits + 1
    assert svc.query("db", touched) == oracle(touched) == ["<t/>"]
    assert svc.query("db", touched) == svc.query("db", touched)

    # Then the hammer.  Version v holds v - 1 <t/>s, so an answer names
    # the version it was computed on.
    expected = {2: oracle(touched)}
    acked = [2]
    observed: list = []
    errors: list = []
    done = threading.Event()

    reading = threading.Event()

    def writer():
        try:
            # Commits on this document take microseconds: without the
            # gate all 25 can be over before a reader thread has started.
            assert reading.wait(timeout=10.0)
            for _ in range(25):
                version = svc.commit("db", INSERT_T)["version"]
                expected[version] = oracle(touched)
                acked[0] = version
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                floor = acked[0]
                observed.append((floor, svc.query("db", touched)))
                reading.set()
                assert svc.query("db", untouched) == kept
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]
    assert acked[0] == 27 and observed
    for floor, answer in observed:
        version = len(answer) + 1
        assert version >= floor, f"answer from v{version} after v{floor} was acknowledged"
        assert answer == expected[version]
    assert svc.query("db", touched) == expected[27]
    m = svc.metrics()
    svc.close()
    assert m["service.dispatch.memo_hits"] > hits + 3, "the hammer never exercised the short path"
    assert m["service.dispatch.memo_retained"] >= 26  # `untouched` re-keyed across every commit


def test_query_direct_counts_its_evaluation(service):
    assert service.query_direct("db", QUERIES[0]) == _oracle(
        service.store, "db", QUERIES[0]
    )
    service.query("db", QUERIES[0])  # query_direct left nothing in the memo
    m = service.metrics()
    assert m["service.requests.total"] == 2 and _dispatch(m) == (2, 0, 0)
    assert m["service.requests.total"] == sum(_dispatch(m))
    assert service.registry.snapshot()["service.eval.latency"]["count"] == 2


def test_every_evaluation_is_an_arena_read(service):
    """A served read counts in ``store.arena.reads`` like a library
    read does: the store counts at its one evaluation site, and every
    door — the memo miss, ``query_direct``, a view, a staged preview —
    reaches it once.  A memo hit evaluates nothing and counts nothing."""
    service.define_view("public", "db", HIDE_A)
    service.stage("db", INSERT_T)
    for text in QUERIES:
        service.query("db", text)
    service.query_direct("db", QUERIES[0])
    service.query("public", QUERIES[1])
    service.query("db", QUERIES[2], staged=True)
    service.query("db", QUERIES[0])  # a memo hit
    snap = service.registry.snapshot()
    assert snap["service.dispatch.memo_hits"] == 1
    assert snap["store.arena.reads"] == snap["service.dispatch.evaluations"] == 6
    service.rollback("db")


def test_a_small_result_cache_evicts_in_lru_order_and_the_tallies_add_up():
    service = QueryService(store=ViewStore(result_cache_size=2))
    service.put("db", CATALOG)
    a, b, c = QUERIES

    def counted(text):
        before = service.metrics()
        assert service.query("db", text) == _oracle(service.store, "db", text)
        after = service.metrics()
        return after["service.dispatch.memo_hits"] - before["service.dispatch.memo_hits"]

    assert [counted(text) for text in (a, b, a, c)] == [0, 0, 1, 0]  # c evicts b
    assert [key[2] for key, _ in service.store.results.items()] == [a, c]
    assert [counted(text) for text in (a, b, c)] == [1, 0, 0]  # b evicts c, c evicts a
    cache = service.store.results.stats()
    assert (cache["size"], cache["maxsize"]) == (2, 2)
    m = service.metrics()
    service.close()
    assert m["service.requests.total"] == 7 == sum(_dispatch(m))
    assert (m["service.dispatch.memo_hits"], cache["hits"], cache["evictions"]) == (2, 2, 3)


def test_read_accounting_adds_up_after_a_mixed_concurrent_run():
    svc = QueryService(config=ServiceConfig(workers=4))
    svc.put("db", CATALOG)
    svc.define_view("partners", "db", ANONYMIZE)
    svc.stage("db", ANONYMIZE)  # each commit below takes it and stages it again
    errors: list = []

    def client(index):
        try:
            for round_no in range(20):
                for text in QUERIES:  # shared: hits and coalesced waiters
                    svc.query("db", text)
                svc.query(  # private: always an evaluation
                    "db", f"for $x in part[pname = 'c{index}r{round_no}'] return $x"
                )
                svc.query("partners", QUERIES[0])  # a view read
                svc.query("db", QUERIES[0], staged=True)  # a staged preview
                svc.query_direct("db", QUERIES[2])  # always an evaluation too
                if index == 0 and round_no % 5 == 4:
                    svc.commit("db", HIDE_A)  # price/supplier: drops QUERIES[1:]
                    svc.stage("db", ANONYMIZE)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    m = svc.metrics()
    svc.close()
    assert not errors, errors[:3]
    assert m["service.requests.total"] == 6 * 20 * (len(QUERIES) + 4)
    assert m["service.requests.total"] == sum(_dispatch(m))
    assert m["service.reads.snapshot"] == m["service.requests.total"]
    assert m["service.dispatch.memo_hits"] > 0 and m["service.dispatch.evaluations"] >= 2 * 6 * 20
    assert m["service.requests.shed"] == m["service.requests.deadline_miss"] == 0


# ----------------------------------------------------------------------
# Deadlines, admission control, shutdown
# ----------------------------------------------------------------------


def test_deadline_expired_in_queue(service):
    with pytest.raises(DeadlineError):
        service.query("db", QUERIES[2], deadline=1e-9)
    assert service.metrics()["service.requests.deadline_miss"] == 1


def test_deadline_passed_while_waiting_for_a_slot_skips_the_evaluation():
    svc = QueryService(config=ServiceConfig(workers=1))
    svc.put("db", CATALOG)
    evaluating, release = _hold_evaluations(svc)
    try:
        running = _Call(svc.query, "db", QUERIES[0])
        assert evaluating.wait(timeout=5.0)
        started = time.perf_counter()
        with pytest.raises(DeadlineError, match="waiting for an evaluation slot"):
            svc.query("db", QUERIES[1], deadline=0.05)
        assert 0.05 <= time.perf_counter() - started < 0.05 + 0.25
    finally:
        release.set()
    running.result()
    m = svc.metrics()
    assert (m["service.dispatch.evaluations"], m["service.requests.deadline_miss"]) == (1, 1)
    assert svc._flights == {} and svc.metrics()["service.queue.depth"] == 0
    # Skipped, not run in the background: the text is still cold.
    svc.query("db", QUERIES[1])
    assert svc.metrics()["service.dispatch.evaluations"] == 2
    svc.close()


def test_a_leader_that_gives_up_hands_its_flight_to_an_unexpired_follower():
    svc = QueryService(config=ServiceConfig(workers=1))
    svc.put("db", CATALOG)
    evaluating, release = _hold_evaluations(svc)
    try:
        running = _Call(svc.query, "db", QUERIES[0])
        assert evaluating.wait(timeout=5.0)
        leader = _Call(svc.query, "db", QUERIES[1], deadline=0.1)
        _wait_for(lambda: svc.metrics()["service.queue.depth"] == 1)
        follower = _Call(svc.query, "db", QUERIES[1])  # no deadline of its own
        _wait_for(lambda: svc.metrics()["service.requests.total"] == 3)
        with pytest.raises(DeadlineError):
            leader.result()
        # The survivor re-admitted itself and now waits for the slot.
        _wait_for(lambda: svc.metrics()["service.queue.depth"] == 1)
        assert follower.is_alive()
    finally:
        release.set()
    assert follower.result() == _oracle(svc.store, "db", QUERIES[1])
    running.result()
    m = svc.metrics()
    svc.close()
    assert m["service.requests.total"] == 3  # re-admission is not a second request
    assert _dispatch(m)[:2] == (2, 0) and m["service.requests.deadline_miss"] == 1


def test_a_leader_that_finishes_late_misses_alone():
    """An evaluation cannot be abandoned once it runs: the leader
    reports its own deadline, the follower and the memo get the answer."""
    svc = QueryService(config=ServiceConfig(workers=1))
    svc.put("db", CATALOG)
    evaluating, release = _hold_evaluations(svc)
    try:
        leader = _Call(svc.query, "db", QUERIES[1], deadline=0.05)
        assert evaluating.wait(timeout=5.0)
        follower = _Call(svc.query, "db", QUERIES[1])
        _wait_for(lambda: svc.metrics()["service.requests.total"] == 2)
        time.sleep(0.06)
    finally:
        release.set()
    with pytest.raises(DeadlineError, match="finished after the deadline"):
        leader.result()
    answer = follower.result()
    assert answer == _oracle(svc.store, "db", QUERIES[1])
    assert svc.query("db", QUERIES[1]) == answer  # it warmed the memo
    m = svc.metrics()
    svc.close()
    assert _dispatch(m) == (1, 1, 1)
    assert m["service.requests.deadline_miss"] == 1


def test_a_follower_that_runs_out_of_time_leaves_the_flight():
    svc = QueryService(config=ServiceConfig(workers=1))
    svc.put("db", CATALOG)
    evaluating, release = _hold_evaluations(svc)
    try:
        leader = _Call(svc.query, "db", QUERIES[1])
        assert evaluating.wait(timeout=5.0)
        started = time.perf_counter()
        with pytest.raises(DeadlineError, match="identical evaluation"):
            svc.query("db", QUERIES[1], deadline=0.05)
        assert 0.05 <= time.perf_counter() - started < 0.05 + 0.25
    finally:
        release.set()
    leader.result()
    m = svc.metrics()
    svc.close()
    assert _dispatch(m)[:2] == (1, 0) and m["service.requests.deadline_miss"] == 1


def test_close_waits_for_what_is_in_flight_then_refuses_everything():
    svc = QueryService(config=ServiceConfig(workers=1))
    svc.put("db", CATALOG)
    hot = svc.query("db", QUERIES[0])
    evaluating, release = _hold_evaluations(svc)
    try:
        running = _Call(svc.query, "db", QUERIES[1])
        assert evaluating.wait(timeout=5.0)
        waiting = _Call(svc.query, "db", QUERIES[2])
        _wait_for(lambda: svc.metrics()["service.queue.depth"] == 1)
        closing = _Call(svc.close)
        closing.join(timeout=0.2)
        assert closing.is_alive(), "close() returned with an evaluation running"
        # Admission stopped the moment close() began: a hit and a miss
        # are refused alike, while what was admitted is still served.
        with pytest.raises(ServiceClosedError):
            svc.query("db", QUERIES[0])
        with pytest.raises(ServiceClosedError):
            svc.query("db", "for $x in part[pname = 'none'] return $x")
    finally:
        release.set()
    closing.result()
    assert running.result() == _oracle(svc.store, "db", QUERIES[1])
    assert waiting.result() == _oracle(svc.store, "db", QUERIES[2])
    assert svc._flights == {}
    with pytest.raises(ServiceClosedError):
        svc.query("db", QUERIES[0])
    assert hot == _oracle(svc.store, "db", QUERIES[0])


def test_close_rejects_new_requests_and_is_idempotent(service):
    service.close()
    with pytest.raises(ServiceClosedError):
        service.query("db", QUERIES[0])
    # Writes are refused too: after close() returns the store is
    # quiescent, which is what lets `repro serve` save durable state
    # without racing a straggling connection thread's commit.
    with pytest.raises(ServiceClosedError):
        service.commit(
            "db",
            'transform copy $a := doc("db") modify do '
            "delete $a/part[pname = 'kb'] return $a",
        )
    with pytest.raises(ServiceClosedError):
        service.put("db2", CATALOG)
    service.close()  # second close is a no-op


def test_drop_then_reload_never_serves_stale_caches():
    """A dropped-then-reloaded document restarts at version 1, so
    version-keyed caches would alias; the snapshot's process-unique
    arena uid must keep the memo from serving the old document's
    contents."""
    text = "for $x in part return $x/pname"
    with QueryService(config=ServiceConfig(workers=2)) as svc:
        svc.put("db", CATALOG)
        assert "<pname>kb</pname>" in svc.query("db", text)
        svc.drop("db")
        svc.put("db", "<db><part><pname>trackball</pname></part></db>")
        assert svc.store.documents.get("db").version == 1  # the alias case
        assert svc.query("db", text) == ["<pname>trackball</pname>"]


# ----------------------------------------------------------------------
# The TCP server and client
# ----------------------------------------------------------------------


@pytest.fixture
def wire():
    svc = QueryService()
    svc.put("db", CATALOG)
    server = ServiceServer(svc)
    host, port = server.start()
    client = Client(host, port, timeout=10.0)
    yield svc, server, client
    client.close()
    server.stop()


def test_wire_query_and_ping(wire):
    svc, _, client = wire
    assert client.ping() == "pong"
    for text in QUERIES:
        assert client.query("db", text) == _oracle(svc.store, "db", text)


def test_wire_full_session(wire):
    _, _, client = wire
    loaded = client.load("cat2", xml=CATALOG)
    assert loaded["name"] == "cat2" and loaded["version"] == 1
    view = client.defview("pub2", "cat2", HIDE_A.replace('doc("db")', 'doc("cat2")'))
    assert view["depth"] == 1
    rows = client.query("pub2", "for $x in part/supplier return $x")
    assert rows and all("<price>12</price>" not in row for row in rows)
    staged = client.stage(
        "cat2",
        'transform copy $a := doc("cat2") modify do '
        "delete $a/part[pname = 'kb'] return $a",
    )
    assert staged == {"name": "cat2", "staged": 1}
    preview = client.query("cat2", "for $x in part return $x/pname", staged=True)
    assert preview == ["<pname>mouse</pname>"]
    assert client.rollback("cat2") == {"name": "cat2", "dropped": 1}
    committed = client.commit(
        "cat2",
        'transform copy $a := doc("cat2") modify do '
        "delete $a/part[pname = 'mouse'] return $a",
    )
    assert committed["name"] == "cat2" and committed["version"] == 2
    assert committed["entries"] == 1
    assert client.query("cat2", "for $x in part return $x/pname") == ["<pname>kb</pname>"]
    transformed = client.transform(
        "cat2",
        'transform copy $a := doc("cat2") modify do '
        "rename $a//pname as name return $a",
    )
    assert "<name>kb</name>" in transformed


def test_wire_typed_errors(wire):
    _, _, client = wire
    with pytest.raises(StoreError, match="unknown document or view"):
        client.query("nope", "for $x in a return $x")
    with pytest.raises(BadRequestError, match="unknown op"):
        client.call("frobnicate")
    with pytest.raises(BadRequestError, match="needs a string"):
        client.call("query", target="db")  # missing text
    with pytest.raises(BadRequestError, match="deadline_ms"):
        client.call("query", target="db", text="for $x in part return $x",
                    deadline_ms=-5)


def test_wire_non_finite_deadline_is_a_malformed_frame(wire):
    """Python's json reads Infinity/NaN (and 1e400 as inf): one would
    overflow the platform's wait, the other never compares as expired."""
    svc, server, _ = wire
    for junk in ("Infinity", "-Infinity", "NaN", "1e400"):
        line = (
            '{"id": 7, "op": "query", "target": "db", '
            f'"text": "{QUERIES[0]}", "deadline_ms": {junk}}}\n'
        )
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(line.encode("utf-8"))
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["id"] == 7 and reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"
        assert "deadline_ms" in reply["error"]["message"]
    assert svc.metrics()["service.requests.total"] == 0  # refused before the service saw them


def test_wire_oversized_frame_is_refused_and_the_connection_closed(wire, monkeypatch):
    _, server, client = wire
    monkeypatch.setattr("repro.service.server.MAX_FRAME_BYTES", 1024)
    with socket.create_connection(server.address, timeout=10.0) as sock:
        sock.sendall(b"x" * 5000)  # never a newline
        stream = sock.makefile("rb")
        reply = json.loads(stream.readline())
        assert reply == {
            "id": None, "ok": False,
            "error": {"code": "bad-request",
                      "message": "frame longer than 1024 bytes"},
        }
        assert stream.read() == b""  # EOF: the stream cannot be resynchronised
    # A frame that fits is still a frame, on this and any new connection.
    assert client.query("db", QUERIES[0])
    with Client(*server.address, timeout=10.0) as second:
        assert second.ping() == "pong"


def test_wire_booleans_are_checked_not_coerced():
    """``"false"`` is a truthy string: coercing it would show the
    caller staged updates, drain a ring, or replace a document it
    asked to keep.  Anything but a JSON boolean is a bad request."""
    svc = QueryService(
        config=ServiceConfig(trace_sample=1, slow_threshold=0.0)
    )
    svc.put("db", CATALOG)
    text = "for $x in part return $x/pname"
    with ServiceServer(svc) as server, Client(*server.address, timeout=10.0) as client:
        client.stage(
            "db",
            'transform copy $a := doc("db") modify do '
            "delete $a/part[pname = 'kb'] return $a",
        )
        committed = client.query("db", text)
        assert len(committed) == 2
        for junk in ("false", "true", 0, 1, [], {}):
            with pytest.raises(BadRequestError, match="'staged' must be a boolean"):
                client.call("query", target="db", text=text, staged=junk)
            with pytest.raises(BadRequestError, match="'drain' must be a boolean"):
                client.call("traces", drain=junk)
            with pytest.raises(BadRequestError, match="'stitched' must be a boolean"):
                client.call("traces", stitched=junk)
            with pytest.raises(BadRequestError, match="'drain' must be a boolean"):
                client.call("slowlog", drain=junk)
            with pytest.raises(BadRequestError, match="'replace' must be a boolean"):
                client.call("load", name="db", xml="<gone/>", replace=junk)
        # Nothing the rejected frames asked for happened ...
        assert client.traces() and client.slowlog()["entries"]
        assert client.query("db", text) == committed
        # ... and real booleans (or none at all) still mean what they say.
        assert client.call("query", target="db", text=text, staged=False) == committed
        assert client.call("query", target="db", text=text, staged=True) == [
            "<pname>mouse</pname>"
        ]
        assert client.call("traces", drain=True, stitched=False)
        assert client.call("traces") == []
        assert client.call("slowlog", drain=True)["entries"]
        assert client.slowlog()["entries"] == []
        client.load("db", xml="<db><part/></db>", replace=True)
        assert client.query("db", text) == []


def test_wire_stats_frame(wire):
    svc, _, client = wire
    client.query("db", QUERIES[0])
    stats = client.stats()
    assert stats["service"] == {"workers": 4, "max_queue": 256}
    assert "db" in stats["store"]["documents"]
    assert client.metrics()["service.requests.total"] >= 1


def test_wire_concurrent_clients_coalesce(wire):
    svc, server, _ = wire
    host, port = server.address
    text = QUERIES[1]
    results = []
    errors = []

    def one_client():
        try:
            with Client(host, port, timeout=10.0) as c:
                results.append(c.query("db", text))
        except Exception as exc:  # noqa: BLE001 - assert below
            errors.append(exc)

    threads = [threading.Thread(target=one_client) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 8 and all(r == results[0] for r in results)
    m = svc.metrics()
    assert m["service.dispatch.coalesced"] + m["service.dispatch.memo_hits"] >= 1


def test_protocol_frame_round_trip():
    frame = {"id": 7, "op": "query", "target": "db", "text": "for $x in a return $x"}
    assert decode_line(encode_frame(frame)) == frame
    with pytest.raises(BadRequestError, match="not valid JSON"):
        decode_line(b"{nope\n")
    with pytest.raises(BadRequestError, match="JSON object"):
        decode_line(b"[1, 2]\n")


def test_client_timeout_tears_down_the_desynchronized_connection():
    """A reply slower than the client's socket timeout leaves a late
    response in the stream; the client must tear the socket down
    (raising the typed loss error) rather than let the next call read
    the stale frame — and a reconnect must see fresh, in-order frames."""
    svc = QueryService()
    svc.put("db", CATALOG)
    evaluate = svc._evaluate_snapshot

    def slow(snapshot, text):
        time.sleep(0.5)  # guarantees the reply misses the client's 50 ms
        return evaluate(snapshot, text)

    svc._evaluate_snapshot = slow
    server = ServiceServer(svc)
    host, port = server.start()
    client = Client(host, port, timeout=0.05, retry=RetryPolicy(attempts=1))
    try:
        with pytest.raises(RetryExhaustedError, match="failed after 1 attempt"):
            client.query("db", QUERIES[0])
        assert client._file is None  # socket was torn down
        # The client stays usable: the next call reconnects with a
        # fresh stream (no stale frame to misread).
        client.timeout = 10.0
        assert client.ping() == "pong"
        assert client.retry_stats["reconnects"] == 1
        client.close()
        with pytest.raises(ServiceClosedError, match="client is closed"):
            client.ping()
    finally:
        client.close()
        server.stop()


class _CuttingPeer:
    """A raw-socket server that answers the first *cuts* requests
    (``None``: every request) with ``CUT`` (``%d``: the request's id)
    and a hang-up — by default the start of a frame, what a server
    killed, or a socket reset, mid-``sendall`` leaves on the wire —
    and every later one properly."""

    CUT = b'{"id":%d,"ok":true,"result":["<a>'
    ANSWER = ["<a/>"]

    def __init__(self, cuts):
        self.cuts = cuts
        self.ops = []  # the op of every request that arrived
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # closed by the test
            with conn, conn.makefile("rb") as requests:
                for line in requests:
                    frame = json.loads(line)
                    self.ops.append(frame["op"])
                    if self.cuts is None or len(self.ops) <= self.cuts:
                        conn.sendall(self.CUT % frame["id"])
                        break  # hang up mid-frame
                    answer = Answer(self.ANSWER) if frame["op"] == "query" else self.ANSWER
                    conn.sendall(encode_response(frame["id"], answer))

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.listener.close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


@pytest.fixture
def cutting_peer():
    peers = []

    def make(cuts):
        peers.append(_CuttingPeer(cuts))
        return peers[-1]

    yield make
    for peer in peers:
        peer.close()


def test_a_response_cut_mid_frame_is_a_lost_response_and_a_read_retries(cutting_peer):
    peer = cutting_peer(cuts=1)
    retry = RetryPolicy(attempts=3, base_delay=0.001)
    with Client(*peer.address, timeout=5.0, retry=retry) as client:
        assert client.query("db", QUERIES[0]) == peer.ANSWER
        assert client.retry_stats == {"retries": 1, "reconnects": 1, "exhausted": 0}
    assert peer.ops == ["query", "query"]


def test_a_read_whose_every_response_is_cut_exhausts_its_retries(cutting_peer):
    peer = cutting_peer(cuts=None)
    retry = RetryPolicy(attempts=3, base_delay=0.001)
    with Client(*peer.address, timeout=5.0, retry=retry) as client:
        with pytest.raises(RetryExhaustedError) as caught:
            client.query("db", QUERIES[0])
        assert isinstance(caught.value.last_error, ResponseLostError)
        assert "bytes into a response" in str(caught.value.last_error)
        assert client._file is None  # not left open on a dead peer
    assert peer.ops == ["query"] * 3


def test_a_cut_commit_response_is_lost_not_malformed_and_never_retried(cutting_peer):
    peer = cutting_peer(cuts=None)
    with Client(*peer.address, timeout=5.0) as client:
        with pytest.raises(ResponseLostError, match="bytes into a response"):
            client.commit("db", INSERT_T)
        assert client._file is None
        assert client.retry_stats["retries"] == 0
    assert peer.ops == ["commit"]  # a lost write may have been applied


#: A ``query`` answer's header and a body that cannot be read back,
#: each sent whole before the hang-up but the first: what the client
#: must say about it.
HOSTILE_BODIES = {
    "killed-mid-body": (
        b'{"id":%d,"ok":true,"items":1,"bytes":100}\n\x04\x00\x00\x00<a/',
        "closed the connection 7 bytes into a 100-byte body",
    ),
    "fewer-bytes-than-lengths": (
        b'{"id":%d,"ok":true,"items":3,"bytes":8}\n\x04\x00\x00\x00<a/>',
        "8 bytes cannot hold 3 lengths",
    ),
    "lengths-off-the-text": (
        b'{"id":%d,"ok":true,"items":2,"bytes":13}\n'
        b"\x02\x00\x00\x00\x02\x00\x00\x00<a/>x",
        "lengths sum to 4 code points, the text has 5",
    ),
    "invalid-utf-8": (
        b'{"id":%d,"ok":true,"items":1,"bytes":6}\n\x02\x00\x00\x00\xff\xfe',
        "can't decode byte 0xff",
    ),
    # Read piece by piece: a terabyte announced is not a terabyte allocated.
    "more-announced-than-memory": (
        b'{"id":%d,"ok":true,"items":1,"bytes":1099511627776}\n\x04\x00\x00\x00',
        "closed the connection 4 bytes into a 1099511627776-byte body",
    ),
    "counts-that-are-not-counts": (
        b'{"id":%d,"ok":true,"items":"1","bytes":4}\n\x00\x00\x00\x00',
        "sent a header whose 'items' is '1'",
    ),
}


@pytest.mark.parametrize("cut, reason", HOSTILE_BODIES.values(), ids=list(HOSTILE_BODIES))
def test_a_body_that_cannot_be_read_back_is_a_lost_response(cutting_peer, cut, reason):
    peer = cutting_peer(cuts=1)
    peer.CUT = cut
    with Client(*peer.address, timeout=5.0, retry=RetryPolicy(attempts=1)) as client:
        with pytest.raises(RetryExhaustedError) as caught:
            client.query("db", QUERIES[0])
        lost = caught.value.last_error
        assert isinstance(lost, ResponseLostError) and reason in str(lost)
        assert client._file is None  # torn down: the stream is out of step
        assert client.query("db", QUERIES[0]) == peer.ANSWER
        assert client.retry_stats["reconnects"] == 1
    assert peer.ops == ["query", "query"]


def test_a_complete_line_that_is_not_a_frame_is_a_lost_response(cutting_peer):
    peer = cutting_peer(cuts=None)
    peer.CUT = b"[%d]\n"  # newline-terminated JSON, but not an object
    with Client(*peer.address, timeout=5.0, retry=RetryPolicy(attempts=1)) as client:
        with pytest.raises(RetryExhaustedError) as caught:
            client.ping()
        assert isinstance(caught.value.last_error, ResponseLostError)
        assert "malformed response" in str(caught.value.last_error)


def test_server_graceful_shutdown_drains():
    svc = QueryService()
    svc.put("db", CATALOG)
    server = ServiceServer(svc)
    host, port = server.start()
    with Client(host, port) as client:
        assert client.ping() == "pong"
    server.stop()
    assert svc._closed
    # A stopped server either refuses the connect (TransportError from
    # Client.__init__) or accepts-then-closes (ResponseLostError, wrapped
    # in RetryExhaustedError once the ping retries run out).
    with pytest.raises((TransportError, RetryExhaustedError)):
        Client(host, port, retry=RetryPolicy(attempts=2, base_delay=0.01)).ping()


# ----------------------------------------------------------------------
# Snapshot isolation under concurrency (the MVCC property)
# ----------------------------------------------------------------------


def test_readers_never_observe_partial_commits():
    """The invariant: every commit inserts one marker into TWO places
    atomically, so any committed version has an even total count.  A
    reader that ever counts an odd number saw a torn (mid-commit or
    staged) state."""
    svc = QueryService(config=ServiceConfig(workers=4))
    svc.put("db", "<db><left><l/></left><right><r/></right></db>")
    readers_done = threading.Event()
    violations = []
    errors = []
    read_counts = set()

    def writer():
        try:
            while not readers_done.is_set():
                svc.stage(
                    "db",
                    'transform copy $a := doc("db") modify do '
                    "insert <t/> into $a/left return $a",
                )
                svc.stage(
                    "db",
                    'transform copy $a := doc("db") modify do '
                    "insert <t/> into $a/right return $a",
                )
                svc.commit("db")
        except Exception as exc:  # noqa: BLE001 - assert below
            errors.append(exc)
            readers_done.set()

    def reader():
        try:
            # Self-pacing: keep reading until this hammer has actually
            # straddled at least one commit.  Bounded by time, not by
            # a count: between commits every read is a memo hit, and a
            # few hundred of those fit inside one interpreter switch
            # interval — the writer would never get to run.
            give_up = time.monotonic() + 20.0
            iteration = 0
            while time.monotonic() < give_up:
                rows = svc.query("db", "for $x in //t return $x")
                if len(rows) % 2:
                    violations.append(len(rows))
                read_counts.add(len(rows) // 2)
                iteration += 1
                if iteration >= 30 and len(read_counts) > 1:
                    break
        except Exception as exc:  # noqa: BLE001 - assert below
            errors.append(exc)
        finally:
            readers_done.set()

    writer_thread = threading.Thread(target=writer)
    reader_threads = [threading.Thread(target=reader) for _ in range(4)]
    writer_thread.start()
    for t in reader_threads:
        t.start()
    for t in reader_threads:
        t.join()
    writer_thread.join()
    svc.close()
    assert not errors
    assert not violations, f"readers saw torn commits: {violations}"
    assert len(read_counts) > 1, "hammer never overlapped distinct versions"


class TestClosedFlagDiscipline:
    """Regression: the closed flag is guarded by the admission lock.

    The seed read ``_closed`` bare from ``query_direct``, ``transform``
    and ``_check_open``; the reads now go through ``_is_closed()``
    under the admission lock (what the guarded-by checker of
    ``python -m tools.analysis`` enforces), so a close() on one thread is guaranteed visible to the
    next read or write on any other.
    """

    def test_every_entry_point_refuses_after_close(self):
        svc = QueryService()
        svc.put("db", CATALOG)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.query_direct("db", "for $x in part return $x")
        with pytest.raises(ServiceClosedError):
            svc.transform("db", HIDE_A)
        with pytest.raises(ServiceClosedError):
            svc.query("db", "for $x in part return $x")
        with pytest.raises(ServiceClosedError):
            svc.query("nope", "for $x in part return $x")
        with pytest.raises(ServiceClosedError):
            svc.commit("db", HIDE_A)

    def test_closed_check_synchronizes_with_admission_lock(self):
        """_is_closed() actually takes the admission lock: a thread
        holding it stalls the check (the synchronization the bare read
        lacked)."""
        svc = QueryService()
        svc.put("db", CATALOG)
        try:
            results: list = []
            svc._admission_lock.acquire()
            probe = threading.Thread(
                target=lambda: results.append(svc._is_closed())
            )
            probe.start()
            probe.join(timeout=0.2)
            assert probe.is_alive(), "_is_closed() returned without the lock"
            svc._admission_lock.release()
            probe.join(timeout=2.0)
            assert results == [False]
        finally:
            if svc._admission_lock.locked():  # pragma: no cover - cleanup
                svc._admission_lock.release()
            svc.close()

    def test_close_during_reads_never_hangs_or_corrupts(self):
        """Races between readers and close() end in exactly two ways:
        a served result or ServiceClosedError — never a hang."""
        svc = QueryService()
        svc.put("db", CATALOG)
        expected = _oracle(svc.store, "db", "for $x in part/pname return $x")
        outcomes: list = []

        def reader():
            try:
                outcomes.append(
                    ("ok", svc.query_direct("db", "for $x in part/pname return $x"))
                )
            except ServiceClosedError:
                outcomes.append(("closed", None))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads[:4]:
            t.start()
        svc.close()
        for t in threads[4:]:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        for kind, value in outcomes:
            if kind == "ok":
                assert value == expected
