"""One name per count: the metrics registry is the only place a counter
is published, and ``stats()`` describes state.

The in-process service and a client over the wire read the same
registry names; no leaf of ``stats()`` repeats a count the registry
carries; and ``repro store stat``, which prints counts and state side
by side, reads each from its one place and prints what it always did.
"""

import json
import re

import pytest

from repro import QueryService
from repro.cli import main as cli_main
from repro.service import Client, ServiceServer
from repro.store.state import open_store, save_store

DOC = "<db><a><b>1</b><b>2</b></a><c/></db>"
DELETE_B = 'transform copy $a := doc("db") modify do delete $a//b return $a'
INSERT_D = 'transform copy $a := doc("db") modify do insert <d/> into $a/a return $a'
HIDE_C = 'transform copy $a := doc("db") modify do delete $a//c return $a'

#: The sections ``stats()`` carried before the registry became the one
#: place a count lives, each with the registry names that carry it now.
REMOVED = {
    ("service", "requests"): "service.requests.total",
    ("service", "shed"): "service.requests.shed",
    ("service", "deadline_misses"): "service.requests.deadline_miss",
    ("service", "evaluations"): "service.dispatch.evaluations",
    ("service", "coalesced"): "service.dispatch.coalesced",
    ("service", "memo_hits"): "service.dispatch.memo_hits",
    ("service", "memo_retained"): "service.dispatch.memo_retained",
    ("service", "snapshot_reads"): "service.reads.snapshot",
    ("service", "stale_reads"): "service.reads.stale",
    ("service", "transforms"): "service.reads.transform",
    ("service", "wire_built"): "service.wire.built",
    ("service", "wire_reused"): "service.wire.reused",
    ("service", "queue_depth"): "service.queue.depth",
    ("metrics",): "service.",
    ("traces",): "service.trace.ring.",
    ("slowlog",): "service.slowlog.ring.",
    ("store", "caches"): "engine.compiled.",
    ("store", "commits"): "store.commit.",
    ("store", "open"): "store.state.",
    ("store", "arena_reads"): "store.arena.reads",
    ("store", "snapshot_pins"): "store.snapshot.pins",
    ("store", "wal", "appends"): "store.wal.appends",
    ("store", "wal", "fsyncs"): "store.wal.fsyncs",
    ("store", "wal", "replayed"): "store.wal.replayed",
    ("store", "wal", "truncated_tail"): "store.wal.truncated_tail",
}


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaves(sub, path + (key,))
    else:
        yield path


@pytest.fixture
def served():
    service = QueryService()
    service.put("db", DOC)
    service.define_view("v", "db", HIDE_C)
    server = ServiceServer(service)
    host, port = server.start()
    client = Client(host, port, timeout=10.0)
    for text in ("for $x in a/b return $x", "for $x in a/b return $x"):
        client.query("db", text)
    client.query("v", "for $x in a return $x")
    client.commit("db", INSERT_D)
    service.query("db", "for $x in a/d return $x")
    yield service, client
    client.close()
    server.stop()


def test_in_process_and_wire_metrics_share_one_key_set(served):
    service, client = served
    in_process = service.metrics()
    assert in_process == service.registry.snapshot()
    assert set(client.metrics()) == set(in_process)
    assert in_process["service.requests.total"] == 4
    assert in_process["service.dispatch.memo_hits"] == 1
    assert in_process["store.commit.delta.spliced"] == 1


def test_no_stats_leaf_has_a_registry_twin(served):
    service, client = served
    for stats in (service.stats(), client.stats()):
        assert stats["service"] == {"workers": 4, "max_queue": 256}
        assert set(stats) == {"service", "store"}
        assert set(stats["store"]) == {"documents", "views", "last_commit", "wal"}
        assert stats["store"]["wal"] == {"attached": False, "seq": 0}
        assert stats["store"]["last_commit"]["version"] == 2
        row = stats["store"]["documents"]["db"]
        assert (row["version"], row["splices"]) == (2, 1) and "arena_builds" not in row
        for leaf in _leaves(stats):
            assert not any(leaf[: len(key)] == key for key in REMOVED), leaf
    metrics = service.metrics()
    for name in REMOVED.values():
        assert any(key.startswith(name) for key in metrics), name
    assert "store.arena.builds" not in metrics


def _replayed_state(state):
    """A state directory whose two commits are in the WAL only: every
    ``open_store`` of it replays them."""
    store = open_store(state)
    store.put("db", DOC)
    store.define_view("v", "db", HIDE_C)
    save_store(store, state)
    store.commit("db", DELETE_B)
    store.commit("db", INSERT_D)
    store.wal.close()


#: ``repro store stat`` on :func:`_replayed_state`, as it printed when
#: ``stats()`` still carried the counts (the timings vary: ``{ms}``).
STAT_LINES = """\
store at {state!r}:
  document 'db': v3, 4 nodes, depth 3, 0 staged, 2 committed
    arena snapshot: 4 nodes (4 elements), 420 column bytes, 605 bytes total
  view 'v': over 'db' (document 'db', stack depth 1)
  caches [hits/misses/evictions]:
    transforms     0/1/0 (size 1/256)
    user_queries   0/0/0 (size 0/256)
    selecting_nfas 0/1/0 (size 1/256)
    filtering_nfas 0/0/0 (size 0/256)
    plans          0/0/0 (size 0/256)
    results        0/0/0 (size 0/1024; 0 wire form(s), 0 bytes)
  commits: 2 spliced, 0 no-op; cache retention n/a (0+0 kept, 0+0 dropped)
    last commit: 'db' v3 (splice, 1 entries, 1 touched); retention n/a
      results: 0 kept, 0 patched, 0 dropped
  wal: 2 commit(s) replayed at open; 2 record(s) pending checkpoint
  opened in {ms} ms: columns {ms} ms (335 bytes), replay {ms} ms (2 commits)
"""


def test_store_stat_prints_what_it_did_on_a_replayed_wal(tmp_path, capsys):
    state = str(tmp_path / "st")
    _replayed_state(state)
    assert cli_main(["store", "stat", "--state", state]) == 0
    printed = re.sub(r"\d+\.\d ms", "{ms} ms", capsys.readouterr().out)
    assert printed == STAT_LINES.format(state=state, ms="{ms}")


def test_store_stat_json_sections_do_not_overlap(tmp_path, capsys):
    state = str(tmp_path / "st")
    _replayed_state(state)
    assert cli_main(["store", "stat", "--state", state, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"store", "metrics"}
    assert out["metrics"]["store.wal.replayed"] == 2
    assert out["store"]["wal"] == {"attached": True, "seq": 2}
    removed = [key[1:] for key in REMOVED if key[0] == "store"]
    for leaf in _leaves(out["store"]):
        assert not any(leaf[: len(key)] == key for key in removed), leaf
