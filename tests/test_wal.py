"""The write-ahead log, crash recovery, and fault injection.

The durability contract under test: every acknowledged commit survives
a crash (its WAL record was fsync'd before the commit touched the
document), a checkpoint makes the WAL redundant (and truncates it),
and recovery replays exactly the tail the checkpoint did not cover —
idempotently, so a crash *between* checkpoint steps never double-
applies or loses a commit.  The fault-point registry (`repro.faults`)
is both a subject here (plan mechanics) and the instrument the
durability regressions are proven with.
"""

import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.faults import FaultPlan, InjectedFault, parse_plan
from repro.obs import MetricsRegistry
from repro.store import ViewStore
from repro.store.errors import WalCorruptError
from repro.store.state import open_store, save_store
from repro.store.wal import (
    WalWriter,
    effective_commits,
    encode_record,
    read_wal,
    truncate_torn_tail,
    wal_path,
)
from repro.xmltree.node import deep_copy
from repro.xmltree.serializer import serialize, serialize_arena
from tests.strategies import LABELS, trees

DOC = "<db><a><x>1</x></a><b><y>2</y></b></db>"


def _transform(body: str, name: str = "db") -> str:
    return f'transform copy $a := doc("{name}") modify do {body} return $a'


def _insert(marker: str) -> str:
    return _transform(f"insert <{marker}>9</{marker}> into $a/a")


def _doc_bytes(store: ViewStore, name: str = "db") -> str:
    return serialize_arena(store.documents.get(name).arena)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Every test leaves the process-global fault plan uninstalled."""
    faults.uninstall()
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# Record format and file reading
# ----------------------------------------------------------------------


def test_record_round_trip(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with open(path, "wb") as handle:
        handle.write(encode_record(1, {"kind": "commit", "doc": "db", "version": 2}))
        handle.write(encode_record(2, {"kind": "abort", "doc": "db", "version": 2}))
    result = read_wal(path)
    assert not result.truncated_tail
    assert result.last_seq == 2
    assert result.valid_bytes == os.path.getsize(path)
    assert result.records == [
        {"kind": "commit", "doc": "db", "version": 2},
        {"kind": "abort", "doc": "db", "version": 2},
    ]


def test_read_wal_missing_file_is_empty(tmp_path):
    result = read_wal(str(tmp_path / "nope.jsonl"))
    assert result.records == [] and result.last_seq == 0
    assert not result.truncated_tail and result.valid_bytes == 0


def test_torn_final_line_is_reported_and_truncated(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    good = encode_record(1, {"kind": "commit", "doc": "db", "version": 2})
    with open(path, "wb") as handle:
        handle.write(good)
        handle.write(b'{"crc": 123, "seq": 2, "rec"')  # cut mid-write
    result = read_wal(path)
    assert result.truncated_tail
    assert len(result.records) == 1 and result.valid_bytes == len(good)
    truncate_torn_tail(path, result.valid_bytes)
    again = read_wal(path)
    assert not again.truncated_tail and again.records == result.records


def test_checksum_failure_on_final_line_is_tail_damage(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    good = encode_record(1, {"kind": "commit", "doc": "db", "version": 2})
    bad = encode_record(2, {"kind": "commit", "doc": "db", "version": 3})
    # Flip a byte inside the record body: the line still parses as
    # JSON, but the crc no longer matches.
    bad = bad.replace(b'"db"', b'"dc"')
    with open(path, "wb") as handle:
        handle.write(good + bad)
    result = read_wal(path)
    assert result.truncated_tail and len(result.records) == 1


def test_bad_record_before_the_final_line_raises(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with open(path, "wb") as handle:
        handle.write(encode_record(1, {"kind": "commit", "doc": "db", "version": 2}))
        handle.write(b"not json at all\n")
        handle.write(encode_record(2, {"kind": "commit", "doc": "db", "version": 3}))
    with pytest.raises(WalCorruptError, match="before the final line"):
        read_wal(path)


def test_sequence_gap_raises(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with open(path, "wb") as handle:
        handle.write(encode_record(1, {"kind": "commit", "doc": "db", "version": 2}))
        handle.write(encode_record(3, {"kind": "commit", "doc": "db", "version": 3}))
    with pytest.raises(WalCorruptError, match="sequence gap"):
        read_wal(path)


def test_effective_commits_abort_cancellation():
    c2a = {"kind": "commit", "doc": "db", "version": 2, "texts": ["t1"]}
    abort = {"kind": "abort", "doc": "db", "version": 2}
    c2b = {"kind": "commit", "doc": "db", "version": 2, "texts": ["t2"]}
    other = {"kind": "commit", "doc": "eg", "version": 2, "texts": ["t3"]}
    # The abort cancels the latest *prior* attempt; the retry (same
    # version, after the abort) and unrelated documents survive.
    assert effective_commits([c2a, abort, c2b, other]) == [c2b, other]
    # Unknown kinds are ignored (forward compatibility).
    assert effective_commits([{"kind": "note"}, c2a]) == [c2a]
    # An abort with no matching commit is a no-op.
    assert effective_commits([abort, c2b]) == [c2b]


def test_wal_writer_append_and_truncate(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    writer = WalWriter(path)
    assert writer.append({"kind": "commit", "doc": "db", "version": 2}) == 1
    assert writer.append({"kind": "commit", "doc": "db", "version": 3}) == 2
    stats = writer.stats()
    assert stats == {"seq": 2, "appends": 2, "fsyncs": 2}
    assert read_wal(path).last_seq == 2
    writer.truncate()
    assert os.path.getsize(path) == 0 and writer.stats()["seq"] == 0
    # Appends restart the sequence from 1 within the new epoch.
    assert writer.append({"kind": "commit", "doc": "db", "version": 4}) == 1
    writer.close()


# ----------------------------------------------------------------------
# Fault plan mechanics
# ----------------------------------------------------------------------


def test_fault_point_is_a_noop_without_a_plan():
    faults.fault_point("anything.at.all")  # must not raise


def test_fault_plan_nth_fires_exactly_once():
    plan = FaultPlan().add("p", nth=3)
    faults.install(plan)
    faults.fault_point("p")
    faults.fault_point("p")
    with pytest.raises(InjectedFault, match="injected fault at 'p'"):
        faults.fault_point("p")
    faults.fault_point("p")  # hit 4: past nth, never fires again
    assert plan.hits("p") == 4
    assert plan.log == ["p", "p", "p", "p"]


def test_fault_plan_probability_is_seeded():
    outcomes = []
    for _ in range(2):
        plan = FaultPlan(seed=42).add("p", probability=0.5)
        fired = []
        for _hit in range(20):
            try:
                plan.check("p")
                fired.append(False)
            except InjectedFault:
                fired.append(True)
        outcomes.append(fired)
    assert outcomes[0] == outcomes[1]  # same seed, same draws
    assert any(outcomes[0]) and not all(outcomes[0])


def test_fault_plan_logs_unarmed_hits():
    plan = FaultPlan().add("armed")
    faults.install(plan)
    faults.fault_point("other")
    with pytest.raises(InjectedFault):
        faults.fault_point("armed")
    assert plan.log == ["other", "armed"]
    assert plan.hits("other") == 0  # hit counts track armed points only


def test_parse_plan_grammar():
    plan = parse_plan("seed=7;a.b:crash:nth=2:exit=3;c.d;e.f:fail:p=0.25")
    spec = plan._specs["a.b"]
    assert spec.mode == "crash" and spec.nth == 2 and spec.exit_code == 3
    assert plan._specs["c.d"].mode == "fail" and plan._specs["c.d"].nth is None
    assert plan._specs["e.f"].probability == 0.25
    with pytest.raises(ValueError, match="unknown fault option"):
        parse_plan("a.b:fail:bogus=1")
    with pytest.raises(ValueError, match="unknown fault mode"):
        parse_plan("a.b:explode")


def test_install_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "x.y:fail:nth=1")
    plan = faults.install_from_env()
    assert plan is not None and faults.current_plan() is plan
    with pytest.raises(InjectedFault):
        faults.fault_point("x.y")
    monkeypatch.delenv("REPRO_FAULTS")
    assert faults.install_from_env() is None


# ----------------------------------------------------------------------
# The commit → WAL → recover lifecycle
# ----------------------------------------------------------------------


def _fresh_state(tmp_path) -> str:
    state_dir = str(tmp_path / "state")
    store = ViewStore()
    store.put("db", DOC)
    save_store(store, state_dir)
    return state_dir


def test_commit_appends_a_record_and_recovery_replays_it(tmp_path):
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    assert store.wal is not None and store.wal_replayed == 0
    store.commit("db", _insert("m1"))
    store.commit("db", _insert("m2"))
    assert store.wal.stats() == {"seq": 2, "appends": 2, "fsyncs": 2}
    expected = _doc_bytes(store)
    # Crash simulation: drop the store without save_store.  The WAL
    # alone must carry both commits into the next open.
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 2
    assert recovered.documents.get("db").version == 3
    assert _doc_bytes(recovered) == expected
    assert recovered.stats()["wal"] == {"attached": True, "seq": 2}
    registry = MetricsRegistry()
    recovered.bind_metrics(registry)
    # Replay does not re-append: the writer continues the sequence.
    assert registry.get("store.wal.replayed") == 2
    assert registry.get("store.wal.appends") == 0


def test_checkpoint_truncates_the_wal(tmp_path):
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    store.commit("db", _insert("m1"))
    assert os.path.getsize(wal_path(state_dir)) > 0
    save_store(store, state_dir)
    assert os.path.getsize(wal_path(state_dir)) == 0
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 0
    assert recovered.documents.get("db").version == 2


def test_replay_is_idempotent_after_a_partial_checkpoint(tmp_path):
    """A crash between the manifest replace and the WAL truncate leaves
    a new checkpoint with a stale log; each record carries its version,
    so replay skips everything the checkpoint already covers."""
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    store.commit("db", _insert("m1"))
    store.commit("db", _insert("m2"))
    stale_wal = open(wal_path(state_dir), "rb").read()
    expected = _doc_bytes(store)
    save_store(store, state_dir)
    with open(wal_path(state_dir), "wb") as handle:
        handle.write(stale_wal)  # resurrect the log the crash kept
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 0  # both versions already covered
    assert recovered.documents.get("db").version == 3
    assert _doc_bytes(recovered) == expected


def test_torn_tail_on_open_truncates_and_warns(tmp_path):
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    store.commit("db", _insert("m1"))
    good_bytes = os.path.getsize(wal_path(state_dir))
    with open(wal_path(state_dir), "ab") as handle:
        handle.write(b'{"crc": 1, "seq": 2')  # the crash artifact
    with pytest.warns(RuntimeWarning, match="torn final record"):
        recovered = open_store(state_dir)
    assert recovered.wal_truncated_tail == 1
    assert recovered.wal_replayed == 1
    registry = MetricsRegistry()
    recovered.bind_metrics(registry)
    assert registry.get("store.wal.truncated_tail") == 1
    assert os.path.getsize(wal_path(state_dir)) == good_bytes


def test_midlog_damage_raises_the_typed_error(tmp_path):
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    store.commit("db", _insert("m1"))
    store.commit("db", _insert("m2"))
    path = wal_path(state_dir)
    lines = open(path, "rb").read().splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.write(b"garbage\n")
        handle.write(lines[1])
    with pytest.raises(WalCorruptError, match="before the final line"):
        open_store(state_dir)


def test_version_gap_in_the_log_raises(tmp_path):
    state_dir = _fresh_state(tmp_path)
    with open(wal_path(state_dir), "wb") as handle:
        handle.write(
            encode_record(
                1,
                {"kind": "commit", "doc": "db", "version": 7,
                 "texts": [_insert("m1")]},
            )
        )
    with pytest.raises(WalCorruptError, match="version gap"):
        open_store(state_dir)


def test_record_for_an_unknown_document_is_skipped_with_a_warning(tmp_path):
    state_dir = _fresh_state(tmp_path)
    with open(wal_path(state_dir), "wb") as handle:
        handle.write(
            encode_record(
                1,
                {"kind": "commit", "doc": "ghost", "version": 2,
                 "texts": [_insert("m1", )]},
            )
        )
    with pytest.warns(RuntimeWarning, match="unknown document"):
        recovered = open_store(state_dir)
    assert recovered.wal_replayed == 0


def test_staged_updates_survive_via_the_manifest_not_the_wal(tmp_path):
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    store.stage("db", _insert("m1"))
    save_store(store, state_dir)
    recovered = open_store(state_dir)
    assert recovered.stats()["documents"]["db"]["staged"] == 1
    # A replayed commit supersedes checkpoint-time staged entries (the
    # commit consumed the whole staging area): no double restore.
    recovered.commit("db")
    after_crash = open_store(state_dir)
    assert after_crash.wal_replayed == 1
    assert after_crash.stats()["documents"]["db"]["staged"] == 0
    assert after_crash.documents.get("db").version == 2


def test_failed_commit_aborts_its_record_and_restores_staging(tmp_path):
    """The WAL record lands *before* the apply; when the apply then
    fails, the store must (a) put the staged updates back, (b) append
    an abort so recovery does not replay the failed attempt, and (c)
    let a retry commit the same version cleanly."""
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    faults.install(FaultPlan().add("store.commit.mid_splice", nth=1))
    with pytest.raises(InjectedFault):
        store.commit("db", _insert("m1"))
    faults.uninstall()
    assert store.documents.get("db").version == 1
    assert store.stats()["documents"]["db"]["staged"] == 1  # restored
    records = read_wal(wal_path(state_dir)).records
    assert [r["kind"] for r in records] == ["commit", "abort"]
    # The retry re-consumes the restored staging area.
    assert store.commit("db") == 2
    expected = _doc_bytes(store)
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 1  # the retry, not the failure
    assert recovered.documents.get("db").version == 2
    assert _doc_bytes(recovered) == expected


def test_checkpoint_fsync_discipline_ordering(tmp_path):
    """The regression that motivated the WAL: a checkpoint must fsync
    file data before each rename, fsync the directory after, and only
    then truncate the log.  The fault-point log records the order."""
    state_dir = str(tmp_path / "state")
    store = ViewStore()
    store.put("db", DOC)
    plan = FaultPlan()  # nothing armed: pure observation
    faults.install(plan)
    save_store(store, state_dir)
    faults.uninstall()
    log = plan.log
    assert "checkpoint.fsync.file" in log
    assert log.index("wal.checkpoint.mid") > max(
        i for i, name in enumerate(log) if name == "checkpoint.fsync.file"
    )
    assert log.index("checkpoint.fsync.dir") > log.index("wal.checkpoint.mid")
    assert log.index("wal.checkpoint.pre_truncate") > log.index("checkpoint.fsync.dir")


def test_interrupted_checkpoint_leaves_the_old_state_loadable(tmp_path):
    """Failing between a temp-file fsync and its rename must leave the
    previous checkpoint (plus the full WAL) fully intact."""
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    store.commit("db", _insert("m1"))
    expected = _doc_bytes(store)
    faults.install(FaultPlan().add("checkpoint.fsync.file", nth=1))
    with pytest.raises(InjectedFault):
        save_store(store, state_dir)
    faults.uninstall()
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 1  # WAL untouched by the failure
    assert _doc_bytes(recovered) == expected


def test_save_over_existing_state_empties_a_stale_wal(tmp_path):
    """An in-memory store saved over an existing directory must not
    leave the previous store's log to replay over its checkpoint."""
    state_dir = _fresh_state(tmp_path)
    store = open_store(state_dir)
    store.commit("db", _insert("m1"))
    fresh = ViewStore()  # never opened from disk: no WAL attached
    fresh.put("db", DOC)
    save_store(fresh, state_dir)
    assert os.path.getsize(wal_path(state_dir)) == 0
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 0
    assert recovered.documents.get("db").version == 1


# ----------------------------------------------------------------------
# Property: checkpoint + WAL-tail replay reconstructs the store
# ----------------------------------------------------------------------


@st.composite
def update_texts(draw):
    """A random commit body over the shared a..e alphabet — including
    inserts/deletes/replaces that exercise both the splice and the
    full-rebuild commit paths."""
    kind = draw(st.sampled_from(["insert", "delete", "replace", "rename"]))
    path = "$a" + draw(st.sampled_from(["/", "//"])) + draw(st.sampled_from(LABELS))
    label = draw(st.sampled_from(LABELS))
    if kind == "insert":
        body = f"insert <{label}><t>9</t></{label}> into {path}"
    elif kind == "delete":
        body = f"delete {path}"
    elif kind == "replace":
        body = f"replace {path} with <{label}>9</{label}>"
    else:
        body = f"rename {path} as {draw(st.sampled_from(LABELS))}"
    return _transform(body)


@settings(max_examples=25, deadline=None)
@given(
    tree=trees(),
    texts=st.lists(update_texts(), min_size=1, max_size=4),
    checkpoint_after=st.integers(min_value=0, max_value=4),
)
def test_checkpoint_plus_replay_reconstructs_the_store(
    tree, texts, checkpoint_after
):
    """After N random commits — with a checkpoint dropped at a random
    position — a crash-reopen must reconstruct the identical store:
    same version numbers, same serialized bytes, through both the
    splice and rebuild commit paths."""
    with tempfile.TemporaryDirectory() as root:
        state_dir = os.path.join(root, "state")
        seed = ViewStore()
        seed.put("db", deep_copy(tree))
        save_store(seed, state_dir)
        live = open_store(state_dir)
        for index, text in enumerate(texts):
            live.commit("db", text)
            if index + 1 == checkpoint_after:
                save_store(live, state_dir)
        expected_version = live.documents.get("db").version
        expected_bytes = _doc_bytes(live)
        expected_arena = serialize_arena(live.pin("db").arena)
        recovered = open_store(state_dir)
        assert recovered.documents.get("db").version == expected_version
        assert _doc_bytes(recovered) == expected_bytes
        assert serialize_arena(recovered.pin("db").arena) == expected_arena
        # Exactly the tail past the checkpoint replayed (a checkpoint
        # position beyond the last commit never fired).
        covered = checkpoint_after if checkpoint_after <= len(texts) else 0
        assert recovered.wal_replayed == len(texts) - covered
