"""The chaos harness: kill ``repro serve`` at injected crash points
and prove the recovery contract.

For every crash point the contract is the same: with ``acked`` the
number of commits the client saw acknowledged and ``K`` the number of
commits the recovered store holds,

* ``acked <= K <= acked + 1`` — no acknowledged commit is ever lost,
  and at most the one in-flight commit (whose WAL record was durable
  but whose acknowledgement never arrived) may additionally survive;
* the recovered commits are exactly a **prefix** of the submitted
  sequence — no gap, no reordering, no unsubmitted state;
* recovery is *reported*: ``wal_replayed`` / ``repro store stat``
  show the tail that was replayed.

Crash mode is a hard ``os._exit`` (no atexit, no ``finally``), armed
in the server subprocess via the ``REPRO_FAULTS`` environment variable
— the same mechanism the CI chaos-smoke job drives with its seed
matrix (``REPRO_CHAOS_SEED``).  The in-process tests below cover the
self-healing service tier: client retries and fail-mode wire faults.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import faults
from repro.faults import CRASH_EXIT_CODE, FaultPlan
from repro.service import (
    Client,
    QueryService,
    ResponseLostError,
    RetryExhaustedError,
    RetryPolicy,
    ServiceError,
    ServiceServer,
    TransportError,
)
from repro.store import ViewStore
from repro.store.state import open_store, save_store
from repro.xmltree.serializer import serialize_arena

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The CI matrix pins this; locally any seed must satisfy the contract.
CHAOS_SEED = os.environ.get("REPRO_CHAOS_SEED", "7")

DOC = "<db><a><x>1</x></a></db>"


def _transform(body: str, name: str = "db") -> str:
    return f'transform copy $a := doc("{name}") modify do {body} return $a'


def _insert(index: int) -> str:
    return _transform(f"insert <m{index}>9</m{index}> into $a/a")


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    faults.uninstall()
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# The subprocess harness
# ----------------------------------------------------------------------


def _env(fault_spec=None) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    if fault_spec:
        env["REPRO_FAULTS"] = f"seed={CHAOS_SEED};{fault_spec}"
    return env


def _seed_state(tmp_path) -> str:
    state_dir = str(tmp_path / "state")
    store = ViewStore()
    store.put("db", DOC)
    save_store(store, state_dir)
    return state_dir


def _boot_serve(state_dir: str, tmp_path, fault_spec=None):
    """Start ``repro serve`` as a subprocess; returns (proc, port)."""
    port_file = str(tmp_path / "port")
    if os.path.exists(port_file):  # a previous boot's port is stale
        os.remove(port_file)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state", state_dir,
            "--port", "0", "--port-file", port_file,
            "--workers", "2",
        ],
        env=_env(fault_spec),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(port_file):
            text = open(port_file, encoding="utf-8").read().strip()
            if text:
                return proc, int(text)
        if proc.poll() is not None:
            raise AssertionError(
                f"serve died at boot ({proc.returncode}): "
                f"{proc.communicate()[1]}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("serve never published its port")


def _commit_until_crash(port: int, count: int):
    """Issue *count* commits; returns (acked, submitted texts).  Stops
    at the first transport/typed failure (writes are never retried)."""
    acked = 0
    submitted = []
    client = Client("127.0.0.1", port, timeout=30.0)
    try:
        for index in range(count):
            submitted.append(_insert(index))
            client.commit("db", submitted[-1])
            acked += 1
    except (ServiceError, ConnectionError, OSError):
        pass
    finally:
        client.close()
    return acked, submitted


def _wait_for_exit(proc, timeout: float = 60.0) -> int:
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()


def _assert_recovery_contract(state_dir: str, acked: int, submitted: list):
    """The crash-recovery contract over the reloaded store."""
    recovered = open_store(state_dir)
    committed = recovered.documents.get("db").version - 1
    assert acked <= committed <= acked + 1, (acked, committed)
    body = serialize_arena(recovered.documents.get("db").arena)
    for index in range(len(submitted)):
        marker = f"<m{index}>"
        assert (marker in body) == (index < committed), (index, committed)
    assert recovered.wal_replayed == committed
    return recovered


def _store_stat(state_dir: str) -> dict:
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "store", "stat",
            "--state", state_dir, "--json",
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


#: point → the commit ordinal whose handling the crash lands in.  Four
#: distinct moments of a commit's life: before its record is durable,
#: after it is durable but before the apply, mid-apply (splice), and
#: after the apply but before the acknowledgement is sent.
CRASH_MATRIX = [
    ("wal.append.pre_fsync", 4),
    ("wal.append.post_fsync", 4),
    ("store.commit.mid_splice", 3),
    ("wire.response.pre_send", 4),
]


@pytest.mark.parametrize("point,nth", CRASH_MATRIX)
def test_crash_recovery_contract(tmp_path, point, nth):
    state_dir = _seed_state(tmp_path)
    proc, port = _boot_serve(
        state_dir, tmp_path, f"{point}:crash:nth={nth}"
    )
    acked, submitted = _commit_until_crash(port, count=8)
    assert _wait_for_exit(proc) == CRASH_EXIT_CODE
    assert acked < len(submitted)  # the crash interrupted the run
    recovered = _assert_recovery_contract(state_dir, acked, submitted)
    assert recovered.documents.get("db").version >= nth - 1
    stat = _store_stat(state_dir)
    assert stat["store"]["wal"]["attached"]
    assert stat["metrics"]["store.wal.replayed"] == recovered.wal_replayed


def test_crash_mid_checkpoint_preserves_acknowledged_commits(tmp_path):
    """An admin write (``load``) triggers an eager checkpoint; crashing
    between the manifest fsync and its rename must leave the *old*
    manifest paired with the *full* WAL — every acknowledged commit
    replays, the unacknowledged load is gone."""
    state_dir = _seed_state(tmp_path)
    proc, port = _boot_serve(
        state_dir, tmp_path, "wal.checkpoint.mid:crash:nth=1"
    )
    client = Client("127.0.0.1", port, timeout=30.0)
    submitted = []
    try:
        for index in range(3):
            submitted.append(_insert(index))
            client.commit("db", submitted[-1])
        with pytest.raises((ServiceError, ConnectionError, OSError)):
            client.load("doc2", xml="<doc2><z>1</z></doc2>")
    finally:
        client.close()
    assert _wait_for_exit(proc) == CRASH_EXIT_CODE
    recovered = _assert_recovery_contract(state_dir, 3, submitted)
    assert recovered.wal_replayed == 3
    assert "doc2" not in recovered.documents  # never acknowledged


def test_reboot_after_crash_reports_the_replay_and_serves(tmp_path):
    """The self-healing loop closed end to end: crash, reboot the same
    state dir, observe the replay report, read the recovered data over
    the wire, and verify a clean shutdown checkpoints it."""
    state_dir = _seed_state(tmp_path)
    proc, port = _boot_serve(
        state_dir, tmp_path, "wal.append.post_fsync:crash:nth=3"
    )
    acked, submitted = _commit_until_crash(port, count=6)
    assert _wait_for_exit(proc) == CRASH_EXIT_CODE

    reborn, port = _boot_serve(state_dir, tmp_path)
    client = Client("127.0.0.1", port, timeout=30.0)
    try:
        rows = client.query("db", "for $x in a return $x")
        body = "".join(rows)
        for index in range(acked):
            assert f"<m{index}>" in body
    finally:
        client.close()
    reborn.terminate()  # SIGTERM → graceful save
    assert _wait_for_exit(reborn) == 0
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 0  # the shutdown checkpoint covers all
    assert recovered.documents.get("db").version >= acked + 1


def test_server_booted_on_an_empty_directory_logs_its_commits(tmp_path):
    """``repro serve --state <empty dir>`` + a wire ``load``: the store
    was opened before any manifest existed, and must still hold a
    write-ahead log — every acknowledged commit is appended before the
    kill and replayed after it."""
    state_dir = str(tmp_path / "empty-state")
    os.makedirs(state_dir)
    assert open_store(state_dir).wal is not None
    proc, port = _boot_serve(state_dir, tmp_path)
    commits = 5
    client = Client("127.0.0.1", port, timeout=30.0)
    try:
        assert client.load("db", xml=DOC)["version"] == 1
        submitted = [_insert(index) for index in range(commits)]
        for text in submitted:
            client.commit("db", text)
        assert client.metrics()["store.wal.appends"] == commits
    finally:
        client.close()
    proc.kill()  # SIGKILL: no shutdown checkpoint, only the log survives
    _wait_for_exit(proc)

    recovered = _assert_recovery_contract(state_dir, commits, submitted)
    assert recovered.documents.get("db").version == 1 + commits
    recovered.wal.close()
    reborn, port = _boot_serve(state_dir, tmp_path)
    client = Client("127.0.0.1", port, timeout=30.0)
    try:
        assert client.stats()["store"]["documents"]["db"]["version"] == 1 + commits
        body = "".join(client.query("db", "for $x in a return $x"))
        assert all(f"<m{index}>" in body for index in range(commits))
    finally:
        client.close()
        reborn.kill()
        _wait_for_exit(reborn)


def test_probabilistic_crashes_still_satisfy_the_contract(tmp_path):
    """Seeded probability mode: wherever the seed lands the kill, the
    acked-prefix contract must hold (and with no kill, a graceful stop
    must leave a clean checkpoint)."""
    state_dir = _seed_state(tmp_path)
    proc, port = _boot_serve(
        state_dir, tmp_path, "wal.append.post_fsync:crash:p=0.35"
    )
    acked, submitted = _commit_until_crash(port, count=12)
    try:
        # A kill on the last draw may still be mid-exit: give it a
        # moment before concluding the seed never fired.
        returncode = proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.terminate()
        returncode = _wait_for_exit(proc)
    else:
        _wait_for_exit(proc)  # close the pipes
    if returncode == CRASH_EXIT_CODE:
        assert acked < len(submitted)  # the killed commit was never acked
    else:  # this seed never fired in 12 draws: a clean SIGTERM shutdown
        assert returncode == 0 and acked == len(submitted)
    _assert_recovery_contract(state_dir, acked, submitted)


# ----------------------------------------------------------------------
# Client self-healing (in-process)
# ----------------------------------------------------------------------


def _accept_and_close_server():
    """A server that accepts and immediately drops every connection —
    the shape of a host whose service just died."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return sock, stop


def test_idempotent_reads_retry_then_exhaust_with_the_last_error():
    sock, stop = _accept_and_close_server()
    try:
        client = Client(
            "127.0.0.1", sock.getsockname()[1],
            retry=RetryPolicy(attempts=3, base_delay=0.001),
            retry_seed=0,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.ping()
        assert isinstance(excinfo.value.last_error, ResponseLostError)
        assert excinfo.value.attempts == 3 and excinfo.value.op == "ping"
        assert client.retry_stats == {
            "retries": 2, "reconnects": 2, "exhausted": 1,
        }
        client.close()
    finally:
        stop.set()
        sock.close()


def test_writes_are_never_auto_retried():
    sock, stop = _accept_and_close_server()
    try:
        client = Client(
            "127.0.0.1", sock.getsockname()[1],
            retry=RetryPolicy(attempts=5, base_delay=0.001),
        )
        with pytest.raises(ResponseLostError):
            client.commit("db", "anything")
        assert client.retry_stats["retries"] == 0
        assert client.retry_stats["exhausted"] == 0
        client.close()
    finally:
        stop.set()
        sock.close()


def test_connect_failure_is_a_transport_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here any more
    with pytest.raises(TransportError, match="cannot connect"):
        Client("127.0.0.1", port, timeout=1.0)


def test_retry_policy_backoff_is_capped_and_jittered():
    import random

    policy = RetryPolicy(
        attempts=5, base_delay=0.1, max_delay=0.3, jitter=0.5
    )
    rng = random.Random(0)
    delays = [policy.delay(k, rng) for k in range(4)]
    # Exponential up to the cap...
    assert delays[0] < delays[3] <= 0.3 * 1.5
    # ...and every delay is >= its un-jittered base.
    for k, delay in enumerate(delays):
        assert delay >= min(0.3, 0.1 * (2 ** k))
    with pytest.raises(ValueError, match="attempts must be >= 1"):
        RetryPolicy(attempts=0)


# ----------------------------------------------------------------------
# Wire faults in fail mode (in-process server)
# ----------------------------------------------------------------------


def test_wire_fault_becomes_a_typed_error_and_the_commit_stays_durable(
    tmp_path,
):
    """A fail-mode fault while sending the response must reach the
    client as a typed error frame — and since the commit itself already
    applied and its WAL record is durable, recovery keeps it (the
    client treats it like any lost-response write: surfaced, its
    outcome checkable)."""
    state_dir = _seed_state(tmp_path)
    store = open_store(state_dir)
    service = QueryService(store=store)
    server = ServiceServer(service)
    host, port = server.start()
    client = Client(host, port, retry=RetryPolicy(attempts=1))
    try:
        client.ping()  # response hit 1
        faults.install(FaultPlan().add("wire.response.pre_send", nth=1))
        with pytest.raises(ServiceError) as excinfo:
            client.commit("db", _insert(0))
        faults.uninstall()
        assert excinfo.value.code == "fault"
        assert "injected fault" in str(excinfo.value)
        # The commit applied before the response faulted...
        assert store.documents.get("db").version == 2
    finally:
        client.close()
        server.stop()
    # ...and it is durable: a crash-reopen replays it from the WAL.
    recovered = open_store(state_dir)
    assert recovered.wal_replayed == 1
    assert recovered.documents.get("db").version == 2
    assert "<m0>" in serialize_arena(recovered.documents.get("db").arena)
