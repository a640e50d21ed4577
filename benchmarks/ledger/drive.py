"""Driving the system from outside: a ``repro serve`` child process,
closed- and open-loop load from two client connections, a span sink,
and the Node-reference answer check.

Nothing here reaches into ``repro`` internals: the server is the real
CLI entry point, the clients are ``repro.service.Client``, and the
reference is the public ``evaluate_query`` over the parsed document.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal
import subprocess
import sys
import threading
import time

from repro import evaluate_query, parse, parse_user_query, serialize
from repro.service.client import Client, RetryPolicy
from repro.service.errors import ServiceError
from repro.store.errors import StoreError
from repro.xmltree.node import Element

from workloads import NAME

#: Client connections per load phase — one per core of the sandbox.
CONNECTIONS = 2
#: Every N-th read answer per connection is kept for the reference check.
CHECK_EVERY = 25


def percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolated percentile of a pre-sorted, non-empty list."""
    rank = q / 100.0 * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Spans:
    """An in-memory span sink, written out once when the run ends.

    A span is ``(id, name, op, parent, start, end)``; spans of one
    request share ``op``.  ``list.append`` and ``next(count)`` are
    atomic under the interpreter lock, so two client threads may record
    into one sink.
    """

    def __init__(self):
        self.rows = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, op: str, parent: int = 0):
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.rows.append((span_id, name, op, parent, start, time.perf_counter()))

    def self_times(self) -> dict:
        """Per span name, the self times in seconds: each span's
        duration minus the durations of its direct children."""
        children = {}
        for _, _, _, parent, start, end in self.rows:
            children[parent] = children.get(parent, 0.0) + (end - start)
        out = {}
        for span_id, name, _, _, start, end in self.rows:
            out.setdefault(name, []).append((end - start) - children.get(span_id, 0.0))
        return out

    def attributed_ratio(self, root_name: str) -> float:
        """Share of the *root_name* spans' time covered by their children."""
        roots = {r[0]: r[5] - r[4] for r in self.rows if r[1] == root_name}
        covered = sum(r[5] - r[4] for r in self.rows if r[3] in roots)
        total = sum(roots.values())
        return covered / total if total else 0.0

    def as_json(self) -> list:
        keys = ("id", "name", "op", "parent", "start", "end")
        return [dict(zip(keys, row)) for row in self.rows]


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------


class Server:
    """One ``python -m repro serve --state DIR`` child, default flags
    (thread mode, 4 workers, 2 ms window).  Always ended by SIGKILL:
    a graceful stop would checkpoint, and the ledger wants the state
    directory exactly as a crash leaves it."""

    def __init__(self, state_dir: str, src_dir: str):
        self.state_dir = state_dir
        self.port_file = state_dir + ".port"
        self.log_path = state_dir + ".log"
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.port_file)  # an earlier server's port is not this one's
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--state", state_dir,
                 "--port", "0", "--port-file", self.port_file],
                # One malloc arena: with glibc's default, whether a second
                # arena appears depends on which threads first contend for
                # the allocator, and the server's peak RSS then lands on
                # one of two values 20 % apart from run to run.
                env=dict(os.environ, PYTHONPATH=src_dir, MALLOC_ARENA_MAX="1"),
                stdout=log, stderr=log, stdin=subprocess.DEVNULL,
            )
        try:
            self.port = self._await_port(timeout=120.0)
            with self.client() as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        #: spawn → first pong
        self.boot_s = time.perf_counter() - started

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            with contextlib.suppress(OSError, ValueError):
                with open(self.port_file, "r", encoding="utf-8") as handle:
                    return int(handle.read())
            time.sleep(0.005)
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as log:
            tail = log.read()[-2000:]
        raise RuntimeError(f"repro serve did not come up on {self.state_dir!r}:\n{tail}")

    def client(self) -> Client:
        # No automatic retries: a transport failure must surface as a
        # failed op, not be absorbed into a longer latency.
        return Client("127.0.0.1", self.port, retry=RetryPolicy(attempts=1))

    def rss_peak_mb(self) -> float:
        return rss_peak_mb(self.process.pid)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()


def rss_peak_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def state_dir_bytes(state_dir: str) -> int:
    """Checkpoint + WAL bytes (the lock, slow-query log and manifest
    temp files are bookkeeping, not stored data)."""
    total = 0
    for entry in os.listdir(state_dir):
        if entry == "store.json" or entry == "wal.jsonl" or entry.startswith("doc-"):
            total += os.path.getsize(os.path.join(state_dir, entry))
    return total


# ----------------------------------------------------------------------
# Load phases
# ----------------------------------------------------------------------


class Phase:
    """What one load phase observed, merged over its connections."""

    def __init__(self):
        self.done = []         # (kind, latency seconds) per completed op
        self.late = []         # open loop: seconds the send ran behind schedule
        self.errors = []       # (kind, text, repr(exc))
        self.samples = []      # (text, answer) of every CHECK_EVERY-th read
        self.reads_seen = 0
        self.elapsed = 0.0

    @property
    def ops(self) -> int:
        return len(self.done) + len(self.errors)

    def latencies(self, kind: str) -> list:
        return [seconds for done_kind, seconds in self.done if done_kind == kind]

    def merge(self, other: "Phase") -> None:
        for name in ("done", "late", "errors", "samples"):
            getattr(self, name).extend(getattr(other, name))


def issue(client: Client, kind: str, text: str, part: Phase, script, since=None) -> None:
    """Send one op; its latency runs from *since* (default: now)."""
    started = time.perf_counter() if since is None else since
    try:
        if kind == "read":
            answer = client.query(NAME, text)
        else:
            answer = client.commit(NAME, text)
    except (ServiceError, StoreError) as exc:
        part.errors.append((kind, text, repr(exc)))
        return
    part.done.append((kind, time.perf_counter() - started))
    if kind == "read":
        part.reads_seen += 1
        if part.reads_seen % CHECK_EVERY == 0:
            part.samples.append((text, answer))
    else:
        script.acked += 1


def _run_connections(server: Server, body) -> Phase:
    """Run ``body(conn, client, part, begin)`` on one thread per
    connection; ``begin()`` blocks until every thread is connected and
    returns the common start time."""
    parts = [Phase() for _ in range(CONNECTIONS)]
    failures = []
    barrier = threading.Barrier(CONNECTIONS)
    start = [0.0]

    def begin() -> float:
        if barrier.wait() == 0:
            start[0] = time.perf_counter()
        barrier.wait()
        return start[0]

    def work(conn: int) -> None:
        try:
            with server.client() as client:
                body(conn, client, parts[conn], begin)
        except BaseException as exc:  # re-raised on the caller's thread
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(conn,)) for conn in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    merged = Phase()
    for part in parts:
        merged.merge(part)
    merged.elapsed = time.perf_counter() - start[0]
    return merged


def closed_loop(server, streams, script, *, seconds=None, ops=None, spans=None) -> Phase:
    """Each connection sends its next op when the previous one is
    answered, for *seconds* (an op in flight at the deadline completes)
    or for *ops* ops per connection."""

    def body(conn, client, part, begin):
        stream = streams[conn]
        started = begin()
        for index in itertools.count():
            if ops is not None and index >= ops:
                break
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
            kind, text = next(stream)
            if spans is None:
                issue(client, kind, text, part, script)
            else:
                with spans.span(f"loadgen.{kind}", f"c{conn}-{index}"):
                    issue(client, kind, text, part, script)

    return _run_connections(server, body)


def open_loop(server, streams, script, *, rate: float, seconds: float) -> Phase:
    """Arrivals are scheduled at *rate* per second whatever the server
    does; each latency runs from the scheduled arrival, and ``late`` is
    how far behind schedule the generator itself sent."""
    total = max(CONNECTIONS, int(rate * seconds))

    def body(conn, client, part, begin):
        stream = streams[conn]
        started = begin()
        for index in range(conn, total, CONNECTIONS):
            scheduled = started + index / rate
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            part.late.append(max(0.0, time.perf_counter() - scheduled))
            kind, text = next(stream)
            issue(client, kind, text, part, script, since=scheduled)

    return _run_connections(server, body)


def probe_round_trips(server: Server, count: int, call) -> list:
    """*count* sequential ``call(client)`` round trips on one idle
    connection; returns their latencies in seconds."""
    latencies = []
    with server.client() as client:
        call(client)
        for _ in range(count):
            started = time.perf_counter()
            call(client)
            latencies.append(time.perf_counter() - started)
    return latencies


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------


class Reference:
    """Answers from the Node evaluator over the parsed, pristine
    document — the implementation the arena read path must agree with."""

    def __init__(self, xml: str, artefacts=()):
        self.doc = parse(xml)
        self.artefacts = artefacts
        self._answers = {}

    def answer(self, text: str) -> list:
        found = self._answers.get(text)
        if found is None:
            items = evaluate_query(self.doc, parse_user_query(text))
            found = self._answers[text] = [
                serialize(item) if isinstance(item, Element) else str(item)
                for item in items
            ]
        return found

    def agrees(self, text: str, answer: list) -> bool:
        for artefact in self.artefacts:
            answer = [item.replace(artefact, "") for item in answer]
        return answer == self.answer(text)
