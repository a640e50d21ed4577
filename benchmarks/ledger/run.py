#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py --workload serve_scan --seed 1 \\
        --seconds 10 --trace 0

builds the workload's inputs from ``--seed``, sets the system up,
measures for ``--seconds``, checks the answers, and prints every metric
with its unit; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, measured with no
tracing; ``--trace 1`` reports its per-layer metrics from a traced
replay and writes the spans to ``.bench_work/``.  Without
``--workload`` every workload runs in turn.  The exit code is 1 when a
correctness, durability or cache-regime check fails.

See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Never fall back to a ``repro`` installed elsewhere: the numbers
    # must be this checkout's.
    sys.exit(f"ledger: no program to measure: {SRC!r} holds no repro package")
sys.path[:0] = [path for path in (HERE, SRC) if path not in sys.path]

from repro import Engine, parse
from repro.store import ViewStore
from repro.store.state import save_store

import drive
import layers
import workloads
from drive import percentile
from workloads import NAME

#: Sizes of one run.  ``ops`` caps a closed-loop phase per connection
#: (None: the phase is bounded by ``--seconds`` alone).
Scale = collections.namedtuple(
    "Scale", "serve_factor paper_factor warmup setups sample probes copies rounds ops"
)
FULL = Scale(serve_factor=0.05, paper_factor=0.01, warmup=100, setups=3,
             sample=40, probes=200, copies=3, rounds=2, ops=None)
SMOKE = Scale(serve_factor=0.002, paper_factor=0.002, warmup=5, setups=1,
              sample=4, probes=10, copies=1, rounds=1, ops=25)

#: Open-loop arrival rates (requests/s), below each workload's
#: closed-loop capacity so the queue does not grow.
OPEN_RATE = {"serve_scan": 50.0, "serve_hot": 100.0, "serve_write": 40.0, "paper_fig12": 50.0}

#: What the memo must be doing for a workload to mean what its name
#: says: (lowest, highest) allowed ``service.memo.hit_ratio``.
MEMO_REGIME = {"serve_scan": (0.0, 0.01), "serve_hot": (0.95, 1.0)}


class Outcome:
    """What one run reports: metrics, op counts and failed checks."""

    def __init__(self):
        self.metrics = {}
        self.info = {}       # printed, not part of the JSON contract
        self.attempted = 0
        self.failed = 0
        self.problems = []   # failed gates, one line each

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def count_phase(self, phase: drive.Phase, reference: drive.Reference) -> None:
        """Every op of a load phase counts as attempted; errors and
        sampled answers that disagree with the reference count as failed."""
        self.attempted += phase.ops
        self.failed += len(phase.errors)
        for kind, text, error in phase.errors[:3]:
            self.problems.append(f"{kind} failed: {error} <- {text[:80]}")
        for text, answer in phase.samples:
            if not reference.agrees(text, answer):
                self.failed += 1
                self.problems.append(f"wrong answer for {text[:100]}")


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


class Serving:
    """One complete set-up of a served workload: generate the document,
    checkpoint it the documented way (``ViewStore.put`` +
    ``save_store``), boot ``repro serve --state`` on it and warm it up."""

    def __init__(self, workload: str, seed: int, scale: Scale, work_dir: str):
        factor = scale.paper_factor if workload == "paper_fig12" else scale.serve_factor
        self.workload = workload
        self.xml = workloads.build_document(factor)
        self.persons = self.xml.count("<person ")
        self.state_dir = os.path.join(work_dir, "state")
        store = ViewStore()
        store.put(NAME, self.xml)
        save_store(store, self.state_dir)
        self.script = workloads.CommitScript(self.persons)
        self.streams = workloads.serving_streams(workload, seed, self.persons, self.script)
        self.server = drive.Server(self.state_dir, SRC)
        try:
            warm = drive.closed_loop(self.server, self.streams, self.script, ops=scale.warmup)
            if warm.errors:
                raise RuntimeError(f"warm-up op failed: {warm.errors[0]}")
            with self.server.client() as client:
                self.nodes = client.stats()["store"]["documents"][NAME]["nodes"]
        except BaseException:
            self.server.kill()
            raise

    def reference(self) -> drive.Reference:
        return drive.Reference(self.xml, workloads.CommitScript.ARTEFACTS)


def delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def wal_gate(env: Serving, out: Outcome, metrics: dict) -> None:
    """Before the kill: the WAL must hold every acknowledged commit, or
    the server is not durable and its numbers are not a durable server's."""
    appends = metrics.get("store.wal.appends", 0)
    out.check(appends == env.script.acked,
              f"{env.script.acked} commits acknowledged but store.wal.appends = {appends}")


def live_gates(env: Serving, out: Outcome, before: dict, after: dict, stats: dict,
               regime: bool) -> float:
    """The checks a live server must pass after its read phase: the
    memo regime (not in a smoke run: too few ops for a ratio), a
    stationary document, and the WAL gate.  Returns the memo hit ratio."""
    hit_ratio = ratio(
        delta(before, after, "service.dispatch.memo_hits"),
        delta(before, after, "service.requests.total"),
    )
    low, high = MEMO_REGIME.get(env.workload, (0.0, 1.0)) if regime else (0.0, 1.0)
    out.check(low <= hit_ratio <= high,
              f"memo hit ratio {hit_ratio:.3f} outside [{low}, {high}] for {env.workload}")
    nodes = stats["store"]["documents"][NAME]["nodes"]
    out.check(abs(nodes - env.nodes) <= 0.01 * env.nodes,
              f"document drifted from {env.nodes} to {nodes} nodes")
    wal_gate(env, out, after)
    return hit_ratio


def recover(env: Serving, out: Outcome, reference, copy_dir: str) -> float:
    """Boot a server on a copy of the crashed state directory; returns
    spawn → first correct answer in seconds, and checks that exactly
    the acknowledged commits survived."""
    started = time.perf_counter()
    server = drive.Server(shutil.copytree(env.state_dir, copy_dir), SRC)
    try:
        with server.client() as client:
            answer = client.query(NAME, workloads.POINT_READ)
            seconds = time.perf_counter() - started
            out.check(reference.agrees(workloads.POINT_READ, answer),
                      "recovered server gave a wrong first answer")
            expected = env.script.expected()
            version = client.stats()["store"]["documents"][NAME]["version"]
            out.check(version == expected.pop("version"),
                      f"recovered at version {version} after {env.script.acked} acknowledged commits")
            for path, count in expected.items():
                found = len(client.query(NAME, workloads.user_query(path)))
                out.check(found == count, f"recovered {found} x {path}, expected {count}")
    finally:
        server.kill()
    return seconds


def serving_untraced(workload, seed, seconds, scale, work_dir, out: Outcome) -> None:
    setups = []
    for index in range(scale.setups):
        started = time.perf_counter()
        env = Serving(workload, seed, scale, os.path.join(work_dir, f"setup{index}"))
        setups.append(time.perf_counter() - started)
        if index + 1 < scale.setups:
            env.server.kill()
    try:
        with env.server.client() as client:
            before = client.metrics()
            phase = drive.closed_loop(
                env.server, env.streams, env.script, seconds=seconds, ops=scale.ops
            )
            after = client.metrics()
            stats = client.stats()
        rss = env.server.rss_peak_mb()
        out.info["memo_hit_ratio"] = live_gates(env, out, before, after, stats, scale is FULL)
    finally:
        env.server.kill()
    reference = env.reference()
    out.count_phase(phase, reference)
    if workload == "serve_write":
        out.info["recover_s"] = recover(env, out, reference, os.path.join(work_dir, "crashed"))
        out.info["commit_p50_ms"] = median(phase.latencies("commit")) * 1e3
        out.info["commits"] = len(phase.latencies("commit"))
    report_end_to_end(out, setups, rss, phase.done, phase.elapsed)


def report_end_to_end(out: Outcome, setups, rss, done, seconds) -> None:
    reads = sorted(latency for kind, latency in done if kind == "read")
    out.info["reads"] = len(reads)
    # The tail is printed but not gated: it does not repeat within a
    # quarter on this host (README, "bounds").
    out.info["read_p95_ms"] = percentile(reads, 95.0) * 1e3
    out.info["read_p99_ms"] = percentile(reads, 99.0) * 1e3
    out.metrics.update({
        "setup_s": median(setups),
        "throughput_ops_s": len(done) / seconds,
        "read_p50_ms": percentile(reads, 50.0) * 1e3,
        "rss_peak_mb": rss,
    })


def serving_traced(workload, seed, seconds, scale, work_dir, out: Outcome) -> None:
    """Per-layer metrics: a live part (wire counters, probes, open
    loop, commits, crash and recovery) against one server, then the
    in-process replay.  The time budget is split in quarters."""
    spans = drive.Spans()
    metrics = out.metrics
    env = Serving(workload, seed, scale, os.path.join(work_dir, "setup"))
    try:
        server, script = env.server, env.script
        with server.client() as client:
            before = client.metrics()
            # plain, traced, plain, traced: an eighth of the budget each,
            # so drift in the server's caches falls on both sides alike.
            plain, traced = drive.Phase(), drive.Phase()
            for _ in range(2):
                for phase, sink in ((plain, None), (traced, spans)):
                    part = drive.closed_loop(server, env.streams, script,
                                             seconds=seconds / 8, ops=scale.ops, spans=sink)
                    phase.merge(part)
                    phase.elapsed += part.elapsed
            after_reads = client.metrics()
            stats = client.stats()
            live_gates(env, out, before, after_reads, stats, scale is FULL)
            opened = drive.open_loop(server, env.streams, script,
                                     rate=OPEN_RATE[workload], seconds=seconds / 4)
            pings = drive.probe_round_trips(server, scale.probes, lambda c: c.ping())
            hits = drive.probe_round_trips(
                server, scale.probes, lambda c: c.query(NAME, workloads.POINT_READ)
            )
            tail = drive.Phase()
            if not plain.latencies("commit") + traced.latencies("commit"):
                # A read-only workload: time the scripted commits on the
                # now idle server, so the write path is on every ledger.
                for _ in range(layers.REPLAY_COMMITS):
                    drive.issue(client, "commit", script.text(), tail, script)
            after = client.metrics()
            wal_gate(env, out, after)
        disk = drive.state_dir_bytes(env.state_dir)
    finally:
        env.server.kill()
    reference = env.reference()
    for phase in (plain, traced, opened, tail):
        out.count_phase(phase, reference)
    commits = sorted(
        plain.latencies("commit") + traced.latencies("commit") + tail.latencies("commit")
    )
    recoveries = [
        recover(env, out, reference, os.path.join(work_dir, f"crashed{index}"))
        for index in range(scale.copies)
    ]

    def moved(name: str, since: dict = before, until: dict = after) -> float:
        return delta(since, until, name)

    committed = moved("store.commit.delta.spliced") + moved("store.commit.delta.rebuilds")
    kept = moved("store.commit.delta.results_kept")
    cache_hits = moved("engine.compiled.user_queries.hits", until=after_reads)
    open_latencies = sorted(latency for _, latency in opened.done)
    closed_reads = sorted(plain.latencies("read") + traced.latencies("read"))
    metrics.update({
        "service.server.boot_s": server.boot_s,
        "service.server.ping_p50_ms": median(pings) * 1e3,
        "service.dispatch.memo_hit_p50_ms": median(hits) * 1e3,
        "service.dispatch.batches": moved("service.dispatch.batches", until=after_reads),
        "service.dispatch.coalesced": moved("service.dispatch.coalesced", until=after_reads),
        "service.dispatch.evaluations": moved("service.dispatch.evaluations", until=after_reads),
        "service.dispatch.shed": moved("service.requests.shed"),
        "service.memo.hit_ratio": ratio(
            moved("service.dispatch.memo_hits", until=after_reads),
            moved("service.requests.total", until=after_reads),
        ),
        "service.memo.retained_per_commit": ratio(
            moved("service.dispatch.memo_retained"), committed
        ),
        "engine.compile.cache_hit_ratio": ratio(
            cache_hits,
            cache_hits + moved("engine.compiled.user_queries.misses", until=after_reads),
        ),
        "store.commit.spliced_ratio": ratio(moved("store.commit.delta.spliced"), committed),
        "store.commit.results_kept_ratio": ratio(
            kept, kept + moved("store.commit.delta.results_dropped")
        ),
        "store.wal.fsyncs_per_commit": ratio(moved("store.wal.fsyncs"), moved("store.wal.appends")),
        "loadgen.open_p50_ms": percentile(open_latencies, 50.0) * 1e3,
        "loadgen.open_p99_ms": percentile(open_latencies, 99.0) * 1e3,
        "loadgen.late_p99_ms": percentile(sorted(opened.late), 99.0) * 1e3,
        "loadgen.trace_overhead_ratio": ratio(
            plain.ops / plain.elapsed, traced.ops / traced.elapsed
        ),
        "loadgen.read_p99_ms": percentile(closed_reads, 99.0) * 1e3,
        "loadgen.commit_p50_ms": percentile(commits, 50.0) * 1e3,
        "loadgen.commit_p95_ms": percentile(commits, 95.0) * 1e3,
        "loadgen.recover_s": median(recoveries),
        "loadgen.disk_bytes_per_doc_byte": disk / len(env.xml.encode("utf-8")),
    })

    metrics.update(replay(env, seed, scale, spans, work_dir))
    write_trace(workload, seed, spans)


def replay(env: Serving, seed: int, scale: Scale, spans: drive.Spans, work_dir: str) -> dict:
    """The in-process half of a traced run: the reads the warm-up
    sent, in order, then the write path, recovery and the paper's
    layers, one layer call at a time."""
    metrics = {}
    replay_streams = workloads.serving_streams(
        env.workload, seed, env.persons, workloads.CommitScript(env.persons)
    )
    texts = []
    while len(texts) < scale.sample:
        kind, text = next(replay_streams[len(texts) % len(replay_streams)])
        if kind == "read":
            texts.append(text)
    parse_metrics, arena = layers.parse_suite(env.xml)
    metrics.update(parse_metrics)
    metrics.update(layers.replay_reads(spans, arena, texts))
    metrics.update(layers.replay_writes(spans, env.xml, env.persons, work_dir))
    metrics.update(layers.replay_recovery(
        spans, shutil.copytree(env.state_dir, os.path.join(work_dir, "crashed-replay"))
    ))
    own_document = env.workload == "paper_fig12"
    paper_doc = parse(env.xml if own_document else workloads.build_document(scale.paper_factor))
    metrics.update(layers.transform_suite(paper_doc, seed, scale.rounds))
    if own_document:
        # This workload's own ops run in-process, so that is where its
        # tracing overhead is measured.
        engine, ops = Engine(), workloads.fig12_round(seed)
        layers.fig12_one_round(engine, paper_doc, ops)
        bare = sum(layers.fig12_one_round(engine, paper_doc, ops)[0] for _ in range(scale.rounds))
        with_spans = sum(
            layers.fig12_one_round(engine, paper_doc, ops, spans, index)[0]
            for index in range(scale.rounds)
        )
        metrics["loadgen.trace_overhead_ratio"] = with_spans / bare
    metrics["loadgen.replay_attributed_ratio"] = min(
        spans.attributed_ratio("request"), spans.attributed_ratio("commit")
    )
    return metrics


def write_trace(workload: str, seed: int, spans: drive.Spans) -> None:
    path = os.path.join(ROOT, ".bench_work", f"trace-{workload}-seed{seed}.json")
    self_ms = {
        name: {"spans": len(times), "self_ms_total": sum(times) * 1e3,
               "self_ms_p50": median(times) * 1e3}
        for name, times in sorted(spans.self_times().items())
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "self_time": self_ms,
                   "spans": spans.as_json()}, handle)
    print(f"ledger: {len(spans.rows)} spans -> {os.path.relpath(path, ROOT)}")


# ----------------------------------------------------------------------
# The paper's experiment, in-process
# ----------------------------------------------------------------------


class Fig12:
    """One complete set-up: generate and parse the document, prepare
    the 24 ops on a fresh engine, run one warm-up round."""

    def __init__(self, seed: int, scale: Scale):
        self.doc = parse(workloads.build_document(scale.paper_factor))
        self.engine = Engine()
        self.ops = workloads.fig12_round(seed)
        layers.fig12_one_round(self.engine, self.doc, self.ops)


def fig12_untraced(seed, seconds, scale, out: Outcome) -> None:
    setups = []
    for _ in range(scale.setups):
        started = time.perf_counter()
        env = Fig12(seed, scale)
        setups.append(time.perf_counter() - started)
    rounds, done = [], []
    started = time.perf_counter()
    while not rounds or (scale.ops is None and time.perf_counter() - started < seconds):
        round_s, latencies = layers.fig12_one_round(env.engine, env.doc, env.ops)
        rounds.append(round_s)
        done.extend(latencies)
    elapsed = time.perf_counter() - started
    rss = drive.rss_peak_mb()
    out.attempted += len(done)
    # Each op once more, outside timing, against the paper's definition.
    for kind, what in env.ops:
        out.check(
            layers.fig12_op(env.engine, env.doc, kind, what)
            == layers.fig12_oracle(env.engine, env.doc, kind, what),
            f"{kind} disagrees with copy-then-update: {str(what)[:100]}",
        )
    out.info["rounds"] = len(rounds)
    out.info["round_p50_s"] = median(rounds)
    report_end_to_end(out, setups, rss, done, elapsed)


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale: Scale, spec: dict) -> int:
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    out = Outcome()
    try:
        if trace:
            serving_traced(workload, seed, seconds, scale, work_dir, out)
        elif workload == "paper_fig12":
            fig12_untraced(seed, seconds, scale, out)
        else:
            serving_untraced(workload, seed, seconds, scale, work_dir, out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(out.metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(out.metrics))}, "
            f"unlisted {sorted(set(out.metrics) - set(units))}"
        )
    print(f"ledger: {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name in units:
        print(f"  {name:<40} {out.metrics[name]:>16.4f} {units[name]}")
    for name, value in out.info.items():
        print(f"  ({name} {value:.4f})")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if out.failed == 0 else 1


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of query parameters and op order")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced replay, per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny document, <= 50 ops, one round; exercises every code path")
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    chosen = [args.workload] if args.workload else list(workloads.WORKLOADS)
    status = 0
    for workload in chosen:
        status |= run_one(workload, args.seed, seconds, bool(args.trace), scale, spec)
    return status


if __name__ == "__main__":
    sys.exit(main())
