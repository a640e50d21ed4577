"""The traced replay: one layer call at a time, from outside.

A traced run re-plays a seeded sample of the workload's ops in this
process, calling each layer's public function in request order and
recording one span per call (``drive.Spans``).  The same pass yields
the exact counts (``Profile``) and the per-layer timings; a handful of
fixed suites then time the layers no sampled op reaches (parse,
checkpoint/open/replay, the five transform strategies, Compose), so
every per-layer metric is measured on every workload's document.

Each function returns ``{metric name: value}`` (``parse_suite`` also
hands back the arena it built); units live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time
from statistics import median

from repro import Element, Engine, parse, parse_to_arena, serialize, transform_naive
from repro.automata.arena_run import serialize_arena_items
from repro.compiled import CompiledCache
from repro.engine import TREE_STRATEGIES
from repro.obs.profile import Profile, profiled
from repro.service.protocol import decode_line, encode_frame, result_frame
from repro.store import ViewStore
from repro.store.state import open_store, save_store
from repro.store.wal import WalWriter, wal_path
from repro.transform import parse_transform_query
from repro.xquery.arena_eval import ArenaEvaluator

from workloads import NAME, CommitScript, fig12_round, fig12_transforms, fig15_pairs

#: Commits in the replayed write script: three full rotations.
REPLAY_COMMITS = 12


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def parse_suite(xml: str):
    """``xmltree.parse.*``: both parsers over the workload document.
    Returns ``(metrics, arena)`` — the replay scans the arena."""
    arena, arena_s = _timed(parse_to_arena, xml)
    _, node_s = _timed(parse, xml)
    megabytes = len(xml.encode("utf-8")) / 1e6
    return {
        "xmltree.parse.arena_mb_s": megabytes / arena_s,
        "xmltree.parse.node_mb_s": megabytes / node_s,
        "xmltree.arena.bytes_per_node": arena.nbytes()["total"] / len(arena),
    }, arena


def replay_reads(spans, arena, texts) -> dict:
    """decode → compile → scan → serialize → encode for each sampled
    read, as a server that has never seen the text would run it; then
    the same scan again with warm DFA tables (``automata.scan.ms``) and
    once more under a ``Profile`` for the exact counts."""
    decode, encode, parse_q, nfa, scan, ser = [], [], [], [], [], []
    response_bytes = ser_bytes = visited = pruned = transitions = matches = 0
    for index, text in enumerate(texts):
        op = f"read-{index}"
        cache = CompiledCache()
        line = encode_frame({"id": index, "op": "query", "target": NAME, "text": text})
        mark = len(spans.rows)
        with spans.span("request", op) as root:
            with spans.span("service.protocol.decode", op, root):
                frame = decode_line(line)
            with spans.span("engine.compile.parse", op, root):
                query = cache.user_query(frame["text"])
            with spans.span("automata.scan", op, root) as scanning:

                def nfa_for(path, parent=scanning, op=op, cache=cache):
                    with spans.span("engine.compile.nfa", op, parent):
                        return cache.selecting_nfa_for(path)

                refs = ArenaEvaluator(arena, nfa_for).evaluate_refs(query)
            with spans.span("xmltree.serialize", op, root):
                items = serialize_arena_items(arena, refs)
            with spans.span("service.protocol.encode", op, root):
                wire = encode_frame(result_frame(index, items))
        by_name = {}
        for _, name, _, _, start, end in spans.rows[mark:]:
            by_name[name] = by_name.get(name, 0.0) + (end - start)
        decode.append(by_name["service.protocol.decode"])
        encode.append(by_name["service.protocol.encode"])
        parse_q.append(by_name["engine.compile.parse"])
        nfa.append(by_name.get("engine.compile.nfa", 0.0))
        ser.append(by_name["xmltree.serialize"])
        response_bytes += len(wire)
        ser_bytes += sum(len(item) for item in items)
        matches += len(refs)
        _, warm = _timed(ArenaEvaluator(arena, cache.selecting_nfa_for).evaluate_refs, query)
        scan.append(warm)
        profile = Profile()
        with profiled(profile):
            ArenaEvaluator(arena, cache.selecting_nfa_for).evaluate_refs(query)
        visited += profile.nodes_visited
        pruned += profile.subtrees_pruned
        transitions += profile.dfa_transitions
    count = len(texts)
    return {
        "service.protocol.decode_us": median(decode) * 1e6,
        "service.protocol.encode_us": median(encode) * 1e6,
        "service.protocol.response_bytes": response_bytes / count,
        "engine.compile.parse_us": median(parse_q) * 1e6,
        "engine.compile.nfa_us": median(nfa) * 1e6,
        "automata.scan.ms": median(scan) * 1e3,
        "automata.scan.nodes_visited": visited / count,
        "automata.scan.visited_per_match": visited / max(1, matches),
        "automata.scan.pruned_subtrees": pruned / count,
        "automata.scan.dfa_transitions": transitions / count,
        "xmltree.serialize.ms": median(ser) * 1e3,
        "xmltree.serialize.mb_s": ser_bytes / 1e6 / sum(ser),
    }


def replay_writes(spans, xml: str, persons: int, work_dir: str) -> dict:
    """The write path, one layer at a time: checkpoint a fresh store,
    then for each scripted commit decode → parse → ``commit_delta`` (no
    WAL attached) → ``WalWriter.append`` → encode."""
    store = ViewStore()
    store.put(NAME, xml)
    _, checkpoint_s = _timed(save_store, store, os.path.join(work_dir, "replay-state"))
    store.pin(NAME)  # a serving store has its arena frozen before any commit
    synced = WalWriter(os.path.join(work_dir, "replay-wal.jsonl"))
    unsynced = WalWriter(os.path.join(work_dir, "replay-wal-nofsync.jsonl"), fsync=False)
    script = CommitScript(persons)
    splice, append, append_nofsync = [], [], []
    touched = 0
    for index in range(REPLAY_COMMITS):
        op = f"commit-{index}"
        line = encode_frame({"id": index, "op": "commit", "name": NAME, "text": script.text()})
        with spans.span("commit", op) as root:
            with spans.span("service.protocol.decode", op, root):
                frame = decode_line(line)
            with spans.span("engine.compile.parse", op, root):
                parse_transform_query(frame["text"])
            with spans.span("store.commit.splice", op, root):
                delta, seconds = _timed(store.commit_delta, NAME, frame["text"])
            splice.append(seconds)
            record = {
                "kind": "commit", "doc": NAME, "version": delta.new_version,
                "texts": [frame["text"]],
            }
            with spans.span("store.wal.append", op, root):
                _, seconds = _timed(synced.append, record)
            append.append(seconds)
            with spans.span("service.protocol.encode", op, root):
                encode_frame(result_frame(index, {"name": NAME, "version": delta.new_version}))
        _, seconds = _timed(unsynced.append, record)
        append_nofsync.append(seconds)
        touched += delta.touched_nodes
        script.acked += 1
    synced.close()
    unsynced.close()
    return {
        "store.state.checkpoint_s": checkpoint_s,
        "store.commit.splice_ms": median(splice) * 1e3,
        "store.commit.touched_nodes": touched / REPLAY_COMMITS,
        "store.wal.append_ms": median(append) * 1e3,
        "store.wal.append_nofsync_ms": median(append_nofsync) * 1e3,
        "store.wal.bytes_per_commit": os.path.getsize(synced.path) / REPLAY_COMMITS,
    }


def replay_recovery(spans, crashed_dir: str) -> dict:
    """``open_store`` on a copy of the directory the killed server
    left, then again with its log emptied: the checkpoint is the same
    file both times, so the difference is the WAL replay."""
    with spans.span("store.state.open", "recovery"):
        store, full_s = _timed(open_store, crashed_dir)
    store.wal.close()
    os.truncate(wal_path(crashed_dir), 0)
    reopened, open_s = _timed(open_store, crashed_dir)
    reopened.wal.close()
    return {
        "store.state.open_s": open_s,
        "store.state.replay_ms_per_commit":
            (full_s - open_s) * 1e3 / max(1, store.wal_replayed),
    }


def transform_suite(doc, seed: int, rounds: int) -> dict:
    """The paper's layers over the Fig-12 document: each of the five
    strategies forced over the 20 transforms, the planner's own choice
    and what it costs against the per-query best, Compose against
    materialise-then-query, and full auto rounds with serialization."""
    engine = Engine()
    prepared = [engine.prepare_transform(text) for text in fig12_transforms()]
    for query in prepared:  # warm the DFA tables and the plan memo
        query.run(doc)
    per_method = {
        method: [_timed(query.run, doc, method)[1] for query in prepared]
        for method in TREE_STRATEGIES
    }
    best = sum(min(times[i] for times in per_method.values()) for i in range(len(prepared)))
    plans = [_timed(query.plan_for, doc) for query in prepared]
    auto = sum(_timed(query.run, doc)[1] for query in prepared)
    composed = [engine.prepare_composed(user, text) for user, text in fig15_pairs()]
    out = {f"transform.{m}.round_s": sum(times) for m, times in per_method.items()}
    out["engine.planner.plan_us"] = median([seconds for _, seconds in plans]) * 1e6
    out["engine.planner.regret"] = auto / best
    for method in TREE_STRATEGIES:
        out[f"engine.planner.chosen.{method}"] = sum(
            1 for plan, _ in plans if plan.strategy == method
        )
    out["compose.round_ms"] = sum(_timed(pair.run, doc)[1] for pair in composed) * 1e3
    out["compose.naive_round_ms"] = sum(_timed(pair.run_naive, doc)[1] for pair in composed) * 1e3
    out["loadgen.round_p50_s"] = median(
        [fig12_one_round(engine, doc, fig12_round(seed))[0] for _ in range(rounds)]
    )
    return out


def fig12_one_round(engine, doc, ops, spans=None, round_index=0):
    """One pass over the 24 ops: prepare (a memo hit after the first
    round) → run with the planner on auto → serialize.  Returns
    ``(round seconds, [("read", op seconds), …])`` — a transform query
    is a read: it answers, and leaves the document be."""
    done = []
    round_started = time.perf_counter()
    for index, (kind, what) in enumerate(ops):
        started = time.perf_counter()
        if spans is None:
            fig12_op(engine, doc, kind, what)
        else:
            with spans.span(f"loadgen.{kind}", f"round{round_index}-{index}"):
                fig12_op(engine, doc, kind, what)
        done.append(("read", time.perf_counter() - started))
    return time.perf_counter() - round_started, done


def fig12_op(engine, doc, kind: str, what):
    """Evaluate one Fig-12/Fig-15 op and return its serialized answer."""
    if kind == "transform":
        return serialize(engine.prepare_transform(what).run(doc))
    return [_text(item) for item in engine.prepare_composed(*what).run(doc)]


def fig12_oracle(engine, doc, kind: str, what):
    """The same op by the paper's definition: copy, update, then query."""
    if kind == "transform":
        return serialize(transform_naive(doc, engine.prepare_transform(what).query))
    return [_text(item) for item in engine.prepare_composed(*what).run_naive(doc)]


def _text(item) -> str:
    return serialize(item) if isinstance(item, Element) else str(item)
