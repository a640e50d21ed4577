"""Command-line interface: transform documents, compose queries,
generate workload data, inspect automata and plans, and run the view
store.

::

    python -m repro transform -q 'transform copy $a := doc("f") modify \\
        do delete $a//price return $a' -i in.xml -o out.xml
    python -m repro transform -q @query.xqu -i in.xml --method sax
    python -m repro query -q 'for $x in people/person return $x' -i in.xml --stats
    python -m repro compose -t '<transform query>' -u 'for $x in … return $x' -i in.xml
    python -m repro generate --factor 0.1 -o xmark.xml
    python -m repro explain -p '//part[pname = "kb"]//part'
    python -m repro explain -q '<transform query>' -i in.xml
    python -m repro store load -n db -i catalog.xml
    python -m repro store defview -n public -b db -t '<transform query>'
    python -m repro store query -n public -u 'for $x in … return $x'
    python -m repro store commit -n db -t '<transform query>'
    python -m repro store stat
    python -m repro store fsck
    python -m repro serve --state .repro-store --port 7007

Every query-text option (``transform -q``, ``compose -t/-u``,
``explain -q``, ``store … -t/-u``) also accepts ``@path`` to read the
text from a file and ``-`` to read it from stdin, so long queries need
not live on the command line.

``transform`` defaults to ``--method auto``: the file's size sets its
route — a file of 8 MiB or more streams (twoPassSAX), a smaller one is
read into columns and transformed by the arena kernel (``repro explain
-q … -i FILE`` shows the route).  ``--method`` forces one of the paper's
algorithms on a parsed tree; ``sax`` streams.

Errors from user input (query syntax, unsupported paths, missing
files, unknown store names) exit with status 2 and a one-line
``repro: …`` message on stderr — no tracebacks at the CLI boundary.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from repro import __version__
from repro.automata import build_filtering_nfa, build_selecting_nfa
from repro.engine import TREE_STRATEGIES, default_engine
from repro.store.state import StateLock, fsck, locked_state, open_store, save_store
from repro.xmark.generator import write_xmark_file
from repro.xmltree import Element, serialize
from repro.xpath import parse_xpath

#: Default state directory for ``repro store`` commands.
DEFAULT_STATE_DIR = ".repro-store"

#: Fixed tree methods selectable with --method (beyond auto/sax),
#: derived from the one strategy table.
TREE_METHODS = tuple(s for s in TREE_STRATEGIES if s != "sax")


#: Guards against two query options draining stdin in one invocation
#: (the second read would silently see an empty stream); reset by
#: :func:`main`.
_stdin_consumed = False


def read_query_arg(value: str) -> str:
    """Resolve a query-text argument: literal text, ``@path`` (read the
    file), or ``-`` (read stdin; at most one option per invocation)."""
    global _stdin_consumed
    if value == "-":
        if _stdin_consumed:
            raise ValueError(
                "stdin (-) can supply only one query option per invocation; "
                "use @file for the others"
            )
        _stdin_consumed = True
        text = sys.stdin.read()
    elif value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        return value
    if not text.strip():
        raise ValueError("empty query text (from @file or stdin)")
    return text.strip()


def _cmd_transform(args: argparse.Namespace) -> int:
    query_text = read_query_arg(args.query)
    prepared = default_engine().prepare_transform(query_text)
    if args.explain:
        if args.method != "auto":
            print(f"method forced by --method: {args.method}")
            print("(the route auto would take for this input:)")
        print(prepared.explain(args.input))
        return 0
    # Library warnings (e.g. --pretty ignored on a streamed route) are
    # restyled as one-line repro: messages at the CLI boundary.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prepared.run_to_file(
            args.input, args.output or sys.stdout, method=args.method, pretty=args.pretty
        )
    for warning in caught:
        print(f"repro: {warning.message}", file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Run a FLWR user query against a document file.

    The file is loaded straight into a frozen columnar arena (no Node
    tree on the load path) and evaluated over index ranges, matches
    serialized directly from the columns.  ``--stats`` reports the
    arena's memory, the engine's metrics-registry snapshot and peak
    memory (tracemalloc); ``--json`` emits one ``{"results": …,
    "stats": …}`` object instead of plain lines.
    """
    import json
    import tracemalloc

    from repro.automata.arena_run import serialize_arena_items
    from repro.obs import MetricsRegistry
    from repro.xmltree.parser import parse_file_to_arena

    query_text = read_query_arg(args.user_query)
    engine = default_engine()
    want_stats = args.stats or args.json
    registry = MetricsRegistry(enabled=want_stats)
    if want_stats:
        engine.bind_metrics(registry)
        tracemalloc.start()
    prepared = engine.prepare_query(query_text)
    arena = parse_file_to_arena(args.input)
    if args.analyze:
        # Run under an execution profile and print the full-scan
        # estimate next to what the scan measured (results still go to
        # stdout, the report to stderr, so pipelines keep working).
        report, lines = prepared.explain_analyze(arena)
        for line in lines:
            print(line)
        print(report, file=sys.stderr)
        return 0
    lines = serialize_arena_items(arena, prepared.run_refs(arena))
    stats: dict = {}
    if want_stats:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        stats["query.backend"] = "arena"
        stats["query.results"] = len(lines)
        stats["process.memory.peak_bytes"] = peak
        stats["process.memory.resident_bytes"] = current
        for key, value in arena.stats().items():
            stats[f"store.arena.{key}"] = value
        stats.update(registry.snapshot())
    if args.json:
        print(json.dumps({"results": lines, "stats": stats}, sort_keys=True))
        return 0
    for line in lines:
        print(line)
    print(f"({len(lines)} result(s))", file=sys.stderr)
    if args.stats:
        print(f"backend: {stats['query.backend']}", file=sys.stderr)
        print(
            f"arena: {stats['store.arena.nodes']} nodes, "
            f"{stats['store.arena.column_bytes']} column bytes, "
            f"{stats['store.arena.total_bytes']} bytes total",
            file=sys.stderr,
        )
        print(
            f"peak memory: {peak} bytes (resident after run: {current})",
            file=sys.stderr,
        )
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    engine = default_engine()
    prepared = engine.prepare_composed(
        read_query_arg(args.user_query), read_query_arg(args.transform)
    )
    composed = prepared.plan
    if args.show_plan or not args.input:
        print(f"composed query: {composed}")
    if not args.input:
        return 0
    for item in prepared.run(args.input):
        if isinstance(item, Element):
            print(serialize(item))
        else:
            print(item)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    size = write_xmark_file(args.output, args.factor, seed=args.seed)
    print(f"wrote {args.output}: {size / 1048576:.2f} MB (factor {args.factor}, seed {args.seed})")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    if not args.path and not args.query:
        raise ValueError("explain needs -p (an X expression) or -q (a query)")
    if args.query:
        text = read_query_arg(args.query)
        print(default_engine().explain(text, args.input))
        if not args.path:
            return 0
        print()
    path = parse_xpath(args.path)
    print("selecting NFA (Section 3.4):")
    print(build_selecting_nfa(path).describe())
    filtering = build_filtering_nfa(path)
    print("\nfiltering NFA (Section 5):")
    print(filtering.describe())
    if len(filtering.space):
        print(f"\nnormalized qualifier expressions (LQ, {len(filtering.space)} entries):")
        for expr in filtering.space.expressions:
            print(f"  q{expr.nq_id}: {type(expr).__name__}")
    return 0


# ----------------------------------------------------------------------
# The view store (repro.store) commands
# ----------------------------------------------------------------------
#
# Every command is one exclusive read-modify-write cycle on the state
# directory: locked_state() flocks state.lock around open + mutate +
# save, so two concurrent invocations (or an invocation racing a
# running `repro serve`) cannot interleave their commits.  A held lock
# or an unreadable manifest surfaces as a typed StoreError — one line
# on stderr and exit 2 at the boundary below, never a traceback.


def _cmd_store_load(args: argparse.Namespace) -> int:
    with locked_state(args.state) as store:
        snapshot = store.load(args.name, args.input, replace=args.replace).pin()
        print(
            f"loaded {snapshot.name!r} v{snapshot.version}: "
            f"{len(snapshot.arena)} nodes from {args.input}"
        )
    return 0


def _cmd_store_defview(args: argparse.Namespace) -> int:
    with locked_state(args.state) as store:
        view = store.define_view(args.name, args.base, read_query_arg(args.transform))
        doc_name, layers = store.views.stack(view.name)
        print(
            f"defined view {view.name!r} over {view.base!r} "
            f"(stack depth {len(layers)} on document {doc_name!r})"
        )
    return 0


def _cmd_store_query(args: argparse.Namespace) -> int:
    with locked_state(args.state, save=False) as store:
        # The serialized read path: every target resolves to one frozen
        # arena and is serialized straight from its columns (no thaw).
        results = store.query_serialized(
            args.name, read_query_arg(args.user_query), include_staged=args.staged
        )
    for item in results:
        print(item)
    print(f"({len(results)} result(s) from {args.name!r})", file=sys.stderr)
    return 0


def _cmd_store_stage(args: argparse.Namespace) -> int:
    with locked_state(args.state) as store:
        depth = store.stage(args.name, read_query_arg(args.transform))
    print(f"staged update #{depth} on {args.name!r} (hypothetical until commit)")
    return 0


def _cmd_store_commit(args: argparse.Namespace) -> int:
    transform = args.transform
    if transform is not None:
        transform = read_query_arg(transform)
    with locked_state(args.state) as store:
        delta = store.commit_delta(args.name, transform)
    if delta.entries == 0:
        print(f"committed {args.name!r}: now v{delta.new_version} (no-op: nothing staged)")
    else:
        print(
            f"committed {args.name!r}: now v{delta.new_version} (spliced, "
            f"{delta.patches} patch(es), {delta.touched_nodes} node(s) touched)"
        )
    return 0


def _cmd_store_rollback(args: argparse.Namespace) -> int:
    with locked_state(args.state) as store:
        dropped = store.rollback(args.name, args.count)
    print(f"rolled back {dropped} staged update(s) on {args.name!r}")
    return 0


def _cmd_store_stat(args: argparse.Namespace) -> int:
    """The store's state from ``store.stats()``, its counts from a
    metrics registry bound to it."""
    from repro.obs import MetricsRegistry

    with locked_state(args.state, save=False) as store:
        stats = store.stats()
        registry = MetricsRegistry()
        store.bind_metrics(registry)
        m = registry.snapshot()
        # One row per compiled cache, then the result cache.
        caches = [f"engine.compiled.{name}" for name in store.compiled.stats()]
        caches.append("store.cache.results")
        arenas = {
            name: store.documents.get(name).pin().arena.stats()
            for name in stats["documents"]
        }
    if getattr(args, "json", False):
        import json

        for name, arena_stats in arenas.items():
            stats["documents"][name]["arena"] = arena_stats
        print(json.dumps({"store": stats, "metrics": m}, sort_keys=True))
        return 0
    if not stats["documents"]:
        print(f"store at {args.state!r} is empty")
        return 0
    print(f"store at {args.state!r}:")
    for name, info in stats["documents"].items():
        print(
            f"  document {name!r}: v{info['version']}, {info['nodes']} nodes, "
            f"depth {info['depth']}, {info['staged']} staged, "
            f"{info['committed']} committed"
        )
        # The real arena memory the read path uses.
        arena_stats = arenas[name]
        print(
            f"    arena snapshot: {arena_stats['nodes']} nodes "
            f"({arena_stats['elements']} elements), "
            f"{arena_stats['column_bytes']} column bytes, "
            f"{arena_stats['total_bytes']} bytes total"
        )
    for name, info in stats["views"].items():
        print(
            f"  view {name!r}: over {info['base']!r} "
            f"(document {info['document']!r}, stack depth {info['depth']})"
        )
    print("  caches [hits/misses/evictions]:")
    for prefix in caches:
        name = prefix.rpartition(".")[2]
        # Only the result cache's entries can hold wire forms.
        wire = (
            f"; {m[prefix + '.wire_entries']} wire form(s), "
            f"{m[prefix + '.wire_bytes']} bytes"
            if prefix + ".wire_bytes" in m else ""
        )
        print(
            f"    {name:<14} {m[prefix + '.hits']}/{m[prefix + '.misses']}"
            f"/{m[prefix + '.evictions']} "
            f"(size {m[prefix + '.size']}/{m[prefix + '.maxsize']}{wire})"
        )
    delta = {
        key.rpartition(".")[2]: value
        for key, value in m.items()
        if key.startswith("store.commit.delta.")
    }
    kept = delta["results_kept"] + delta["mats_kept"]
    dropped = delta["results_dropped"] + delta["mats_dropped"]
    ratio_text = f"{kept / (kept + dropped):.0%}" if kept + dropped else "n/a"
    print(
        f"  commits: {delta['spliced']} spliced, {delta['noops']} no-op; "
        f"cache retention {ratio_text} "
        f"({delta['results_kept']}+{delta['mats_kept']} kept, "
        f"{delta['results_dropped']}+{delta['mats_dropped']} dropped)"
    )
    last = stats["last_commit"]
    if last is not None:
        last_ratio = last["retention_ratio"]
        last_text = "n/a" if last_ratio is None else f"{last_ratio:.0%}"
        how = "splice" if last["entries"] else "no-op"
        print(
            f"    last commit: {last['doc']!r} v{last['version']} "
            f"({how}, "
            f"{last['entries']} entries, {last['touched_nodes']} touched); "
            f"retention {last_text}"
        )
        reasons = ", ".join(
            f"{reason} {count}" for reason, count in sorted(last["drop_reasons"].items())
        )
        print(
            f"      results: {last['results_kept']} kept, "
            f"{last['results_patched']} patched, "
            f"{last['results_dropped']} dropped" + (f" ({reasons})" if reasons else "")
        )
    replayed = m["store.wal.replayed"]
    tail_note = ", torn tail truncated" if m["store.wal.truncated_tail"] else ""
    print(
        f"  wal: {replayed} commit(s) replayed at open{tail_note}; "
        f"{stats['wal']['seq']} record(s) pending checkpoint"
    )
    print(
        f"  opened in {m['store.state.open_ms']:.1f} ms: columns "
        f"{m['store.state.columns_ms']:.1f} ms "
        f"({m['store.state.columns_bytes']} bytes), "
        f"replay {m['store.state.replay_ms']:.1f} ms ({replayed} commits)"
    )
    return 0


def _cmd_store_fsck(args: argparse.Namespace) -> int:
    """Check the state directory read-only, under the shared lock: one
    line per object, and the first damage is a StoreError (exit 2)."""
    with StateLock(args.state).acquire(shared=True):
        for line in fsck(args.state):
            print(line)
    return 0


def _cmd_store_slowlog(args: argparse.Namespace) -> int:
    """Read the slow-query log a ``repro serve --state`` run streamed
    to ``<state>/slowlog.jsonl`` (newest last)."""
    import json

    path = os.path.join(args.state, "slowlog.jsonl")
    if not os.path.exists(path):
        print(f"no slow-query log at {path!r} (run `repro serve --state "
              f"{args.state}` with --slow-ms to produce one)", file=sys.stderr)
        return 0
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                print(f"repro: skipping malformed slowlog line", file=sys.stderr)
    if args.limit:
        entries = entries[-args.limit:]
    if args.json:
        for entry in entries:
            print(json.dumps(entry, sort_keys=True))
        return 0
    if not entries:
        print(f"slow-query log at {path!r} is empty")
        return 0
    for entry in entries:
        trace = entry.get("trace") or {}
        spans = trace.get("spans") or []
        print(
            f"{entry.get('dur_ms', '?'):>10} ms  {entry.get('outcome', '?'):<8} "
            f"{entry.get('target', '?')!r}  queue {entry.get('queue_ms', '?')} ms  "
            f"{len(spans)} span(s)  {entry.get('query', '')[:60]!r}"
        )
    print(f"({len(entries)} entr{'y' if len(entries) == 1 else 'ies'})",
          file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# The query service (repro.service): repro serve
# ----------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the concurrent query service on a TCP port.

    With ``--state`` the server loads the durable store at boot, holds
    its state-directory lock for the whole run (so CLI commands cannot
    interleave), and saves the store back on graceful shutdown (SIGINT
    or SIGTERM).  Without it the store is in-memory only — clients
    populate it over the wire with ``load`` frames.
    """
    import json
    import signal
    import threading
    import time

    from repro.service import QueryService, ServiceConfig, ServiceServer

    config = ServiceConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        slow_threshold=args.slow_ms / 1000.0 if args.slow_ms >= 0 else -1.0,
    )
    state_lock = StateLock(args.state).acquire() if args.state else None
    slow_file = None
    try:
        store = open_store(args.state) if args.state else None
        if store is not None and store.wal_replayed:
            print(
                f"repro serve: replayed {store.wal_replayed} commit(s) "
                f"from the write-ahead log",
                file=sys.stderr,
                flush=True,
            )
        # Commits are made durable per-commit by the store's WAL; admin
        # writes (load/defview/drop) change the document set the WAL
        # cannot describe, so the service checkpoints those eagerly.
        checkpoint = (
            (lambda: save_store(store, args.state)) if args.state else None
        )
        # With a state directory, slow queries also stream to
        # <state>/slowlog.jsonl (write-through, line-buffered) so
        # `repro store slowlog` can read them after the server exits.
        slow_sink = None
        if args.state:
            slow_path = os.path.join(args.state, "slowlog.jsonl")
            slow_file = open(slow_path, "a", encoding="utf-8")

            def slow_sink(entry: dict) -> None:
                slow_file.write(json.dumps(entry, default=str) + "\n")
                slow_file.flush()

        service = QueryService(
            store=store, config=config, checkpoint=checkpoint,
            slow_sink=slow_sink,
        )
        server = ServiceServer(service, args.host, args.port)
        host, port = server.address
        print(
            f"repro serve: listening on {host}:{port} "
            f"({config.workers} evaluation slots"
            + (f", state {args.state!r})" if args.state else ", in-memory)"),
            flush=True,
        )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{port}\n")

        exposition = None
        if args.expose:
            from repro.obs import ExpositionServer

            exposition = ExpositionServer(
                snapshot_fn=service.registry.snapshot,
                events_fn=service.tracer.records,
                host=args.host,
                port=args.expose_port,
            )
            exposition.start()
            expose_host, expose_port = exposition.address
            print(
                f"repro serve: exposing metrics at "
                f"http://{expose_host}:{expose_port}/metrics "
                f"(trace events at /events)",
                file=sys.stderr,
                flush=True,
            )
            if args.expose_port_file:
                with open(args.expose_port_file, "w", encoding="utf-8") as handle:
                    handle.write(f"{expose_port}\n")

        def _terminate(signum, frame):  # SIGTERM → same graceful path
            raise KeyboardInterrupt

        stop_reporting = threading.Event()
        reporter = None
        if args.metrics_interval > 0:

            def _report_loop() -> None:
                # One JSON object per line (machine-parseable — the CI
                # loadgen smoke asserts on it): the registry snapshot,
                # every count under its registry name.
                while not stop_reporting.wait(args.metrics_interval):
                    line = {
                        "event": "metrics",
                        "ts": time.time(),
                        "metrics": service.metrics(),
                    }
                    print(
                        json.dumps(line, default=str),
                        file=sys.stderr,
                        flush=True,
                    )

            reporter = threading.Thread(
                target=_report_loop, name="repro-serve-metrics", daemon=True
            )
            reporter.start()

        previous = signal.signal(signal.SIGTERM, _terminate)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("repro serve: shutting down", file=sys.stderr)
        finally:
            signal.signal(signal.SIGTERM, previous)
            stop_reporting.set()
            if reporter is not None:
                reporter.join()
            if exposition is not None:
                exposition.stop()
        server.stop()  # drains admitted requests
        if args.state:
            save_store(service.store, args.state)
            print(f"repro serve: state saved to {args.state!r}", file=sys.stderr)
    finally:
        if slow_file is not None:
            slow_file.close()
        if state_lock is not None:
            state_lock.release()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transform queries for XML (SIGMOD 2007 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query_help_suffix = " (@path reads a file, - reads stdin)"

    p_transform = sub.add_parser("transform", help="evaluate a transform query on a document")
    p_transform.add_argument(
        "-q", "--query", required=True,
        help="the transform query text" + query_help_suffix,
    )
    p_transform.add_argument("-i", "--input", required=True, help="input XML file")
    p_transform.add_argument("-o", "--output", help="output file (stdout if omitted)")
    p_transform.add_argument(
        "--method",
        choices=["auto"] + sorted(TREE_METHODS) + ["sax"],
        default="auto",
        help="evaluation algorithm: auto streams a file of 8 MiB or more "
        "and reads a smaller one into columns for the arena kernel; the "
        "others parse a tree and run that algorithm (naive and copy are "
        "the paper's baselines), except sax, which streams file to file",
    )
    p_transform.add_argument("--pretty", action="store_true", help="indent the output")
    p_transform.add_argument(
        "--explain", action="store_true",
        help="print the route auto takes for the file and why (its size "
        "against the stream threshold), instead of executing",
    )
    p_transform.set_defaults(func=_cmd_transform)

    p_query = sub.add_parser(
        "query", help="run a FLWR user query on a document (columnar backend)"
    )
    p_query.add_argument(
        "-q", "--user-query", required=True,
        help="the FLWR query text" + query_help_suffix,
    )
    p_query.add_argument("-i", "--input", required=True, help="input XML file")
    p_query.add_argument(
        "--stats", action="store_true",
        help="print the backend, arena memory, peak memory and the "
        "engine's metric snapshot to stderr",
    )
    p_query.add_argument(
        "--json", action="store_true",
        help='emit one {"results": …, "stats": …} JSON object on stdout',
    )
    p_query.add_argument(
        "--analyze", action="store_true",
        help="run under an execution profile and print the full-scan "
        "estimate next to the measured scan (nodes visited, prunes, "
        "DFA transitions, serialize bytes) on stderr",
    )
    p_query.set_defaults(func=_cmd_query)

    p_compose = sub.add_parser("compose", help="compose a user query with a transform query")
    p_compose.add_argument(
        "-t", "--transform", required=True,
        help="the transform query text" + query_help_suffix,
    )
    p_compose.add_argument(
        "-u", "--user-query", required=True,
        help="the FLWR user query text" + query_help_suffix,
    )
    p_compose.add_argument("-i", "--input", help="evaluate the composition on this XML file")
    p_compose.add_argument("--show-plan", action="store_true", help="print the composed query")
    p_compose.set_defaults(func=_cmd_compose)

    p_generate = sub.add_parser("generate", help="generate an XMark-shaped document")
    p_generate.add_argument("--factor", type=float, default=0.01, help="XMark scaling factor")
    p_generate.add_argument("--seed", type=int, default=42)
    p_generate.add_argument("-o", "--output", required=True, help="output file")
    p_generate.set_defaults(func=_cmd_generate)

    p_explain = sub.add_parser(
        "explain", help="show the plan for a query or the automata for an X expression"
    )
    p_explain.add_argument("-p", "--path", help="the X expression")
    p_explain.add_argument(
        "-q", "--query",
        help="a transform or user query: show the engine's plan"
        + query_help_suffix,
    )
    p_explain.add_argument(
        "-i", "--input", help="plan against this XML file (with -q)"
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_store = sub.add_parser(
        "store", help="resident documents, stacked views, commit/rollback"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    def _store_parser(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = store_sub.add_parser(name, help=help_text)
        p.add_argument(
            "--state",
            default=DEFAULT_STATE_DIR,
            help=f"state directory (default {DEFAULT_STATE_DIR})",
        )
        p.set_defaults(func=func)
        return p

    p_load = _store_parser("load", "parse a document into the store", _cmd_store_load)
    p_load.add_argument("-n", "--name", required=True, help="document name")
    p_load.add_argument("-i", "--input", required=True, help="input XML file")
    p_load.add_argument(
        "--replace", action="store_true", help="supersede an existing document"
    )

    p_defview = _store_parser(
        "defview", "define a view over a document or another view", _cmd_store_defview
    )
    p_defview.add_argument("-n", "--name", required=True, help="view name")
    p_defview.add_argument(
        "-b", "--base", required=True, help="base document or view name"
    )
    p_defview.add_argument(
        "-t", "--transform", required=True,
        help="the view's transform query text" + query_help_suffix,
    )

    p_query = _store_parser(
        "query", "answer a user query against a document or view", _cmd_store_query
    )
    p_query.add_argument("-n", "--name", required=True, help="target document or view")
    p_query.add_argument("-u", "--user-query", required=True,
        help="the FLWR query text" + query_help_suffix,)
    p_query.add_argument(
        "--staged",
        action="store_true",
        help="evaluate against the staged (hypothetical) state",
    )

    p_stage = _store_parser(
        "stage", "stage a hypothetical transform against a document", _cmd_store_stage
    )
    p_stage.add_argument("-n", "--name", required=True, help="document name")
    p_stage.add_argument("-t", "--transform", required=True,
        help="transform query text" + query_help_suffix,)

    p_commit = _store_parser(
        "commit", "apply staged updates destructively", _cmd_store_commit
    )
    p_commit.add_argument("-n", "--name", required=True, help="document name")
    p_commit.add_argument(
        "-t", "--transform",
        help="stage this transform first, then commit" + query_help_suffix,
    )

    p_rollback = _store_parser(
        "rollback", "discard staged updates", _cmd_store_rollback
    )
    p_rollback.add_argument("-n", "--name", required=True, help="document name")
    p_rollback.add_argument(
        "-c", "--count", type=int, help="drop only the last COUNT staged updates"
    )

    p_stat = _store_parser(
        "stat", "show documents, views and cache state", _cmd_store_stat
    )
    p_stat.add_argument(
        "--json", action="store_true",
        help='emit one {"store": stats, "metrics": snapshot} JSON object',
    )

    _store_parser(
        "fsck",
        "check the state directory read-only: the manifest, every column "
        "file's header, lengths and checksums, and the WAL's framing",
        _cmd_store_fsck,
    )

    p_slowlog = _store_parser(
        "slowlog",
        "read the slow-query log a `repro serve --state` run streamed "
        "to <state>/slowlog.jsonl",
        _cmd_store_slowlog,
    )
    p_slowlog.add_argument(
        "--limit", type=int, default=0, help="show only the newest N entries"
    )
    p_slowlog.add_argument(
        "--json", action="store_true",
        help="emit raw entries as JSON lines (full trace and profile)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve queries over TCP: MVCC snapshot reads, "
        "single-flight evaluation, admission control",
    )
    p_serve.add_argument(
        "--state",
        help="durable state directory to load at boot and save on "
        "shutdown (locked for the whole run; omit for in-memory)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=7007,
        help="TCP port (0 binds an ephemeral port; see --port-file)",
    )
    p_serve.add_argument(
        "--port-file",
        help="write the bound port number to this file once listening",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="evaluation slots: how many reads may be evaluated at once "
        "(each on the thread of the connection that asked)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=256,
        help="admission-control bound on requests waiting for an "
        "evaluation slot; beyond it requests are shed with a typed "
        "'overloaded' error",
    )
    p_serve.add_argument(
        "--metrics-interval", type=float, default=0.0,
        help='log one {"event": "metrics", "ts": …, "metrics": …} JSON '
        "line to stderr every SECONDS while serving (0 disables): the "
        "registry snapshot, every count under its registry name",
    )
    p_serve.add_argument(
        "--slow-ms", type=float, default=250.0,
        help="capture any request slower than this many milliseconds "
        "in the slow-query log with its trace and profile (0 captures "
        "everything, negative disables; default 250)",
    )
    p_serve.add_argument(
        "--expose", action="store_true",
        help="serve a scrape endpoint over HTTP: Prometheus text at "
        "/metrics, trace events as JSON lines at /events",
    )
    p_serve.add_argument(
        "--expose-port", type=int, default=0,
        help="port for --expose (0 binds an ephemeral port; see "
        "--expose-port-file)",
    )
    p_serve.add_argument(
        "--expose-port-file",
        help="write the exposition port number to this file once "
        "listening",
    )
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    global _stdin_consumed
    _stdin_consumed = False
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)
    except (ValueError, OSError) as exc:
        # Every parser/evaluator error in this codebase (XPathSyntaxError,
        # XMLSyntaxError, UnsupportedPathError, StoreError, …) subclasses
        # ValueError; OSError covers missing/unreadable files.  User
        # mistakes get one line on stderr, not a traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
