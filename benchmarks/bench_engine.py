"""Engine benchmarks: prepared re-execution and the ``auto`` rule.

Three acceptance bars for the prepared-statement API:

* **prepared vs. parse-per-call** — the old flat API re-parses the
  query text and rebuilds the automata on every call; a prepared
  transform pays that once.  Re-execution through the prepared object
  must be at least 5x faster than the parse-per-call loop.
* **auto vs. best fixed, where the rule says topdown** — on the Fig-12
  matrix (U1-U10 insert transforms over the XMark tree), the ``auto``
  choice must land within 1.5x of the best *fixed* method's total,
  without anyone telling it which method that is.
* **auto vs. best fixed, where the rule decides** — the same bar on the
  deep matrix: chains of depth 5-400 under descendant qualifiers on
  nestable candidates, the one shape on which topdown and twopass trade
  places.  The test prints the topdown/twopass crossover by mean depth:
  the table ``repro.engine.DEEP_MEAN_DEPTH`` is read from, and must
  bracket it.  (Until the ledger grows a deep-document workload, this
  is the workload on the other side of the selection.)

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -q -s
"""

import time

from harness import (
    DATASET_SEED,
    SMOKE,
    dataset,
    format_table,
    smoke_factor,
    smoke_rounds,
    time_call,
)
from repro import Engine, parse, parse_transform_query, transform_topdown
from repro.engine import DEEP_MEAN_DEPTH, TREE_STRATEGIES, mean_depth
from repro.transform import STRATEGIES
from repro.xmark.generator import deep_chain
from repro.xmark.queries import QUERY_IDS, insert_transform

FACTOR = smoke_factor(0.005)

#: A small document: re-execution cost is dominated by parse + compile
#: when the tree is cheap to transform — exactly the workload a
#: prepared statement exists for.
SMALL_DOC = (
    "<site><people>"
    "<person id='person1'><name>p1</name><profile><age>30</age>"
    "<interest><category><subcategory><topic><detail/></topic>"
    "</subcategory></category></interest>"
    "</profile></person>"
    "</people></site>"
)

#: A deliberately wordy query — a long document name, chunky literal
#: content and an eight-step path are all expensive to parse and
#: compile per call, while execution stays a narrow pruned walk.
_DOCNAME = "customer-catalog-snapshot-" + "-".join(
    f"shard{i:03d}" for i in range(40)
)
_NOTE = " ".join(["reviewed-by-the-nightly-batch-auditor"] * 12)
_POLICY = ";".join(f"rule{i}=allow" for i in range(60))
PREPARED_QUERY = (
    f'transform copy $a := doc("{_DOCNAME}") modify do '
    f'insert <checked status="reviewed" note="{_NOTE}" '
    f'policy="{_POLICY}"/> into '
    "$a/people/person[@id = 'person1']/profile/interest/category"
    "/subcategory/topic/detail return $a"
)

ROUNDS = smoke_rounds(300, 20)


def _best_of(repeats: int, fn) -> float:
    """Best-of timing without ``time_call``'s ``gc.collect()``: on the
    sub-millisecond calls timed here, the cache-cold aftermath of a
    full collection would be most of the reading.  The Fig-12 matrix
    (millisecond rounds, timed right after allocation-heavy baselines)
    uses ``time_call``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_prepared_reexecution_at_least_5x_faster_than_parse_per_call():
    tree = parse(SMALL_DOC)

    def parse_per_call():
        for _ in range(ROUNDS):
            query = parse_transform_query(PREPARED_QUERY)
            transform_topdown(tree, query)  # builds its NFA per call

    engine = Engine()
    prepared = engine.prepare_transform(PREPARED_QUERY)
    prepared.run(tree)  # warm the plan path once

    def prepared_run():
        for _ in range(ROUNDS):
            prepared.run(tree)

    # One retry absorbs a noisy-scheduler round on shared CI runners:
    # both loops are same-process CPU-bound Python, so the *ratio* is
    # stable, but a single unlucky slice can still skew one side.
    for _attempt in range(2):
        per_call = _best_of(3, parse_per_call)
        prepared_time = _best_of(3, prepared_run)
        if prepared_time * 5 <= per_call:
            break

    print()
    print(format_table(
        f"prepared vs parse-per-call ({ROUNDS} executions)",
        ["mode", "ms", "speedup"],
        [
            ("parse per call", f"{per_call * 1000:.1f}", "1.0x"),
            ("prepared.run", f"{prepared_time * 1000:.1f}",
             f"{per_call / prepared_time:.1f}x"),
        ],
    ))
    if SMOKE:
        return  # smoke mode exercises the code paths, not the bar
    assert prepared_time * 5 <= per_call, (
        f"prepared {prepared_time:.4f}s not 5x faster than "
        f"parse-per-call {per_call:.4f}s"
    )


def test_auto_within_1p5x_of_best_fixed_method_on_fig12_matrix():
    tree = dataset(FACTOR, seed=DATASET_SEED)
    engine = Engine()
    queries = {uid: insert_transform(uid) for uid in QUERY_IDS}

    prepared = {
        uid: engine.prepare_transform(query)  # parsed query: no lossy text
        for uid, query in queries.items()
    }

    def run_auto():
        for p in prepared.values():
            p.run(tree)

    # One retry absorbs a noisy-scheduler round on shared CI runners
    # (same rationale as the 5x test above).
    for _attempt in range(2):
        fixed_totals = {}
        for name, fn in STRATEGIES.values():
            def run_fixed(fn=fn):
                for query in queries.values():
                    fn(tree, query)
            fixed_totals[name] = time_call(run_fixed, repeat=2)
        auto_total = time_call(run_auto, repeat=2)
        if auto_total <= 1.5 * min(fixed_totals.values()):
            break

    best_name = min(fixed_totals, key=fixed_totals.get)
    best = fixed_totals[best_name]
    rows = [
        (name, f"{total * 1000:.1f}", f"{total / best:.2f}x")
        for name, total in sorted(fixed_totals.items(), key=lambda kv: kv[1])
    ]
    rows.append(("auto (the rule)", f"{auto_total * 1000:.1f}",
                 f"{auto_total / best:.2f}x"))
    print()
    print(format_table(
        f"Fig-12 matrix totals (factor {FACTOR}, U1-U10 inserts)",
        ["method", "ms", "vs best"],
        rows,
    ))
    chosen = [p.plan_for(tree).strategy for p in prepared.values()]
    print(f"auto choices: {chosen}")
    assert set(chosen) == {"topdown"}  # XMark is shallow
    if SMOKE:
        return  # smoke mode exercises the code paths, not the bar
    assert auto_total <= 1.5 * best, (
        f"auto {auto_total:.4f}s exceeds 1.5x best fixed "
        f"({best_name} {best:.4f}s)"
    )


#: The deep matrix: every (path, fan-out, depth) cell is one document.
DEEP_DEPTHS = (5, 20, 50, 100, 200, 400)
DEEP_FANOUTS = (0, 3)
DEEP_PATHS = ("//*[.//b]", "//a[.//b][.//c]")


def test_auto_within_1p5x_of_best_fixed_method_on_deep_matrix():
    engine = Engine()
    repeats = smoke_rounds(5, 1)
    totals = dict.fromkeys(TREE_STRATEGIES + ("auto", "best"), 0.0)
    rows = []
    brackets = []  # per series: (last mean depth topdown won, first twopass won)
    deep_cells = 0
    for path in DEEP_PATHS:
        prepared = engine.prepare_transform(
            f'transform copy $a := doc("d") modify do rename $a{path} as seen return $a'
        )
        for fanout in DEEP_FANOUTS:
            last_topdown, first_twopass = 0.0, None
            for depth in DEEP_DEPTHS:
                doc = deep_chain(depth, fanout)
                mean = mean_depth(doc)
                deep_cells += mean > DEEP_MEAN_DEPTH
                times = {
                    name: _best_of(repeats, lambda name=name: prepared.run(doc, name))
                    for name in TREE_STRATEGIES
                }
                times["auto"] = _best_of(repeats, lambda: prepared.run(doc))
                times["best"] = min(times[name] for name in TREE_STRATEGIES)
                for name, seconds in times.items():
                    totals[name] += seconds
                if times["topdown"] <= times["twopass"]:
                    last_topdown = mean
                elif first_twopass is None:
                    first_twopass = mean
                rows.append((
                    path, str(fanout), str(depth), f"{mean:.1f}",
                    f"{times['topdown'] * 1000:.3f}", f"{times['twopass'] * 1000:.3f}",
                    f"{times['topdown'] / times['twopass']:.2f}",
                    prepared.plan_for(doc).strategy,
                    f"{times['auto'] / times['best']:.2f}x",
                ))
            brackets.append((last_topdown, first_twopass))
    print()
    print(format_table(
        f"topdown/twopass crossover by mean depth (DEEP_MEAN_DEPTH = {DEEP_MEAN_DEPTH:g})",
        ["path", "fan", "depth", "mean", "topdown ms", "twopass ms", "td/tp",
         "auto picks", "auto/best"],
        rows,
    ))
    fixed = {name: totals[name] for name in TREE_STRATEGIES}
    best_name = min(fixed, key=fixed.get)
    print(format_table(
        "deep matrix totals",
        ["method", "ms", "vs best fixed"],
        [
            (name, f"{totals[name] * 1000:.1f}", f"{totals[name] / fixed[best_name]:.2f}x")
            for name in sorted(totals, key=totals.get)
        ],
    ))
    print(f"crossover brackets per series (topdown last won, twopass first won): {brackets}")
    # Count-only in smoke mode: the rule took twopass on exactly the
    # cells over the constant (the "auto picks" column is plan_for,
    # the rule every auto run above applied).
    picks = [row[7] for row in rows]
    assert picks.count("twopass") == deep_cells
    assert picks.count("topdown") == len(rows) - deep_cells
    if SMOKE:
        return
    assert totals["auto"] <= 1.5 * fixed[best_name], (
        f"auto {totals['auto']:.4f}s exceeds 1.5x best fixed "
        f"({best_name} {fixed[best_name]:.4f}s) on the deep matrix"
    )
    assert min(low for low, _ in brackets) <= DEEP_MEAN_DEPTH <= max(
        high for _, high in brackets if high is not None
    ), f"crossovers {brackets} no longer bracket DEEP_MEAN_DEPTH"
