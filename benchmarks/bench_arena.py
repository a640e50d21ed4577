"""The columnar arena's acceptance bars: the arena backend vs the PR-3
DFA runner on the Fig-12 select/query workloads, plus the resident-
memory and snapshot contracts.

Workload, over an XMark document of at least 10 MB serialized (factor
0.25 ≈ 10.4 MB, ~500k nodes):

* **select** — the descendant-heavy Fig-12 embedded paths (U4, U5,
  U9, U10) run through ``run_select``: the PR-3 lazy-DFA walk over
  ``Element`` objects vs the arena walk over int columns
  (:func:`repro.automata.arena_run.select_indices`).  Both runners
  share one prebuilt selecting NFA per query — the same automaton,
  the same memoized move tables — so the comparison isolates exactly
  this PR's claim: dense pre-order columns vs Python object traversal.
* **query** — the Fig-11 user queries ``for $x in Ui return $x`` for
  the qualifier-bearing shapes: ``evaluate_query`` on the tree vs the
  arena evaluator's zero-thaw reference run (both identify the same
  result items; neither serializes).

* **descendant shapes** — one ``select_indices`` run per ``//``-heavy
  path over the ledger's document (factor 0.05), with the scan's own
  counts beside the time: elements visited, nodes skipped by jumps.
  The counts are exact on any host, so their bars hold in smoke mode
  too: a ``//item`` scan visits no more than the ``item`` postings
  (+16 for the steps above ``regions``), ``//nosuch`` visits nothing.

* **qualifier sweeps** — per ``serve_scan`` template (the ledger's
  five, parameters fixed) at the ledger's factor: the set form
  :func:`~repro.xpath.arena_compiler.sweep_qualifier` against the same
  candidates filtered one by one through the compiled closure — both
  public functions, so neither side needs a switch — and the scan that
  uses it.  Then the rule's own tables, which its two constants cite:
  one ``regions``-shaped range (one candidate over a thousand leaves)
  where the rule keeps the closure, with what the sweep would have
  cost; sweep vs closure by leaves per candidate with the witness
  first and absent; and swept vs stepped scans by candidates per range.
* **two threads** — 240 evaluations of ``for $p in people/person
  return $p/profile/age`` (1 275 path evaluations each) through one
  shared ``CompiledCache``, on one thread and split over two: the
  convoy ROADMAP 3a describes has a standing number.

Bars (relaxed in smoke mode, which only exercises the code paths):

* geometric-mean speedup >= 2x across the select+query suite;
* resident bytes per loaded document (tracemalloc): the arena load
  path must be >= 3x smaller than the Node parse — in smoke mode the
  regression guard still asserts arena <= Node bytes;
* sweep <= 0.5x the closure on the four text/number templates and
  <= 1.0x on ``[@id = …]``; two threads <= 1.5x one thread;
* **zero recompilation** — re-running a select on the warm arena adds
  no DFA state sets and no transitions (table counters stable);
* **zero-copy snapshots** — N store reads of one committed version
  share one frozen arena object (``doc.pin().arena is doc.arena``
  before and after the reads), and a commit splices the next one.

Run standalone (prints the tables, exits non-zero if a bar fails)::

    PYTHONPATH=src python benchmarks/bench_arena.py            # full, 10 MB
    PYTHONPATH=src python benchmarks/bench_arena.py --smoke    # tiny

or via pytest (the CI smoke job sets REPRO_BENCH_SMOKE=1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_arena.py -q -s
"""

from __future__ import annotations

import gc
import math
import threading
import time
import tracemalloc
from unittest import mock

from harness import DATASET_SEED, SMOKE, dataset, format_table, smoke_rounds
from repro.automata.arena_run import select_indices
from repro.automata.selecting import build_selecting_nfa
from repro.compiled import CompiledCache
from repro.obs.profile import Profile, profiled
from repro.store.store import ViewStore
from repro.xmark.queries import EMBEDDED_PATHS, delete_transform, user_query_for
from repro.xmltree.arena import freeze
from repro.xmltree.node import Element, Text
from repro.xmltree.serializer import write_file
from repro.xpath import arena_compiler
from repro.xpath.arena_compiler import choose_sweep, compile_qualifier_arena, sweep_qualifier
from repro.xpath.normalize import normalize_steps
from repro.xpath.parser import parse_xpath
from repro.xquery.arena_eval import ArenaEvaluator
from repro.xquery.evaluator import evaluate_query

#: Factor 0.25 serializes to ~10.4 MB — the bar's minimum document size.
FULL_FACTOR = 0.25
SMOKE_FACTOR = 0.002

#: The Fig-12 embedded paths containing ``//`` (descendant-heavy).
SELECT_SUITE = ["U4", "U5", "U9", "U10"]

#: The qualifier-bearing Fig-11 user-query shapes.
QUERY_SUITE = ["U2", "U3", "U7", "U8", "U9", "U10"]

#: The descendant-shape table: the ledger's document size, and paths
#: whose ``//`` steps name a label (so the scan can jump).
DESCENDANT_FACTOR = 0.05
DESCENDANT_SHAPES = [
    "//text", "//listitem", "//description", "//item", "regions//item",
    "//keyword", "//nosuch", "//bidder/increase", "//open_auction//increase",
    "//item[location = 'Germany']", "regions//item/name", "//parlist//text",
    "//listitem//keyword",
]
#: Shapes that wait on ``item`` alone: visits are bounded by its postings.
ITEM_BOUND_SHAPES = ["//item", "regions//item", "//item[location = 'Germany']"]
ITEM_BOUND_SLACK = 16

#: ``serve_scan``'s five templates (``benchmarks/ledger/workloads.py``)
#: with their parameters fixed: (candidate label, path, sweep/closure bar).
SWEEP_TEMPLATES = [
    ("person", "people/person[@id = 'person77']", 1.0),
    ("person", "people/person[profile/age > 60.5]", 0.5),
    ("item", "regions//item[location = 'Germany'][quantity > 7.5]", 0.5),
    ("open_auction",
     "open_auctions/open_auction[initial > 250.1 and reserve > 600.2]/bidder", 0.5),
    ("closed_auction", "closed_auctions/closed_auction[price > 800.5]", 0.5),
]
#: One candidate over every ``location`` in the document.
LEAF_HEAVY = ("regions", "regions[africa/item/location = 'United States']")
CONVOY_QUERY = "for $p in people/person return $p/profile/age"
CONVOY_EVALUATIONS = smoke_rounds(240, 8)
CONVOY_BAR = 1.5

REPEAT = smoke_rounds(3, 1)

#: The acceptance bars.
SPEEDUP_BAR = 2.0
MEMORY_BAR = 3.0


def _factor() -> float:
    return SMOKE_FACTOR if SMOKE else FULL_FACTOR


def _best_of(fn, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def _best_of_warm(fn, repeat: int) -> float:
    """Best of *repeat* back-to-back calls after one collection — for
    sub-millisecond calls, where :func:`_best_of`'s full collection
    before every call leaves the caches cold and times mostly that."""
    gc.collect()
    gc.disable()
    try:
        fn()
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def run_speedup_table(factor: float) -> tuple[list, float]:
    """Time node vs arena per workload entry; returns (rows, geomean)."""
    tree = dataset(factor, seed=DATASET_SEED)
    arena = freeze(tree)
    rows = []
    ratios = []
    for uid in SELECT_SUITE:
        nfa = build_selecting_nfa(parse_xpath(EMBEDDED_PATHS[uid]))
        nfa.run_select(tree)            # warm the DFA tables
        select_indices(nfa, arena)      # ... and the arena closures
        node_time = _best_of(lambda: nfa.run_select(tree))
        arena_time = _best_of(lambda: select_indices(nfa, arena))
        ratio = node_time / arena_time
        ratios.append(ratio)
        rows.append((
            f"select-{uid}", f"{node_time * 1000:.1f}",
            f"{arena_time * 1000:.1f}", f"{ratio:.2f}x",
        ))
    for uid in QUERY_SUITE:
        query = user_query_for(uid)
        evaluator = ArenaEvaluator(arena)
        evaluate_query(tree, query)          # warm both paths
        evaluator.evaluate_refs(query)
        node_time = _best_of(lambda: evaluate_query(tree, query))
        arena_time = _best_of(lambda: evaluator.evaluate_refs(query))
        ratio = node_time / arena_time
        ratios.append(ratio)
        rows.append((
            f"query-{uid}", f"{node_time * 1000:.1f}",
            f"{arena_time * 1000:.1f}", f"{ratio:.2f}x",
        ))
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return rows, geomean


def run_descendant_table(factor: float) -> tuple[list, dict, int]:
    """One row per descendant shape: best-of time and the scan's exact
    counts.  Returns ``(rows, {shape: Profile}, number of items)``."""
    arena = freeze(dataset(factor, seed=DATASET_SEED))
    rows = []
    profiles = {}
    for shape in DESCENDANT_SHAPES:
        nfa = build_selecting_nfa(parse_xpath(shape))
        matches = select_indices(nfa, arena)  # warm tables and postings
        elapsed = _best_of(lambda: select_indices(nfa, arena))
        profile = profiles[shape] = Profile()
        with profiled(profile):
            assert select_indices(nfa, arena) == matches
        rows.append((
            shape, f"{elapsed * 1000:.3f}", str(len(matches)),
            str(profile.nodes_visited), str(profile.nodes_skipped),
        ))
    return rows, profiles, len(arena.postings((arena.symbols.intern("item"),)))


def check_descendant_counts(profiles: dict, items: int) -> list:
    """The exact-count bars of the descendant table (failure texts)."""
    failed = []
    for shape in ITEM_BOUND_SHAPES:
        visited = profiles[shape].nodes_visited
        if visited > items + ITEM_BOUND_SLACK:
            failed.append(
                f"{shape} visited {visited} elements for {items} item "
                f"postings (bar: postings + {ITEM_BOUND_SLACK})"
            )
    if profiles["//nosuch"].nodes_visited:
        failed.append(
            f"//nosuch visited {profiles['//nosuch'].nodes_visited} elements "
            "(bar: 0 — no posting, one jump to the end)"
        )
    return failed


def print_descendant_table(factor: float, rows: list) -> None:
    print(format_table(
        f"descendant shapes, arena scan (xmark factor {factor}, "
        f"best of {REPEAT})",
        ["path", "ms", "matches", "visited", "skipped"],
        rows,
    ))


def _candidate_qualifier(path_text: str, label: str):
    """The (merged) qualifier the path puts on its *label* step."""
    _, steps = normalize_steps(parse_xpath(path_text))
    return next(step.qual for step in steps if step.name == label)


def run_sweep_table(factor: float) -> tuple[list, list]:
    """One row per serve_scan template: the qualifier over every
    candidate of the document, swept and closure-filtered, and the scan
    around it.  Returns ``(rows, [(path, ratio, bar)])``."""
    arena = freeze(dataset(factor, seed=DATASET_SEED))
    size = len(arena)
    repeat = smoke_rounds(15, 1)
    rows = []
    ratios = []
    for label, path_text, bar in SWEEP_TEMPLATES:
        qual = _candidate_qualifier(path_text, label)
        sym = arena.symbols.intern(label)
        postings = arena.postings((sym,))
        closure = compile_qualifier_arena(qual)
        swept = sweep_qualifier(qual, arena, sym, 0, size)
        assert swept == sorted({i for i in postings if closure(arena, i)}), path_text
        sweep_time = _best_of_warm(lambda: sweep_qualifier(qual, arena, sym, 0, size), repeat)
        closure_time = _best_of_warm(lambda: {i for i in postings if closure(arena, i)}, repeat)
        nfa = build_selecting_nfa(parse_xpath(path_text))
        select_indices(nfa, arena)  # warm the DFA tables
        scan_time = _best_of_warm(lambda: select_indices(nfa, arena), repeat)
        profile = Profile()
        with profiled(profile):
            select_indices(nfa, arena)
        ratio = sweep_time / closure_time
        ratios.append((path_text, ratio, bar))
        rows.append((
            path_text, str(len(postings)), str(len(swept)),
            f"{sweep_time * 1000:.3f}", f"{closure_time * 1000:.3f}", f"{ratio:.2f}x",
            f"{scan_time * 1000:.3f}", str(profile.nodes_visited), str(profile.qual_swept),
        ))
    return rows, ratios


def print_sweep_table(factor: float, rows: list) -> None:
    print(format_table(
        f"qualifier sweeps, serve_scan templates (xmark factor {factor})",
        ["path", "cands", "true", "sweep ms", "closure ms", "ratio",
         "scan ms", "visited", "leaves"],
        rows,
    ))


def _wide(candidates: int, leaves_each: int, witness) -> Element:
    """``r/h/c*/v*``: *candidates* ``c`` under one ``h``, *leaves_each*
    ``v`` in each; ``witness(j)`` says which of a candidate's are 'w'."""
    return Element("r", {}, [Element("h", {}, [
        Element("c", {}, [
            Element("v", {}, [Text("w" if witness(j) else "n")])
            for j in range(leaves_each)
        ])
        for _ in range(candidates)
    ])])


def run_rule_tables(factor: float) -> tuple[list, list, list, str]:
    """What ``choose_sweep``'s constants are read from.  Returns
    ``(leaf-heavy row, ratio rows, candidate rows, verdict)``."""
    repeat = smoke_rounds(9, 1)
    # (1) the regions-shaped range: what the rule picks, and what the
    # other side would have cost
    arena = freeze(dataset(factor, seed=DATASET_SEED))
    label, path_text = LEAF_HEAVY
    qual = _candidate_qualifier(path_text, label)
    sym = arena.symbols.intern(label)
    closure = compile_qualifier_arena(qual)
    postings = arena.postings((sym,))
    verdict, _ = choose_sweep(qual, arena, sym, 0, len(arena))
    leaves = len(arena.postings((arena.symbols.intern("location"),)))
    heavy = [(
        path_text, str(len(postings)), str(leaves), verdict,
        f"{_best_of_warm(lambda: [i for i in postings if closure(arena, i)], repeat) * 1000:.4f}",
        f"{_best_of_warm(lambda: sweep_qualifier(qual, arena, sym, 0, len(arena)), repeat) * 1000:.4f}",
    )]
    # (2) leaves per candidate: a sweep reads every leaf; the closure
    # stops at the first witness (best case) or reads them all (worst)
    qual = _candidate_qualifier("h/c[v = 'w']", "c")
    closure = compile_qualifier_arena(qual)
    ratio_rows = []
    for each in ([1, 8] if SMOKE else [1, 2, 4, 8, 16, 32, 64]):
        times = []
        for witness in (lambda j: j == 0, lambda j: False):
            wide = freeze(_wide(64, each, witness))
            sym = wide.symbols.intern("c")
            cands = wide.postings((sym,))
            times.append((
                _best_of_warm(lambda: sweep_qualifier(qual, wide, sym, 0, len(wide)), repeat),
                _best_of_warm(lambda: [i for i in cands if closure(wide, i)], repeat),
            ))
        ratio_rows.append((
            str(each), f"{times[0][0] / 64 * 1e6:.2f}",
            f"{times[0][1] / 64 * 1e6:.2f}", f"{times[1][1] / 64 * 1e6:.2f}",
        ))
    # (3) candidates per range: one scan per holder, every range swept
    # (the constant lowered to 1) against every range stepped (raised
    # out of reach) — the only place a side is forced, because the
    # constant itself is what is being measured
    nfa = build_selecting_nfa(parse_xpath("c[v > 90]"))
    cand_rows = []
    for each in ([1, 16] if SMOKE else [1, 2, 4, 8, 12, 16, 24, 32, 64]):
        root = Element("r", {}, [
            Element("h", {}, [
                Element("c", {}, [Element("pad", {}, [Text("p")]),
                                  Element("v", {}, [Text(str((7 * k + c) % 100))])])
                for c in range(each)
            ])
            for k in range(50)
        ])
        wide = freeze(root)
        holders = list(wide.postings((wide.symbols.intern("h"),)))

        def scans():
            for holder in holders:
                select_indices(nfa, wide, holder)

        per_range = []
        for minimum in (1, 10 ** 9):
            with mock.patch.object(arena_compiler, "SWEEP_MIN_CANDIDATES", minimum):
                scans()
                per_range.append(_best_of_warm(scans, repeat) / len(holders) * 1e6)
        cand_rows.append((str(each), f"{per_range[0]:.2f}", f"{per_range[1]:.2f}"))
    return heavy, ratio_rows, cand_rows, verdict


def print_rule_tables(heavy: list, ratio_rows: list, cand_rows: list) -> None:
    print(format_table(
        "the rule on a leaf-heavy range (one candidate, every location)",
        ["path", "cands", "leaves", "verdict", "closure ms", "sweep ms"],
        heavy,
    ))
    print()
    print(format_table(
        f"SWEEP_LEAF_RATIO = {arena_compiler.SWEEP_LEAF_RATIO}: "
        "us per candidate, 64 candidates, c[v = 'w']",
        ["leaves/cand", "sweep", "closure, witness first", "closure, no witness"],
        ratio_rows,
    ))
    print()
    print(format_table(
        f"SWEEP_MIN_CANDIDATES = {arena_compiler.SWEEP_MIN_CANDIDATES}: "
        "us per scanned range, c[v > 90]",
        ["cands/range", "swept", "stepped"],
        cand_rows,
    ))


def run_convoy_row(factor: float) -> tuple[float, float]:
    """Seconds for ``CONVOY_EVALUATIONS`` of the per-item query on one
    thread and split over two, sharing one compiled cache."""
    arena = freeze(dataset(factor, seed=DATASET_SEED))
    cache = CompiledCache()
    query = cache.user_query(CONVOY_QUERY)

    def work(count: int) -> None:
        for _ in range(count):
            ArenaEvaluator(arena, cache.selecting_nfa_for).evaluate_refs(query)

    work(2)
    started = time.perf_counter()
    work(CONVOY_EVALUATIONS)
    one = time.perf_counter() - started
    threads = [
        threading.Thread(target=work, args=(CONVOY_EVALUATIONS // 2,)) for _ in range(2)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return one, time.perf_counter() - started


def run_memory_table(factor: float, tmp_path: str) -> tuple[list, float]:
    """Resident bytes of the two load paths; returns (rows, ratio)."""
    from repro.xmltree.parser import parse_file, parse_file_to_arena

    write_file(dataset(factor, seed=DATASET_SEED), tmp_path)
    tracemalloc.start()
    tree = parse_file(tmp_path)
    node_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    nodes = tree.size()
    del tree
    tracemalloc.start()
    arena = parse_file_to_arena(tmp_path)
    arena_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(arena) == nodes
    ratio = node_bytes / max(1, arena_bytes)
    rows = [
        ("node tree", f"{node_bytes}", f"{node_bytes / nodes:.0f}"),
        ("arena", f"{arena_bytes}", f"{arena_bytes / nodes:.0f}"),
    ]
    return rows, ratio


def test_arena_speedup_bar():
    factor = _factor()
    rows, geomean = run_speedup_table(factor)
    print()
    print(format_table(
        f"arena backend vs PR-3 DFA runner (xmark factor {factor}, "
        f"best of {REPEAT})",
        ["workload", "node ms", "arena ms", "speedup"],
        rows,
    ))
    print(f"geometric mean speedup: {geomean:.2f}x (bar: {SPEEDUP_BAR}x)")
    if SMOKE:
        return  # smoke mode exercises the code paths, not the bar
    assert geomean >= SPEEDUP_BAR, (
        f"arena backend only {geomean:.2f}x over the Node runners "
        f"(bar {SPEEDUP_BAR}x)"
    )


def test_arena_memory_bar(tmp_path="/tmp/bench_arena_doc.xml"):
    factor = _factor()
    import os

    if not isinstance(tmp_path, str):  # pytest passes a Path fixture
        tmp_path = str(tmp_path / "doc.xml")
    rows, ratio = run_memory_table(factor, tmp_path)
    print()
    print(format_table(
        f"resident bytes per loaded document (xmark factor {factor}, "
        "tracemalloc)",
        ["load path", "bytes", "bytes/node"],
        rows,
    ))
    print(f"node/arena ratio: {ratio:.2f}x (bar: {MEMORY_BAR}x)")
    if os.path.exists(tmp_path):
        os.unlink(tmp_path)
    if SMOKE:
        # The smoke-mode regression guard: the columnar load path must
        # never allocate more than the Node tree, at any size.
        assert ratio >= 1.0, (
            f"arena resident bytes regressed above the Node tree "
            f"({ratio:.2f}x)"
        )
        return
    assert ratio >= MEMORY_BAR, (
        f"arena only {ratio:.2f}x smaller than the Node tree "
        f"(bar {MEMORY_BAR}x)"
    )


def test_descendant_shape_counts():
    factor = SMOKE_FACTOR if SMOKE else DESCENDANT_FACTOR
    rows, profiles, items = run_descendant_table(factor)
    print()
    print_descendant_table(factor, rows)
    failed = check_descendant_counts(profiles, items)
    assert not failed, "; ".join(failed)


def test_qualifier_sweep_bars():
    factor = SMOKE_FACTOR if SMOKE else DESCENDANT_FACTOR
    rows, ratios = run_sweep_table(factor)
    print()
    print_sweep_table(factor, rows)
    if SMOKE:
        return  # the equality asserts in run_sweep_table hold at any size
    failed = [
        f"{path}: sweep {ratio:.2f}x the closure (bar {bar}x)"
        for path, ratio, bar in ratios if ratio > bar
    ]
    assert not failed, "; ".join(failed)


def test_the_rule_keeps_the_closure_on_a_leaf_heavy_range():
    factor = SMOKE_FACTOR if SMOKE else DESCENDANT_FACTOR
    heavy, ratio_rows, cand_rows, verdict = run_rule_tables(factor)
    print()
    print_rule_tables(heavy, ratio_rows, cand_rows)
    assert verdict != "sweep", f"the rule swept {LEAF_HEAVY[1]}"


def test_two_threads_do_not_convoy():
    factor = SMOKE_FACTOR if SMOKE else DESCENDANT_FACTOR
    one, two = run_convoy_row(factor)
    print()
    print(
        f"{CONVOY_EVALUATIONS} x {CONVOY_QUERY!r}: one thread {one:.2f} s, "
        f"two threads {two:.2f} s ({two / one:.2f}x, bar {CONVOY_BAR}x)"
    )
    if SMOKE:
        return
    assert two <= CONVOY_BAR * one, (
        f"two threads took {two / one:.2f}x one thread's time for the same "
        f"work (bar {CONVOY_BAR}x)"
    )


def test_zero_recompilation_on_warm_arena():
    """A warm re-run adds no DFA state sets, moves or arena closures."""
    tree = dataset(SMOKE_FACTOR if SMOKE else 0.01, seed=DATASET_SEED)
    arena = freeze(tree)
    nfa = build_selecting_nfa(parse_xpath(EMBEDDED_PATHS["U9"]))
    first = select_indices(nfa, arena)
    tables_before = nfa.dfa().stats()
    again = select_indices(nfa, arena)
    assert again == first
    tables_after = nfa.dfa().stats()
    assert tables_after == tables_before, (
        f"warm arena re-run recompiled DFA tables: "
        f"{tables_before} -> {tables_after}"
    )
    print()
    print(f"warm arena re-run: DFA tables stable at {tables_after}")


def test_zero_copy_snapshots():
    """N reads of one committed version share one frozen arena object."""
    store = ViewStore()
    store.put("db", dataset(SMOKE_FACTOR if SMOKE else 0.01, seed=DATASET_SEED))
    doc = store.documents.get("db")
    first = doc.arena
    assert doc.pin().arena is first
    queries = [
        "for $x in regions//item[location = 'United States'] return $x",
        "for $x in people/person return $x/name",
        "for $x in //keyword return $x",
    ]
    for _ in range(3):
        for text in queries:
            store.query("db", text)
            store.query_serialized("db", text)
    assert doc.pin().arena is first and doc.arena is first, (
        "reads of one committed version must share one arena object"
    )
    # A commit splices the next snapshot from the current one — the
    # initial freeze stays the only full column build.
    store.commit("db", str(delete_transform("U5")))
    spliced = doc.arena
    for text in queries:
        store.query("db", text)
    assert spliced is not first and doc.pin().arena is spliced, (
        "after a commit, reads must share the one spliced arena"
    )
    assert doc.splices == 1, f"{doc.splices} splices after one commit"
    print()
    print(
        f"zero-copy snapshots: {store.arena_reads} arena reads, "
        f"{doc.splices} splice(s) over one admitted arena"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny document, no acceptance bars (CI smoke)",
    )
    parser.add_argument(
        "--factor", type=float, default=None,
        help=f"override the XMark factor (default {FULL_FACTOR})",
    )
    args = parser.parse_args(argv)
    factor = args.factor if args.factor is not None else (
        SMOKE_FACTOR if args.smoke else FULL_FACTOR
    )
    rows, geomean = run_speedup_table(factor)
    print(format_table(
        f"arena backend vs PR-3 DFA runner (xmark factor {factor}, "
        f"best of {REPEAT})",
        ["workload", "node ms", "arena ms", "speedup"],
        rows,
    ))
    print(f"geometric mean speedup: {geomean:.2f}x (bar: {SPEEDUP_BAR}x)")
    mem_rows, mem_ratio = run_memory_table(factor, "/tmp/bench_arena_doc.xml")
    print()
    print(format_table(
        "resident bytes per loaded document (tracemalloc)",
        ["load path", "bytes", "bytes/node"],
        mem_rows,
    ))
    print(f"node/arena ratio: {mem_ratio:.2f}x (bar: {MEMORY_BAR}x)")
    shape_factor = SMOKE_FACTOR if args.smoke else DESCENDANT_FACTOR
    shape_rows, shape_profiles, items = run_descendant_table(shape_factor)
    print()
    print_descendant_table(shape_factor, shape_rows)
    failed = check_descendant_counts(shape_profiles, items)  # exact: smoke too
    sweep_rows, sweep_ratios = run_sweep_table(shape_factor)
    print()
    print_sweep_table(shape_factor, sweep_rows)
    heavy, ratio_rows, cand_rows, verdict = run_rule_tables(shape_factor)
    print()
    print_rule_tables(heavy, ratio_rows, cand_rows)
    if verdict == "sweep":
        failed.append(f"the rule swept {LEAF_HEAVY[1]}")
    one, two = run_convoy_row(shape_factor)
    print()
    print(f"two threads / one thread: {two:.2f} s / {one:.2f} s = {two / one:.2f}x")
    if not args.smoke:
        failed += [
            f"{path}: sweep {ratio:.2f}x the closure (bar {bar}x)"
            for path, ratio, bar in sweep_ratios if ratio > bar
        ]
        if two > CONVOY_BAR * one:
            failed.append(f"two threads {two / one:.2f}x one thread (bar {CONVOY_BAR}x)")
    test_zero_recompilation_on_warm_arena()
    test_zero_copy_snapshots()
    if args.smoke:
        if failed:
            print("FAIL: " + "; ".join(failed))
        return 1 if failed else 0
    if geomean < SPEEDUP_BAR:
        failed.append(f"speedup {geomean:.2f}x < {SPEEDUP_BAR}x")
    if mem_ratio < MEMORY_BAR:
        failed.append(f"memory {mem_ratio:.2f}x < {MEMORY_BAR}x")
    if failed:
        print("FAIL: " + "; ".join(failed))
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(None))
