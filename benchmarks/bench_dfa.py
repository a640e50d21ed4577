"""The compiled runtime's acceptance bar: lazy-DFA ``topDown`` vs the
seed's frozenset ``nextStates`` runner.

Workload: the descendant-heavy Fig-12 embedded paths (U4, U5, U9, U10
all carry ``//``) as insert *and* delete transforms, over an XMark
document of at least 10 MB serialized (factor 0.25 ≈ 10.4 MB, ~384k
element nodes).  Both runners share one prebuilt selecting NFA per
query, so the comparison isolates exactly the refactor's claim: interned
state sets + memoized ``(set, symbol)`` transitions + compiled
qualifier closures vs per-node ``frozenset`` recomputation.

Methodology: best-of-N wall clock with a full ``gc.collect()`` before
each run and the cyclic collector paused *during* it — a gen-2
collection landing mid-run walks the whole multi-hundred-thousand-node
heap and can swamp the difference being measured (both runners allocate
the same output tree, so pausing is fair to both).

Bars (skipped in smoke mode, which only exercises the code paths):

* geometric-mean speedup >= 2x across the descendant-heavy suite;
* a prepared statement's second run reuses the cached DFA tables —
  zero new state sets, zero new transitions, and the engine's
  path-keyed ``selecting`` NFA cache counts the hit.

The structural row (asserted in smoke mode too): 200 distinct
``people/person[@id='person<k>']`` reads through one compiled cache
over the XMark arena build one table set, and no move is compiled
after the first text.  It prints ms per read for a cold shape (a fresh
cache per text) against a warm one (the shared cache), with no
wall-clock bar.

Run standalone (prints the table, exits non-zero if a bar fails)::

    PYTHONPATH=src python benchmarks/bench_dfa.py            # full, 10 MB
    PYTHONPATH=src python benchmarks/bench_dfa.py --smoke    # tiny

or via pytest (the CI smoke job sets REPRO_BENCH_SMOKE=1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_dfa.py -q -s
"""

from __future__ import annotations

import gc
import math
import statistics
import time

from harness import DATASET_SEED, SMOKE, dataset, format_table, smoke_rounds
from repro import Engine
from repro.automata.selecting import build_selecting_nfa
from repro.transform.topdown import transform_topdown, transform_topdown_nfa
from repro.xmltree.arena import freeze
from repro.xmark.queries import delete_transform, insert_transform

#: Factor 0.25 serializes to ~10.4 MB — the bar's minimum document size.
FULL_FACTOR = 0.25
SMOKE_FACTOR = 0.002

#: The Fig-12 embedded paths containing ``//`` (descendant-heavy).
DESCENDANT_HEAVY = ["U4", "U5", "U9", "U10"]

REPEAT = smoke_rounds(3, 1)

#: The acceptance bar: geometric-mean speedup of the DFA runner.
SPEEDUP_BAR = 2.0


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


def _workload():
    for uid in DESCENDANT_HEAVY:
        yield f"ins-{uid}", insert_transform(uid)
        yield f"del-{uid}", delete_transform(uid)


def run_speedup_table(factor: float) -> tuple[list, float]:
    """Time both runners per query; returns (rows, geomean speedup)."""
    tree = dataset(factor, seed=DATASET_SEED)
    rows = []
    ratios = []
    for name, query in _workload():
        nfa = build_selecting_nfa(query.path)
        transform_topdown(tree, query, nfa=nfa)  # warm the DFA tables
        dfa_time = _best_of(lambda q=query, n=nfa: transform_topdown(tree, q, nfa=n))
        nfa_time = _best_of(lambda q=query, n=nfa: transform_topdown_nfa(tree, q, nfa=n))
        ratio = nfa_time / dfa_time
        ratios.append(ratio)
        rows.append((name, f"{nfa_time * 1000:.1f}", f"{dfa_time * 1000:.1f}",
                     f"{ratio:.2f}x"))
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return rows, geomean


def test_dfa_speedup_bar():
    factor = _factor()
    rows, geomean = run_speedup_table(factor)
    print()
    print(format_table(
        f"lazy-DFA vs frozenset topDown (xmark factor {factor}, "
        f"best of {REPEAT})",
        ["query", "frozenset ms", "dfa ms", "speedup"],
        rows,
    ))
    print(f"geometric mean speedup: {geomean:.2f}x (bar: {SPEEDUP_BAR}x)")
    if SMOKE:
        return  # smoke mode exercises the code paths, not the bar
    assert geomean >= SPEEDUP_BAR, (
        f"DFA runner only {geomean:.2f}x over the frozenset runner "
        f"(bar {SPEEDUP_BAR}x)"
    )


def test_prepared_rerun_zero_recompilation():
    """A prepared statement's re-run must reuse the compiled DFA tables.

    Observable three ways, all asserted: preparing the text again hands
    back the same cached parse and automata, another text over the same
    path gets the same cached automaton (cache hit counted), and the
    DFA's own table counters do not move across the second run.
    """
    tree = dataset(SMOKE_FACTOR if SMOKE else 0.01, seed=DATASET_SEED)
    engine = Engine()
    text = str(insert_transform("U9"))
    prepared = engine.prepare_transform(text)
    prepared.run(tree, method="topdown")

    path_hits_before = engine.cache.selecting.stats()["hits"]
    tables_before = prepared.selecting.dfa().stats()

    again = engine.prepare_transform(text)
    assert again.query is prepared.query and again.selecting is prepared.selecting, (
        "re-preparation must be a cache hit"
    )
    again.run(tree, method="topdown")

    tables_after = prepared.selecting.dfa().stats()
    assert tables_after == tables_before, (
        f"re-run recompiled DFA tables: {tables_before} -> {tables_after}"
    )
    # Preparing the same path through a *different* text must hit the
    # NFA cache too.
    other = engine.prepare_transform(str(delete_transform("U9")))
    assert other.selecting is prepared.selecting
    assert engine.cache.selecting.stats()["hits"] > path_hits_before, (
        "the selecting NFA cache never counted a hit"
    )
    print()
    print(f"prepared re-run: DFA tables stable at {tables_after}")


#: The structural row's read count: distinct texts of one automaton shape.
SHAPE_TEXTS = 200


def _shape_texts() -> list:
    return [
        f"for $x in people/person[@id = 'person{k}'] return $x"
        for k in range(SHAPE_TEXTS)
    ]


def _read_ms(engine: Engine, text: str, arena) -> float:
    start = time.perf_counter()
    engine.prepare_query(text).run_refs(arena)
    return (time.perf_counter() - start) * 1000


def run_shape_row(factor: float) -> list:
    """The structural row: every text through one ``Engine``'s cache
    (warm shape) and each through a fresh one (cold shape).  Asserts
    the shared cache built one table set and compiled no move after
    its first text; returns the printable rows."""
    arena = freeze(dataset(factor, seed=DATASET_SEED))
    texts = _shape_texts()
    cold = [_read_ms(Engine(), text, arena) for text in texts]
    engine = Engine()
    warm = [_read_ms(engine, texts[0], arena)]
    after_first = engine.cache.dfa_stats()
    warm += [_read_ms(engine, text, arena) for text in texts[1:]]
    totals = engine.cache.dfa_stats()
    assert totals["dfas"] == 1, f"{SHAPE_TEXTS} texts of one shape built {totals['dfas']} table sets"
    assert totals["moves"] == after_first["moves"], (
        f"moves compiled after the first text: {after_first['moves']} -> {totals['moves']}"
    )
    assert engine.cache.shapes.stats()["hits"] == SHAPE_TEXTS - 1
    return [
        ("cold shape (fresh cache per text)", f"{statistics.median(cold):.3f}", "-"),
        (
            "warm shape (one shared cache)",
            f"{statistics.median(warm[1:]):.3f}",
            f"{totals['sets']} sets, {totals['moves']} moves",
        ),
    ]


def _print_shape_row(factor: float) -> None:
    rows = run_shape_row(factor)
    print(format_table(
        f"{SHAPE_TEXTS} distinct people/person[@id] reads (xmark factor {factor})",
        ["tables", "median ms/read", "one table set"],
        rows,
    ))


def test_one_table_set_per_shape():
    print()
    _print_shape_row(_factor())


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
        f"lazy-DFA vs frozenset topDown (xmark factor {factor}, "
        f"best of {REPEAT})",
        ["query", "frozenset ms", "dfa ms", "speedup"],
        rows,
    ))
    print(f"geometric mean speedup: {geomean:.2f}x (bar: {SPEEDUP_BAR}x)")
    test_prepared_rerun_zero_recompilation()
    _print_shape_row(factor)
    if args.smoke:
        return 0
    if geomean < SPEEDUP_BAR:
        print(f"FAIL: below the {SPEEDUP_BAR}x bar")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
