"""Streaming composition (beyond the paper — its future-work item 3).

Compares three ways to answer Q(Qt(T)) on an on-disk document:

* naive: parse the file into a tree, transform fully, run Q;
* composed: parse into a tree, run the Compose Method's output;
* streaming: never build the tree — two-pass transform events feed the
  streaming selector (`repro.streaming`).

Expected: the streaming pipeline loses on wall-clock at these sizes
(event processing in Python is slower than shared-subtree tree work)
but is the only one whose memory does not grow with the file — the
same trade-off as Fig. 12 vs Fig. 14 for the plain transform.
"""

import pytest

from harness import DATASET_SEED, smoke_factor, smoke_rounds
from repro.compose import compose, evaluate_composed, naive_compose
from repro.streaming import stream_compose_file
from repro.xmark.generator import write_xmark_file
from repro.xmark.queries import composition_pairs
from repro.xmltree import parse_file

FACTOR = smoke_factor(0.02)

PAIRS = {f"{t}-{u}": (tq, uq) for t, u, tq, uq in composition_pairs()}


@pytest.fixture(scope="session")
def on_disk(tmp_path_factory):
    path = tmp_path_factory.mktemp("streaming") / "xmark.xml"
    write_xmark_file(str(path), FACTOR, seed=DATASET_SEED)
    return str(path)


@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_streaming_pipeline(benchmark, on_disk, pair_id):
    transform_query, user_query = PAIRS[pair_id]
    benchmark.group = f"streaming-{pair_id}"

    def run():
        return list(stream_compose_file(on_disk, user_query, transform_query))

    benchmark.pedantic(run, rounds=smoke_rounds(2, 1), iterations=1)


@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_tree_composed(benchmark, on_disk, pair_id):
    transform_query, user_query = PAIRS[pair_id]
    benchmark.group = f"streaming-{pair_id}"
    composed = compose(user_query, transform_query)

    def run():
        tree = parse_file(on_disk)
        return evaluate_composed(tree, composed)

    benchmark.pedantic(run, rounds=smoke_rounds(2, 1), iterations=1)


@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_tree_naive(benchmark, on_disk, pair_id):
    transform_query, user_query = PAIRS[pair_id]
    benchmark.group = f"streaming-{pair_id}"

    def run():
        tree = parse_file(on_disk)
        return naive_compose(tree, user_query, transform_query)

    benchmark.pedantic(run, rounds=smoke_rounds(2, 1), iterations=1)
