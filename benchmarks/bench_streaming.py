"""Streaming composition (beyond the paper — its future-work item 3).

Compares three ways to answer Q(Qt(T)) on an on-disk document, each
through a prepared composition's queries:

* naive: ``run_naive(path)`` — parse the file into a tree, transform
  it fully, run Q;
* composed: ``run_file(path)`` — read the file into columns and run the
  Compose Method's output on them;
* streaming: ``stream_compose`` over the file's SAX events — never
  build a document: two-pass transform events feed the streaming
  selector (`repro.streaming`).

Expected: the streaming pipeline loses on wall-clock at these sizes
(event processing in Python is slower than columnar work) but is the
only one whose memory does not grow with the file — the same trade-off
as Fig. 12 vs Fig. 14 for the plain transform.
"""

import pytest

from harness import DATASET_SEED, smoke_factor, smoke_rounds
from repro import Engine
from repro.streaming import stream_compose
from repro.xmark.generator import write_xmark_file
from repro.xmark.queries import composition_pairs
from repro.xmltree.sax import iter_sax_file

FACTOR = smoke_factor(0.02)

PAIRS = {f"{t}-{u}": (tq, uq) for t, u, tq, uq in composition_pairs()}


@pytest.fixture(scope="session")
def on_disk(tmp_path_factory):
    path = tmp_path_factory.mktemp("streaming") / "xmark.xml"
    write_xmark_file(str(path), FACTOR, seed=DATASET_SEED)
    return str(path)


def _prepared(pair_id):
    transform_query, user_query = PAIRS[pair_id]
    return Engine().prepare_composed(str(user_query), transform_query)


@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_streaming_pipeline(benchmark, on_disk, pair_id):
    prepared = _prepared(pair_id)
    benchmark.group = f"streaming-{pair_id}"
    user, transform = prepared.user.query, prepared.transform.query

    def run():
        return list(stream_compose(lambda: iter_sax_file(on_disk), user, transform))

    benchmark.pedantic(run, rounds=smoke_rounds(2, 1), iterations=1)


@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_columns_composed(benchmark, on_disk, pair_id):
    prepared = _prepared(pair_id)
    benchmark.group = f"streaming-{pair_id}"

    def run():
        return list(prepared.run_file(on_disk))

    benchmark.pedantic(run, rounds=smoke_rounds(2, 1), iterations=1)


@pytest.mark.parametrize("pair_id", sorted(PAIRS))
def test_tree_naive(benchmark, on_disk, pair_id):
    prepared = _prepared(pair_id)
    benchmark.group = f"streaming-{pair_id}"

    def run():
        return prepared.run_naive(on_disk)

    benchmark.pedantic(run, rounds=smoke_rounds(2, 1), iterations=1)
