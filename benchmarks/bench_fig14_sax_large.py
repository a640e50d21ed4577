"""Fig. 14 — twoPassSAX on large on-disk documents.

Paper shape to reproduce: linear time in file size with small,
size-independent memory (the paper reports <5MB regardless of input).
This suite times two sizes per query; the memory half of the claim is
the tier-1 test ``tests/test_sax_twopass.py::TestFileInterface::
test_peak_heap_does_not_grow_with_the_file`` (traced peak under 1MB
and flat across a 4x larger file).
"""

import pytest

from harness import DATASET_SEED, smoke_factor
from repro.transform.sax_twopass import transform_sax_file
from repro.xmark.generator import write_xmark_file
from repro.xmark.queries import insert_transform

FACTORS = sorted({smoke_factor(f) for f in (0.05, 0.1)})
QUERIES = ["U2", "U7"]

_files: dict = {}


@pytest.fixture(scope="session")
def xmark_file(tmp_path_factory):
    def get(factor: float) -> str:
        if factor not in _files:
            path = tmp_path_factory.mktemp("fig14") / f"xmark-{factor}.xml"
            write_xmark_file(str(path), factor, seed=DATASET_SEED)
            _files[factor] = str(path)
        return _files[factor]

    return get


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("uid", QUERIES)
def test_fig14(benchmark, tmp_path, xmark_file, uid, factor):
    in_path = xmark_file(factor)
    out_path = str(tmp_path / "out.xml")
    query = insert_transform(uid)
    benchmark.group = f"fig14-{uid}"
    benchmark.pedantic(
        transform_sax_file, args=(in_path, query, out_path), rounds=1, iterations=1
    )
