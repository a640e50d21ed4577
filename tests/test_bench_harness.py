"""Smoke tests for the shared benchmark helpers in ``benchmarks/harness.py``
(tiny sizes — these verify wiring and output shape, not performance)."""

import os
import sys

import pytest

from repro.xmltree import serialize


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    )
    try:
        import harness
    finally:
        sys.path.pop(0)
    return harness


class TestHarness:
    def test_dataset_cached(self, harness):
        first = harness.dataset(0.001, seed=5)
        second = harness.dataset(0.001, seed=5)
        assert first is second
        other = harness.dataset(0.001, seed=6)
        assert other is not first
        assert serialize(other) != serialize(first)

    def test_time_call_returns_positive(self, harness):
        assert harness.time_call(sum, [1, 2, 3], repeat=2) >= 0

    def test_format_table_alignment(self, harness):
        table = harness.format_table(
            "t", ["a", "bb"], [["x", 1.0], ["yyyy", 2.5]]
        )
        lines = table.splitlines()
        assert lines[0] == "t"
        assert "1.0000" in table and "yyyy" in table
        assert lines[1].rstrip() == "a     bb"
        assert lines[2] == "----  ------"
