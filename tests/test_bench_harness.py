"""Smoke tests for the benchmark harness and figure drivers (tiny
factors — these verify wiring and result structure, not performance)."""

import pytest

from repro.bench.harness import (
    METHOD_ORDER,
    METHODS,
    clear_datasets,
    dataset,
    dataset_stats,
    format_table,
    time_call,
)
from repro.bench import figures
from repro.xmark.queries import QUERY_IDS


class TestHarness:
    def test_method_registry_derives_from_the_strategy_table(self):
        """One table (repro.transform.STRATEGIES) feeds the engine's
        strategy names, the Fig-12 legend and the CLI's --method."""
        from repro.cli import TREE_METHODS
        from repro.engine import PAPER_NAMES, TREE_STRATEGIES
        from repro.transform import STRATEGIES

        assert TREE_STRATEGIES == tuple(STRATEGIES)
        assert METHOD_ORDER == [PAPER_NAMES[name] for name in TREE_STRATEGIES]
        assert METHODS == {paper: fn for paper, fn in STRATEGIES.values()}
        assert set(TREE_METHODS) | {"sax"} == set(TREE_STRATEGIES)
        assert sorted(METHOD_ORDER) == sorted(
            ["GalaXUpdate", "NAIVE", "TD-BU", "GENTOP", "twoPassSAX"]
        )

    def test_dataset_cached(self):
        clear_datasets()
        first = dataset(0.001, seed=5)
        second = dataset(0.001, seed=5)
        assert first is second
        clear_datasets()

    def test_dataset_stats(self):
        stats = dataset_stats(0.001, seed=5)
        assert stats["persons"] >= 12
        assert stats["elements"] > 100

    def test_time_call_returns_positive(self):
        assert time_call(sum, [1, 2, 3], repeat=2) >= 0

    def test_format_table_alignment(self):
        table = format_table("t", ["a", "bb"], [["x", 1.0], ["yyyy", 2.5]])
        lines = table.splitlines()
        assert lines[0] == "t"
        assert "1.0000" in table and "yyyy" in table


class TestFigureDrivers:
    def test_fig12_structure(self):
        results = figures.fig12(factor=0.001, repeat=1)
        assert set(results["times"]) == set(QUERY_IDS)
        for uid in QUERY_IDS:
            assert set(results["times"][uid]) == set(METHOD_ORDER)
            assert all(v > 0 for v in results["times"][uid].values())

    def test_fig13_structure(self):
        results = figures.fig13(factors=[0.001, 0.002], queries=["U2"], repeat=1)
        series = results["times"]["U2"]
        assert all(len(times) == 2 for times in series.values())

    def test_fig14_structure(self, tmp_path):
        results = figures.fig14(
            factors=[0.01], queries=["U2"], workdir=str(tmp_path)
        )
        assert results["sizes"][0.01] > 0
        assert results["times"][0.01]["U2"] > 0
        assert results["memory"][0.01] < 50  # MB — flat, small heap

    def test_fig15_structure(self):
        results = figures.fig15(factors=[0.001], repeat=1)
        assert len(results["times"]) == 4
        for series in results["times"].values():
            assert "Naive Composition" in series and "Compose" in series

    def test_main_rejects_unknown_figure(self):
        assert figures.main(["nope"]) == 2
