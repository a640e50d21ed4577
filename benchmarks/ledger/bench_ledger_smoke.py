"""Smoke test of the ledger command (collected by ``pytest benchmarks``,
which CI's ``bench-smoke`` job runs on every push).

Runs ``run.py --smoke`` — tiny document, ≤ 50 ops, one round — for
both trace modes and checks the output contract: the last line is one
JSON object with exactly the metrics ``BENCHMARK.json`` names, every
answer, durability and gate check passed, and a checkout without
``src/`` makes the command fail instead of printing numbers.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_ledger(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "ledger", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_the_output_contract(workload, trace):
    done = run_ledger("--smoke", "--workload", workload, "--seed", "7",
                      "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_counts():
    """Exact-count layer metrics repeat under a fixed seed."""
    runs = [
        json.loads(run_ledger("--smoke", "--workload", "serve_write", "--seed", "3",
                              "--trace", "1").stdout.splitlines()[-1])["metrics"]
        for _ in range(2)
    ]
    for name in ("automata.scan.nodes_visited", "store.wal.fsyncs_per_commit",
                 "service.protocol.response_bytes", "store.wal.bytes_per_commit"):
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_ledger("--workload", "serve_hot", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
