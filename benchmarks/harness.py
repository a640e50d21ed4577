"""Shared machinery for the ``bench_*.py`` suites (``from harness import …``).

Two cross-cutting policies every benchmark routes through:

* **Explicit seeds** — all XMark generation in ``benchmarks/`` passes
  :data:`DATASET_SEED` explicitly, so perf numbers are run-to-run
  comparable (same bytes, same tree shape, same match counts).
* **Smoke mode** — with ``REPRO_BENCH_SMOKE=1`` in the environment,
  :func:`smoke_factor` caps document sizes and :func:`smoke_rounds`
  caps repetition counts, and the acceptance-bar assertions in the
  benchmark suites are relaxed.  CI runs the whole ``benchmarks/``
  directory this way on every push: the perf-path code is executed end
  to end (so it cannot silently rot) without paying benchmark time.

The import resolves under pytest (``benchmarks/`` has no
``__init__.py``, so pytest's default import mode puts it on
``sys.path``) and from a script run as ``python benchmarks/bench_dfa.py``
(the script's directory is ``sys.path[0]``).
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, Optional

from repro.xmark.generator import generate
from repro.xmltree.node import Element

#: True when the benchmarks should run tiny (see module docstring).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: The seed all benchmark document generation passes explicitly.
DATASET_SEED = 42


def smoke_factor(factor: float, cap: float = 0.002) -> float:
    """Cap an XMark factor in smoke mode; identity otherwise."""
    return min(factor, cap) if SMOKE else factor


def smoke_rounds(rounds: int, cap: int = 2) -> int:
    """Cap a repetition count in smoke mode; identity otherwise."""
    return min(rounds, cap) if SMOKE else rounds


_dataset_cache: dict[tuple, Element] = {}


def dataset(factor: float, seed: int = 42) -> Element:
    """A cached XMark-shaped document at the given factor."""
    key = (factor, seed)
    if key not in _dataset_cache:
        _dataset_cache[key] = generate(factor, seed)
    return _dataset_cache[key]


def time_call(fn: Callable, *args, repeat: int = 3, **kwargs) -> float:
    """Best-of-*repeat* wall-clock seconds for ``fn(*args, **kwargs)``.

    Best-of matches how short benchmark runs are usually reported: it
    suppresses scheduler noise without averaging in warm-up effects.
    """
    best: Optional[float] = None
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def format_table(title: str, headers: list, rows: list) -> str:
    """Render an aligned text table (the benchmarks' printed output)."""
    widths = [len(h) for h in headers]
    text_rows = []
    for row in rows:
        cells = [cell if isinstance(cell, str) else f"{cell:.4f}" for cell in row]
        text_rows.append(cells)
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in text_rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)))
    return "\n".join(lines)
