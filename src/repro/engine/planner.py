"""How a strategy is chosen: one rule for trees, and a file's route by
its size.

The paper's experiments (Figs. 12-14) say something simple, and
:func:`choose_strategy` says the same thing for a resident tree:

1. a query whose *shape nests* — a descendant step inside a qualifier
   on a step a ``//`` gap can reach, so candidates contain each other
   and topDown's native checks re-walk the same subtrees — on a tree
   whose *mean depth* exceeds :data:`DEEP_MEAN_DEPTH` → ``twopass``
   (TD-BU annotates every qualifier once, bottom-up);
2. everything else → ``topdown`` (GENTOP, the cheapest single pass).

A *file* written to a file is not planned: :func:`file_streams` reads
its size alone.  At or above :data:`STREAM_THRESHOLD_BYTES` it streams
(twoPassSAX file to file: memory bounded by document depth, Fig. 14);
below it, it is read into columns and transformed by the arena kernel,
which has no strategy to choose, at any depth.

``naive``, ``copy`` (GalaXUpdate) and ``sax`` over a resident tree are
the paper's baselines and stay forceable via ``method=`` — as Fig-12/13
subjects and as oracles — but are never chosen: on this repository's
Fig-12 run ``topdown`` wins or ties all 20 transforms against every one
of them.  Mean depth is measured only when the shape test (1) passed,
so planning a qualifier-free or child-only-qualifier query does no
per-input work at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from repro.engine.executor import PAPER_NAMES
from repro.engine.features import QueryFeatures

#: Files at or above this size stream file to file (memory bounded by
#: document depth); a smaller file is held as columns.  The value was
#: set when a smaller file became a Node tree, whose tracemalloc peak
#: is about 11x the file.  Columns peak at about 4.5x (parse, kernel
#: and serializer together): 39 MB on an 8.7 MB XMark file, where the
#: tree peaked at 95 MB.  The value stands; CHANGES.md's 1.28.0 entry
#: has the timings and peaks on both sides of it.
STREAM_THRESHOLD_BYTES = 8 * 1024 * 1024

#: Mean node depth above which a nesting shape takes ``twopass``.  Read
#: off the crossover table ``benchmarks/bench_engine.py`` prints (its
#: deep-matrix test; CHANGES.md PR 17 records a run): on chains of
#: depth 5-400 the two trade places at mean depth 8-12 with fan-out 0
#: and 17-27 with fan-out 3; twopass is 1.1-4.7x faster by 27 and
#: 7-35x by 202.  Set inside that band, toward its early side, because
#: a wrong ``twopass`` costs a bounded 2-4x and a wrong ``topdown``
#: grows with depth without bound.
DEEP_MEAN_DEPTH = 16.0

Fact = Union[str, int, float, bool]


@dataclass(frozen=True)
class Plan:
    """The rule's decision for one (query, tree) pair."""

    strategy: str                      #: chosen strategy name
    reasons: tuple[str, ...] = ()      #: human-readable justification
    #: what the rule looked at (query shape, mean depth) —
    #: only what it actually consulted, in the order it consulted it
    facts: Mapping[str, Fact] = field(default_factory=dict)

    @property
    def paper_name(self) -> str:
        return PAPER_NAMES.get(self.strategy, self.strategy)

    def describe(self) -> str:
        lines = [f"strategy: {self.strategy} ({self.paper_name})"]
        for name, value in self.facts.items():
            shown = f"{value:.1f}" if isinstance(value, float) else str(value)
            lines.append(f"{name.replace('_', ' ')}: {shown}")
        lines.extend(f"because: {reason}" for reason in self.reasons)
        return "\n".join(lines)


def file_streams(path: Union[str, "os.PathLike[str]"]) -> bool:
    """Does a file stream?  Decided by its size alone (its content is
    not read): at or above :data:`STREAM_THRESHOLD_BYTES` it does, and
    below it the file is read into columns."""
    return os.path.getsize(path) >= STREAM_THRESHOLD_BYTES


def describe_file_route(path: Union[str, "os.PathLike[str]"]) -> str:
    """A file's route as ``explain`` prints it, and the size that set it."""
    size = os.path.getsize(path)
    if size >= STREAM_THRESHOLD_BYTES:
        how, side = "twoPassSAX, file to file (memory bounded by document depth)", "at or above"
    else:
        how = (
            "read into columns, then the select + splice kernel and the "
            "columnar serializer (no Node tree; no strategy to choose)"
        )
        side = "below"
    return (
        f"evaluation: {how}\n"
        f"because: the file ({size} bytes) is {side} the "
        f"{STREAM_THRESHOLD_BYTES}-byte stream threshold"
    )


def choose_strategy(
    features: QueryFeatures,
    mean_depth: Optional[Callable[[], float]] = None,
) -> Plan:
    """The strategy for one query on one tree (see the module docstring).

    Pure: the tree is described by *mean_depth*, a thunk measuring it,
    which is called only when the query's shape nests.  Without it, the
    plan is the one for a hypothetical shallow tree.
    """
    facts: dict[str, Fact] = {
        "query": features.summary(), "shape_nests": features.nests
    }
    if not features.nests:
        return Plan(
            "topdown",
            (
                "no qualifiers: a single NFA-pruned pass is optimal"
                if features.quals == 0
                else "no descendant qualifier sits on a step a // gap can "
                "reach, so candidates are checked natively in linear total "
                "time; a second full pass would cost more",
            ),
            facts,
        )
    if mean_depth is None:
        return Plan(
            "topdown",
            (
                "the shape nests, but there is no input to measure: shallow "
                f"documents (mean depth <= {DEEP_MEAN_DEPTH:g}) take the "
                "single pass; pass a tree to see which side it falls on",
            ),
            facts,
        )
    depth = facts["mean_depth"] = mean_depth()
    if depth > DEEP_MEAN_DEPTH:
        return Plan(
            "twopass",
            (
                "descendant qualifiers on nested candidates in a deep "
                f"document (mean depth > {DEEP_MEAN_DEPTH:g}): annotating "
                "every qualifier once (bottomUp) beats re-walking each "
                "candidate's subtree natively",
            ),
            facts,
        )
    return Plan(
        "topdown",
        (
            f"the shape nests but the document is shallow (mean depth <= "
            f"{DEEP_MEAN_DEPTH:g}): native subtree walks stay cheaper than a "
            "second full pass",
        ),
        facts,
    )
