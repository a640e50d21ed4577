"""How a strategy is chosen: one rule, three outcomes.

The paper's experiments (Figs. 12-14) say something simple, and
:func:`choose_strategy` says the same thing:

1. a *file* of :data:`STREAM_THRESHOLD_BYTES` or more → ``stream``
   (twoPassSAX file-to-file: memory bounded by document depth, Fig. 14);
2. a query whose *shape nests* — a descendant step inside a qualifier
   on a step a ``//`` gap can reach, so candidates contain each other
   and topDown's native checks re-walk the same subtrees — on an input
   whose *mean depth* exceeds :data:`DEEP_MEAN_DEPTH` → ``twopass``
   (TD-BU annotates every qualifier once, bottom-up);
3. everything else → ``topdown`` (GENTOP, the cheapest single pass).

``naive``, ``copy`` (GalaXUpdate) and ``sax`` over a resident tree are
the paper's baselines and stay forceable via ``method=`` — as Fig-12/13
subjects and as oracles — but are never chosen: on this repository's
Fig-12 run ``topdown`` wins or ties all 20 transforms against every one
of them.  Mean depth is measured only when the shape test (2) passed,
so planning a qualifier-free or child-only-qualifier query does no
per-input work at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from repro.engine.executor import PAPER_NAMES
from repro.engine.features import QueryFeatures

#: Files at or above this size stream file-to-file (bounded memory)
#: instead of being parsed into a resident tree first.
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
    """The rule's decision for one (query, input) pair."""

    strategy: str                      #: chosen strategy name
    reasons: tuple[str, ...] = ()      #: human-readable justification
    #: what the rule looked at (query shape, file size, mean depth) —
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


def choose_strategy(
    features: QueryFeatures,
    file_bytes: Optional[int] = None,
    mean_depth: Optional[Callable[[], float]] = None,
) -> Plan:
    """The strategy for one query on one input (see the module docstring).

    Pure: the input is described by what the caller can observe about
    it — *file_bytes* when it is a file on disk, and *mean_depth*, a
    thunk measuring the resident (or parsed) document, which is called
    only when the query's shape nests.  With neither, the plan is the
    one for a hypothetical shallow input.
    """
    facts: dict[str, Fact] = {"query": features.summary()}
    if file_bytes is not None:
        facts["file_bytes"] = file_bytes
        if file_bytes >= STREAM_THRESHOLD_BYTES:
            return Plan(
                "stream",
                (
                    f"the file is at or above the {STREAM_THRESHOLD_BYTES}-byte "
                    "stream threshold: streaming keeps memory bounded by "
                    "document depth (callers that require a full result tree "
                    "still materialize the output)",
                ),
                facts,
            )
    facts["shape_nests"] = features.nests
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
                "single pass; pass a document to see which side it falls on",
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
