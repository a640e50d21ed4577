"""What the strategy rule looks at: a query's static shape and an
input's mean depth.

* :class:`QueryFeatures` — static shape of a transform query's embedded
  ``X`` expression, computed once per prepared query.  The one bit the
  rule consults is :attr:`QueryFeatures.nests`; the counts are there so
  ``explain()`` can show what the bit was derived from.
* :func:`mean_depth` — the one per-input measurement, taken only for
  queries whose shape nests (see :mod:`repro.engine.planner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.transform.query import TransformQuery
from repro.xmltree.node import Element, Node
from repro.xpath.ast import AndQual, CmpQual, NotQual, OrQual, Path, PathQual, Qual


@dataclass(frozen=True)
class QueryFeatures:
    """Static shape summary of one transform query."""

    kind: str       #: update kind: insert | delete | replace | rename
    steps: int      #: main-path location steps, descendant gaps excluded
    dos_steps: int  #: descendant (``//``) gaps in the main path
    quals: int      #: qualifier paths attached to main-path steps (recursive)
    qual_dos: int   #: descendant gaps inside those qualifier paths (recursive)
    nests: bool     #: can native qualifier checks re-walk nested subtrees?

    def summary(self) -> str:
        return (
            f"{self.kind}, {self.steps} step(s) "
            f"({self.dos_steps} descendant), {self.quals} qualifier(s) "
            f"({self.qual_dos} descendant)"
        )


def _qual_paths(qual: Qual) -> Iterator[Path]:
    """The paths a qualifier expression tests, connectives flattened
    (``label() = l`` and ``true`` are constant-time: no path)."""
    if isinstance(qual, (AndQual, OrQual)):
        yield from _qual_paths(qual.left)
        yield from _qual_paths(qual.right)
    elif isinstance(qual, NotQual):
        yield from _qual_paths(qual.operand)
    elif isinstance(qual, (PathQual, CmpQual)):
        yield qual.path


def _inner_paths(path: Path) -> Iterator[Path]:
    """The qualifier paths attached directly to *path*'s steps."""
    for step in path.steps:
        for qual in step.quals:
            yield from _qual_paths(qual)


def _qualifiers(path: Path) -> int:
    """Qualifier paths anywhere under *path* (nested ones included)."""
    return sum(1 + _qualifiers(inner) for inner in _inner_paths(path))


def _gaps(path: Path) -> int:
    """Descendant gaps in *path* and in every qualifier nested in it."""
    own = sum(step.kind == "dos" for step in path.steps)
    return own + sum(_gaps(inner) for inner in _inner_paths(path))


def _nests(path: Path, reachable: bool) -> bool:
    """Can checking *path*'s qualifiers natively go quadratic?

    A native qualifier check with a descendant step walks the
    candidate's subtree.  That is linear in total while candidates are
    disjoint, and ``n × depth`` once they can contain each other —
    which takes a ``//`` gap at or before the qualified step
    (*reachable*: the context may already nest).  Qualifier paths are
    tested the same way, so ``a[.//b[.//c]]`` nests through its inner
    step even where ``a`` itself cannot.
    """
    for step in path.steps:
        if step.kind == "dos":
            reachable = True
        for qual in step.quals:
            for inner in _qual_paths(qual):
                if (reachable and _gaps(inner)) or _nests(inner, reachable):
                    return True
    return False


def analyze_transform(query: TransformQuery) -> QueryFeatures:
    """Summarize the shape of a transform query's embedded path."""
    path = query.path
    dos = sum(step.kind == "dos" for step in path.steps)
    return QueryFeatures(
        kind=query.update.kind,
        steps=len(path.steps) - dos,
        dos_steps=dos,
        quals=_qualifiers(path),
        qual_dos=_gaps(path) - dos,
        nests=_nests(path, False),
    )


def mean_depth(doc: Element) -> float:
    """Mean node depth of a resident tree (root at depth 1, text nodes
    counted), by one level-order walk.

    The sum of all subtree sizes is ``n × mean depth``, which is what a
    nesting qualifier's native checks cost.
    """
    count = total = depth = 0
    level: list[Node] = [doc]
    while level:
        depth += 1
        count += len(level)
        total += depth * len(level)
        level = [
            child for node in level if isinstance(node, Element) for child in node.children
        ]
    return total / count
