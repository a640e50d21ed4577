"""Query-shape and input-shape analysis for the strategy planner.

The planner's inputs are deliberately cheap summaries:

* :class:`QueryFeatures` — static shape of a transform query's embedded
  ``X`` expression: step counts by kind, qualifier counts (including
  descendant steps *inside* qualifier paths, which is what makes the
  native per-candidate qualifier evaluation of ``topDown`` expensive),
  and a crude structural selectivity estimate.  Computed once per
  prepared query.
* :class:`InputProfile` — what the input looks like *right now*: a
  resident tree (node count, estimated by a capped walk so profiling a
  huge tree costs O(cap), not O(n)) or a file on disk (byte size; node
  count extrapolated).  Computed per :meth:`Prepared.run` call.

Both are plain data; every number the cost model consumes is visible in
``explain()`` output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

from repro.transform.query import TransformQuery
from repro.xmltree.node import Element
from repro.xpath.ast import (
    AndQual,
    CmpQual,
    NotQual,
    OrQual,
    Path,
    PathQual,
    Qual,
)

#: Stop the profiling walk after this many nodes: beyond it, every
#: strategy choice is the same, so an exact count is wasted work.
PROFILE_CAP = 2048

#: Rough bytes-per-node of serialized XML (XMark averages ~45), used to
#: extrapolate a node count from a file size without parsing.
BYTES_PER_NODE = 45


# ----------------------------------------------------------------------
# Query shape
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryFeatures:
    """Static shape summary of one transform query."""

    kind: str            #: update kind: insert | delete | replace | rename
    path_text: str       #: the embedded X expression, rendered
    steps: int           #: location steps, descendant gaps excluded
    dos_steps: int       #: descendant (``//``) gaps in the main path
    label_steps: int     #: label tests in the main path
    wildcard_steps: int  #: ``*`` tests in the main path
    quals: int           #: qualifiers attached to main-path steps
    qual_steps: int      #: location steps inside qualifier paths (recursive)
    qual_dos: int        #: descendant gaps inside qualifier paths (recursive)
    selectivity: float   #: structural match-fraction estimate in (0, 1]

    @property
    def has_descendant(self) -> bool:
        return self.dos_steps > 0

    @property
    def has_descendant_qualifier(self) -> bool:
        return self.qual_dos > 0

    def summary(self) -> str:
        return (
            f"{self.kind}, {self.steps} step(s) "
            f"({self.dos_steps} descendant), {self.quals} qualifier(s) "
            f"({self.qual_dos} descendant)"
        )


#: Per-step selectivity factors for the structural estimate: a label
#: test matches a fraction of an element's children, a wildcard nearly
#: all of them, and a descendant gap widens rather than narrows.
_LABEL_SELECTIVITY = 0.25
_WILDCARD_SELECTIVITY = 0.9


def _walk_qual(qual: Qual) -> tuple[int, int, int]:
    """(qualifier count, steps inside, descendant gaps inside)."""
    if isinstance(qual, (AndQual, OrQual)):
        lq, ls, ld = _walk_qual(qual.left)
        rq, rs, rd = _walk_qual(qual.right)
        return lq + rq, ls + rs, ld + rd
    if isinstance(qual, NotQual):
        return _walk_qual(qual.operand)
    if isinstance(qual, (PathQual, CmpQual)):
        steps = dos = nested_q = 0
        for step in qual.path.steps:
            if step.kind == "dos":
                dos += 1
            else:
                steps += 1
            for nested in step.quals:
                nq, ns, nd = _walk_qual(nested)
                nested_q += nq
                steps += ns
                dos += nd
        return 1 + nested_q, steps, dos
    # LabelQual / TrueQual: a constant-time check.
    return 1, 0, 0


def analyze_path(path: Path) -> tuple[int, int, int, int, int, int, int, float]:
    steps = dos = labels = wildcards = quals = qual_steps = qual_dos = 0
    selectivity = 1.0
    for step in path.steps:
        if step.kind == "dos":
            dos += 1
        else:
            steps += 1
            if step.kind == "label":
                labels += 1
                selectivity *= _LABEL_SELECTIVITY
            elif step.kind == "wildcard":
                wildcards += 1
                selectivity *= _WILDCARD_SELECTIVITY
        for qual in step.quals:
            q, s, d = _walk_qual(qual)
            quals += q
            qual_steps += s
            qual_dos += d
    return steps, dos, labels, wildcards, quals, qual_steps, qual_dos, selectivity


def analyze_transform(query: TransformQuery) -> QueryFeatures:
    """Summarize the shape of a transform query's embedded path."""
    steps, dos, labels, wildcards, quals, qual_steps, qual_dos, sel = analyze_path(
        query.path
    )
    return QueryFeatures(
        kind=query.update.kind,
        path_text=str(query.path),
        steps=steps,
        dos_steps=dos,
        label_steps=labels,
        wildcard_steps=wildcards,
        quals=quals,
        qual_steps=qual_steps,
        qual_dos=qual_dos,
        selectivity=max(sel, 1e-6),
    )


# ----------------------------------------------------------------------
# Input shape
# ----------------------------------------------------------------------


#: Depth assumed for files (not parsed at planning time): typical
#: data-oriented XML is shallow.
DEFAULT_FILE_DEPTH = 8.0


@dataclass(frozen=True)
class InputProfile:
    """What one concrete input looks like to the planner."""

    form: str        #: "tree" (resident Element), "file" (path on disk)
                     #: or "arena" (frozen columnar document)
    nodes: int       #: node count — exact, capped, or extrapolated
    exact: bool      #: True when *nodes* is an exact count
    size_bytes: int = 0  #: file size (0 for resident trees)
    avg_depth: float = DEFAULT_FILE_DEPTH  #: mean node depth (sampled)
    elements: int = 0    #: element count (arena form only; exact)

    def summary(self) -> str:
        if self.form == "file":
            return (
                f"file, {self.size_bytes} bytes "
                f"(~{self.nodes} nodes extrapolated)"
            )
        if self.form == "arena":
            return (
                f"frozen arena, {self.nodes} nodes, "
                f"mean depth {self.avg_depth:.1f}"
            )
        prefix = "" if self.exact else "≥"
        return (
            f"resident tree, {prefix}{self.nodes} nodes, "
            f"mean depth {self.avg_depth:.1f}"
        )


def estimate_nodes(
    root: Element, cap: int = PROFILE_CAP
) -> tuple[int, bool, float]:
    """Sample the tree's size and shape: (count, exact, mean depth).

    Stops at *cap* nodes: the planner's decisions are ratios between
    per-node costs, so once a tree is known to be "at least *cap* nodes"
    the exact total cannot change the chosen strategy — and profiling
    must never cost more than the transform it is planning.  Mean node
    depth is what prices a native descendant-qualifier check (it walks
    the candidate's subtree, and the sum of all subtree sizes is
    ``n × mean depth``).
    """
    count = 0
    depth_sum = 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        count += 1
        depth_sum += depth
        if count >= cap:
            return count, False, depth_sum / count
        if node.is_element:
            stack.extend((child, depth + 1) for child in node.children)
    return count, True, depth_sum / max(1, count)


def profile_input(
    doc_or_path: Union[Element, str, os.PathLike], cap: int = PROFILE_CAP
) -> InputProfile:
    """Profile a resident tree, a frozen arena, or a file path.

    An arena profile is exact and free: the column lengths *are* the
    node count, and the mean depth is precomputed (cached) from the
    parent column — no sampling walk at all.
    """
    if isinstance(doc_or_path, Element):
        nodes, exact, avg_depth = estimate_nodes(doc_or_path, cap)
        return InputProfile(
            form="tree", nodes=nodes, exact=exact, avg_depth=avg_depth
        )
    from repro.xmltree.arena import FrozenDocument

    if isinstance(doc_or_path, FrozenDocument):
        return InputProfile(
            form="arena",
            nodes=len(doc_or_path),
            exact=True,
            avg_depth=doc_or_path.mean_depth(),
            elements=doc_or_path.n_elements,
        )
    size = os.path.getsize(doc_or_path)
    return InputProfile(
        form="file",
        nodes=max(1, size // BYTES_PER_NODE),
        exact=False,
        size_bytes=size,
    )
