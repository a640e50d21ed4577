"""What a commit changed, and the rules that decide what it leaves of
the caches.

A commit (:func:`repro.store.commit.plan_commit`) runs the one select +
splice kernel (:func:`repro.transform.arena.transform_arena` — O(delta)
work instead of O(document)) per staged entry; it is the only way a
commit derives the next version.  :class:`CommitDelta` is the commit's
receipt.

The kernel reports what each step changed (see
:class:`~repro.transform.arena.ArenaStep`): the labels of the nodes
that appeared, disappeared or were renamed, the kept nodes that
serialize differently, and the patches that moved the rest.
Delta-scoped invalidation is one pure rule over those,
:func:`rekey_verdict`: a cached answer that knows where its items sit
is **kept**, **patched** or **dropped** by position; one that does not
(and every answer over a view stack) by the delta label set alone
(:func:`query_labels` / :func:`transform_labels` — ``None`` means
"unanalyzable, assume affected"), or by :func:`ranges_swallowed_by`.

Every staged update splices: its path was compiled when it was staged
(a path the selecting automaton refuses never reaches a commit), the
automaton never matches the root, and a splice costs what the delta
changed, however much of the document that is.
:func:`apply_entries_rebuilt` — thaw, apply every update to the private
copy, freeze: the paper's "copy, then update" — is the reference the
splice property tests and ``bench_commit.py`` compare against; nothing
in the store calls it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, FrozenSet, List, Mapping, Optional, Sequence, Set, cast,
)

from repro.automata.arena_run import select_indices
from repro.transform.arena import PatchRange, topmost
from repro.updates.apply import apply_update
from repro.xmltree.arena import FrozenDocument, carry_indices, freeze, thaw
from repro.xmltree.node import Element
from repro.xpath.ast import (
    AndQual,
    CmpQual,
    LabelQual,
    NotQual,
    OrQual,
    Path,
    PathQual,
    TrueQual,
)
from repro.xquery import ast as xq

if TYPE_CHECKING:
    from repro.transform.arena import ArenaStep

__all__ = [
    "CommitDelta",
    "DROP_REASONS",
    "apply_entries_rebuilt",
    "query_labels",
    "ranges_swallowed_by",
    "rekey_verdict",
    "transform_labels",
]

#: Why a commit dropped a result-cache entry — the head (before any
#: ``:detail``) of the reasons :func:`rekey_verdict` and
#: ``CommitPlan.decide`` give (``CommitDelta.drop_reasons``,
#: ``store.commit.drop_reason.*``).
DROP_REASONS = (
    "staged", "stack-changed", "unanalyzable", "label", "removed-item",
    "wide-patch", "late-publisher", "view-labels",
)


@dataclass(frozen=True)
class CommitDelta:
    """The receipt of one commit: what changed, and what the
    delta-scoped invalidation managed to keep.

    ``labels`` is the conservative delta label set (every element
    label inside a touched range, introduced by a segment, or on an
    attach point's ancestor chain); ``None`` for a no-op commit.  Of
    the cached answers under the affected names, ``results_kept``
    moved to the new arena as they were, ``results_patched`` moved
    with the items a patch landed in re-serialized, and
    ``results_dropped`` went — for the reasons ``drop_reasons`` counts
    (:data:`DROP_REASONS`, with the overlapping labels after
    ``label:``).  ``entries == 0`` marks a no-op commit: nothing was
    staged, the version did not move, no cache was touched; every
    other commit spliced.  What ``ViewStore.commit_delta`` returns and
    the ``store.commit.delta.*`` metrics and the service's
    ``memo_retained`` counter consume.
    """

    doc_name: str
    old_version: int
    new_version: int
    old_uid: int
    new_uid: int
    entries: int
    patches: int = 0
    touched_nodes: int = 0
    labels: Optional[FrozenSet[str]] = None
    results_kept: int = 0
    results_patched: int = 0
    results_dropped: int = 0
    drop_reasons: Mapping[str, int] = field(default_factory=dict)
    mats_kept: int = 0
    mats_dropped: int = 0


def apply_entries_rebuilt(
    base_arena: FrozenDocument, entries: List[Any]
) -> FrozenDocument:
    """Apply staged entries the O(document) way — thaw *base_arena*
    into a private Node tree, run each update over it in staging order,
    freeze the result — and return the arena: the reference a commit's
    ``plan_commit(...).arena`` is tested and benchmarked against."""
    root = cast(Element, thaw(base_arena))
    for entry in entries:
        apply_update(root, entry.transform.update)
    return freeze(root, base_arena.symbols)


# ----------------------------------------------------------------------
# Label analysis: which labels can a query's answer depend on?
# ----------------------------------------------------------------------


def _path_labels(path: Path, labels: Set[str]) -> bool:
    """Collect the element labels a path mentions; ``False`` when the
    path is unanalyzable (a wildcard step can match anything)."""
    for at, step in enumerate(path.steps):
        if step.kind == "label":
            labels.add(step.name)
        elif step.kind == "wildcard":
            return False
        elif step.kind == "dos" and (
            at + 1 == len(path.steps) or path.steps[at + 1].kind != "label"
        ):
            # ``p//.`` / ``p//@a``: every descendant, whatever its label.
            return False
        # a dos before a label, and self/attr steps, constrain no
        # element label themselves.
        for qual in step.quals:
            if not _qual_labels(qual, labels):
                return False
    return True


def _qual_labels(qual: Any, labels: Set[str]) -> bool:
    if isinstance(qual, TrueQual):
        return True
    if isinstance(qual, PathQual):
        return _path_labels(qual.path, labels)
    if isinstance(qual, CmpQual):
        return _path_labels(qual.path, labels)
    if isinstance(qual, LabelQual):
        labels.add(qual.label)
        return True
    if isinstance(qual, (AndQual, OrQual)):
        return _qual_labels(qual.left, labels) and _qual_labels(qual.right, labels)
    if isinstance(qual, NotQual):
        return _qual_labels(qual.operand, labels)
    return False


def _expr_labels(expr: Any, labels: Set[str]) -> bool:
    if isinstance(expr, xq.PathFrom):
        return _path_labels(expr.path, labels)
    if isinstance(expr, (xq.VarRef, xq.Literal, xq.EmptySeq, xq.ConstTree)):
        return True
    if isinstance(expr, xq.Sequence):
        return all(_expr_labels(part, labels) for part in expr.parts)
    if isinstance(expr, xq.ElementTemplate):
        return all(_expr_labels(part, labels) for part in expr.parts)
    if isinstance(expr, xq.For):
        return _expr_labels(expr.source, labels) and _expr_labels(expr.body, labels)
    if isinstance(expr, xq.Let):
        return _expr_labels(expr.value, labels) and _expr_labels(expr.body, labels)
    if isinstance(expr, xq.Conditional):
        return (
            _bool_labels(expr.cond, labels)
            and _expr_labels(expr.then, labels)
            and _expr_labels(expr.orelse, labels)
        )
    return False  # TransformedSubtree and anything unknown


def _bool_labels(expr: Any, labels: Set[str]) -> bool:
    if isinstance(expr, xq.BoolConst):
        return True
    if isinstance(expr, xq.Exists):
        return _expr_labels(expr.expr, labels)
    if isinstance(expr, xq.Compare):
        return _expr_labels(expr.left, labels) and _expr_labels(expr.right, labels)
    if isinstance(expr, (xq.BoolAnd, xq.BoolOr)):
        return _bool_labels(expr.left, labels) and _bool_labels(expr.right, labels)
    if isinstance(expr, xq.BoolNot):
        return _bool_labels(expr.operand, labels)
    if isinstance(expr, xq.QualCheck):
        return _qual_labels(expr.qual, labels)
    return False


def query_labels(user_query: Any) -> Optional[FrozenSet[str]]:
    """Every element label a node must carry for the user query to
    match it — at a step, in a qualifier, in the ``where`` or the
    ``return`` — or ``None`` when some part of the query matches nodes
    whatever their label (a wildcard, a ``//`` no label follows, an
    unknown expression).

    Soundness against a delta label set (``ArenaStep.labels``): a
    committed delta can change this query's answer only by changing a
    node whose label — or one of whose ancestors' labels, all of which
    the delta set includes via the attach chains — the query mentions.
    Disjoint sets therefore prove the cached answer (including the
    subtrees it serialized, any patch inside which has an ancestor
    chain in the delta set) is still exact.  Against ``changed`` alone
    they prove less — the same nodes match — which is what
    :func:`rekey_verdict` starts from.
    """
    labels: Set[str] = set()
    if _expr_labels(user_query.core(), labels):
        return frozenset(labels)
    return None


def transform_labels(transform: Any) -> Optional[FrozenSet[str]]:
    """Every element label that decides *where* a transform applies,
    plus any label it introduces; ``None`` when unanalyzable."""
    labels: Set[str] = set()
    if not _path_labels(transform.path, labels):
        return None
    update = transform.update
    if update.kind == "rename":
        labels.add(update.new_label)
    elif update.kind in ("insert", "replace"):
        stack = [update.content]
        while stack:
            node = stack.pop()
            if node.is_text:
                continue
            labels.add(node.label)
            stack.extend(node.children)
    return frozenset(labels)


# ----------------------------------------------------------------------
# The re-key rule: keep, patch or drop one cached answer
# ----------------------------------------------------------------------


# hot-path
def _on_chain(refs: "array[int]", chain: FrozenSet[int], dirty: Set[int]) -> None:
    """Add to *dirty* the positions ``k`` with ``refs[k]`` in *chain*,
    from the smaller side."""
    if len(chain) <= len(refs):
        for c in chain:
            k = bisect_left(refs, c)
            while k < len(refs) and refs[k] == c:
                dirty.add(k)
                k += 1
    else:
        for k, ref in enumerate(refs):
            if ref in chain:
                dirty.add(k)


# hot-path
def rekey_verdict(
    needed: Optional[FrozenSet[str]],
    refs: "Optional[array[int]]",
    steps: Sequence[ArenaStep],
) -> tuple:
    """The one rule deciding what a spliced commit — *steps*, one per
    staged entry, in order — leaves of one cached answer over the
    committed document: *needed* is :func:`query_labels` of its query,
    *refs* where its items sit in the arena the first step was handed
    (``Answer.refs``).

    Returns ``(verdict, reason, refs, dirty)``:

    * ``"keep"`` — the answer is exact as it is (strings and wire
      bytes); *refs* is where its items sit in the last step's arena;
    * ``"patch"`` — the same nodes answer, and exactly the items at
      positions *dirty* serialize differently;
    * ``"drop"`` — nothing is proven, for *reason*: ``unanalyzable``
      (*needed* is ``None``), ``label:<overlap>`` (the query names a
      label a step changed), ``removed-item`` (an item lies inside a
      removed range) or ``wide-patch`` (more than half the items
      contain a patch: re-evaluating costs the reader the same, and
      the writer should not pay it).

    Why it is sound.  Updates select and insert *elements* only, so a
    kept node's own text and attributes — the values qualifiers
    compare — never change.  With ``step.changed`` disjoint from
    *needed*, no node the query's label steps or qualifiers can match
    was added, removed or relabelled (every step and qualifier leaf
    names its label — :func:`query_labels` returns ``None``
    otherwise), and a ``//`` step that passed *through* a removed node
    has every node below it removed too, their labels in ``changed``:
    the match set is the same nodes, at the positions
    :func:`~repro.xmltree.arena.carry_indices` moves them to, in the
    same order.  What is left is serialization, which changes exactly
    for the items that contain a patch — the refs on ``step.chain``.
    The removed-item test only backs this up (an item inside a removed
    range has its label in ``changed`` unless the query reached it by
    no label at all).  With no *refs* — a constructed item, a literal
    — positions are unknown and the answer is held to the whole delta
    label set, ``step.labels``, as an answer over a view stack is.

    Pure; costs the smaller of the patch list and the item list per
    step, set intersections first.
    """
    if needed is None:
        return "drop", "unanalyzable", None, None
    dirty: Set[int] = set()
    for step in steps:
        overlap = needed & (step.labels if refs is None else step.changed)
        if overlap:
            return "drop", "label:" + ",".join(sorted(overlap)), None, None
        if refs is None:
            continue
        _on_chain(refs, step.chain, dirty)
        if step.patches is not None:
            carried = carry_indices(refs, step.patches, step.cum)
            if len(carried) != len(refs):
                return "drop", "removed-item", None, None
            refs = carried
    if refs is None or not dirty:
        return "keep", "", refs, None
    if 2 * len(dirty) > len(refs):
        return "drop", "wide-patch", None, None
    return "patch", "", refs, dirty


# ----------------------------------------------------------------------
# The materialization swallow test
# ----------------------------------------------------------------------


def _qualifier_free(path: Path) -> bool:
    return all(
        all(isinstance(q, TrueQual) for q in step.quals) for step in path.steps
    )


def ranges_swallowed_by(
    transform: Any, base_arena: FrozenDocument, ranges: List[PatchRange], compiled: Any
) -> bool:
    """Is every patched range invisible through *transform*'s output?

    True when the transform deletes (or replaces, with constant
    content) a set of subtrees that swallow every patch.  Restricted to
    **qualifier-free** paths: with label-only matching, a patch strictly
    inside a matched subtree cannot flip any node's match status (label
    chains outside the patch are unchanged), so the transform's output
    over the new version is byte-identical — the materialization and
    every cached result over it survive the commit.  Rename patches
    must fall strictly inside a match (renaming the match root itself
    changes its label chain); inserts may attach to the match root.
    Deleting a match root is swallowed by a deleting transform only: a
    replacing one would have put its content where the root was.
    """
    update = transform.update
    if update.kind not in ("delete", "replace"):
        return False
    if not _qualifier_free(update.path):
        return False
    # A view's path compiled when it was defined (``define_view``).
    matches = select_indices(compiled.selecting_nfa_for(update.path), base_arena)
    size = base_arena.size
    top = topmost(matches, size)
    if not top:
        return False
    for kind, start, stop, attach in ranges:
        anchor = attach if stop == start else start
        i = bisect_right(top, anchor) - 1
        if i < 0:
            return False
        m = top[i]
        limit = m + size[m]
        if anchor >= limit or stop > limit:
            return False
        if start == m and (kind in ("rename", "replace") or update.kind == "replace"):
            return False
    return True
