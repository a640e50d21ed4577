"""A commit as one plan: the next arena, and what the caches keep of the
last, decided before anything is installed.

The paper's transform is *copy, then update*; a commit's upkeep of the
caches is likewise a function of (state, Δ).  :func:`plan_commit`
computes it from the document's arena, the staged entries and the read
targets over the document, and takes no lock, writes no WAL and
touches no registry.  ``ViewStore.commit_delta`` installs
``plan.arena``, rebases the materializations under the document lock
(:meth:`CommitPlan.rebase_materializations`) and re-keys the result
cache with :meth:`CommitPlan.decide` as the mapper, outside it.

``plan.arena`` is every entry spliced on in staging order by the one
kernel, :func:`~repro.transform.arena.transform_arena`, each with the
automaton it was staged with (``StagedUpdate.nfa``, which dies with
the entry: ≈ 12 KB of tables per distinct text is what remembering
them cost); ``steps`` says what each did, ``labels`` is the commit's
delta label set, and ``verdicts`` holds one :class:`Verdict` per read
target.  An answer over the document is decided by the one rule,
:func:`~repro.store.delta.rekey_verdict`; one over a view by labels,
or by the swallow test (:func:`~repro.store.delta.ranges_swallowed_by`),
a select over the base arena paid only for a view something is
materialized or cached over.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.compiled import CompiledCache
from repro.obs import span
from repro.store.answer import Answer, result_key
from repro.store.delta import CommitDelta, ranges_swallowed_by, rekey_verdict
from repro.store.log import StagedUpdate
from repro.store.views import View
from repro.transform.arena import ArenaStep, transform_arena
from repro.xmltree.arena import FrozenDocument

__all__ = ["CommitPlan", "Verdict", "plan_commit"]

#: The per-entry rule over the document (:func:`rekey_verdict`'s shape).
Rule = Callable[..., Tuple[Any, ...]]


class Verdict:
    """What one commit provably leaves alone of one read target over
    the committed document."""

    __slots__ = ("view", "stack", "texts", "labels", "swallowed")

    def __init__(self, stack: Sequence[View]) -> None:
        #: The target's outermost layer; ``None`` for the document.
        self.view = stack[-1] if stack else None
        #: Innermost first: ``stack[0]`` is what the swallow test asks.
        self.stack = stack
        #: The stack's source texts: the definition the verdict is about.
        self.texts = tuple(layer.transform_text for layer in stack)
        #: The labels the stack's transforms mention; ``None`` when a
        #: layer is unanalyzable.
        labels = [layer.labels for layer in stack if layer.labels is not None]
        self.labels = frozenset().union(*labels) if len(labels) == len(stack) else None
        #: Every patch falls strictly inside a subtree the innermost
        #: transform deletes/replaces, so the stack's output is
        #: byte-identical; ``None`` until :meth:`CommitPlan.swallowed`
        #: is first asked.
        self.swallowed: Optional[bool] = None


class CommitPlan:
    """The next arena, the steps that made it, and one verdict per
    read target (module docstring).  Applying it tallies what it did —
    the materializations rebased and dropped, the answers kept, patched
    and dropped by reason — into the commit's :meth:`receipt`."""

    __slots__ = (
        "base_arena", "arena", "steps", "labels", "touched_nodes", "verdicts",
        "compiled", "rule", "old_uid", "new_uid", "kept", "patched", "drop_reasons",
        "mats_kept", "mats_dropped",
    )

    def __init__(
        self,
        base_arena: FrozenDocument,
        steps: List[ArenaStep],
        views: Mapping[str, Sequence[View]],
        compiled: CompiledCache,
        rule: Rule,
    ) -> None:
        self.base_arena = base_arena
        self.arena = steps[-1].arena if steps else base_arena
        self.steps = steps
        self.labels: FrozenSet[str] = frozenset().union(*(step.labels for step in steps))
        #: A receipt figure: the nodes the entries removed or introduced.
        self.touched_nodes = sum(step.touched for step in steps)
        self.verdicts = {target: Verdict(stack) for target, stack in views.items()}
        self.compiled = compiled
        self.rule = rule
        #: The arena uids :meth:`decide` moves entries from and to: the
        #: base's, and the one the install gave ``arena`` (0, which no
        #: arena has, until the store sets them).
        self.old_uid = 0
        self.new_uid = 0
        self.kept = 0
        self.patched = 0
        self.drop_reasons: Dict[str, int] = {}
        self.mats_kept = 0
        self.mats_dropped = 0

    def receipt(self, doc_name: str, old_version: int, new_version: int) -> CommitDelta:
        """The commit's receipt, once the plan is installed and the
        result cache re-keyed by it."""
        return CommitDelta(
            doc_name, old_version, new_version, self.old_uid, self.new_uid,
            entries=len(self.steps),
            patches=sum(len(step.ranges) for step in self.steps),
            touched_nodes=self.touched_nodes,
            labels=self.labels,
            results_kept=self.kept,
            results_patched=self.patched,
            results_dropped=sum(self.drop_reasons.values()),
            drop_reasons=self.drop_reasons,
            mats_kept=self.mats_kept,
            mats_dropped=self.mats_dropped,
        )

    def swallowed(self, verdict: Verdict) -> bool:
        """Whether *verdict*'s stack swallows the whole delta — only a
        single-entry commit can tell (a later entry's positions refer
        to an intermediate arena).  Computed on first ask."""
        if verdict.swallowed is None:
            ranges = self.steps[0].ranges if len(self.steps) == 1 else []
            verdict.swallowed = bool(ranges) and ranges_swallowed_by(
                verdict.stack[0].transform, self.base_arena, ranges, self.compiled
            )
        return verdict.swallowed

    def rebase_materializations(
        self, old_version: int, new_version: int
    ) -> None:  # holds: doc.lock
        """Materializations are exact arenas, so only the swallow test
        (not label disjointness) carries one to the new version."""
        for verdict in self.verdicts.values():
            view = verdict.view
            if view is None or view.materialized_root is None:
                continue
            if view.materialized_version == old_version and self.swallowed(verdict):
                view.rebase_materialization(new_version)
                self.mats_kept += 1
            else:
                view.invalidate()
                self.mats_dropped += 1

    def decide(self, key: Tuple[Any, ...], answer: Answer) -> Optional[Tuple[Any, Answer]]:
        """``results.rekey``'s mapper: the entry *key* → *answer* as it
        goes on under ``new_uid`` — kept, or patched — or ``None`` when
        it is dropped, decided from the pair and the plan alone.

        A staged preview never survives (its staging area was just
        consumed), nor does an entry keyed on a stack that is no longer
        the target's definition, nor what a late publisher left on a
        dead arena.  What an early reader of the new arena already
        published is left as it is, unless an entry carried forward
        takes its key.  Its only writes are the tallies and a kept
        answer's ``refs``, moved to where its items sit now."""
        target, uid, query_text, stack_texts, staged_texts = key
        verdict = self.verdicts[target]
        if uid == self.new_uid:
            # A reader that pinned the new arena first published
            # already: an answer on the live arena stays.
            return key, answer
        what = "keep"
        reason = ""
        if uid != self.old_uid:
            reason = "late-publisher"
        elif staged_texts:
            reason = "staged"
        elif stack_texts != verdict.texts:
            reason = "stack-changed"
        elif verdict.view is not None:
            # Labels are all there is to go by over a view.
            needed = answer.labels
            if needed is None or verdict.labels is None:
                reason = "unanalyzable"
            elif (needed | verdict.labels) & self.labels:
                reason = "view-labels"
            if reason and self.swallowed(verdict):
                reason = ""
        else:
            what, reason, refs, dirty = self.rule(answer.labels, answer.refs, self.steps)
            if what == "patch":
                answer = answer.patched(
                    {k: self.arena.serialized(refs[k]) for k in dirty},
                    refs,
                )
            elif what == "keep":
                answer.refs = refs
        if reason:
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
            return None
        if what == "patch":
            self.patched += 1
        else:
            self.kept += 1
        return result_key(target, self.new_uid, query_text, key[3:]), answer


def plan_commit(
    base_arena: FrozenDocument,
    entries: Sequence[StagedUpdate],
    views: Mapping[str, Sequence[View]],
    compiled: CompiledCache,
    rule: Rule = rekey_verdict,
) -> CommitPlan:
    """Plan the commit of *entries* onto *base_arena*.  *views* maps
    each read target over the document to its stack, innermost first
    (``[]`` for the document itself); *compiled* holds the views'
    selecting automata, and *rule* decides an answer over the document
    (:func:`rekey_verdict` — the store passes it by name, the one place
    a commit looks it up).  The swallow test runs here for the views
    materialized now; for any other view only when something asks."""
    arena = base_arena
    steps: List[ArenaStep] = []
    with span("splice"):
        for entry in entries:
            step = transform_arena(arena, entry.transform.update, entry.nfa)
            arena = step.arena
            steps.append(step)
    with span("verdicts"):
        plan = CommitPlan(base_arena, steps, views, compiled, rule)
        for verdict in plan.verdicts.values():
            if verdict.view is not None and verdict.view.materialized_root is not None:
                plan.swallowed(verdict)
    return plan
