"""The Compose Method (Section 4): rewrite a user query against the
selecting NFA of a transform query into one composed query.

Strategy (each choice's reason is given in its bullet):

* The user path is rewritten into a cascade of ``for`` loops, one per
  step (the paper's ``for $y1 … for $yn`` form).  Along the cascade the
  composer tracks the *definite* set of ``Mp`` states at the bound
  node.
* A step whose entered states carry qualifiers splits into runtime
  branches (the paper's ``if empty($y/C) then … else …``); each branch
  continues with a definite state set.
* A branch in which the final state is alive applies the update's
  effect in place: a deleted binding contributes nothing, a replaced
  binding continues inside the constant replacement, a renamed binding
  survives only if the new label still matches, an inserted-into
  binding is remembered (``patched``) so the constant element joins the
  next step's iteration and the returned subtree.
* ``where`` operands, user-step qualifiers and returned paths are
  classified by the exact word walk of :mod:`repro.compose.walk`
  (UNCHANGED / EMPTY / UNKNOWN — Q2's compile-time reasoning is the
  EMPTY case).
* Whenever exact rewriting is impossible (wildcard or descendant user
  steps, too many simultaneous qualifiers, UNKNOWN classifications) the
  composer splices a **localized** ``topDown`` call on the bound
  variable (Q3's ``let $y := topDown(Mp, S, Qt, $z)``) and continues
  with the plain remainder — always correct, and still touching only
  the subtree the user query actually needs.

The composed query never copies the document and never transforms
subtrees the user query does not visit; the Fig. 15 benchmarks measure
exactly this advantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.compose import walk as walklib
from repro.transform.query import TransformQuery
from repro.updates.ops import Delete, Insert, Rename, Replace
from repro.xmltree.node import Element
from repro.xpath.ast import (
    AndQual,
    CmpQual,
    LabelQual,
    NotQual,
    OrQual,
    Path,
    PathQual,
    Qual,
    Step,
    TrueQual,
)
from repro.xpath.normalize import (
    BETA_LABEL,
    NormStep,
    UnsupportedPathError,
    normalize_steps,
)
from repro.xquery.ast import (
    BoolAnd,
    BoolConst,
    BoolExpr,
    BoolNot,
    BoolOr,
    Compare,
    Conditional,
    ConstTree,
    ElementTemplate,
    EmptySeq,
    Exists,
    Expr,
    For,
    Let,
    Literal,
    PathFrom,
    QualCheck,
    Sequence,
    TransformedSubtree,
    UserQuery,
    VarRef,
)
from repro.xquery.evaluator import evaluate_query

#: Upper bound on simultaneous qualifier-bearing states per step before
#: the composer falls back (2 qualifiers → 4 branches).
MAX_BRANCH_QUALIFIERS = 2


@dataclass
class _Ctx:
    """What the composer knows about the node bound to *var*."""

    var: Optional[str]          # None = the document root
    states: frozenset           # definite Mp states at the node (∅ = untouchable below)
    patched: bool = False       # insert selected this node (e appended)
    relabel: Optional[str] = None  # rename selected this node
    is_const: bool = False      # bound inside the update's constant element


class Composer:
    """Builds the composed query for one (user query, transform) pair."""

    def __init__(
        self,
        user_query: UserQuery,
        transform_query: TransformQuery,
        nfa: Optional[SelectingNFA] = None,
    ):
        self.query = user_query
        self.transform = transform_query
        self.update = transform_query.update
        # A prebuilt (cached) NFA carries its warm lazy-DFA tables into
        # every TransformedSubtree the composed plan splices in.
        self.nfa: SelectingNFA = nfa if nfa is not None else build_selecting_nfa(
            transform_query.path
        )
        self.user_ctx_qual, self.user_steps = normalize_steps(user_query.path)
        self._counter = 0

    # ------------------------------------------------------------------

    def compose(self) -> Expr:
        if not isinstance(self.user_ctx_qual, TrueQual):
            # A context qualifier on the user path would itself need
            # rewriting against the transformed root; take the safe
            # route: localized transform of the whole document.
            return self._full_fallback()
        initial = self.nfa.initial_states()
        root_ctx = _Ctx(var=None, states=initial)
        if not isinstance(self.nfa.context_qual, TrueQual):
            # Mp has a context qualifier: decide it at runtime on the
            # (original) root, with the automaton armed or disarmed.
            root_var = self._fresh()
            return Let(
                root_var,
                PathFrom(None, Path()),
                Conditional(
                    QualCheck(root_var, self.nfa.context_qual),
                    self._loop(0, _Ctx(var=root_var, states=initial)),
                    self._loop(0, _Ctx(var=root_var, states=frozenset())),
                ),
            )
        return self._loop(0, root_ctx)

    # ------------------------------------------------------------------
    # The for-cascade
    # ------------------------------------------------------------------

    def _fresh(self) -> str:
        self._counter += 1
        return f"y{self._counter}"

    def _loop(self, index: int, ctx: _Ctx) -> Expr:
        """Rewrite user steps ``index…`` with the automaton at *ctx*."""
        if ctx.states and not walklib.final_reachable(self.nfa, ctx.states):
            # No final state reachable at all: nothing below ctx can be
            # touched — continue as if the automaton were disarmed.
            ctx = _Ctx(ctx.var, frozenset(), ctx.patched, ctx.relabel, ctx.is_const)
        if index == len(self.user_steps):
            return self._tail(ctx)
        if ctx.is_const or not ctx.states:
            return self._plain_rest(index, ctx)
        step = self.user_steps[index]
        if step.beta != BETA_LABEL:
            return self._fallback_rest(index, ctx)
        if self._could_select_other(ctx.states, step.name):
            # rename/replace could turn a non-matching sibling *into* a
            # match for this letter: only a real transform can tell.
            return self._fallback_rest(index, ctx)
        letter = step.name
        entered = self._advance_preclose(ctx.states, letter)
        cond_states = sorted(
            sid for sid in entered if self.nfa.states[sid].has_qualifier
        )
        if len(cond_states) > MAX_BRANCH_QUALIFIERS:
            return self._fallback_rest(index, ctx)
        unconditional = frozenset(sid for sid in entered if sid not in cond_states)
        loop_var = self._fresh()
        body = self._branch(index, step, loop_var, unconditional, cond_states, [])
        main_loop = For(loop_var, PathFrom(ctx.var, _label_path(letter)), body)
        if ctx.patched and isinstance(self.update, Insert) \
                and self.update.content.label == letter:
            # The element inserted into the parent is its last child and
            # matches this letter: iterate it too, plainly (it is not
            # part of the original document).
            const_var = self._fresh()
            const_body = self._plain_rest(
                index + 1, _Ctx(const_var, frozenset(), is_const=True)
            )
            if not isinstance(step.qual, TrueQual):
                # The constant element must pass the user qualifier too
                # (evaluated plainly — updates never apply inside e).
                const_body = Conditional(
                    QualCheck(const_var, step.qual), const_body, EmptySeq()
                )
            const_loop = For(const_var, ConstTree(self.update.content), const_body)
            return Sequence([main_loop, const_loop])
        return main_loop

    def _branch(
        self,
        index: int,
        step: NormStep,
        var: str,
        alive: frozenset,
        pending: list,
        passed: list,
    ) -> Expr:
        """Expand runtime branches for the qualifier-bearing states."""
        if pending:
            sid = pending[0]
            qual = self.nfa.states[sid].qual
            return Conditional(
                QualCheck(var, qual),
                self._branch(index, step, var, alive, pending[1:], passed + [sid]),
                self._branch(index, step, var, alive, pending[1:], passed),
            )
        definite = self.nfa.epsilon_closure(alive | frozenset(passed))
        return self._entered(index, step, var, definite)

    def _entered(self, index: int, step: NormStep, var: str, states: frozenset) -> Expr:
        """One definite branch: apply update effects and user qualifier."""
        update = self.update
        selected = self.nfa.final_id in states
        patched = False
        relabel: Optional[str] = None
        if selected:
            if isinstance(update, Delete):
                return EmptySeq()
            if isinstance(update, Replace):
                if update.content.label != step.name:
                    return EmptySeq()  # the replacement no longer matches
                const_var = self._fresh()
                return Let(
                    const_var,
                    ConstTree(update.content),
                    self._with_user_qual(
                        index, step, _Ctx(const_var, frozenset(), is_const=True)
                    ),
                )
            if isinstance(update, Rename):
                if update.new_label != step.name:
                    return EmptySeq()  # renamed away from this letter
                relabel = update.new_label
            if isinstance(update, Insert):
                patched = True
        ctx = _Ctx(var, states, patched=patched, relabel=relabel)
        return self._with_user_qual(index, step, ctx)

    def _with_user_qual(self, index: int, step: NormStep, ctx: _Ctx) -> Expr:
        """Apply the user step's own qualifier (on the transformed tree)."""
        body = self._loop(index + 1, ctx)
        if isinstance(step.qual, TrueQual):
            return body
        rewritten = self._rewrite_qual(step.qual, ctx)
        if rewritten is None:
            # Evaluate the qualifier on the locally transformed node.
            transformed_var = self._fresh()
            return Let(
                transformed_var,
                self._transformed_subtree(ctx),
                Conditional(QualCheck(transformed_var, step.qual), body, EmptySeq()),
            )
        return Conditional(rewritten, body, EmptySeq())

    # ------------------------------------------------------------------
    # Tail: where conditions and the return template
    # ------------------------------------------------------------------

    def _tail(self, ctx: _Ctx) -> Expr:
        conditions: list = []
        for cond in self.query.conditions:
            rewritten = self._rewrite_condition(cond, ctx)
            conditions.append(rewritten)
        template = self._rewrite_value(self.query.template, ctx)
        body: Expr = template
        if conditions:
            merged: BoolExpr = conditions[0]
            for extra in conditions[1:]:
                merged = BoolAnd(merged, extra)
            body = Conditional(merged, body, EmptySeq())
        return body

    def _rewrite_condition(self, cond: BoolExpr, ctx: _Ctx) -> BoolExpr:
        if isinstance(cond, Compare):
            left = self._rewrite_operand(cond.left, ctx)
            right = self._rewrite_operand(cond.right, ctx)
            if isinstance(left, EmptySeq) or isinstance(right, EmptySeq):
                return BoolConst(False)  # existential comparison over ∅
            return Compare(left, cond.op, right)
        if isinstance(cond, Exists):
            operand = self._rewrite_operand(cond.expr, ctx)
            if isinstance(operand, EmptySeq):
                return BoolConst(False)
            return Exists(operand)
        if isinstance(cond, BoolNot):
            return BoolNot(self._rewrite_condition(cond.operand, ctx))
        if isinstance(cond, BoolAnd):
            return BoolAnd(
                self._rewrite_condition(cond.left, ctx),
                self._rewrite_condition(cond.right, ctx),
            )
        if isinstance(cond, BoolOr):
            return BoolOr(
                self._rewrite_condition(cond.left, ctx),
                self._rewrite_condition(cond.right, ctx),
            )
        raise TypeError(f"unexpected condition {cond!r}")

    def _rewrite_operand(self, operand: Expr, ctx: _Ctx) -> Expr:
        if isinstance(operand, Literal):
            return operand
        if isinstance(operand, VarRef):
            # The user's $x is the node bound at ctx.  As an operand it
            # atomizes to its own text, which no update changes, so the
            # re-rooted reference suffices.
            return PathFrom(ctx.var, Path())
        if isinstance(operand, PathFrom):
            return self._rewrite_value_path(operand.path, ctx)
        raise TypeError(f"unexpected operand {operand!r}")

    def _rewrite_value(self, expr: Expr, ctx: _Ctx) -> Expr:
        """Rewrite a return-clause expression."""
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, VarRef):
            plain = PathFrom(ctx.var, Path())
            if ctx.is_const or (not ctx.states and not ctx.patched and ctx.relabel is None):
                return plain
            if not walklib.final_reachable(self.nfa, ctx.states) \
                    and not ctx.patched and ctx.relabel is None:
                return plain
            return self._transformed_subtree(ctx)
        if isinstance(expr, PathFrom):
            return self._rewrite_returned_path(expr.path, ctx)
        if isinstance(expr, ElementTemplate):
            return ElementTemplate(
                expr.label,
                dict(expr.attrs),
                [self._rewrite_value(part, ctx) for part in expr.parts],
            )
        raise TypeError(f"unexpected return expression {expr!r}")

    def _rewrite_value_path(self, path: Path, ctx: _Ctx) -> Expr:
        """A path used for its *values* (where-clause operand)."""
        if ctx.is_const or not ctx.states:
            return PathFrom(ctx.var, path)
        outcome = self._classify(path, ctx)
        if outcome == walklib.UNCHANGED:
            return PathFrom(ctx.var, path)
        if outcome == walklib.EMPTY:
            return EmptySeq()
        transformed_var = self._fresh()
        return Let(
            transformed_var,
            self._transformed_subtree(ctx),
            PathFrom(transformed_var, path),
        )

    def _rewrite_returned_path(self, path: Path, ctx: _Ctx) -> Expr:
        """A path whose *nodes* are returned: their subtrees matter, so
        UNCHANGED additionally requires that no final state stays
        reachable below the result nodes."""
        if ctx.is_const or not ctx.states:
            return PathFrom(ctx.var, path)
        letters = walklib.word_letters(path)
        patched_extends = (
            ctx.patched
            and isinstance(self.update, Insert)
            and (letters is None
                 or walklib._content_matches(self.update.content, letters))
        )
        if letters is not None and not patched_extends:
            outcome = walklib.walk_word(self.nfa, ctx.states, letters, self.update)
            if outcome == walklib.EMPTY:
                return EmptySeq()
            if outcome == walklib.UNCHANGED and not self._subtree_reachable(
                ctx.states, letters
            ):
                return PathFrom(ctx.var, path)
        transformed_var = self._fresh()
        return Let(
            transformed_var,
            self._transformed_subtree(ctx),
            PathFrom(transformed_var, path),
        )

    # ------------------------------------------------------------------
    # Qualifier rewriting (boolean contexts)
    # ------------------------------------------------------------------

    def _rewrite_qual(self, qual: Qual, ctx: _Ctx) -> Optional[BoolExpr]:
        """Rewrite an X qualifier to hold on the *transformed* node.

        Returns None when only a localized transform can decide it.
        """
        if isinstance(qual, TrueQual):
            return BoolConst(True)
        if isinstance(qual, LabelQual):
            if ctx.relabel is not None:
                return BoolConst(ctx.relabel == qual.label)
            if isinstance(self.update, Rename):
                # The node's own selection is resolved, but only upstream
                # branches know it; stay conservative elsewhere.
                return QualCheck(ctx.var, qual)
            return QualCheck(ctx.var, qual)
        if isinstance(qual, AndQual):
            left = self._rewrite_qual(qual.left, ctx)
            right = self._rewrite_qual(qual.right, ctx)
            if left is None or right is None:
                return None
            return BoolAnd(left, right)
        if isinstance(qual, OrQual):
            left = self._rewrite_qual(qual.left, ctx)
            right = self._rewrite_qual(qual.right, ctx)
            if left is None or right is None:
                return None
            return BoolOr(left, right)
        if isinstance(qual, NotQual):
            inner = self._rewrite_qual(qual.operand, ctx)
            return None if inner is None else BoolNot(inner)
        if isinstance(qual, (PathQual, CmpQual)):
            outcome = self._classify(qual.path, ctx)
            if outcome == walklib.UNCHANGED:
                return QualCheck(ctx.var, qual)
            if outcome == walklib.EMPTY:
                return BoolConst(False)
            return None
        return None

    def _classify(self, path: Path, ctx: _Ctx) -> str:
        """UNCHANGED/EMPTY/UNKNOWN for a value path at *ctx*."""
        if ctx.patched and isinstance(self.update, Insert):
            # The appended constant may extend this path's matches.
            letters = walklib.word_letters(path)
            if letters is None or walklib._content_matches(self.update.content, letters):
                return walklib.UNKNOWN
        letters = walklib.word_letters(path)
        if letters is None:
            if not walklib.final_reachable(self.nfa, ctx.states):
                return walklib.UNCHANGED
            return walklib.UNKNOWN
        return walklib.walk_word(self.nfa, ctx.states, letters, self.update)

    def _subtree_reachable(self, states: frozenset, letters: list) -> bool:
        """After walking *letters*, can a final state still be reached
        (i.e. might the update touch the result nodes' subtrees)?"""
        current = {sid: True for sid in states}
        for letter in letters:
            current = walklib._advance_certain(self.nfa, current, letter)
        return walklib.final_reachable(self.nfa, frozenset(current))

    # ------------------------------------------------------------------
    # Automaton helpers
    # ------------------------------------------------------------------

    def _advance_preclose(self, states: frozenset, letter: str) -> frozenset:
        """Entered states before ε-closure (qualifiers checked on these)."""
        return frozenset(self.nfa.consume(states, letter))

    def _could_select_other(self, states: frozenset, letter: str) -> bool:
        """Could the update select a *sibling* not labeled ``letter`` and
        make it match ``letter`` (rename-into / replace-into)?"""
        update = self.update
        if isinstance(update, Rename):
            if update.new_label != letter:
                return False
        elif isinstance(update, Replace):
            if update.content.label != letter:
                return False
        else:
            return False
        for sid in states:
            state = self.nfa.states[sid]
            targets = list(state.out_consume)
            if state.test == "dos":
                targets.append(sid)  # self-loop consumes any label
            for target_id in targets:
                target = self.nfa.states[target_id]
                if not target.is_final:
                    continue
                if target.test == "label" and target.name == letter:
                    continue  # same-letter matches are handled in-branch
                return True
        return False

    # ------------------------------------------------------------------
    # Fallbacks and plain remainders
    # ------------------------------------------------------------------

    def _transformed_subtree(self, ctx: _Ctx) -> TransformedSubtree:
        return TransformedSubtree(
            var=ctx.var,
            states=ctx.states,
            patched=ctx.patched,
            relabel=ctx.relabel,
            nfa=self.nfa,
            update=self.update,
        )

    def _ensure_var(self, ctx: _Ctx):
        """Bind the document root to a variable when ctx has none.

        Returns ``(ctx', wrap)`` where ``wrap`` finalizes the expression.
        """
        if ctx.var is not None:
            return ctx, (lambda expr: expr)
        root_var = self._fresh()
        bound = _Ctx(root_var, ctx.states, ctx.patched, ctx.relabel, ctx.is_const)
        return bound, (lambda expr: Let(root_var, PathFrom(None, Path()), expr))

    def _fallback_rest(self, index: int, ctx: _Ctx) -> Expr:
        """Localized topDown on ctx's node, then the plain remainder."""
        ctx, wrap = self._ensure_var(ctx)
        transformed_var = self._fresh()
        return wrap(Let(
            transformed_var,
            self._transformed_subtree(ctx),
            self._plain_rest(index, _Ctx(transformed_var, frozenset())),
        ))

    def _full_fallback(self) -> Expr:
        """Transform the whole document locally, then run Q plainly.

        Still avoids the copy of untouched subtrees (topDown shares
        them), but gives up on pruning — only used for corner cases.
        """
        root_var = self._fresh()
        transformed_var = self._fresh()
        plain = self._plain_rest(0, _Ctx(transformed_var, frozenset()))
        if not isinstance(self.user_ctx_qual, TrueQual):
            # The user path's own context qualifier, on the transformed root.
            plain = Conditional(
                QualCheck(transformed_var, self.user_ctx_qual), plain, EmptySeq()
            )
        transform_then_query = Let(
            transformed_var,
            TransformedSubtree(
                var=root_var,
                states=self.nfa.initial_states(),
                nfa=self.nfa,
                update=self.update,
            ),
            plain,
        )
        if not isinstance(self.nfa.context_qual, TrueQual):
            # Mp's own context qualifier gates the whole update; when it
            # fails the transform is the identity.
            untouched = self._plain_rest(0, _Ctx(root_var, frozenset()))
            if not isinstance(self.user_ctx_qual, TrueQual):
                untouched = Conditional(
                    QualCheck(root_var, self.user_ctx_qual), untouched, EmptySeq()
                )
            transform_then_query = Conditional(
                QualCheck(root_var, self.nfa.context_qual),
                transform_then_query,
                untouched,
            )
        return Let(root_var, PathFrom(None, Path()), transform_then_query)

    def _plain_rest(self, index: int, ctx: _Ctx) -> Expr:
        """The remaining query with no rewriting (below ctx nothing can
        change, or ctx is already transformed)."""
        remaining = self.user_steps[index:]
        if not remaining:
            return self._tail(ctx)
        path = Path(tuple(_norm_to_step(step) for step in remaining))
        final_var = self._fresh()
        return For(final_var, PathFrom(ctx.var, path),
                   self._tail(_Ctx(final_var, frozenset(), is_const=ctx.is_const)))


def _label_path(letter: str) -> Path:
    return Path((Step("label", letter),))


def _norm_to_step(norm: NormStep) -> Step:
    quals = () if isinstance(norm.qual, TrueQual) else (norm.qual,)
    if norm.beta == BETA_LABEL:
        return Step("label", norm.name, quals)
    if norm.beta == "wildcard":
        return Step("wildcard", None, quals)
    return Step("dos", None, quals)


def compose(
    user_query: UserQuery,
    transform_query: TransformQuery,
    nfa: Optional[SelectingNFA] = None,
) -> Expr:
    """Compose ``Q`` with ``Qt`` into a single query over the original
    document: ``evaluate_composed(T, compose(Q, Qt)) == Q(Qt(T))``.

    *nfa*, when supplied, must be the selecting NFA of
    ``transform_query.path`` (typically the compiled cache's instance):
    the composed plan's localized ``topDown`` splices then run on its
    already-warm DFA tables.
    """
    return Composer(user_query, transform_query, nfa=nfa).compose()


def evaluate_composed(root: Element, composed: Expr) -> list:
    """Evaluate a composed query directly on the original document."""
    return evaluate_query(root, composed)
