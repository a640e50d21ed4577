"""Normalization of ``X`` expressions (Sections 3.4 and 5 of the paper).

Two normal forms are produced here:

**Step form** — every path rewrites to ``β1[q1]/…/βk[qk]`` where each
``βi`` is a label, ``*`` or ``//`` (:func:`normalize_steps`).  Self
steps fold their qualifiers into the preceding step (or into a *context
qualifier* checked at the evaluation root).  The selecting and filtering
NFAs are built from this form, one state per step.

**Qualifier normal form** — every qualifier rewrites so each path step
becomes ``η/p'`` with ``η ∈ {*, //, ε[q]}`` (Section 5's rewriting
rules: ``l → */ε[label()=l]``, ``p[q] → p/ε[q]``,
``p[q1]…[qn] → p[q1∧…∧qn]``, ``p = 's' → p[ε='s']``).  The result is a
DAG of :class:`NQ` expressions, interned in a :class:`QualifierSpace`
so that sub-expressions precede their containing expressions — exactly
the topologically sorted list ``LQ`` that ``QualDP`` (Fig. 7) consumes.

Restrictions enforced here (the paper never exercises these corners and
its NFA construction would mishandle them too): a qualifier attached to
a ``self`` step immediately after ``//`` is rejected for automaton use,
because a qualifier on a looping descendant state would incorrectly
prune continuations at non-matching intermediate nodes.  The reference
evaluator still supports such paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.xpath.ast import (
    TRUE,
    AndQual,
    CmpQual,
    LabelQual,
    NotQual,
    OrQual,
    Path,
    PathQual,
    Qual,
    TrueQual,
)


class UnsupportedPathError(ValueError):
    """An ``X`` expression outside the automaton-supported core."""


# ----------------------------------------------------------------------
# Step form
# ----------------------------------------------------------------------

#: β kinds in the step form.
BETA_LABEL = "label"
BETA_WILDCARD = "wildcard"
BETA_DOS = "dos"


@dataclass(frozen=True)
class NormStep:
    """One ``βi[qi]`` of the step form."""

    beta: str                 # BETA_LABEL | BETA_WILDCARD | BETA_DOS
    name: Optional[str]       # label name for BETA_LABEL
    qual: Qual                # merged qualifier (TRUE when absent)

    def matches_label(self, label: str) -> bool:
        """Does this step's test accept a node with the given label?

        ``dos`` steps answer True: their self-loop consumes any label.
        """
        if self.beta == BETA_LABEL:
            return self.name == label
        return True  # wildcard and dos

    def __str__(self) -> str:
        base = {BETA_LABEL: self.name, BETA_WILDCARD: "*", BETA_DOS: "//"}[self.beta]
        if isinstance(self.qual, TrueQual):
            return base
        return f"{base}[{self.qual}]"


def _and(a: Qual, b: Qual) -> Qual:
    if isinstance(a, TrueQual):
        return b
    if isinstance(b, TrueQual):
        return a
    return AndQual(a, b)


def _merge_quals(quals: tuple) -> Qual:
    merged: Qual = TRUE
    for qual in quals:
        merged = _and(merged, qual)
    return merged


def normalize_steps(path: Path) -> tuple:
    """Rewrite *path* to step form.

    Returns ``(context_qual, steps)`` where ``context_qual`` must hold
    at the evaluation root (non-trivial only for paths like
    ``.[q]/a``) and ``steps`` is a list of :class:`NormStep`.

    Raises :class:`UnsupportedPathError` for attribute steps (selecting
    paths never contain them) and for self-step qualifiers directly
    after ``//`` (see the module docstring).
    """
    context_qual: Qual = TRUE
    steps: list[NormStep] = []
    for step in path.steps:
        if step.kind == "attr":
            raise UnsupportedPathError(
                f"attribute step @{step.name} cannot appear in a selecting path"
            )
        if step.kind == "self":
            qual = _merge_quals(step.quals)
            if isinstance(qual, TrueQual):
                continue
            if not steps:
                context_qual = _and(context_qual, qual)
            elif steps[-1].beta == BETA_DOS:
                raise UnsupportedPathError(
                    "a qualifier on '.' directly after '//' is outside the "
                    "automaton-supported core (its truth would be checked on "
                    "the looping descendant state)"
                )
            else:
                last = steps[-1]
                steps[-1] = NormStep(last.beta, last.name, _and(last.qual, qual))
            continue
        if step.kind == "dos":
            if steps and steps[-1].beta == BETA_DOS:
                continue  # '…////…' collapses: // is idempotent
            steps.append(NormStep(BETA_DOS, None, _merge_quals(step.quals)))
            continue
        beta = BETA_LABEL if step.kind == "label" else BETA_WILDCARD
        steps.append(NormStep(beta, step.name, _merge_quals(step.quals)))
    return context_qual, steps


# ----------------------------------------------------------------------
# Qualifier normal form (the NQ expression DAG)
# ----------------------------------------------------------------------


class NQ:
    """Base class of normalized qualifier expressions.

    Instances are interned by :class:`QualifierSpace`; the ``key()``
    of an expression identifies it structurally (children by id).
    """

    __slots__ = ("nq_id",)

    def key(self, ids: tuple) -> tuple:
        return (type(self).__name__, *self._fields(), *ids)

    def _fields(self) -> tuple:
        return ()

    def children(self) -> tuple:
        return ()


class NTrue(NQ):
    """ε — always true (QualDP case 1)."""

    __slots__ = ()


class NLabel(NQ):
    """``label() = l`` (case 6)."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def _fields(self) -> tuple:
        return (self.label,)


class NText(NQ):
    """``ε op c`` — compare the context node's own text (case 5)."""

    __slots__ = ("op", "value")

    def __init__(self, op: str, value: Union[str, float]):
        self.op = op
        self.value = value

    def _fields(self) -> tuple:
        return (self.op, self.value)


class NAttr(NQ):
    """``@a`` existence, or ``@a op c`` when ``op`` is set (extension:
    the paper's workload qualifiers use attributes, e.g. U2 and U10)."""

    __slots__ = ("name", "op", "value")

    def __init__(self, name: str, op: Optional[str] = None, value=None):
        self.name = name
        self.op = op
        self.value = value

    def _fields(self) -> tuple:
        return (self.name, self.op, self.value)


class NChild(NQ):
    """``*/p`` — some child satisfies ``p``: ``csat(p)`` (case 3)."""

    __slots__ = ("inner",)

    def __init__(self, inner: NQ):
        self.inner = inner

    def children(self) -> tuple:
        return (self.inner,)


class NDesc(NQ):
    """``//p`` — self or some descendant satisfies ``p`` (case 4)."""

    __slots__ = ("inner",)

    def __init__(self, inner: NQ):
        self.inner = inner

    def children(self) -> tuple:
        return (self.inner,)


class NSeq(NQ):
    """``ε[q]/p`` — both ``q`` and ``p`` hold here (case 2)."""

    __slots__ = ("cond", "rest")

    def __init__(self, cond: NQ, rest: NQ):
        self.cond = cond
        self.rest = rest

    def children(self) -> tuple:
        return (self.cond, self.rest)


class NAnd(NQ):
    __slots__ = ("left", "right")

    def __init__(self, left: NQ, right: NQ):
        self.left = left
        self.right = right

    def children(self) -> tuple:
        return (self.left, self.right)


class NOr(NQ):
    __slots__ = ("left", "right")

    def __init__(self, left: NQ, right: NQ):
        self.left = left
        self.right = right

    def children(self) -> tuple:
        return (self.left, self.right)


class NNot(NQ):
    __slots__ = ("inner",)

    def __init__(self, inner: NQ):
        self.inner = inner

    def children(self) -> tuple:
        return (self.inner,)


class QualifierSpace:
    """Interning table for :class:`NQ` expressions — the list ``LQ``.

    Expressions are interned bottom-up, so a child's ``nq_id`` is always
    smaller than its parent's: iterating ``self.expressions`` in order
    is exactly the topologically sorted traversal QualDP requires.
    Structurally equal sub-expressions are shared (as in Example 5.1,
    where ``supplier`` sub-qualifiers are listed once).
    """

    def __init__(self):
        self.expressions: list[NQ] = []
        self._interned: dict = {}

    def intern(self, expr: NQ) -> NQ:
        child_ids = tuple(c.nq_id for c in expr.children())
        key = expr.key(child_ids)
        found = self._interned.get(key)
        if found is not None:
            return found
        expr.nq_id = len(self.expressions)
        self.expressions.append(expr)
        self._interned[key] = expr
        return expr

    def __len__(self) -> int:
        return len(self.expressions)

    # -- constructors (intern as they build) ---------------------------

    def true(self) -> NQ:
        return self.intern(NTrue())

    def nq_label(self, label: str) -> NQ:
        return self.intern(NLabel(label))

    def nq_text(self, op: str, value) -> NQ:
        return self.intern(NText(op, value))

    def nq_attr(self, name: str, op: Optional[str] = None, value=None) -> NQ:
        return self.intern(NAttr(name, op, value))

    def nq_child(self, inner: NQ) -> NQ:
        return self.intern(NChild(inner))

    def nq_desc(self, inner: NQ) -> NQ:
        return self.intern(NDesc(inner))

    def nq_seq(self, cond: NQ, rest: NQ) -> NQ:
        if isinstance(cond, NTrue):
            return rest
        if isinstance(rest, NTrue):
            return cond
        return self.intern(NSeq(cond, rest))

    def nq_and(self, left: NQ, right: NQ) -> NQ:
        if isinstance(left, NTrue):
            return right
        if isinstance(right, NTrue):
            return left
        return self.intern(NAnd(left, right))

    def nq_or(self, left: NQ, right: NQ) -> NQ:
        return self.intern(NOr(left, right))

    def nq_not(self, inner: NQ) -> NQ:
        return self.intern(NNot(inner))

    # -- translation from the qualifier AST -----------------------------

    def normalize_qual(self, qual: Qual) -> NQ:
        """Translate a qualifier AST into normal form (interned)."""
        if isinstance(qual, TrueQual):
            return self.true()
        if isinstance(qual, LabelQual):
            return self.nq_label(qual.label)
        if isinstance(qual, AndQual):
            return self.nq_and(self.normalize_qual(qual.left), self.normalize_qual(qual.right))
        if isinstance(qual, OrQual):
            return self.nq_or(self.normalize_qual(qual.left), self.normalize_qual(qual.right))
        if isinstance(qual, NotQual):
            return self.nq_not(self.normalize_qual(qual.operand))
        if isinstance(qual, PathQual):
            return self.normalize_path(qual.path, self.true())
        if isinstance(qual, CmpQual):
            steps = qual.path.steps
            if steps and steps[-1].kind == "attr":
                terminal = self.nq_attr(steps[-1].name, qual.op, qual.value)
                return self.normalize_path(Path(steps[:-1]), terminal)
            terminal = self.nq_text(qual.op, qual.value)
            return self.normalize_path(qual.path, terminal)
        raise TypeError(f"unknown qualifier {qual!r}")

    def normalize_path(self, path: Path, terminal: NQ) -> NQ:
        """Normalize a qualifier path, ending in *terminal* at the nodes
        the path reaches.  Processes steps right-to-left, applying the
        Section-5 rewriting rules."""
        expr = terminal
        last_index = len(path.steps) - 1
        for index in range(last_index, -1, -1):
            step = path.steps[index]
            if step.kind == "attr":
                if index != last_index:
                    raise UnsupportedPathError(
                        f"attribute step @{step.name} must be the final step"
                    )
                # A bare attribute existence path (PathQual ending in @a).
                expr = self.nq_seq(self.nq_attr(step.name), expr)
                continue
            quals_nq = self.true()
            for q in step.quals:
                quals_nq = self.nq_and(quals_nq, self.normalize_qual(q))
            if step.kind == "self":
                expr = self.nq_seq(quals_nq, expr)
            elif step.kind == "dos":
                expr = self.nq_desc(self.nq_seq(quals_nq, expr))
            elif step.kind == "wildcard":
                expr = self.nq_child(self.nq_seq(quals_nq, expr))
            else:  # label: l → */ε[label()=l]
                body = self.nq_seq(self.nq_label(step.name), self.nq_seq(quals_nq, expr))
                expr = self.nq_child(body)
        return expr
