"""Expression core for the XQuery subset.

Value model: every expression evaluates to a *sequence of items*, where
an item is an :class:`~repro.xmltree.node.Element`, an attribute string,
or a literal (str/float).  Variables bind sequences; ``for`` iterates
item by item.  Boolean expressions evaluate to Python bools; a sequence
used as a condition is truthy when non-empty (XQuery's ``empty()``).

Two members exist purely for composed queries (Section 4):

* :class:`QualCheck` — evaluate an ``X`` qualifier at the node bound to
  a variable *in the original document* (the automaton's qualifiers are
  defined against the pre-update tree).
* :class:`TransformedSubtree` — the embedded ``topDown(Mp, S, Qt, $x)``
  call of Example 4.3/Q3: transform just the subtree under a bound
  node, given the automaton states reached at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.xmltree.node import Element
from repro.xpath.ast import Path, Qual


class Expr:
    """Base class of value expressions (evaluate to item sequences)."""

    __slots__ = ()


class BoolExpr:
    """Base class of boolean expressions."""

    __slots__ = ()


# ----------------------------------------------------------------------
# Value expressions
# ----------------------------------------------------------------------


@dataclass
class PathFrom(Expr):
    """``$var/path`` (or ``path`` from the query root when var is None).

    A trailing attribute step yields attribute strings.
    """

    var: Optional[str]
    path: Path

    def __str__(self) -> str:
        base = f"${self.var}" if self.var else "doc()"
        text = str(self.path)
        if not self.path.steps:
            return base
        sep = "" if text.startswith("//") else "/"
        return f"{base}{sep}{text}"


@dataclass
class VarRef(Expr):
    """``$var`` — the variable's bound sequence."""

    var: str

    def __str__(self) -> str:
        return f"${self.var}"


@dataclass
class Literal(Expr):
    """A string or number constant."""

    value: Union[str, float]

    def __str__(self) -> str:
        return f"'{self.value}'" if isinstance(self.value, str) else f"{self.value:g}"


@dataclass
class EmptySeq(Expr):
    """``()`` — the empty sequence."""

    def __str__(self) -> str:
        return "()"


@dataclass
class ConstTree(Expr):
    """A constant XML subtree (the update's ``e`` spliced into a
    composed query)."""

    root: Element

    def __str__(self) -> str:
        from repro.xmltree.serializer import serialize

        return serialize(self.root)


@dataclass
class Sequence(Expr):
    """Concatenation of sub-sequences."""

    parts: list

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


@dataclass
class ElementTemplate(Expr):
    """``<label>{ part, … }</label>`` — an element constructor."""

    label: str
    attrs: dict = field(default_factory=dict)
    parts: list = field(default_factory=list)

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.parts)
        return f"<{self.label}>{{ {inner} }}</{self.label}>"


@dataclass
class For(Expr):
    """``for $var in source return body`` (body once per item)."""

    var: str
    source: Expr
    body: Expr

    def __str__(self) -> str:
        return f"for ${self.var} in {self.source} return {self.body}"


@dataclass
class Let(Expr):
    """``let $var := value return body``."""

    var: str
    value: Expr
    body: Expr

    def __str__(self) -> str:
        return f"let ${self.var} := {self.value} return {self.body}"


@dataclass
class Conditional(Expr):
    """``if (cond) then … else …``."""

    cond: "BoolExpr"
    then: Expr
    orelse: Expr

    def __str__(self) -> str:
        return f"if ({self.cond}) then {self.then} else {self.orelse}"


@dataclass
class TransformedSubtree(Expr):
    """``topDown(Mp, S, Qt, $var)`` — the embedded topDown call.

    Two modes:

    * ``from_parent=False`` (default): *states* are the automaton states
      **at the bound node**; its children are transformed and the node
      rebuilt.  ``patched`` appends the update's constant element (an
      insert that selected the node itself); ``relabel`` renames the
      rebuilt node (a rename that selected it).
    * ``from_parent=True``: *states* are the states **at the parent**;
      the node itself is run through ``topdown_subtree`` (re-deciding
      its own qualifiers/selection at runtime) and the resulting node
      list — possibly empty (delete) or the replacement — is returned.

    The selecting NFA and update are attached by the composer.
    """

    var: str
    states: frozenset
    patched: bool = False
    relabel: Optional[str] = None
    from_parent: bool = False
    nfa: object = None      # SelectingNFA
    update: object = None   # Update

    def __str__(self) -> str:
        return f"topDown(Mp, S{set(self.states)}, Qt, ${self.var})"


# ----------------------------------------------------------------------
# Boolean expressions
# ----------------------------------------------------------------------


@dataclass
class BoolConst(BoolExpr):
    value: bool

    def __str__(self) -> str:
        return "true()" if self.value else "false()"


@dataclass
class Exists(BoolExpr):
    """``not(empty(expr))``."""

    expr: Expr

    def __str__(self) -> str:
        return f"exists({self.expr})"


@dataclass
class Compare(BoolExpr):
    """Existential (general) comparison of two sequences."""

    left: Expr
    op: str
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass
class BoolAnd(BoolExpr):
    left: BoolExpr
    right: BoolExpr

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass
class BoolOr(BoolExpr):
    left: BoolExpr
    right: BoolExpr

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass
class BoolNot(BoolExpr):
    operand: BoolExpr

    def __str__(self) -> str:
        return f"not({self.operand})"


@dataclass
class QualCheck(BoolExpr):
    """Evaluate an ``X`` qualifier at the node bound to *var* (against
    the original document — see the module docstring)."""

    var: str
    qual: Qual

    def __str__(self) -> str:
        return f"${self.var}[{self.qual}]"


# ----------------------------------------------------------------------
# The surface user query
# ----------------------------------------------------------------------


@dataclass
class UserQuery:
    """The parsed surface form of a Section-4 user query.

    Kept alongside its desugared core expression so the composer can
    work on the structured form while evaluation uses the core.
    """

    var: str
    path: Path
    conditions: list          # list[BoolExpr] (conjunction)
    template: Expr            # the return expression
    source_text: str = ""

    def core(self) -> For:
        """Desugar to the expression core."""
        body: Expr = self.template
        if self.conditions:
            cond: BoolExpr = self.conditions[0]
            for extra in self.conditions[1:]:
                cond = BoolAnd(cond, extra)
            body = Conditional(cond, body, EmptySeq())
        return For(self.var, PathFrom(None, self.path), body)

    def __str__(self) -> str:
        return self.source_text or str(self.core())
