"""AST for the XPath fragment ``X``.

A :class:`Path` is a sequence of :class:`Step` objects.  Step kinds:

=============  =======================================  ===============
kind           surface syntax                           β in the paper
=============  =======================================  ===============
``label``      ``l``                                    label
``wildcard``   ``*``                                    ``*``
``dos``        the gap in ``p1//p2``                    ``//``
``self``       ``.`` (ε)                                (folded away)
``attr``       ``@a`` (qualifier paths only)            —
=============  =======================================  ===============

Each step carries a list of qualifiers (``p[q1][q2]`` parses to one step
with two qualifiers; the normalizer merges them with ``and``).

Qualifier forms mirror the grammar: path existence (:class:`PathQual`),
comparison of a path's value against a constant (:class:`CmpQual`),
``label() = l`` (:class:`LabelQual`) and the boolean connectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ----------------------------------------------------------------------
# Qualifiers
# ----------------------------------------------------------------------


class Qual:
    """Abstract base for qualifier expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class PathQual(Qual):
    """Existence test: the qualifier path selects at least one node."""

    path: "Path"

    def __str__(self) -> str:
        return str(self.path)


#: Comparison operators supported by the fragment.
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class CmpQual(Qual):
    """``p op c``: some node reached via ``p`` has a value satisfying the
    comparison.  ``path`` may be empty (ε), comparing the context node's
    own text — the normal form ``ε = 's'`` of Section 5.

    ``value`` is a ``str`` (string literal: string comparison) or a
    ``float`` (number literal: numeric comparison, nodes whose text does
    not parse as a number never match).
    """

    path: "Path"
    op: str
    value: Union[str, float]

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def __str__(self) -> str:
        value = f"'{self.value}'" if isinstance(self.value, str) else f"{self.value:g}"
        prefix = f"{self.path} " if self.path.steps else ". "
        return f"{prefix}{self.op} {value}"


@dataclass(frozen=True)
class LabelQual(Qual):
    """``label() = l``: the context node has label ``l``."""

    label: str

    def __str__(self) -> str:
        return f"label() = {self.label}"


@dataclass(frozen=True)
class AndQual(Qual):
    left: Qual
    right: Qual

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class OrQual(Qual):
    left: Qual
    right: Qual

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class NotQual(Qual):
    operand: Qual

    def __str__(self) -> str:
        return f"not({self.operand})"


#: The always-true qualifier, used for steps without conditions.
@dataclass(frozen=True)
class TrueQual(Qual):
    def __str__(self) -> str:
        return "true"


TRUE = TrueQual()


# ----------------------------------------------------------------------
# Steps and paths
# ----------------------------------------------------------------------

STEP_KINDS = ("label", "wildcard", "dos", "self", "attr")


@dataclass(frozen=True)
class Step:
    """One location step.  ``name`` is set for ``label`` and ``attr``."""

    kind: str
    name: Optional[str] = None
    quals: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.kind in ("label", "attr") and not self.name:
            raise ValueError(f"{self.kind} step requires a name")

    def with_quals(self, quals: tuple) -> "Step":
        return Step(self.kind, self.name, quals)

    def __str__(self) -> str:
        if self.kind == "label":
            base = self.name
        elif self.kind == "wildcard":
            base = "*"
        elif self.kind == "dos":
            base = "//"  # rendered specially by Path.__str__
        elif self.kind == "self":
            base = "."
        else:
            base = f"@{self.name}"
        return base + "".join(f"[{q}]" for q in self.quals)


@dataclass(frozen=True)
class Path:
    """A sequence of steps.  The empty path is ε (the context node)."""

    steps: tuple = field(default_factory=tuple)

    def is_empty(self) -> bool:
        return not self.steps

    def __str__(self) -> str:
        if not self.steps:
            return "."
        out: list[str] = []
        pending_sep = ""  # separator to place before the next step
        for step in self.steps:
            if step.kind == "dos" and not step.quals:
                pending_sep = "//"
                continue
            out.append(pending_sep + str(step))
            pending_sep = "/"
        if pending_sep == "//":
            # Trailing '//' (path ends in descendant-or-self); render the
            # implicit self step explicitly.
            out.append("//.")
        return "".join(out)
