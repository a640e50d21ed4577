"""Qualifier compilation: turn a :class:`~repro.xpath.ast.Qual` AST
into a plain Python closure ``fn(node) -> bool``.

The reference :func:`~repro.xpath.evaluator.eval_qualifier` re-dispatches
on AST node types and re-interprets the qualifier path on every call —
fine for an oracle, wasteful for the native ``checkp`` that ``topDown``
may invoke at every candidate node.  The compiled form does the
dispatch once, at automaton-build time: each AST node becomes one
closure, paths become nested existential scans built right-to-left, and
comparisons specialize on the literal's type up front.  The lazy DFA
(:mod:`repro.automata.dfa`) compiles every qualifier-bearing state's
``Qual`` exactly once and reuses the closure for the life of the
automaton.

Semantics are *identical* to ``eval_qualifier`` (the property tests in
``tests/test_dfa_properties.py`` hold them together): existential
comparisons over the nodes a qualifier path reaches, element values are
own-text, attribute steps are final-only, number literals never match
non-numeric text.  An attribute step in the middle of a qualifier path
is refused when the path is parsed; a hand-built AST that carries one
raises the same :class:`~repro.xpath.lexer.XPathSyntaxError` here, at
compile time.
"""

from __future__ import annotations

from typing import Callable

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
    TrueQual,
)
from repro.xpath.evaluator import compare_value
from repro.xpath.parser import attribute_not_final

__all__ = ["compile_qualifier"]

#: A compiled qualifier: the truth of the qualifier at a context node.
QualCheck = Callable[[Element], bool]


def _always(node: Element) -> bool:
    return True


def compile_qualifier(qual: Qual) -> QualCheck:
    """Compile *qual* to a closure with ``eval_qualifier`` semantics."""
    if isinstance(qual, TrueQual):
        return _always
    if isinstance(qual, LabelQual):
        label = qual.label

        def check_label(node: Element, label=label) -> bool:
            return node.label == label

        return check_label
    if isinstance(qual, AndQual):
        left, right = compile_qualifier(qual.left), compile_qualifier(qual.right)
        return lambda node: left(node) and right(node)
    if isinstance(qual, OrQual):
        left, right = compile_qualifier(qual.left), compile_qualifier(qual.right)
        return lambda node: left(node) or right(node)
    if isinstance(qual, NotQual):
        inner = compile_qualifier(qual.operand)
        return lambda node: not inner(node)
    if isinstance(qual, PathQual):
        return _compile_path_qual(qual)
    if isinstance(qual, CmpQual):
        return _compile_cmp_qual(qual)
    raise TypeError(f"unknown qualifier {qual!r}")


# ----------------------------------------------------------------------
# Path existence and comparisons
# ----------------------------------------------------------------------


def _compile_path_qual(qual: PathQual) -> QualCheck:
    steps = qual.path.steps
    if steps and steps[-1].kind == "attr":
        name = steps[-1].name
        terminal = lambda node, name=name: name in node.attrs  # noqa: E731
        steps = steps[:-1]
    else:
        terminal = _always
    return _compile_steps(steps, terminal)


def _compile_cmp_qual(qual: CmpQual) -> QualCheck:
    cmp_text = _compile_compare(qual.op, qual.value)
    steps = qual.path.steps
    if not steps:
        return lambda node: cmp_text(node.own_text())
    if steps[-1].kind == "attr":
        name = steps[-1].name

        def terminal(node: Element, name=name, cmp_text=cmp_text) -> bool:
            value = node.attrs.get(name)
            return value is not None and cmp_text(value)

        steps = steps[:-1]
    else:
        terminal = lambda node, cmp_text=cmp_text: cmp_text(node.own_text())  # noqa: E731
    return _compile_steps(steps, terminal)


def _compile_compare(op: str, literal) -> Callable[[str], bool]:
    """Specialize ``compare_value`` on the literal's type and operator."""
    if isinstance(literal, float):
        if op == "=":
            return lambda text: _as_float(text) == literal
        if op == "!=":
            num_ne = lambda text: _as_float(text) is not None and _as_float(text) != literal  # noqa: E731
            return num_ne
        if op == "<":
            return lambda text: _lt(_as_float(text), literal)
        if op == "<=":
            return lambda text: _le(_as_float(text), literal)
        if op == ">":
            return lambda text: _lt_rev(literal, _as_float(text))
        if op == ">=":
            return lambda text: _le_rev(literal, _as_float(text))
    else:
        if op == "=":
            return lambda text: text == literal
        if op == "!=":
            return lambda text: text != literal
        if op == "<":
            return lambda text: text < literal
        if op == "<=":
            return lambda text: text <= literal
        if op == ">":
            return lambda text: text > literal
        if op == ">=":
            return lambda text: text >= literal
    # Unknown operators are rejected at AST construction; fall back for
    # exotic hand-built values.
    return lambda text: compare_value(text, op, literal)


def _as_float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _lt(num, literal) -> bool:
    return num is not None and num < literal


def _le(num, literal) -> bool:
    return num is not None and num <= literal


def _lt_rev(literal, num) -> bool:
    return num is not None and literal < num


def _le_rev(literal, num) -> bool:
    return num is not None and literal <= num


# ----------------------------------------------------------------------
# Step chains (right-to-left, existential)
# ----------------------------------------------------------------------


def _compile_steps(steps: tuple, terminal: QualCheck) -> QualCheck:
    """Existence of a node reachable via *steps* satisfying *terminal*.

    Order and duplicates are irrelevant for existence, so no
    document-order pass or dedup is compiled in.
    """
    fn = terminal
    for step in reversed(steps):
        if step.kind == "attr":
            raise attribute_not_final(step)
        quals = tuple(compile_qualifier(q) for q in step.quals)
        fn = _compile_step(step.kind, step.name, quals, fn)
    return fn


def _compile_step(kind: str, name, quals: tuple, rest: QualCheck) -> QualCheck:
    if kind == "self":
        if not quals:
            return rest

        def check_self(node: Element, quals=quals, rest=rest) -> bool:
            for q in quals:
                if not q(node):
                    return False
            return rest(node)

        return check_self
    if kind == "dos":

        def check_dos(node: Element, quals=quals, rest=rest) -> bool:
            for cand in node.descendants_or_self():
                for q in quals:
                    if not q(cand):
                        break
                else:
                    if rest(cand):
                        return True
            return False

        return check_dos
    if kind == "label":

        def check_label(node: Element, name=name, quals=quals, rest=rest) -> bool:
            for child in node.children:
                if not child.is_element or child.label != name:
                    continue
                for q in quals:
                    if not q(child):
                        break
                else:
                    if rest(child):
                        return True
            return False

        return check_label
    # wildcard

    def check_wild(node: Element, quals=quals, rest=rest) -> bool:
        for child in node.children:
            if not child.is_element:
                continue
            for q in quals:
                if not q(child):
                    break
            else:
                if rest(child):
                    return True
        return False

    return check_wild
