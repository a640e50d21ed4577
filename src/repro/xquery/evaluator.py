"""Evaluator for the XQuery expression core.

Items are Elements, attribute strings, or literals.  Comparison
semantics mirror the qualifier comparisons of the ``X`` fragment:
elements atomize to their own text, a float on either side forces a
numeric comparison (unparseable values never match), and general
comparisons are existential.
"""

from __future__ import annotations

from typing import Optional

from repro.transform.topdown import topdown_children, topdown_subtree
from repro.xmltree.node import Element, deep_copy
from repro.xpath.ast import Path
from repro.xpath.evaluator import compare_value, eval_qualifier, eval_values
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


class Environment:
    """Immutable-by-convention variable bindings (var → item list)."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Optional[dict] = None):
        self.bindings = bindings or {}

    def bound(self, var: str, items: list) -> "Environment":
        fresh = dict(self.bindings)
        fresh[var] = items
        return Environment(fresh)

    def lookup(self, var: str) -> list:
        try:
            return self.bindings[var]
        except KeyError:
            raise NameError(f"unbound query variable ${var}") from None


def evaluate_query(root: Element, query) -> list:
    """Evaluate a :class:`UserQuery` or core expression at *root*."""
    expr = query.core() if isinstance(query, UserQuery) else query
    return eval_expr(expr, Environment(), root)


def eval_expr(expr: Expr, env: Environment, root: Element) -> list:
    """Evaluate a value expression to an item list."""
    if isinstance(expr, PathFrom):
        if expr.var is None:
            return _eval_path(root, expr.path)
        items: list = []
        for item in env.lookup(expr.var):
            if isinstance(item, Element):
                items.extend(_eval_path(item, expr.path))
        return items
    if isinstance(expr, VarRef):
        return list(env.lookup(expr.var))
    if isinstance(expr, Literal):
        return [expr.value]
    if isinstance(expr, EmptySeq):
        return []
    if isinstance(expr, ConstTree):
        return [expr.root]
    if isinstance(expr, Sequence):
        items = []
        for part in expr.parts:
            items.extend(eval_expr(part, env, root))
        return items
    if isinstance(expr, ElementTemplate):
        children: list = []
        for part in expr.parts:
            for item in eval_expr(part, env, root):
                if isinstance(item, Element):
                    children.append(item)
                else:
                    from repro.xmltree.node import Text

                    children.append(Text(str(item)))
        return [Element(expr.label, dict(expr.attrs), children)]
    if isinstance(expr, For):
        items = []
        for item in eval_expr(expr.source, env, root):
            items.extend(eval_expr(expr.body, env.bound(expr.var, [item]), root))
        return items
    if isinstance(expr, Let):
        value = eval_expr(expr.value, env, root)
        return eval_expr(expr.body, env.bound(expr.var, value), root)
    if isinstance(expr, Conditional):
        branch = expr.then if eval_bool(expr.cond, env, root) else expr.orelse
        return eval_expr(branch, env, root)
    if isinstance(expr, TransformedSubtree):
        return _eval_transformed(expr, env)
    raise TypeError(f"unknown expression {expr!r}")


def eval_bool(expr: BoolExpr, env: Environment, root: Element) -> bool:
    """Evaluate a boolean expression."""
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, Exists):
        return bool(eval_expr(expr.expr, env, root))
    if isinstance(expr, Compare):
        left = _atomize(eval_expr(expr.left, env, root))
        right = _atomize(eval_expr(expr.right, env, root))
        return _general_compare(left, expr.op, right)
    if isinstance(expr, BoolAnd):
        return eval_bool(expr.left, env, root) and eval_bool(expr.right, env, root)
    if isinstance(expr, BoolOr):
        return eval_bool(expr.left, env, root) or eval_bool(expr.right, env, root)
    if isinstance(expr, BoolNot):
        return not eval_bool(expr.operand, env, root)
    if isinstance(expr, QualCheck):
        for item in env.lookup(expr.var):
            if isinstance(item, Element) and eval_qualifier(item, expr.qual):
                return True
        return False
    raise TypeError(f"unknown boolean expression {expr!r}")


def _eval_path(context: Element, path: Path) -> list:
    """Path evaluation that also supports a trailing attribute step."""
    return eval_values(context, path)


def _eval_transformed(expr: TransformedSubtree, env: Environment) -> list:
    """The embedded topDown call of composed queries."""
    items = env.lookup(expr.var)
    out: list = []
    for item in items:
        if not isinstance(item, Element):
            out.append(item)
            continue
        if expr.from_parent:
            out.extend(topdown_subtree(expr.nfa, expr.states, expr.update, item))
            continue
        children = topdown_children(expr.nfa, expr.states, expr.update, item.children)
        if children is None:
            if expr.relabel is None and not expr.patched:
                out.append(item)  # nothing matched at or below it: shared
                continue
            children = list(item.children)
        if expr.patched:
            children.append(deep_copy(expr.update.content))
        out.append(
            Element(
                item.label if expr.relabel is None else expr.relabel,
                dict(item.attrs),
                children,
            )
        )
    return out


def _atomize(items: list) -> list:
    out = []
    for item in items:
        if isinstance(item, Element):
            out.append(item.own_text())
        else:
            out.append(item)
    return out


def _general_compare(left: list, op: str, right: list) -> bool:
    for lv in left:
        for rv in right:
            if _pair_compare(lv, op, rv):
                return True
    return False


def _pair_compare(lv, op: str, rv) -> bool:
    if isinstance(lv, float) or isinstance(rv, float):
        try:
            return _numeric(float(lv), op, float(rv))
        except (TypeError, ValueError):
            return False
    return compare_value(str(lv), op, str(rv))


def _numeric(ln: float, op: str, rn: float) -> bool:
    if op == "=":
        return ln == rn
    if op == "!=":
        return ln != rn
    if op == "<":
        return ln < rn
    if op == "<=":
        return ln <= rn
    if op == ">":
        return ln > rn
    if op == ">=":
        return ln >= rn
    raise ValueError(f"unknown operator {op!r}")
