"""Arena-backed evaluation of the XQuery core: the read path of the
columnar backend.

The Node evaluator (:mod:`repro.xquery.evaluator`) walks ``Element``
objects; this one walks a :class:`~repro.xmltree.arena.FrozenDocument`
and represents element items as **pre-order indices** (plain ``int``;
unambiguous, since literals are only ``str``/``float``).  Path
expressions run the selecting NFA's arena walk
(:func:`repro.automata.arena_run.select_indices`) over contiguous
index ranges; qualifier checks and atomization read the own-text
column.  Only the items a caller actually materializes are ever
thawed — a query that selects 12 nodes out of a million-node arena
allocates 12 subtrees, nothing else.

Semantics are pinned to ``evaluate_query`` (the arena property tests
run both over random documents):

* a path whose steps are all descendant/self steps can select its own
  context (the oracle's ``descendants_or_self`` includes self; the NFA
  run convention never selects the evaluation root, so the context is
  checked — and prepended — separately);
* constructs outside the arena fast path (paths the selecting NFA
  rejects, embedded ``topDown`` calls of composed queries, element
  templates) fall back to the Node evaluator on thawed items, so every
  query evaluates — the fast path just covers the hot shapes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.automata.arena_run import select_indices
from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.xmltree.arena import FrozenDocument, thaw
from repro.xmltree.node import Element, Text
from repro.xpath.ast import Path
from repro.xpath.evaluator import compare_value, eval_qualifier, eval_values
from repro.xpath.normalize import UnsupportedPathError
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

__all__ = ["ArenaEvaluator", "evaluate_query_arena"]

#: Resolves a parsed Path to a (cached) selecting NFA.
NFAFor = Callable[[Path], SelectingNFA]


def evaluate_query_arena(arena: FrozenDocument, query, nfa_for: Optional[NFAFor] = None) -> list:
    """Evaluate a :class:`UserQuery` (or core expression) over the
    arena; element results are thawed, so the output is exactly what
    ``evaluate_query`` on the thawed document would return."""
    return ArenaEvaluator(arena, nfa_for).evaluate(query)


class ArenaEvaluator:
    """One query evaluation context over one frozen document.

    *nfa_for* lets a resident engine or store share its compiled
    automata cache; either way each path is resolved once per
    evaluator and memoized on the instance.
    """

    __slots__ = ("arena", "_nfa_for", "_nfas", "_quals", "_thawed_root")

    def __init__(self, arena: FrozenDocument, nfa_for: Optional[NFAFor] = None):
        self.arena = arena
        self._nfa_for = nfa_for
        self._nfas: dict = {}
        self._quals: dict = {}
        self._thawed_root: Optional[Element] = None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def evaluate(self, query) -> list:
        """Evaluate and materialize: indices thaw to fresh subtrees."""
        return [self.materialize(item) for item in self.evaluate_refs(query)]

    def evaluate_refs(self, query) -> list:
        """Evaluate to raw items: ``int`` arena indices for element
        results (the zero-thaw form the serialized read path and the
        benchmarks consume), strings/floats/Elements otherwise."""
        expr = query.core() if isinstance(query, UserQuery) else query
        return self._eval(expr, {})

    def materialize(self, item):
        if isinstance(item, int):
            return thaw(self.arena, item)
        return item

    # ------------------------------------------------------------------
    # Compiled-artifact memos
    # ------------------------------------------------------------------

    def _nfa(self, path: Path) -> SelectingNFA:
        """Resolve *path* once per evaluator: a ``for``/``where`` body
        asks per bound item, and a shared *nfa_for* is an LRU behind a
        lock — one acquisition per item is a convoy under threads."""
        found = self._nfas.get(path)
        if found is None:
            build = self._nfa_for if self._nfa_for is not None else build_selecting_nfa
            found = self._nfas[path] = build(path)
        return found

    def _qual_check(self, qual):
        found = self._quals.get(id(qual))
        if found is None:
            from repro.xpath.arena_compiler import compile_qualifier_arena

            found = compile_qualifier_arena(qual, self.arena.symbols)
            self._quals[id(qual)] = (found, qual)  # keep the AST alive
        else:
            found = found[0]
        return found

    def _root_tree(self) -> Element:
        """The fully thawed document — only built when a query shape
        falls outside the arena fast path."""
        if self._thawed_root is None:
            self._thawed_root = thaw(self.arena, 0)
        return self._thawed_root

    # ------------------------------------------------------------------
    # Path evaluation over index ranges
    # ------------------------------------------------------------------

    def _eval_path(self, context: int, path: Path) -> list:
        """``eval_values`` over the arena: indices (plus attribute
        strings for a final ``@a`` step), in document order."""
        arena = self.arena
        original = path
        steps = path.steps
        attr_name = None
        if steps and steps[-1].kind == "attr":
            attr_name = steps[-1].name
            path = Path(steps[:-1])
            steps = path.steps
        if not steps:
            nodes = [context]
        else:
            try:
                nfa = self._nfa(path)
            except (UnsupportedPathError, ValueError):
                # Outside the NFA fragment (e.g. a bare self step):
                # the oracle on the thawed context subtree.
                return self._eval_path_fallback(context, original)
            nodes = select_indices(nfa, arena, context)
            if self._context_matches(context, steps):
                nodes.insert(0, context)
        if attr_name is None:
            return nodes
        out = []
        attr = arena.attr
        for i in nodes:
            value = attr(i, attr_name)
            if value is not None:
                out.append(value)
        return out

    def _context_matches(self, context: int, steps) -> bool:
        """Does the path select its own context node?  Only possible
        when every step is a descendant/self step (the oracle's
        ``descendants_or_self`` keeps the context in the frontier) and
        each step's qualifiers hold at the context."""
        for step in steps:
            if step.kind not in ("dos", "self"):
                return False
        arena = self.arena
        for step in steps:
            for qual in step.quals:
                if not self._qual_check(qual)(arena, context):
                    return False
        return True

    def _eval_path_fallback(self, context: int, path: Path) -> list:
        node = self._root_tree() if context == 0 else thaw(self.arena, context)
        return eval_values(node, path)

    # ------------------------------------------------------------------
    # Expression dispatch (mirrors repro.xquery.evaluator.eval_expr)
    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, env: dict) -> list:
        if isinstance(expr, PathFrom):
            if expr.var is None:
                return self._eval_path(0, expr.path)
            items: list = []
            for item in _lookup(env, expr.var):
                if isinstance(item, int):
                    items.extend(self._eval_path(item, expr.path))
                elif isinstance(item, Element):
                    items.extend(eval_values(item, expr.path))
            return items
        if isinstance(expr, VarRef):
            return list(_lookup(env, expr.var))
        if isinstance(expr, Literal):
            return [expr.value]
        if isinstance(expr, EmptySeq):
            return []
        if isinstance(expr, ConstTree):
            return [expr.root]
        if isinstance(expr, Sequence):
            items = []
            for part in expr.parts:
                items.extend(self._eval(part, env))
            return items
        if isinstance(expr, ElementTemplate):
            children: list = []
            for part in expr.parts:
                for item in self._eval(part, env):
                    if isinstance(item, int):
                        children.append(thaw(self.arena, item))
                    elif isinstance(item, Element):
                        children.append(item)
                    else:
                        children.append(Text(str(item)))
            return [Element(expr.label, dict(expr.attrs), children)]
        if isinstance(expr, For):
            items = []
            env_for = dict(env)
            for item in self._eval(expr.source, env):
                env_for[expr.var] = [item]
                items.extend(self._eval(expr.body, env_for))
            return items
        if isinstance(expr, Let):
            env_let = dict(env)
            env_let[expr.var] = self._eval(expr.value, env)
            return self._eval(expr.body, env_let)
        if isinstance(expr, Conditional):
            branch = expr.then if self._eval_bool(expr.cond, env) else expr.orelse
            return self._eval(branch, env)
        if isinstance(expr, TransformedSubtree):
            return self._eval_transformed(expr, env)
        raise TypeError(f"unknown expression {expr!r}")

    def _eval_bool(self, expr: BoolExpr, env: dict) -> bool:
        if isinstance(expr, BoolConst):
            return expr.value
        if isinstance(expr, Exists):
            return bool(self._eval(expr.expr, env))
        if isinstance(expr, Compare):
            left = self._atomize(self._eval(expr.left, env))
            right = self._atomize(self._eval(expr.right, env))
            for lv in left:
                for rv in right:
                    if _pair_compare(lv, expr.op, rv):
                        return True
            return False
        if isinstance(expr, BoolAnd):
            return self._eval_bool(expr.left, env) and self._eval_bool(expr.right, env)
        if isinstance(expr, BoolOr):
            return self._eval_bool(expr.left, env) or self._eval_bool(expr.right, env)
        if isinstance(expr, BoolNot):
            return not self._eval_bool(expr.operand, env)
        if isinstance(expr, QualCheck):
            arena = self.arena
            for item in _lookup(env, expr.var):
                if isinstance(item, int):
                    if self._qual_check(expr.qual)(arena, item):
                        return True
                elif isinstance(item, Element):
                    if eval_qualifier(item, expr.qual):
                        return True
            return False
        raise TypeError(f"unknown boolean expression {expr!r}")

    def _eval_transformed(self, expr: TransformedSubtree, env: dict) -> list:
        """Composed queries embed ``topDown`` calls over Node subtrees:
        thaw the bound items and delegate to the Node evaluator."""
        from repro.xquery.evaluator import Environment, _eval_transformed

        items = [self.materialize(item) for item in _lookup(env, expr.var)]
        return _eval_transformed(expr, Environment({expr.var: items}))

    def _atomize(self, items: list) -> list:
        own = self.arena.payload
        out = []
        for item in items:
            if isinstance(item, int):
                out.append(own[item])
            elif isinstance(item, Element):
                out.append(item.own_text())
            else:
                out.append(item)
        return out


def _lookup(env: dict, var: str) -> list:
    try:
        return env[var]
    except KeyError:
        raise NameError(f"unbound query variable ${var}") from None


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
