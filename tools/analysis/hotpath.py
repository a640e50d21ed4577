"""The hot-path purity lint.

Functions annotated ``# hot-path`` (on the ``def`` line or the first
decorator's line, or standalone on the line directly above either) are
the per-node / per-event inner loops — the arena DFA scan,
the no-op telemetry instruments.  The lint rejects constructs that
allocate or synchronize on every call:

* f-strings and ``str.format`` / ``"%" %`` formatting
* comprehensions (list/set/dict) and generator expressions
* ``yield`` / ``yield from`` (generator creation per call)
* ``getattr`` with a default (allocates the default, hides attribute
  contracts)
* lock acquisition: ``with`` over a lock-looking expression, or any
  ``.acquire()`` call

List/dict/set *literals* are banned only inside ``for``/``while``
loops within the hot function: a one-time accumulator set up before
the loop is the point of these functions; an allocation per iteration
is the bug.

The annotation is inherited lexically: a nested function inside a
``# hot-path`` function is also hot (it runs at least as often).

A ``# hot-path`` comment that attaches to no function (a blank line
before its ``def``, or left behind when the function moved) is
reported as ``hotpath.detached-marker``: otherwise the function it was
meant for would silently go unlinted.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from tools.analysis.annotations import FileAnnotations
from tools.analysis.findings import Finding

__all__ = ["check_hotpaths"]

#: Substrings that make a `with` context expression count as a lock.
_LOCKISH = ("lock", "mutex", "sem", "condition", "rlock")


def _is_lockish(expr: ast.expr) -> bool:
    text = ast.unparse(expr).lower()
    return any(marker in text for marker in _LOCKISH)


class _HotVisitor(ast.NodeVisitor):
    """Checks one hot function's body; ``loop_depth`` scopes the
    container-literal rule to loop bodies."""

    def __init__(self, checker: "_HotChecker", func_name: str):
        self.checker = checker
        self.func_name = func_name
        self.loop_depth = 0

    def _flag(self, node: ast.AST, code: str, construct: str) -> None:
        self.checker.report(
            getattr(node, "lineno", 1), code, self.func_name,
            f"hot-path function {self.func_name!r} uses {construct}",
        )

    # -- formatting ----------------------------------------------------

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self._flag(node, "hotpath.fstring", "an f-string")
        self.generic_visit(node)

    # -- comprehensions / generators -----------------------------------

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._flag(node, "hotpath.comprehension", "a list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._flag(node, "hotpath.comprehension", "a set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._flag(node, "hotpath.comprehension", "a dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._flag(node, "hotpath.generator", "a generator expression")
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        self._flag(node, "hotpath.generator", "yield (generator per call)")
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self._flag(node, "hotpath.generator", "yield from (generator per call)")
        self.generic_visit(node)

    # -- loop-scoped container literals --------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._loop(node)

    def _loop(self, node: ast.AST) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_List(self, node: ast.List) -> None:
        if self.loop_depth and not isinstance(node.ctx, ast.Store):
            self._flag(node, "hotpath.literal", "a list literal inside a loop")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        if self.loop_depth:
            self._flag(node, "hotpath.literal", "a set literal inside a loop")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        if self.loop_depth:
            self._flag(node, "hotpath.literal", "a dict literal inside a loop")
        self.generic_visit(node)

    # -- calls: format / getattr-with-default / acquire ----------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "format":
                self._flag(node, "hotpath.format", "str.format()")
            elif func.attr == "acquire":
                self._flag(node, "hotpath.lock", ".acquire() (lock acquisition)")
        elif isinstance(func, ast.Name):
            if func.id == "getattr" and len(node.args) >= 3:
                self._flag(
                    node, "hotpath.getattr-default", "getattr() with a default"
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Mod) and isinstance(node.left, ast.Constant) \
                and isinstance(node.left.value, str):
            self._flag(node, "hotpath.format", "%-formatting")
        self.generic_visit(node)

    # -- lock acquisition via with -------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with(node)

    def _with(self, node: "ast.With | ast.AsyncWith") -> None:
        for item in node.items:
            if _is_lockish(item.context_expr):
                self._flag(
                    node, "hotpath.lock",
                    f"'with {ast.unparse(item.context_expr)}:' "
                    "(lock acquisition)",
                )
        self.generic_visit(node)

    # Nested functions inherit hotness; just keep walking.


def _marker_line(
    annotations: FileAnnotations,
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Optional[int]:
    """The line of the ``# hot-path`` marker attached to *func*, if any:
    trailing the ``def`` or first decorator line, or standalone on the
    line directly above either."""
    first = func.decorator_list[0].lineno if func.decorator_list else func.lineno
    for line in (func.lineno, first):
        if annotations.at(line, "hot-path") is not None:
            return line
    for line in (first - 1, func.lineno - 1):
        above = annotations.by_line.get(line)
        if above is not None and above.kind == "hot-path" and above.standalone:
            return line
    return None


class _HotChecker:
    def __init__(self, path: str, annotations: FileAnnotations):
        self.path = path
        self.annotations = annotations
        self.findings: List[Finding] = []
        self.hot_functions: List[str] = []

    def report(self, line: int, code: str, subject: str, message: str) -> None:
        waiver = self.annotations.waiver(line)
        self.findings.append(
            Finding(
                "hotpath", self.path, line, code, subject, message,
                waived=waiver is not None,
                reason=waiver.reason if waiver is not None else "",
            )
        )


def check_hotpaths(
    path: str, source: str, tree: Optional[ast.Module] = None
) -> Tuple[List[Finding], List[str]]:
    """Lint every ``# hot-path`` function in one file.

    Returns ``(findings, hot function names)`` — the names feed the
    report's inventory of what the lint actually covers.
    """
    if tree is None:
        tree = ast.parse(source)
    annotations = FileAnnotations(source)
    checker = _HotChecker(path, annotations)

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}" if prefix else child.name
                if _marker_line(annotations, child) is not None:
                    checker.hot_functions.append(name)
                    visitor = _HotVisitor(checker, name)
                    for stmt in child.body:
                        visitor.visit(stmt)
                else:
                    walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(node=child, prefix=prefix)

    walk(tree, "")
    attached = {
        _marker_line(annotations, func)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for line, ann in sorted(annotations.by_line.items()):
        if ann.kind == "hot-path" and line not in attached:
            checker.report(
                line, "hotpath.detached-marker", "# hot-path",
                "'# hot-path' marker attaches to no function: put it on "
                "the def or first decorator line, or directly above",
            )
    return checker.findings, checker.hot_functions
