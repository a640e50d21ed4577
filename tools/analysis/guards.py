"""The guarded-by lock-discipline checker.

For every class that declares guarded attributes (see
:mod:`tools.analysis.annotations`), this checker walks each of the
class's methods and proves every read or write of a guarded
``self.<attr>`` is lexically inside ``with <lock>:`` for the declared
lock — or inside a method annotated ``# holds: <lock>``, whose callers
own the lock by contract.

Scope rules (all deliberate):

* ``__init__`` is exempt: construction happens before the instance can
  be shared, so unlocked initialization is not a race.
* A nested ``def`` or ``lambda`` does **not** inherit the enclosing
  ``with``: it runs later, when the lock may long be released — the
  exact bug class of handing ``lambda: self.counter`` to a metrics
  probe.  Nested functions may carry their own ``# holds:``.
* Only ``self.<attr>`` accesses are checked (``self`` being the
  method's first parameter).  Cross-object accesses (``doc.dirty = …``
  from another class) are out of scope for a lexical checker; guard
  those at the owning class's boundary with ``# holds:`` methods.
* A method call on a guarded attribute (``self._data.clear()``) counts
  as a read of the attribute — the object graph behind the attribute
  is what the lock protects.

Waivers: ``# unguarded: <reason>`` trailing the flagged line keeps the
finding out of the gate but in the report, reason attached.

A registry entry (``# guarded-by[a, b]`` / ``# unguarded[a, b]``) must
name an attribute the class assigns as ``self.<name>``: one that no
method stores to is reported as ``lock.stale-declaration`` at the
registry comment and is neither proof nor exemption.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from tools.analysis.annotations import Annotation, FileAnnotations, normalize_lock
from tools.analysis.findings import Finding

__all__ = ["ClassGuards", "check_guards", "collect_class_guards"]

#: Methods whose unlocked attribute access is never a race.
_EXEMPT_METHODS = ("__init__",)


class ClassGuards:
    """One class's declarations: guarded attrs and documented waivers."""

    def __init__(self, name: str):
        self.name = name
        self.guarded: Dict[str, str] = {}       # attr -> normalized lock
        self.unguarded: Dict[str, str] = {}     # attr -> reason
        #: Registry names no method assigns: (attr, registry line, kind).
        self.stale: List[Tuple[str, int, str]] = []


def _class_body_annotations(
    node: ast.ClassDef, annotations: FileAnnotations
) -> List[Annotation]:
    """Standalone registry-form annotations inside *node*'s body but
    outside any nested class (whose registry lines are its own)."""
    end = getattr(node, "end_lineno", node.lineno)
    nested: List[Tuple[int, int]] = [
        (child.lineno, getattr(child, "end_lineno", child.lineno))
        for child in ast.walk(node)
        if isinstance(child, ast.ClassDef) and child is not node
    ]
    out = []
    for ann in annotations.in_span(node.lineno, end):
        if any(start <= ann.line <= stop for start, stop in nested):
            continue
        out.append(ann)
    return out


def collect_class_guards(
    node: ast.ClassDef, annotations: FileAnnotations
) -> ClassGuards:
    """Parse a class's guarded-by declarations: the registry comments
    in its body plus per-assignment comments in its methods."""
    guards = ClassGuards(node.name)
    methods: List[Tuple["ast.FunctionDef | ast.AsyncFunctionDef", str]] = []
    for method in node.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self_name = _self_name(method)
            if self_name is not None:
                methods.append((method, self_name))
    assigned = {
        expr.attr
        for method, self_name in methods
        for expr in ast.walk(method)
        if isinstance(expr, ast.Attribute)
        and isinstance(expr.ctx, ast.Store)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == self_name
    }
    for ann in _class_body_annotations(node, annotations):
        if ann.names is None:
            continue  # assignment-attached form, handled below
        for attr in ann.names:
            if attr not in assigned:
                guards.stale.append((attr, ann.line, ann.kind))
            elif ann.kind == "guarded-by":
                guards.guarded[attr] = ann.lock
            else:
                guards.unguarded[attr] = ann.reason
    for method, self_name in methods:
        for stmt in ast.walk(method):
            attr = _assigned_self_attr(stmt, self_name)
            if attr is None:
                continue
            ann = annotations.attached(stmt.lineno, "guarded-by")
            if ann is not None and ann.names is None:
                guards.guarded[attr] = ann.lock
                continue
            if method.name in _EXEMPT_METHODS:
                waiver = annotations.at(stmt.lineno, "unguarded")
                if waiver is not None and waiver.names is None:
                    guards.unguarded[attr] = waiver.reason
    return guards


def _self_name(method: ast.AST) -> Optional[str]:
    """The receiver parameter name, or None for static methods."""
    args = getattr(method, "args", None)
    if args is None or not args.args:
        return None
    for deco in getattr(method, "decorator_list", []):
        if isinstance(deco, ast.Name) and deco.id == "staticmethod":
            return None
    return args.args[0].arg


def _assigned_self_attr(stmt: ast.AST, self_name: str) -> Optional[str]:
    """``attr`` when *stmt* is ``self.attr = …`` / ``self.attr: T = …``."""
    target: Optional[ast.expr] = None
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == self_name
    ):
        return target.attr
    return None


class _MethodVisitor(ast.NodeVisitor):
    """Walks one method body tracking which locks are lexically held."""

    def __init__(
        self,
        checker: "_FileChecker",
        guards: ClassGuards,
        method_name: str,
        self_name: str,
        held: Set[str],
    ):
        self.checker = checker
        self.guards = guards
        self.method_name = method_name
        self.self_name = self_name
        self.held = held

    # -- lock acquisition ----------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: "ast.With | ast.AsyncWith") -> None:
        acquired = []
        for item in node.items:
            lock = normalize_lock(ast.unparse(item.context_expr))
            if lock not in self.held:
                acquired.append(lock)
                self.held.add(lock)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for lock in acquired:
            self.held.discard(lock)

    # -- deferred execution resets the held set ------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def _visit_nested(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        held: Set[str] = set()
        holds = self.checker.annotations.attached(node.lineno, "holds")
        if holds is not None:
            held.add(holds.lock)
        nested = _MethodVisitor(
            self.checker, self.guards,
            f"{self.method_name}.{node.name}", self.self_name, held,
        )
        for stmt in node.body:
            nested.visit(stmt)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        nested = _MethodVisitor(
            self.checker, self.guards,
            f"{self.method_name}.<lambda>", self.self_name, set(),
        )
        nested.visit(node.body)

    # -- the accesses under test ---------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
            and node.attr in self.guards.guarded
        ):
            lock = self.guards.guarded[node.attr]
            if lock not in self.held:
                write = isinstance(node.ctx, (ast.Store, ast.Del))
                self.checker.report(
                    node.lineno,
                    "lock.unguarded-write" if write else "lock.unguarded-read",
                    f"{self.guards.name}.{node.attr}",
                    f"{self.guards.name}.{self.method_name} "
                    f"{'writes' if write else 'reads'} {node.attr!r} "
                    f"outside 'with {lock}:' (declared guarded-by {lock})",
                )
        self.generic_visit(node)


class _FileChecker:
    """Shared state while checking one file."""

    def __init__(self, path: str, annotations: FileAnnotations):
        self.path = path
        self.annotations = annotations
        self.findings: List[Finding] = []

    def report(self, line: int, code: str, subject: str, message: str) -> None:
        waiver = self.annotations.waiver(line)
        self.findings.append(
            Finding(
                "lock", self.path, line, code, subject, message,
                waived=waiver is not None,
                reason=waiver.reason if waiver is not None else "",
            )
        )


def check_guards(
    path: str, source: str, tree: Optional[ast.Module] = None
) -> Tuple[List[Finding], List[ClassGuards]]:
    """Run the lock-discipline checker over one file.

    Returns ``(findings, per-class declarations)`` — the declarations
    feed the report's guarded/unguarded inventories.
    """
    if tree is None:
        tree = ast.parse(source)
    annotations = FileAnnotations(source)
    checker = _FileChecker(path, annotations)
    declared: List[ClassGuards] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guards = collect_class_guards(node, annotations)
        for attr, line, kind in guards.stale:
            checker.report(
                line, "lock.stale-declaration", f"{guards.name}.{attr}",
                f"{guards.name} declares {attr!r} in a {kind}[...] registry "
                f"but never assigns self.{attr}",
            )
        if guards.guarded or guards.unguarded:
            declared.append(guards)
        if not guards.guarded:
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _EXEMPT_METHODS:
                continue
            self_name = _self_name(method)
            if self_name is None:
                continue
            held: Set[str] = set()
            holds = annotations.attached(method.lineno, "holds")
            if holds is not None:
                held.add(holds.lock)
            visitor = _MethodVisitor(checker, guards, method.name, self_name, held)
            for stmt in method.body:
                visitor.visit(stmt)
    return checker.findings, declared
