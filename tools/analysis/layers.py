"""The import-layering verifier.

A *layer manifest* is an ordered list of layers, bottom first; each
layer is a list of component names — the second path segment of a
module under the ``repro`` package (``repro.store.views`` belongs to
component ``store``; ``repro/lru.py`` to component ``lru``; the package
``__init__`` itself to ``repro``).  An import is legal when it stays
inside the importer's layer or points **downward**; any upward edge is
a back-edge violation.

Two distinct rules, because the codebase uses lazy imports on purpose:

* **Back-edges** are flagged on *all* imports, including function-level
  ones — deferring an upward import hides the layering breach without
  removing it.
* **Cycles** are detected on *top-level* imports only: a lazy
  function-level import is exactly how one legitimately breaks an
  import-time cycle, so only the graph Python must resolve at import
  time participates.

``from pkg import name`` resolves *name* against the scanned module
set: when ``pkg.name`` is a real module the edge targets the submodule,
not the package — otherwise every ``from repro.xpath import lexer``
would count as an edge onto ``repro.xpath.__init__`` and fabricate
cycles through package re-exports.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.analysis.findings import Finding

__all__ = ["DEFAULT_MANIFEST", "check_layers", "component_of", "module_name"]

#: The package every scanned tree roots.
PACKAGE = "repro"

#: The declared architecture, bottom layer first.  Components in one
#: entry may import each other freely; imports must otherwise point at
#: strictly lower entries.  ``repro`` is the package ``__init__``.
DEFAULT_MANIFEST: Tuple[Tuple[str, ...], ...] = (
    ("xmltree", "lru", "obs", "faults"),
    ("xpath",),
    ("updates",),
    ("automata",),
    ("transform",),
    ("xquery", "compose", "streaming"),
    ("xmark", "compiled"),
    ("engine",),
    ("store",),
    ("service",),
    ("repro",),
    ("cli", "__main__"),
)


def module_name(rel_path: str) -> Optional[str]:
    """Dotted module name for a path relative to the package root
    (``store/views.py`` → ``repro.store.views``)."""
    if not rel_path.endswith(".py"):
        return None
    parts = rel_path[: -len(".py")].replace("\\", "/").split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([PACKAGE] + [p for p in parts if p])


def component_of(module: str) -> Optional[str]:
    """The manifest component a dotted module belongs to."""
    if module == PACKAGE:
        return PACKAGE
    prefix = PACKAGE + "."
    if not module.startswith(prefix):
        return None
    return module[len(prefix):].split(".", 1)[0]


class _ImportScan(ast.NodeVisitor):
    """All intra-package import edges of one module, split by whether
    they execute at module import time."""

    def __init__(self, importer: str, known: Set[str]):
        self.importer = importer
        self.known = known
        #: (target module, line, top-level?)
        self.edges: List[Tuple[str, int, bool]] = []
        self._depth = 0

    def _add(self, target: str, line: int) -> None:
        if target == self.importer:
            return
        if target == PACKAGE or target.startswith(PACKAGE + "."):
            self.edges.append((target, line, self._depth == 0))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._descend(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._descend(node)

    def _descend(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_base(node)
        if base is None:
            return
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            # `from pkg import submodule` targets the submodule when one
            # exists; otherwise it's a name pulled from pkg/__init__.
            self._add(candidate if candidate in self.known else base, node.lineno)

    def _resolve_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: climb from the importer's package.
        parts = self.importer.split(".")
        # A module's own package is parts[:-1]; each extra level climbs one.
        base_parts = parts[: len(parts) - node.level]
        if not base_parts:
            return None
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)


def scan_imports(
    importer: str, source: str, known: Set[str],
    tree: Optional[ast.Module] = None,
) -> List[Tuple[str, int, bool]]:
    """Intra-package import edges of one module's source."""
    if tree is None:
        tree = ast.parse(source)
    scan = _ImportScan(importer, known)
    scan.visit(tree)
    return scan.edges


def _layer_index(
    manifest: Sequence[Sequence[str]],
) -> Dict[str, int]:
    index: Dict[str, int] = {}
    for depth, layer in enumerate(manifest):
        for component in layer:
            index[component] = depth
    return index


def check_layers(
    modules: Dict[str, Tuple[str, List[Tuple[str, int, bool]]]],
    manifest: Sequence[Sequence[str]] = DEFAULT_MANIFEST,
) -> List[Finding]:
    """Verify the real import graph against the manifest.

    *modules* maps dotted module name to ``(path, edges)`` where edges
    come from :func:`scan_imports`.  Emits one finding per back-edge
    (or unknown component), one per manifest component no module
    belongs to (a stale entry, anchored at ``<manifest>:<layer>``) and
    one per module-level import cycle.
    """
    index = _layer_index(manifest)
    findings: List[Finding] = []
    toplevel: Dict[str, Set[str]] = {}

    for importer, (path, edges) in sorted(modules.items()):
        from_comp = component_of(importer)
        if from_comp is None:
            continue
        if from_comp not in index:
            findings.append(
                Finding(
                    "layers", path, 1, "layers.unknown-component", from_comp,
                    f"component {from_comp!r} ({importer}) is not in the "
                    "layer manifest",
                )
            )
            continue
        tops = toplevel.setdefault(importer, set())
        for target, line, is_top in edges:
            if is_top:
                tops.add(target)
            to_comp = component_of(target)
            if to_comp is None:
                continue
            if to_comp not in index:
                findings.append(
                    Finding(
                        "layers", path, line, "layers.unknown-component",
                        to_comp,
                        f"import target component {to_comp!r} ({target}) is "
                        "not in the layer manifest",
                    )
                )
                continue
            if index[to_comp] > index[from_comp]:
                findings.append(
                    Finding(
                        "layers", path, line, "layers.back-edge",
                        f"{from_comp} -> {to_comp}",
                        f"{importer} (layer {index[from_comp]}: {from_comp}) "
                        f"imports {target} (layer {index[to_comp]}: "
                        f"{to_comp}) — upward edge violates the manifest",
                    )
                )

    present = {component_of(module) for module in modules}
    for depth, layer in enumerate(manifest):
        for component in layer:
            if component not in present:
                findings.append(
                    Finding(
                        "layers", "<manifest>", depth + 1,
                        "layers.stale-component", component,
                        f"manifest component {component!r} (layer {depth}) "
                        f"has no module under {PACKAGE}",
                    )
                )

    findings.extend(_find_cycles(modules, toplevel))
    return findings


def _find_cycles(
    modules: Dict[str, Tuple[str, List[Tuple[str, int, bool]]]],
    toplevel: Dict[str, Set[str]],
) -> Iterable[Finding]:
    """Module-level import cycles via iterative DFS, one finding per
    distinct cycle (reported at its lexicographically-first member)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {m: WHITE for m in modules}
    seen_cycles: Set[Tuple[str, ...]] = set()
    findings: List[Finding] = []

    def neighbors(module: str) -> List[str]:
        return sorted(t for t in toplevel.get(module, ()) if t in modules)

    for root in sorted(modules):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[str, Iterable[str]]] = [(root, iter(neighbors(root)))]
        path: List[str] = [root]
        color[root] = GRAY
        while stack:
            module, it = stack[-1]
            advanced = False
            for target in it:
                if color[target] == GRAY:
                    start = path.index(target)
                    cycle = path[start:]
                    pivot = cycle.index(min(cycle))
                    canon = tuple(cycle[pivot:] + cycle[:pivot])
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        first = canon[0]
                        findings.append(
                            Finding(
                                "layers", modules[first][0], 1,
                                "layers.cycle", " -> ".join(canon),
                                "module-level import cycle: "
                                + " -> ".join(canon + (canon[0],)),
                            )
                        )
                elif color[target] == WHITE:
                    color[target] = GRAY
                    path.append(target)
                    stack.append((target, iter(neighbors(target))))
                    advanced = True
                    break
            if not advanced:
                color[module] = BLACK
                path.pop()
                stack.pop()
    return findings
