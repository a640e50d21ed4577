"""Drive the three checkers over a source tree and render the report.

``python -m tools.analysis`` lands in :func:`main`.  The default root
is ``src/repro`` beside this tool, so the shipped tree is what gets
checked with no arguments; ``--root`` points anywhere else (tests use
this against fixture trees).

Exit status: 0 when no violation is found, 1 otherwise, 2 on usage
errors — mirroring the ``repro`` CLI's error boundary.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from tools.analysis.findings import Finding, Report
from tools.analysis.guards import check_guards
from tools.analysis.hotpath import check_hotpaths
from tools.analysis.layers import (
    DEFAULT_MANIFEST,
    check_layers,
    module_name,
    scan_imports,
)

__all__ = ["analyze_tree", "main"]

#: Directories never scanned (caches, scratch).
_SKIP_DIRS = {"__pycache__", ".git"}

#: ``src/repro``, located from this file rather than by ``import repro``,
#: so a broken tree can still be linted.
_DEFAULT_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro",
)


def _iter_sources(root: str) -> List[Tuple[str, str]]:
    """``(relative path, absolute path)`` for every ``.py`` under root,
    sorted for deterministic reports."""
    out: List[Tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            abs_path = os.path.join(dirpath, name)
            rel = os.path.relpath(abs_path, root).replace(os.sep, "/")
            out.append((rel, abs_path))
    return out


def analyze_tree(
    root: str, manifest: Sequence[Sequence[str]] = DEFAULT_MANIFEST
) -> Report:
    """Run all three checkers over the ``repro`` package rooted at *root*."""
    report = Report()
    sources: Dict[str, Tuple[str, ast.Module]] = {}  # rel -> (src, tree)
    known: "set[str]" = set()

    for rel, abs_path in _iter_sources(root):
        with open(abs_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            report.violations.append(
                Finding(
                    "layers", rel, exc.lineno or 1, "parse.error", rel,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        sources[rel] = (source, tree)
        name = module_name(rel)
        if name is not None:
            known.add(name)

    modules: Dict[str, Tuple[str, List[Tuple[str, int, bool]]]] = {}
    for rel, (source, tree) in sources.items():
        report.files_scanned += 1

        findings, declared = check_guards(rel, source, tree)
        report.extend(findings)
        for guards in declared:
            for attr, lock in sorted(guards.guarded.items()):
                report.guarded_attrs.append(
                    {"path": rel, "cls": guards.name, "attr": attr, "lock": lock}
                )
            for attr, reason in sorted(guards.unguarded.items()):
                report.declared_unguarded.append(
                    {"path": rel, "cls": guards.name, "attr": attr,
                     "reason": reason}
                )

        findings, hot = check_hotpaths(rel, source, tree)
        report.extend(findings)
        module = module_name(rel)
        prefix = module if module is not None else rel
        report.hot_functions.extend(f"{prefix}.{name}" for name in hot)

        if module is not None:
            modules[module] = (rel, scan_imports(module, source, known, tree))

    report.extend(check_layers(modules, manifest))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Static analysis: lock discipline, import layering, "
        "hot-path purity.",
    )
    parser.add_argument(
        "--root", default=_DEFAULT_ROOT,
        help="package directory to scan (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    opts = parser.parse_args(argv)
    if not os.path.isdir(opts.root):
        print(f"error: not a directory: {opts.root}", file=sys.stderr)
        return 2
    report = analyze_tree(opts.root)
    print(report.to_json() if opts.json else report.to_text())
    return 0 if report.ok else 1
