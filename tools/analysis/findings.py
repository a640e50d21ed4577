"""Findings and reports — the data model every checker in
:mod:`tools.analysis` emits into.  A :class:`Finding` is one
diagnostic anchored at ``file:line``."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["Finding", "Report"]


@dataclass
class Finding:
    """One diagnostic: a rule violation, or a waived occurrence."""

    checker: str            # "lock" | "layers" | "hotpath"
    path: str               # path as scanned (repo- or package-relative)
    line: int               # 1-indexed
    code: str               # e.g. "lock.unguarded-write"
    subject: str            # attribute / "a -> b" edge / construct name
    message: str            # the human-readable sentence
    waived: bool = False    # suppressed by an inline `# unguarded:` comment
    reason: str = ""        # the waiver's reason text (when waived)

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "subject": self.subject,
            "message": self.message,
        }
        if self.waived:
            out["waived"] = True
            out["reason"] = self.reason
        return out


@dataclass
class Report:
    """Everything one analysis run produced.

    ``violations`` are the findings that gate (exit non-zero);
    ``waived`` carry an inline ``# unguarded:`` comment and
    only inform; ``declared_unguarded`` are attributes *declared*
    exempt at their definition site — both waiver kinds print with
    their reasons, so every exemption stays visible in every report.
    """

    violations: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    #: (path, class, attribute, reason) declaration-site waivers.
    declared_unguarded: List[Dict[str, str]] = field(default_factory=list)
    #: (path, class, attribute, lock) — what the guard checker proved.
    guarded_attrs: List[Dict[str, str]] = field(default_factory=list)
    #: Fully-qualified names of functions under the hot-path lint.
    hot_functions: List[str] = field(default_factory=list)
    files_scanned: int = 0

    def extend(self, findings: Sequence[Finding]) -> None:
        for finding in findings:
            (self.waived if finding.waived else self.violations).append(finding)

    def summary(self) -> Dict[str, int]:
        """Totals under the obs ``layer.component.metric`` scheme."""
        by_checker = {"lock": 0, "layers": 0, "hotpath": 0}
        for finding in self.violations:
            by_checker[finding.checker] += 1
        return {
            "analysis.lock.violations": by_checker["lock"],
            "analysis.layers.violations": by_checker["layers"],
            "analysis.hotpath.violations": by_checker["hotpath"],
            "analysis.lock.guarded_attrs": len(self.guarded_attrs),
            "analysis.lock.declared_unguarded": len(self.declared_unguarded),
            "analysis.hotpath.functions": len(self.hot_functions),
            "analysis.waived.count": len(self.waived),
            "analysis.files.scanned": self.files_scanned,
        }

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "violations": [f.to_dict() for f in self.violations],
                "waived": [f.to_dict() for f in self.waived],
                "declared_unguarded": self.declared_unguarded,
                "guarded_attrs": self.guarded_attrs,
                "hot_functions": sorted(self.hot_functions),
                "summary": self.summary(),
            },
            indent=2,
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines: List[str] = []
        for finding in sorted(
            self.violations, key=lambda f: (f.path, f.line, f.code)
        ):
            lines.append(f"{finding.location()}: [{finding.checker}] {finding.message}")
        if self.waived:
            lines.append("")
            lines.append(f"waived ({len(self.waived)}):")
            for finding in sorted(self.waived, key=lambda f: (f.path, f.line)):
                lines.append(
                    f"  {finding.location()}: [{finding.checker}] "
                    f"{finding.subject} — {finding.reason}"
                )
        if self.declared_unguarded:
            lines.append("")
            lines.append(f"declared unguarded ({len(self.declared_unguarded)}):")
            for entry in self.declared_unguarded:
                lines.append(
                    f"  {entry['path']}: {entry['cls']}.{entry['attr']} — "
                    f"{entry['reason']}"
                )
        lines.append("")
        lines.append(
            f"{len(self.violations)} violation(s) · {len(self.waived)} waived · "
            f"{len(self.guarded_attrs)} guarded attrs · "
            f"{len(self.hot_functions)} hot-path functions · "
            f"{self.files_scanned} files"
        )
        return "\n".join(lines)

