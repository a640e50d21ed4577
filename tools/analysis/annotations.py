"""The annotation grammar: comments the checkers read.

Annotations are ordinary ``#`` comments, so they cost nothing at
runtime and need no imports in the annotated module.  Four forms:

* ``# guarded-by: <lock>`` — trailing a ``self.attr = …`` assignment
  (or on the line directly above it): *attr* may only be touched under
  ``with <lock>:``.  *lock* is an expression relative to the instance,
  e.g. ``self._lock``.
* ``# guarded-by[a, b]: <lock>`` — standalone in a class body: the
  registry form declaring several attributes at once.
* ``# holds: <lock>`` — on a ``def`` line (or the line above): the
  method is documented as *called with the lock already held*, so its
  guarded accesses are legal.  Callers remain responsible for the lock.
* ``# hot-path`` — on a ``def`` line or its first decorator's line (or
  the line directly above either): the function is subject to the
  purity lint (no allocation-heavy constructs, no lock acquisition —
  see :mod:`tools.analysis.hotpath`).  A marker anywhere else is a
  finding.
* ``# unguarded: <reason>`` — trailing a flagged line: waives every
  finding on that line, with the reason surfaced in the report.
  Trailing a ``self.attr = …`` line in ``__init__`` (or in the
  ``# unguarded[a, b]: <reason>`` registry form) it instead *declares*
  the attribute deliberately unguarded — documented shared state the
  checker must not demand a lock for (e.g. grow-only tables with
  publish-last discipline).

Extraction is :mod:`tokenize`-based: the AST drops comments, so the
checkers pair this module's per-line comment map with the node line
numbers the AST provides.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Annotation", "FileAnnotations"]

_GUARDED_RE = re.compile(
    r"^guarded-by(?:\[(?P<names>[^\]]*)\])?\s*:\s*(?P<lock>\S.*?)\s*$"
)
_HOLDS_RE = re.compile(r"^holds\s*:\s*(?P<lock>\S.*?)\s*$")
_UNGUARDED_RE = re.compile(
    r"^unguarded(?:\[(?P<names>[^\]]*)\])?\s*:\s*(?P<reason>\S.*?)\s*$"
)
_HOTPATH_RE = re.compile(r"^hot-path\s*(?::\s*(?P<note>.*))?$")


def normalize_lock(text: str) -> str:
    """Canonical spelling of a lock expression (whitespace dropped), so
    ``with self._lock :`` matches a ``guarded-by: self._lock``."""
    return re.sub(r"\s+", "", text)


@dataclass
class Annotation:
    """One parsed annotation comment."""

    kind: str                 # "guarded-by" | "holds" | "unguarded" | "hot-path"
    line: int                 # line the comment sits on
    standalone: bool          # whole-line comment (vs. trailing code)
    names: Optional[Tuple[str, ...]] = None   # registry-form attribute list
    lock: str = ""            # normalized lock expression
    reason: str = ""          # unguarded waiver reason


def _parse_comment(text: str, line: int, standalone: bool) -> Optional[Annotation]:
    body = text.lstrip("#").strip()
    match = _GUARDED_RE.match(body)
    if match:
        names = _split_names(match.group("names"))
        return Annotation(
            "guarded-by", line, standalone,
            names=names, lock=normalize_lock(match.group("lock")),
        )
    match = _HOLDS_RE.match(body)
    if match:
        return Annotation(
            "holds", line, standalone, lock=normalize_lock(match.group("lock"))
        )
    match = _UNGUARDED_RE.match(body)
    if match:
        names = _split_names(match.group("names"))
        return Annotation(
            "unguarded", line, standalone,
            names=names, reason=match.group("reason"),
        )
    if _HOTPATH_RE.match(body):
        return Annotation("hot-path", line, standalone)
    return None


def _split_names(raw: Optional[str]) -> Optional[Tuple[str, ...]]:
    if raw is None:
        return None
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    return names


class FileAnnotations:
    """Every annotation in one source file, indexed by line."""

    def __init__(self, source: str):
        self.by_line: Dict[int, Annotation] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                line_no = token.start[0]
                prefix = token.line[: token.start[1]]
                standalone = not prefix.strip()
                parsed = _parse_comment(token.string, line_no, standalone)
                if parsed is not None:
                    self.by_line[line_no] = parsed
        except tokenize.TokenError:
            # A file the AST parser also rejects; the runner reports
            # the syntax error, annotations just come back empty.
            pass

    # ------------------------------------------------------------------
    # Placement lookups
    # ------------------------------------------------------------------

    def at(self, line: int, kind: str) -> Optional[Annotation]:
        """The *kind* annotation trailing code on *line* (any placement
        counts when the comment owns the whole line)."""
        found = self.by_line.get(line)
        if found is not None and found.kind == kind:
            return found
        return None

    def attached(self, line: int, kind: str) -> Optional[Annotation]:
        """The *kind* annotation attached to the statement starting at
        *line*: trailing the line itself, or a standalone comment on
        the line directly above."""
        found = self.at(line, kind)
        if found is not None:
            return found
        above = self.by_line.get(line - 1)
        if above is not None and above.kind == kind and above.standalone:
            return above
        return None

    def waiver(self, line: int) -> Optional[Annotation]:
        """The ``# unguarded:`` waiver trailing *line*, if any (the
        registry form never waives — it declares)."""
        found = self.at(line, "unguarded")
        if found is not None and found.names is None:
            return found
        return None

    def in_span(self, start: int, end: int) -> List[Annotation]:
        """Standalone annotations whose line falls in [start, end]."""
        return [
            ann
            for line, ann in sorted(self.by_line.items())
            if start <= line <= end and ann.standalone
        ]
