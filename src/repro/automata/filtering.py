"""The filtering NFA ``Mf`` of an ``X`` expression (Section 5).

``Mf`` extends the selecting spine with *branch* states for every path
occurring in a qualifier (recursively, including paths nested inside
qualifier-path qualifiers), "stripping off the logical connectives".
Its job in ``bottomUp`` is purely structural: a node with an empty
(unfiltered) state set can contribute neither to the selecting path nor
to any qualifier that will ever be needed, so its subtree is pruned.

Each spine state with a non-trivial qualifier is annotated with the
normalized (Section-5 normal form) expression of that qualifier in a
shared :class:`~repro.xpath.normalize.QualifierSpace`; ``bottomUp``
evaluates the space's expressions with ``QualDP`` and the transform's
selection decisions read them back through ``state.nq_id``.

Cf. Fig. 8: for ``//part[pname='keyboard']//part[¬ supplier/sname='HP'
∧ ¬ supplier/price<15]`` the spine is as in Fig. 5 and branches hang
off the two ``part`` states for ``pname``, ``supplier/sname`` and
``supplier/price``.
"""

from __future__ import annotations

from repro.xpath.ast import (
    AndQual,
    CmpQual,
    NotQual,
    OrQual,
    Path,
    PathQual,
    Qual,
    TrueQual,
)
from repro.xpath.normalize import QualifierSpace, normalize_steps
from repro.automata.core import TEST_START, Automaton, State


class FilteringNFA(Automaton):
    """``Mf``: tracks which nodes may matter to selection or qualifiers."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path
        self.space = QualifierSpace()
        context_qual, steps = normalize_steps(path)
        self.context_qual = context_qual
        self.add_state(TEST_START, None, context_qual)
        self._annotate(self.start)  # context qualifier (.[q]/…), if any
        self._attach_qual_branches(self.start, context_qual)
        previous = self.start
        spine: list[State] = []
        for step in steps:
            last = self.append_chain(previous, [step])
            spine.append(last)
            self._annotate(last)
            self._attach_qual_branches(last, step.qual)
            previous = last
        if not spine:
            raise ValueError("the empty path has no filtering NFA")
        spine[-1].is_final = True
        self.final_id = spine[-1].sid
        self.spine_ids = frozenset(s.sid for s in spine) | {0}

    # ------------------------------------------------------------------

    def _annotate(self, state: State) -> None:
        """Record the normalized form of the state's qualifier."""
        if state.has_qualifier:
            state.nq_id = self.space.normalize_qual(state.qual).nq_id

    def _attach_qual_branches(self, anchor: State, qual: Qual) -> None:
        """Add branch chains for every path inside *qual* (recursively)."""
        for path in _paths_of(qual):
            self._attach_path_branch(anchor, path)

    def _attach_path_branch(self, anchor: State, path: Path) -> None:
        steps = list(path.steps)
        if steps and steps[-1].kind == "attr":
            steps = steps[:-1]  # attributes live on the node the prefix reaches
        current = anchor
        for step in steps:
            if step.kind == "self":
                # ε[q]/… — the nested qualifier is evaluated at the same
                # node; only its own paths extend the branch.
                for q in step.quals:
                    self._attach_qual_branches(current, q)
                continue
            if step.kind == "attr":
                raise ValueError("attribute steps are final-only in qualifier paths")
            _, norm = normalize_steps(Path((step.with_quals(()),)))
            current = self.append_chain(current, norm)
            for q in step.quals:
                self._attach_qual_branches(current, q)


def build_filtering_nfa(path: Path) -> FilteringNFA:
    """Construct the filtering NFA for an ``X`` path."""
    return FilteringNFA(path)


def _paths_of(qual: Qual) -> list:
    """All qualifier paths directly mentioned by *qual* (connectives
    stripped; nested paths are handled during branch attachment)."""
    if isinstance(qual, TrueQual):
        return []
    if isinstance(qual, PathQual):
        return [qual.path]
    if isinstance(qual, CmpQual):
        return [qual.path] if qual.path.steps else []
    if isinstance(qual, (AndQual, OrQual)):
        return _paths_of(qual.left) + _paths_of(qual.right)
    if isinstance(qual, NotQual):
        return _paths_of(qual.operand)
    return []  # LabelQual and friends carry no paths
