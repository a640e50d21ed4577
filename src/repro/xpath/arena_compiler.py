"""Qualifier compilation for the columnar arena: a ``Qual`` AST becomes
a closure ``fn(arena, i) -> bool`` over pre-order indices.

The arena twin of :mod:`repro.xpath.compiler`, with identical semantics
(the arena property tests hold the three evaluators —
``eval_qualifier``, the Node closures, and these — together on random
documents):

* element values are the arena's precomputed **own-text column** — a
  ``price < 15`` check is one list index plus a comparison, no child
  scan;
* a child step scans the element's children by hopping pre-order
  ranges (``j = end[j]``); a descendant step scans the contiguous
  ``range(i, end[i])`` slice — both are int loops with no per-node
  allocation; ``//label`` walks the label's postings inside that
  range instead of the range;
* label tests compare interned **symbol ids**, never strings;
* number literals never match non-numeric text, comparisons are
  existential, attribute steps are final-only.

The one intentional divergence mirrors the Node compiler's: a
mid-path attribute step (which the reference evaluator rejects *at
check time*) compiles to a closure that thaws the context node and
defers to ``eval_qualifier``, so the error surfaces at the same moment
with the same message.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from repro.xmltree.arena import FrozenDocument
from repro.xmltree.symbols import SymbolTable, global_symbols
from repro.xpath.ast import (
    AndQual,
    CmpQual,
    LabelQual,
    NotQual,
    OrQual,
    PathQual,
    Qual,
    TrueQual,
)
from repro.xpath.compiler import _compile_compare
from repro.xpath.evaluator import eval_qualifier

__all__ = ["compile_qualifier_arena"]

#: A compiled arena qualifier: truth at pre-order index *i*.
ArenaCheck = Callable[[FrozenDocument, int], bool]


def _always(arena: FrozenDocument, i: int) -> bool:
    return True


def compile_qualifier_arena(
    qual: Qual, symbols: SymbolTable = None
) -> ArenaCheck:
    """Compile *qual* to an arena closure with ``eval_qualifier``
    semantics.  *symbols* must be the table the target arenas intern
    through (the process-wide default for every built-in load path)."""
    if symbols is None:
        symbols = global_symbols()
    if isinstance(qual, TrueQual):
        return _always
    if isinstance(qual, LabelQual):
        label_sym = symbols.intern(qual.label)

        def check_label(arena, i, label_sym=label_sym):
            return arena.sym[i] == label_sym

        return check_label
    if isinstance(qual, AndQual):
        left = compile_qualifier_arena(qual.left, symbols)
        right = compile_qualifier_arena(qual.right, symbols)
        return lambda arena, i: left(arena, i) and right(arena, i)
    if isinstance(qual, OrQual):
        left = compile_qualifier_arena(qual.left, symbols)
        right = compile_qualifier_arena(qual.right, symbols)
        return lambda arena, i: left(arena, i) or right(arena, i)
    if isinstance(qual, NotQual):
        inner = compile_qualifier_arena(qual.operand, symbols)
        return lambda arena, i: not inner(arena, i)
    if isinstance(qual, PathQual):
        return _compile_path_qual(qual, symbols)
    if isinstance(qual, CmpQual):
        return _compile_cmp_qual(qual, symbols)
    raise TypeError(f"unknown qualifier {qual!r}")


# ----------------------------------------------------------------------
# Path existence and comparisons
# ----------------------------------------------------------------------


def _compile_path_qual(qual: PathQual, symbols: SymbolTable) -> ArenaCheck:
    steps = qual.path.steps
    if steps and steps[-1].kind == "attr":
        name = steps[-1].name

        def terminal(arena, i, name=name):
            return arena.attr(i, name) is not None

        steps = steps[:-1]
    else:
        terminal = _always
    return _compile_steps(steps, terminal, qual, symbols)


def _compile_cmp_qual(qual: CmpQual, symbols: SymbolTable) -> ArenaCheck:
    cmp_text = _compile_compare(qual.op, qual.value)
    steps = qual.path.steps
    if not steps:
        return lambda arena, i: cmp_text(arena.payload[i])
    if steps[-1].kind == "attr":
        name = steps[-1].name

        def terminal(arena, i, name=name, cmp_text=cmp_text):
            value = arena.attr(i, name)
            return value is not None and cmp_text(value)

        steps = steps[:-1]
    else:
        terminal = lambda arena, i, cmp_text=cmp_text: cmp_text(arena.payload[i])  # noqa: E731
    return _compile_steps(steps, terminal, qual, symbols)


# ----------------------------------------------------------------------
# Step chains (right-to-left, existential)
# ----------------------------------------------------------------------


def _compile_steps(
    steps: tuple, terminal: ArenaCheck, origin: Qual, symbols: SymbolTable
) -> ArenaCheck:
    """Existence of an index reachable via *steps* satisfying
    *terminal* (order and duplicates are irrelevant for existence)."""
    fn = terminal
    at = len(steps)
    while at:
        at -= 1
        step = steps[at]
        if step.kind == "attr":
            # Mid-path attribute step: keep the reference evaluator's
            # check-time error, message and all, by deferring to it on
            # the thawed context node.
            def check_deferred(arena, i, origin=origin):
                from repro.xmltree.arena import thaw

                return eval_qualifier(thaw(arena, i), origin)

            return check_deferred
        quals = tuple(compile_qualifier_arena(q, symbols) for q in step.quals)
        if step.kind == "label" and at and steps[at - 1].kind == "dos" and not steps[at - 1].quals:
            # ``//label`` from i: exactly the label's postings strictly
            # inside i's range — walk those, not every node of the range.
            fn = _compile_descendant_label(symbols.intern(step.name), quals, fn)
            at -= 1
        else:
            fn = _compile_step(step.kind, step.name, quals, fn, symbols)
    return fn


def _compile_descendant_label(label_sym: int, quals: tuple, rest: ArenaCheck) -> ArenaCheck:
    def check_descendant_label(arena, i, key=(label_sym,), quals=quals, rest=rest):
        found = arena.postings(key)
        limit = arena.end[i]
        for k in range(bisect_right(found, i), len(found)):
            j = found[k]
            if j >= limit:
                return False
            for q in quals:
                if not q(arena, j):
                    break
            else:
                if rest(arena, j):
                    return True
        return False

    return check_descendant_label


def _compile_step(
    kind: str, name, quals: tuple, rest: ArenaCheck, symbols: SymbolTable
) -> ArenaCheck:
    if kind == "self":
        if not quals:
            return rest

        def check_self(arena, i, quals=quals, rest=rest):
            for q in quals:
                if not q(arena, i):
                    return False
            return rest(arena, i)

        return check_self
    if kind == "dos":
        if not quals:

            def check_dos_fast(arena, i, rest=rest):
                sym = arena.sym
                for j in range(i, arena.end[i]):
                    if sym[j] >= 0 and rest(arena, j):
                        return True
                return False

            return check_dos_fast

        def check_dos(arena, i, quals=quals, rest=rest):
            sym = arena.sym
            for j in range(i, arena.end[i]):
                if sym[j] < 0:
                    continue
                for q in quals:
                    if not q(arena, j):
                        break
                else:
                    if rest(arena, j):
                        return True
            return False

        return check_dos
    if kind == "label":
        label_sym = symbols.intern(name)

        def check_label(arena, i, label_sym=label_sym, quals=quals, rest=rest):
            sym = arena.sym
            end = arena.end
            j = i + 1
            limit = end[i]
            while j < limit:
                if sym[j] == label_sym:
                    for q in quals:
                        if not q(arena, j):
                            break
                    else:
                        if rest(arena, j):
                            return True
                j = end[j]
            return False

        return check_label
    # wildcard

    def check_wild(arena, i, quals=quals, rest=rest):
        sym = arena.sym
        end = arena.end
        j = i + 1
        limit = end[i]
        while j < limit:
            if sym[j] >= 0:
                for q in quals:
                    if not q(arena, j):
                        break
                else:
                    if rest(arena, j):
                        return True
            j = end[j]
        return False

    return check_wild
