"""Qualifier evaluation over the columnar arena, in two forms.

**The single-node form** — :func:`compile_qualifier_arena`: a ``Qual``
AST becomes a closure ``fn(arena, i) -> bool`` over pre-order indices.
The arena twin of :mod:`repro.xpath.compiler`, with identical semantics
(the arena property tests hold the three evaluators —
``eval_qualifier``, the Node closures, and these — together on random
documents):

* element values are the arena's precomputed **own-text column** — a
  ``price < 15`` check is one list index plus a comparison, no child
  scan;
* a child step scans the element's children by hopping pre-order
  ranges (``j += size[j]``); a descendant step scans the contiguous
  ``range(i, i + size[i])`` slice — both are int loops with no per-node
  allocation; ``//label`` walks the label's postings inside that
  range instead of the range;
* label tests compare interned **symbol ids**, never strings;
* number literals never match non-numeric text, comparisons are
  existential, attribute steps are final-only.

A mid-path attribute step is refused when the path is parsed; a
hand-built AST that carries one raises the parser's
:class:`~repro.xpath.lexer.XPathSyntaxError` here, at compile time, as
the Node compiler does.

**The set form** — :func:`sweep_qualifier`: the candidates of one
label inside one pre-order range at which the qualifier holds, as a
bottom-up semi-join over the columns.  This is the paper's ``twoPass``
trade on the arena: a selecting scan that asks the closure decides the
qualifier again at every candidate it steps on (two child scans and
four calls each for ``person[profile/age > 60]``); the sweep slices
the *leaf* label's postings to the range, filters them by the terminal
comparison, and hops to the parent (``j - up[j]``) once per path
step — work bounded by
the leaf postings inside the range, shared by every candidate.  The
scan (:func:`repro.automata.arena_run.select_indices`) then reads
membership, and jumps straight to the members.

The sweep covers what postings reach: label and self steps, a final
attribute, own-text comparisons, ``and`` / ``or`` / ``not``, and
step-nested qualifiers of the same shapes.  It returns ``None`` — and
the closure stays the one evaluator — for

* a wildcard or ``//`` step inside the qualifier (no single label's
  postings hold the nodes such a step reaches);
* a wildcard candidate (no label to take the candidates from).

Whether a supported range *is* swept is :func:`choose_sweep` — the one
rule, below: not for a handful of candidates (a sweep has a fixed
price per range; a ``for`` body that evaluates ``$p/profile[age > 30]``
per person opens 1 275 one-candidate ranges), and not where the leaves
outnumber the candidates many times over (an existential closure
short-circuits, a sweep cannot).  Single-node callers (``QualCheck``,
the context qualifier, ``_context_matches``) always use the closure.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from typing import Callable, Optional

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
from repro.xpath.parser import attribute_not_final

__all__ = ["choose_sweep", "compile_qualifier_arena", "sweep_qualifier"]

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
    return _compile_steps(steps, terminal, symbols)


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
    return _compile_steps(steps, terminal, symbols)


# ----------------------------------------------------------------------
# Step chains (right-to-left, existential)
# ----------------------------------------------------------------------


def _compile_steps(steps: tuple, terminal: ArenaCheck, symbols: SymbolTable) -> ArenaCheck:
    """Existence of an index reachable via *steps* satisfying
    *terminal* (order and duplicates are irrelevant for existence)."""
    fn = terminal
    at = len(steps)
    while at:
        at -= 1
        step = steps[at]
        if step.kind == "attr":
            raise attribute_not_final(step)
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
        limit = i + arena.size[i]
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
                for j in range(i, i + arena.size[i]):
                    if sym[j] >= 0 and rest(arena, j):
                        return True
                return False

            return check_dos_fast

        def check_dos(arena, i, quals=quals, rest=rest):
            sym = arena.sym
            for j in range(i, i + arena.size[i]):
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
            size = arena.size
            j = i + 1
            limit = i + size[i]
            while j < limit:
                if sym[j] == label_sym:
                    for q in quals:
                        if not q(arena, j):
                            break
                    else:
                        if rest(arena, j):
                            return True
                j += size[j]
            return False

        return check_label
    # wildcard

    def check_wild(arena, i, quals=quals, rest=rest):
        sym = arena.sym
        size = arena.size
        j = i + 1
        limit = i + size[i]
        while j < limit:
            if sym[j] >= 0:
                for q in quals:
                    if not q(arena, j):
                        break
                else:
                    if rest(arena, j):
                        return True
            j += size[j]
        return False

    return check_wild


# ----------------------------------------------------------------------
# The set form: a qualifier over a range of candidates, as a semi-join
# ----------------------------------------------------------------------

#: The rule's two constants (see :func:`choose_sweep`), each read off a
#: table ``benchmarks/bench_arena.py`` prints
#: (``test_the_rule_keeps_the_closure_on_a_leaf_heavy_range``; this
#: host, factor 0.05, µs).
#:
#: A sweep pays a fixed price per range — slices, sets, a parent hop per
#: step — that a closure call or two undercut.  One scan per holder of
#: ``c[v > 90]`` with *n* candidates, every range swept / every range
#: stepped: n=1 8.2 / 3.7, n=8 11.9 / 9.9, n=12 13.5 / 13.1,
#: n=16 14.7 / 16.7, n=32 20.1 / 28.9.  Below this many candidates in
#: the range the closures decide them.
SWEEP_MIN_CANDIDATES = 16
#: A sweep examines every leaf; the closure, being existential, stops
#: at a candidate's first witness.  Per candidate of ``c[v = 'w']``
#: with *k* leaves each, sweep / closure with the witness first /
#: closure with no witness: k=1 0.26 / 0.18 / 0.20, k=8 0.86 / 0.21 /
#: 1.15, k=16 1.50 / 0.21 / 2.17, k=64 5.4 / 0.21 / 8.5 — and a
#: candidate the walk steps instead of jumping costs ~0.4 more.  Up to
#: this many leaf postings per candidate posting the sweep is about
#: even with the closure's best case and ahead of its worst; beyond, it
#: is the closure's range (``regions[africa/item/location = 'x']``,
#: one candidate over 1 087 leaves: closure 0.0015 ms, sweep 0.21 ms).
SWEEP_LEAF_RATIO = 8

_UNSWEPT_STEPS = {
    "wildcard": "wildcard-step",
    "dos": "descendant-step",
}


# hot-path
def choose_sweep(
    qual: Qual, arena: FrozenDocument, candidate_sym: int, lo: int, hi: int
) -> tuple:
    """The one rule deciding whether the candidates labelled
    *candidate_sym* in ``[lo, hi)`` have *qual* swept or stepped:
    sweep iff the shape is one :func:`sweep_qualifier` covers, the
    range holds at least :data:`SWEEP_MIN_CANDIDATES` candidates, and
    its leaf postings are at most :data:`SWEEP_LEAF_RATIO` times those.

    Returns ``(verdict, leaves)``: ``"sweep"`` with the leaf postings
    the sweep will examine, or the reason the closure keeps the range
    — ``"unsupported:<shape>"``, ``"few-candidates"``, ``"leaf-heavy"``.
    Pure: two bisects per label, cheapest test first, nothing
    remembered.
    """
    if candidate_sym < 0:
        return "unsupported:wildcard-candidate", 0
    candidates = _count_labelled(arena, candidate_sym, lo, hi)
    if candidates < SWEEP_MIN_CANDIDATES:
        return "few-candidates", 0
    leaf_syms: list = []
    shape = _sweep_leaves(qual, candidate_sym, arena.symbols, leaf_syms)
    if shape is not None:
        return "unsupported:" + shape, 0
    leaves = 0
    for leaf in leaf_syms:
        if leaf is not None:
            leaves += _count_labelled(arena, leaf, lo, hi)
    if leaves > SWEEP_LEAF_RATIO * candidates:
        return "leaf-heavy", leaves
    return "sweep", leaves


# hot-path
def sweep_qualifier(
    qual: Qual, arena: FrozenDocument, candidate_sym: int, lo: int, hi: int
) -> Optional[list]:
    """The sorted pre-order indices in ``[lo, hi)`` labelled
    *candidate_sym* at which *qual* holds — equal to filtering those
    candidates through :func:`compile_qualifier_arena`'s closure — or
    ``None`` for a shape the sweep does not cover (module docstring).

    ``[lo, hi)`` must not cut a candidate's subtree at *hi*: pass the
    end of a range that encloses *lo* (the scan passes the innermost
    open range; ``len(arena)`` always qualifies).
    """
    if candidate_sym < 0:
        return None
    if _sweep_leaves(qual, candidate_sym, arena.symbols, []) is not None:
        return None
    candidates = _labelled(arena, candidate_sym, lo, hi)
    return sorted(_sweep(qual, arena, candidate_sym, candidates, lo, hi))


def _labelled(arena: FrozenDocument, sym: int, lo: int, hi: int):
    found = arena.postings((sym,))
    return found[bisect_left(found, lo):bisect_left(found, hi)]


def _count_labelled(arena: FrozenDocument, sym: int, lo: int, hi: int) -> int:
    found = arena.postings((sym,))
    return bisect_left(found, hi) - bisect_left(found, lo)


# hot-path
def _sweep_leaves(
    qual: Qual, sym: Optional[int], symbols: SymbolTable, leaves: list
) -> Optional[str]:
    """Append to *leaves* the symbol of every label whose postings a
    sweep of *qual* over nodes labelled *sym* slices (``None`` for a
    label no document has interned), or return the name of the shape
    that keeps *qual* on the closure."""
    if isinstance(qual, (TrueQual, LabelQual)):
        return None
    if isinstance(qual, (AndQual, OrQual)):
        shape = _sweep_leaves(qual.left, sym, symbols, leaves)
        if shape is not None:
            return shape
        return _sweep_leaves(qual.right, sym, symbols, leaves)
    if isinstance(qual, NotQual):
        return _sweep_leaves(qual.operand, sym, symbols, leaves)
    steps = qual.path.steps
    if steps and steps[-1].kind == "attr":
        steps = steps[:-1]
    for step in steps:
        if step.kind == "label":
            sym = symbols.id_of(step.name)
        elif step.kind == "attr":
            raise attribute_not_final(step)
        elif step.kind != "self":
            return _UNSWEPT_STEPS[step.kind]
        for nested in step.quals:
            shape = _sweep_leaves(nested, sym, symbols, leaves)
            if shape is not None:
                return shape
    leaves.append(sym)
    return None


# hot-path
def _sweep(
    qual: Qual, arena: FrozenDocument, sym: Optional[int], nodes, lo: int, hi: int
) -> set:
    """Where *qual* holds among *nodes*: the whole slice of the range
    ``[lo, hi)`` labelled *sym* (an array), or a ``set`` of survivors
    restricting it.  Under a restriction the result may also hold other
    nodes labelled *sym* in the range at which *qual* holds — a path
    sweep starts from the leaves, not from *nodes* — so the callers
    that restrict intersect; over the whole slice it is exact.
    """
    if isinstance(qual, TrueQual):
        return set(nodes)
    if isinstance(qual, LabelQual):
        return set(nodes) if arena.symbols.id_of(qual.label) == sym else set()
    if isinstance(qual, AndQual):
        left = _sweep(qual.left, arena, sym, nodes, lo, hi)
        if not left:
            return left
        return left & _sweep(qual.right, arena, sym, left, lo, hi)
    if isinstance(qual, OrQual):
        return _sweep(qual.left, arena, sym, nodes, lo, hi) | _sweep(
            qual.right, arena, sym, nodes, lo, hi
        )
    if isinstance(qual, NotQual):
        return set(nodes) - _sweep(qual.operand, arena, sym, nodes, lo, hi)
    if isinstance(qual, (PathQual, CmpQual)):
        return _sweep_path(qual, arena, sym, nodes, lo, hi)
    raise TypeError("unknown qualifier " + repr(qual))


# hot-path
def _sweep_path(
    qual, arena: FrozenDocument, sym: Optional[int], nodes, lo: int, hi: int
) -> set:
    """``PathQual`` / ``CmpQual`` bottom-up: the leaf label's postings
    in the range, filtered by the terminal, hopped to the candidates."""
    steps = qual.path.steps
    attr_name = None
    if steps and steps[-1].kind == "attr":
        attr_name = steps[-1].name
        steps = steps[:-1]
    # One level per label step below the candidates' own (level 0); a
    # self step adds its qualifiers to the level it stands on.
    level_syms = [sym]
    level_quals = [()]
    id_of = arena.symbols.id_of
    for step in steps:
        if step.kind == "label":
            level_syms.append(id_of(step.name))
            level_quals.append(step.quals)
        else:
            level_quals[-1] = level_quals[-1] + step.quals
    up = arena.up
    at = len(level_syms) - 1
    if at == 0:
        found = nodes
    elif level_syms[at] is None:
        return set()
    else:
        found = _labelled(arena, level_syms[at], lo, hi)
        if isinstance(nodes, set) and 4 * len(nodes) < len(found):
            found = _under(arena.size, found, nodes)
    if attr_name is not None or isinstance(qual, CmpQual):
        found = _leaf_filter(qual, arena, level_syms[at], attr_name, found)
    found = set(found)
    sym_col = arena.sym
    while True:
        for nested in level_quals[at]:
            if not found:
                return found
            found &= _sweep(nested, arena, level_syms[at], found, lo, hi)
        if at == 0:
            return found
        at -= 1
        want = level_syms[at]
        above = set()
        for j in found:
            p = j - up[j]
            if p >= lo and sym_col[p] == want:
                above.add(p)
        found = above


# hot-path
def _under(size, leaves, nodes: set) -> list:
    """The semi-join reducer: the sorted *leaves* inside the subtrees
    of *nodes* — survivors (of a conjunction's first half, of the steps
    below a nested qualifier), so a comparison is paid per leaf that
    can still matter, not per leaf of the range."""
    out = []
    k = 0
    stop = len(leaves)
    for node in sorted(nodes):
        k = bisect_left(leaves, node, k, stop)
        limit = node + size[node]
        while k < stop and leaves[k] < limit:
            out.append(leaves[k])
            k += 1
    return out


#: A comparison's operator, applied as ``op(value, literal)`` — what
#: ``compare_value`` does once the value is a number or a string.
_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# hot-path
def _leaf_filter(qual, arena: FrozenDocument, sym: int, attr_name, nodes):
    """The *nodes* (labelled *sym*) whose leaf value passes *qual*'s
    terminal: the attribute *attr_name* is present (a ``PathQual``), or
    its value — the own text, without one — compares true (a
    ``CmpQual``).  The values are the arena's per-version leaf maps, so
    each is looked up and, for a number literal, parsed once per
    version; the filter runs at C level, one ``operator`` function
    applied to the literal.  A value ``float()`` rejects and an absent
    attribute have no entry in a map, so they match no operator, ``!=``
    included — exactly ``compare_value``."""
    literal = qual.value if isinstance(qual, CmpQual) else None
    if isinstance(literal, float):
        table = arena.leaf_numbers(sym, attr_name)
    elif attr_name is not None:
        table = arena.leaf_values(sym, attr_name)
    else:
        table = None  # a string literal against the own text: every node has one
    if table is None:
        value_of = arena.payload.__getitem__
    else:
        nodes = [*filter(table.__contains__, nodes)]
        value_of = table.__getitem__
    if literal is None:
        return nodes
    return compress(nodes, map(_OPERATORS[qual.op], map(value_of, nodes), repeat(literal)))
