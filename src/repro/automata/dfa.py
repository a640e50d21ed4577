"""Lazy subset construction over the semi-linear NFAs — the compiled
runtime every strategy steps through.

The paper's ``nextStates(Mp, S, n)`` (Fig. 4) recomputes, at every node,
which states the set ``S`` reaches on the node's label: follow consuming
edges, filter qualifier-bearing entries, ε-close.  That work depends
only on ``(S, label)`` (plus the qualifiers' truth at the node), so the
same transition is recomputed millions of times over a large document.
This module compiles the automaton the classic way — lazily
determinize:

* every distinct state set is **interned** to a dense ``set_id``;
* element labels are interned ints (:mod:`repro.xmltree.symbols`);
* the transition for ``(set_id, symbol)`` is **memoized** on first use
  as a :class:`_Move`: the unconditionally-entered states, the
  qualifier-bearing entered states, and a table from the qualifier
  outcome bitmask to the resulting ``set_id``;
* ε-closures are precomputed once per NFA state at construction.

Because the NFAs are semi-linear (O(|p|) states, Section 3.4), the
reachable subset space is tiny — typically a few dozen sets even on
multi-million-node documents — so the lazy tables stop growing almost
immediately and the steady-state cost of a transition is one dict hit.

**Tables are per shape, qualifiers per automaton.**  A transition
depends on a step's label and on *whether* its qualifier held, never
on the qualifier's constants (Fig. 4).  So the grow-only tables live in
a :class:`DfaTables`, built from an automaton's structure alone
(:meth:`~repro.automata.core.Automaton.shape`), and a :class:`LazyDFA`
is a thin view over one: its tables and its automaton's qualifiers —
as ASTs for ``checkp`` strategies and as closures compiled on first
use (:mod:`repro.xpath.compiler` for Nodes,
:mod:`repro.xpath.arena_compiler` for arena indices).
:class:`repro.compiled.CompiledCache` hands every automaton of one
shape the same tables, so ``people/person[@id='person7']`` and
``people/person[profile/age > 61.5]`` step through one set of warm
tables; an automaton built outside a cache owns its tables.

Over a columnar arena the qualifier half of a conditional move is read,
not computed: the scan carries a :class:`ScanTruth`, in which each
qualifier-bearing state entered in an open range has the range's
candidates *swept* once (:func:`repro.xpath.arena_compiler.
sweep_qualifier`), :meth:`LazyDFA.apply_move_arena` builds the outcome
mask by membership, and a state set all of whose label-consuming edges
are qualifier-guarded (``set_guard``) lets the scan jump from one
passing candidate to the next (:meth:`LazyDFA.next_guarded`).

Three run modes cover every consumer:

* :meth:`LazyDFA.step` — the filtered transition of Fig. 4 used by
  ``topDown`` (compiled-closure qualifiers by default, or any
  ``checkp`` strategy such as the ``bottomUp`` annotations);
* :meth:`DfaTables.step_all` — the unfiltered transition
  (``check=None``) used by ``bottomUp`` and the SAX pass 1 over the
  filtering NFA;
* :meth:`DfaTables.tracked_move` — the compiled form of the SAX pass-2
  / streaming "tracked alive flags" discipline: per ``(set_id,
  symbol)`` a feeder bitmask per target state, the cursor positions of
  qualifier-bearing entered states (in the exact sorted-sid order the
  pass-1 cursor assigned), and the ε-propagation pairs, so one
  transition is a handful of int ops on an alive bitmask.

The last two never read a qualifier, so a view exposes them as its
tables' own bound methods.  The frozenset entry points on
:class:`~repro.automata.core.Automaton` remain (thin adapters and the
reference the property tests compare against); ``Automaton.dfa()``
hands out one ``LazyDFA`` per automaton.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Optional

from repro.xmltree.node import Element
from repro.xmltree.symbols import SymbolTable, global_symbols
from repro.xpath.arena_compiler import (
    choose_sweep,
    compile_qualifier_arena,
    sweep_qualifier,
)
from repro.xpath.ast import Qual
from repro.xpath.compiler import compile_qualifier
from repro.automata.core import TEST_DOS, TEST_LABEL, Automaton

__all__ = ["DfaTables", "LazyDFA", "ScanTruth"]

#: checkp signature accepted by :meth:`LazyDFA.step`.
CheckP = Callable[[Qual, Element], bool]


class _Move:
    """Compiled transition for one ``(set_id, symbol)`` pair."""

    __slots__ = ("cond_sids", "base", "targets", "target0")

    def __init__(self, cond_sids, base, targets):
        self.cond_sids = cond_sids      # entered states with qualifiers (sorted)
        self.base = base                # unconditionally entered states (frozenset)
        self.targets = targets          # qualifier-outcome mask -> set_id
        self.target0 = targets[0]       # the no-qualifier-passes target (hot slot)


class _TrackedMove:
    """Compiled SAX pass-2 / streaming transition (alive-bitmask form)."""

    __slots__ = ("target", "feeds", "qual_positions", "eps_pairs", "final_mask")

    def __init__(self, target, feeds, qual_positions, eps_pairs, final_mask):
        self.target = target                # unfiltered target set_id
        self.feeds = feeds                  # per target member: source-position bitmask
        self.qual_positions = qual_positions  # cursor-consuming member positions
        self.eps_pairs = eps_pairs          # (src_pos, dst_pos) ε edges, sid order
        self.final_mask = final_mask        # bitmask of final members in target


class ScanTruth:
    """One arena scan's qualifier truth — created by
    :func:`~repro.automata.arena_run.select_indices` per call and
    dropped with it; nothing here outlives the scan.

    ``states`` maps a qualifier-bearing NFA state to ``(covered_to,
    members, ordered)``: the candidates of its label at which its
    qualifier holds, in the open range it was last swept over — a set
    for the outcome mask, the same indices sorted for jumps — or
    ``(covered_to, None, None)`` where the rule left that range to the
    closure.  An entry answers for indices below ``covered_to`` only:
    the walk moves forward, so once it has left the range the state is
    swept again over the next one.  ``stops`` keeps, per guarded state
    *set*, ``(covered_to, ordered)`` for the candidates its jumps land
    on (the union over the states one move enters).  The counters are
    what the scan deposits into the active profile afterwards.
    """

    __slots__ = ("states", "stops", "sweeps", "swept", "stepped", "verdicts")

    def __init__(self) -> None:
        self.states: dict = {}
        self.stops: dict = {}
        self.sweeps = 0         # ranges swept
        self.swept = 0          # leaf postings those sweeps examined
        self.stepped = 0        # candidates decided by a closure call
        self.verdicts: dict = {}  # the rule's verdict -> ranges it left to the closure


class DfaTables:
    """The structural half of a lazy DFA: interned state sets and
    memoized moves, built from an automaton's shape and never from its
    qualifiers.

    Every :class:`LazyDFA` whose automaton has this shape may step
    through one instance (a :class:`~repro.compiled.CompiledCache`
    shares them); it holds no reference to any automaton, so it keeps
    no qualifier constant alive.
    """

    # The compiled tables are deliberately read LOCK-FREE; writes go
    # through _grow_lock with publish-last ordering.  Declared rather
    # than guarded so the checker documents (and the report surfaces)
    # exactly which shared state rides on that discipline:
    # unguarded[_sets, final_flags, set_nq, set_qual_positions, _final_masks, set_jump, set_guard]: grow-only parallel tables; a set_id is published into _ids only after its row in every table is complete (publish-last under _grow_lock), so lock-free readers always see complete facts
    # unguarded[_ids, _moves, _tracked]: grow-only dicts with idempotent inserts; two threads compiling the same entry write equivalent values (last write wins, both valid)
    # unguarded[moves_compiled, tracked_compiled]: stats-only tallies; a lost increment under contention skews introspection, never correctness

    def __init__(self, automaton: Automaton, symbols: Optional[SymbolTable] = None):
        self.symbols = symbols if symbols is not None else global_symbols()
        states = automaton.states
        count = len(states)
        # Per-NFA-state structural facts, computed once.
        self._closure = [
            tuple(sorted(automaton.epsilon_closure([sid]))) for sid in range(count)
        ]
        self._consume = [tuple(s.out_consume) for s in states]
        self._eps = [tuple(s.out_eps) for s in states]
        self._is_dos = [s.test == TEST_DOS for s in states]
        self._label_sym = [
            self.symbols.intern(s.name) if s.test == TEST_LABEL else -1
            for s in states
        ]
        self._has_qual = [s.has_qualifier for s in states]
        self._final = [s.is_final for s in states]
        self._nq = [s.nq_id for s in states]
        # Interned state sets and their per-set facts.
        self._sets: list[tuple] = []          # set_id -> sorted member tuple
        self._ids: dict[frozenset, int] = {}
        self.final_flags: list[bool] = []     # set_id -> contains a final state
        self.set_nq: list[tuple] = []         # set_id -> nq ids in sorted-sid order
        self.set_qual_positions: list[tuple] = []  # member positions w/ qualifiers
        self._final_masks: list[int] = []     # set_id -> bitmask of final members
        self.set_jump: list = []              # set_id -> R(T) symbols if jumpable, else None
        self.set_guard: list = []             # set_id -> (symbol, child step?) if guarded, else None
        self._moves: list[dict] = []          # set_id -> {symbol: _Move}
        self._tracked: list[dict] = []        # set_id -> {symbol: _TrackedMove}
        # Direct view of the symbol table's label -> id dict (grow-only,
        # so sharing the reference is safe): the hot loops resolve a
        # label with one dict hit instead of a method call.
        self._sym_ids = self.symbols._ids
        # Guards the parallel per-set tables: one instance is shared by
        # every strategy and every automaton of the shape, and the store
        # runs queries concurrently.  Reads stay lock-free — a set_id is
        # published into _ids only after all of its per-set facts are in
        # place.
        self._grow_lock = threading.Lock()
        self.moves_compiled = 0
        self.tracked_compiled = 0
        self.empty_id = self.intern_set(frozenset())
        self.initial_id = self.intern_set(self._closure[0])

    # ------------------------------------------------------------------
    # State-set interning
    # ------------------------------------------------------------------

    def intern_set(self, members) -> int:
        """The dense id of a state set (interning it on first sight)."""
        key = members if isinstance(members, frozenset) else frozenset(members)
        found = self._ids.get(key)
        if found is not None:
            return found
        with self._grow_lock:
            found = self._ids.get(key)
            if found is not None:
                return found
            set_id = len(self._sets)
            ordered = tuple(sorted(key))
            self._sets.append(ordered)
            self.final_flags.append(any(self._final[sid] for sid in ordered))
            self.set_nq.append(
                tuple(self._nq[sid] for sid in ordered if self._nq[sid] is not None)
            )
            self.set_qual_positions.append(
                tuple(pos for pos, sid in enumerate(ordered) if self._has_qual[sid])
            )
            self._final_masks.append(
                sum(1 << pos for pos, sid in enumerate(ordered) if self._final[sid])
            )
            jump = self._jump_key(ordered)
            self.set_jump.append(jump)
            self.set_guard.append(self._guard_key(ordered, jump))
            self._moves.append({})
            self._tracked.append({})
            # Publish last: readers that see the id find complete facts.
            self._ids[key] = set_id
        return set_id

    def _jump_key(self, members: tuple) -> Optional[tuple]:
        """The jump-table entry of a state set ``T`` (caller holds
        ``_grow_lock``): ``R(T)``, the sorted symbols ``T``'s
        consuming edges name, when a scan holding ``T`` may skip
        straight to the next node labelled in ``R(T)`` — else ``None``.

        On a symbol outside ``R(T)`` only the ``//`` members' ``*``
        self-loops fire, so ``T`` moves to ``D``, exactly its ``//``
        members.  ``T`` is jumpable when that move is unconditional
        (no wildcard edge, no qualifier on a ``//`` member), ``D``
        selects nothing, and ``D`` consumes what ``T`` consumes: then
        ``T`` and ``D`` have one move table, every node between here
        and the next ``R(T)`` label holds ``D`` unselected, and that
        label is stepped the same from either.  ``T = D`` is the plain
        ``//l`` wait; the set entered *on* an ``l`` match, the ``//``
        state plus a finished ``l``, qualifies too, which is what lets
        ``//item`` leave an ``item`` without walking it.  A set with
        no ``//`` member and no consuming edge (the end of a child
        path) has ``D`` empty and ``R(T)`` empty: nothing below it can
        match.
        """
        targets: set = set()
        dos_targets: set = set()
        for sid in members:
            out = self._consume[sid]
            targets.update(out)
            if self._is_dos[sid]:
                if self._has_qual[sid] or self._final[sid]:
                    return None
                dos_targets.update(out)
        if targets != dos_targets:
            return None
        syms = tuple(sorted({self._label_sym[sid] for sid in targets}))
        if syms and syms[0] < 0:
            return None  # a wildcard edge consumes every label
        return syms

    def _guard_key(self, members: tuple, jump: Optional[tuple]) -> Optional[tuple]:
        """The guard-table entry of a state set ``T`` (caller holds
        ``_grow_lock``; *jump* is its :meth:`_jump_key`): ``(symbol,
        child_step)`` when a scan holding ``T`` may skip every
        candidate whose qualifiers fail — else ``None``.

        ``T`` is guarded when its label-consuming edges all name one
        label and every state they enter bears a qualifier, so a node
        of that label passing none of them is no different from a node
        of any other label.  Two shapes qualify.  The **child step**
        (``people/person[q]`` below ``people``): ``T`` has no ``//``
        member, so every other child of the holder — failing
        candidates included — moves to the empty set and is pruned;
        only passing candidates *that are children of the holder*
        matter.  The **descendant step** (``regions//item[q]``): ``T``
        is jumpable on that one label, a failing candidate holds
        ``T``'s ``//`` remainder like every node a jump passes over,
        and a passing candidate matters at any depth.  A set mixing
        the two (``//a[q]/a[r]``: one label wanted as a child by one
        member and as a descendant by another) stays on the per-node
        path.
        """
        targets: set = set()
        waits = False
        for sid in members:
            targets.update(self._consume[sid])
            if self._is_dos[sid]:
                waits = True
        syms = {self._label_sym[sid] for sid in targets}
        if len(syms) != 1 or not all(self._has_qual[sid] for sid in targets):
            return None
        (sym,) = syms
        if sym < 0:
            return None  # a wildcard edge: no one label's postings hold its candidates
        if waits:
            return (sym, False) if jump == (sym,) else None
        return (sym, True)

    def members(self, set_id: int) -> tuple:
        """The NFA state ids of the set, sorted ascending."""
        return self._sets[set_id]

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def compile_move(self, set_id: int, sym: int) -> _Move:
        """Materialize the transition table entry for ``(set_id, sym)``."""
        label_sym = self._label_sym
        entered: set = set()
        for sid in self._sets[set_id]:
            if self._is_dos[sid]:
                entered.add(sid)  # the '*' self-loop consumes any label
            for target in self._consume[sid]:
                target_sym = label_sym[target]
                if target_sym == sym or target_sym == -1:
                    entered.add(target)  # label match, wildcard, or dos
        cond = tuple(sorted(sid for sid in entered if self._has_qual[sid]))
        base = frozenset(sid for sid in entered if not self._has_qual[sid])
        move = _Move(cond, base, {0: self._close_and_intern(base)})
        self._moves[set_id][sym] = move
        self.moves_compiled += 1
        return move

    def _close_and_intern(self, keep) -> int:
        result: set = set()
        closure = self._closure
        for sid in keep:
            result.update(closure[sid])
        return self.intern_set(frozenset(result))

    def target_for_mask(self, move: _Move, mask: int) -> int:
        """The set *move* reaches when the qualifiers of exactly the
        ``cond_sids`` bits set in *mask* hold."""
        target = move.targets.get(mask)
        if target is None:
            passing = [sid for bit, sid in enumerate(move.cond_sids) if mask >> bit & 1]
            target = self._close_and_intern(move.base.union(passing))
            move.targets[mask] = target
        return target

    def step_all(self, set_id: int, label: str) -> int:
        """The unfiltered transition (``check=None``): qualifiers kept."""
        move = self._moves[set_id].get(self._sym_ids.get(label))
        if move is None:
            move = self.compile_move(set_id, self.symbols.intern(label))
        if not move.cond_sids:
            return move.target0
        return self.target_for_mask(move, (1 << len(move.cond_sids)) - 1)

    # ------------------------------------------------------------------
    # The tracked-alive mode (SAX pass 2, streaming select)
    # ------------------------------------------------------------------

    def tracked_move(self, set_id: int, label: str) -> _TrackedMove:  # hot-path
        """The compiled pass-2 transition for ``(set_id, label)``.

        The caller holds ``(set_id, alive-bitmask)``; applying the move
        is: OR the feeder masks, AND the cursor values into the
        qualifier positions, propagate ε pairs, test ``final_mask``.
        """
        move = self._tracked[set_id].get(self._sym_ids.get(label))
        if move is None:
            sym = self.symbols.intern(label)
            move = self._compile_tracked(set_id, sym)
            self._tracked[set_id][sym] = move
        return move

    def _compile_tracked(self, set_id: int, sym: int) -> _TrackedMove:
        label_sym = self._label_sym
        source = self._sets[set_id]
        target_id = self.step_all(set_id, self.symbols.strings[sym])
        target = self._sets[target_id]
        dst_pos = {sid: pos for pos, sid in enumerate(target)}
        feeds = [0] * len(target)
        entered: set = set()
        for src_pos, sid in enumerate(source):
            if self._is_dos[sid]:
                feeds[dst_pos[sid]] |= 1 << src_pos
                entered.add(sid)
            for tgt in self._consume[sid]:
                tgt_sym = label_sym[tgt]
                if tgt_sym == sym or tgt_sym == -1:
                    feeds[dst_pos[tgt]] |= 1 << src_pos
                    entered.add(tgt)
        qual_positions = tuple(
            dst_pos[sid] for sid in sorted(entered) if self._has_qual[sid]
        )
        eps_pairs = tuple(
            (dst_pos[sid], dst_pos[tgt])
            for sid in target
            for tgt in self._eps[sid]
            if tgt in dst_pos
        )
        move = _TrackedMove(
            target_id, tuple(feeds), qual_positions, eps_pairs,
            self._final_masks[target_id],
        )
        self.tracked_compiled += 1
        return move

    def root_tracked(self, ld: list, cursor: int) -> tuple:
        """The tracked state at the document root (which consumes no
        symbol): all initial members alive (none if the start state's
        context qualifier fails), qualifier-bearing ones consuming their
        pass-1 cursor ids.  Returns ``(set_id, alive, cursor, selected)``."""
        set_id = self.initial_id
        alive = (1 << len(self._sets[set_id])) - 1
        for pos in self.set_qual_positions[set_id]:
            if not ld[cursor]:
                alive &= ~(1 << pos)
            cursor += 1
        alive *= alive & 1  # the start state, sid 0, sorts first
        return set_id, alive, cursor, bool(alive & self._final_masks[set_id])

    # hot-path
    def advance_tracked(
        self, set_id: int, alive: int, label: str, ld: list, cursor: int
    ) -> tuple:
        """One full pass-2 transition: feeds, cursor-qualifier clearing
        (consuming ids exactly as pass 1 assigned them), ε propagation.

        Returns ``(set_id, alive, cursor, selected)`` — the single
        entry point both the SAX pass 2 and the streaming selector run
        on, so the alive/cursor discipline lives in one place.
        """
        move = self.tracked_move(set_id, label)
        new_alive = 0
        bit = 1
        for feed in move.feeds:
            if alive & feed:
                new_alive |= bit
            bit <<= 1
        for pos in move.qual_positions:
            if not ld[cursor]:
                new_alive &= ~(1 << pos)
            cursor += 1
        for src, dst in move.eps_pairs:
            if new_alive >> src & 1:
                new_alive |= 1 << dst
        return move.target, new_alive, cursor, bool(new_alive & move.final_mask)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Table sizes — what ``explain()`` surfaces as the compiled
        runtime's footprint (and what the zero-recompilation assertions
        in ``benchmarks/bench_dfa.py`` watch)."""
        return {
            "nfa_states": len(self._closure),
            "sets": len(self._sets),
            "moves": self.moves_compiled,
            "tracked_moves": self.tracked_compiled,
            "symbols": len(self.symbols),
        }


class LazyDFA:
    """Lazily-materialized DFA over an :class:`Automaton`: a view that
    pairs the automaton's qualifiers with a :class:`DfaTables`.

    One instance per automaton (obtained via ``automaton.dfa()``).  Its
    tables are the ones the automaton was bound to
    (:meth:`~repro.automata.core.Automaton.use_tables`) — shared with
    every automaton of the same shape — or, unbound, its own.  The
    per-set facts (``final_flags``, ``set_jump``, ``set_guard``, …)
    and the qualifier-free entry points (``intern_set``, ``step_all``,
    ``advance_tracked``, …) are the tables' own, bound here once so a
    runner's loop pays no delegation.
    """

    # unguarded[_checks, _arena_checks]: built once on first use, lock-free; a racing builder computes an equivalent list and publishes it whole (last write wins, both valid)

    def __init__(self, automaton: Automaton, tables: Optional[DfaTables] = None):
        # No reference back to the automaton (which owns this view): an
        # automaton the compiled cache evicts is freed by reference
        # counting, not left to the cycle collector.
        if tables is None:
            tables = DfaTables(automaton)
        self.tables = tables
        self.symbols = tables.symbols
        self._quals = [s.qual for s in automaton.states]
        # The qualifier closures, per NFA state: fn(node) for the Node
        # runners, fn(arena, i) for arena candidates a scan decides one
        # at a time — each list built on its first use, so arena reads
        # never compile a Node closure and fully swept scans neither.
        self._checks: Optional[list] = None
        self._arena_checks: Optional[list] = None
        # The tables' per-set facts (grow-only lists, shared by reference).
        self.empty_id = tables.empty_id
        self.initial_id = tables.initial_id
        self.final_flags = tables.final_flags
        self.set_nq = tables.set_nq
        self.set_qual_positions = tables.set_qual_positions
        self.set_jump = tables.set_jump
        self.set_guard = tables.set_guard
        self._moves = tables._moves
        self._label_sym = tables._label_sym
        self._sym_ids = tables._sym_ids
        # The qualifier-free entry points.
        self.intern_set = tables.intern_set
        self.members = tables.members
        self.step_all = tables.step_all
        self.tracked_move = tables.tracked_move
        self.root_tracked = tables.root_tracked
        self.advance_tracked = tables.advance_tracked
        self.stats = tables.stats
        self._compile_move = tables.compile_move
        self._target_for_mask = tables.target_for_mask

    # ------------------------------------------------------------------
    # The Node mode
    # ------------------------------------------------------------------

    def ensure_checks(self) -> list:
        """The per-NFA-state Node qualifier closures, built once on the
        first qualifier a Node runner decides natively."""
        checks = self._checks
        if checks is None:
            checks = self._checks = [
                compile_qualifier(qual) if has else None
                for qual, has in zip(self._quals, self.tables._has_qual)
            ]
        return checks

    def apply_move(self, move: _Move, node: Element, checkp: Optional[CheckP]) -> int:  # hot-path
        """Decide a qualifier-bearing move at *node* (the slow half of
        :meth:`step`, exposed so hot loops can inline the fast half)."""
        mask = 0
        if checkp is None:
            checks = self._checks
            if checks is None:
                checks = self.ensure_checks()
            for bit, sid in enumerate(move.cond_sids):
                if checks[sid](node):
                    mask |= 1 << bit
        else:
            quals = self._quals
            for bit, sid in enumerate(move.cond_sids):
                if checkp(quals[sid], node):
                    mask |= 1 << bit
        if not mask:
            return move.target0
        return self._target_for_mask(move, mask)

    # hot-path
    def step(
        self,
        set_id: int,
        label: str,
        node: Element,
        checkp: Optional[CheckP] = None,
    ) -> int:
        """``nextStates`` with qualifier filtering at *node* (Fig. 4).

        With ``checkp=None`` qualifiers are decided by the compiled
        closures (the native engine); otherwise ``checkp(qual, node)``
        is consulted per qualifier-bearing entered state — the hook the
        TD-BU annotations plug into.
        """
        # An unseen label resolves to sym None, misses the move table,
        # and takes the compile path (which interns it properly).
        move = self._moves[set_id].get(self._sym_ids.get(label))
        if move is None:
            move = self._compile_move(set_id, self.symbols.intern(label))
        if not move.cond_sids:
            return move.target0
        return self.apply_move(move, node, checkp)

    def hot_path(self) -> tuple:
        """The ``(resolve_symbol, move_tables, compile_move)`` triple
        for consumers that inline :meth:`step`'s fast half in a
        per-node loop (see ``topdown_subtree``): resolve the label,
        index the move table, fall back to ``compile_move(set_id,
        symbols.intern(label))`` on a miss.  Owning this tuple here
        keeps the internal representation private to this module.
        """
        return self._sym_ids.get, self._moves, self._compile_move

    # ------------------------------------------------------------------
    # The arena (columnar) mode
    # ------------------------------------------------------------------

    def ensure_arena_checks(self) -> list:
        """The per-NFA-state arena qualifier closures, built once on
        first use (see :mod:`repro.xpath.arena_compiler`) — by the
        first candidate a scan has to decide one node at a time; a
        query whose ranges are all swept never compiles them."""
        checks = self._arena_checks
        if checks is None:
            checks = self._arena_checks = [
                compile_qualifier_arena(qual, self.symbols) if has else None
                for qual, has in zip(self._quals, self.tables._has_qual)
            ]
        return checks

    def _truth_at(self, sid: int, arena, lo: int, hi: int, truth: ScanTruth) -> tuple:
        """State *sid*'s entry in *truth* for the open range ``[lo,
        hi)``: its label's candidates swept, or the range handed to
        the closure — as :func:`~repro.xpath.arena_compiler.
        choose_sweep` rules."""
        qual = self._quals[sid]
        label_sym = self._label_sym[sid]
        verdict, leaves = choose_sweep(qual, arena, label_sym, lo, hi)
        if verdict == "sweep":
            ordered = sweep_qualifier(qual, arena, label_sym, lo, hi)
            truth.sweeps += 1
            truth.swept += leaves
            entry = (hi, set(ordered), ordered)
        else:
            truth.verdicts[verdict] = truth.verdicts.get(verdict, 0) + 1
            entry = (hi, None, None)
        truth.states[sid] = entry
        return entry

    # hot-path
    def apply_move_arena(self, move: _Move, arena, i: int, hi: int, truth: ScanTruth) -> int:
        """Decide a qualifier-bearing move at arena index *i* — the
        columnar twin of :meth:`apply_move` (same outcome-bitmask
        targets).  *hi* is the end of the innermost open range and
        *truth* the calling scan's: a state's qualifier is read as
        membership in the range's swept set, and falls to its compiled
        closure only where the rule left the range unswept."""
        mask = 0
        states = truth.states
        for bit, sid in enumerate(move.cond_sids):
            entry = states.get(sid)
            if entry is None or entry[0] <= i:
                entry = self._truth_at(sid, arena, i, hi, truth)
            members = entry[1]
            if members is None:
                truth.stepped += 1
                checks = self._arena_checks
                if checks is None:
                    checks = self.ensure_arena_checks()
                if checks[sid](arena, i):
                    mask |= 1 << bit
            elif i in members:
                mask |= 1 << bit
        if not mask:
            return move.target0
        return self._target_for_mask(move, mask)

    # hot-path
    def next_guarded(
        self, set_id: int, arena, i: int, hi: int, holder: int, truth: ScanTruth
    ) -> int:
        """Where a scan at *i* holding the guarded set *set_id* (opened
        by *holder*, open until *hi*) goes next: the first index ``>=
        i`` at which one of the set's guarded states passes — for a
        child step, among *holder*'s children — or ``>= hi`` when the
        range has none left; ``-1`` when the rule left a state of the
        move to its closure, so the set is walked as if unguarded."""
        entry = truth.stops.get(set_id)
        if entry is None or entry[0] <= i:
            entry = truth.stops[set_id] = self._guard_stops(set_id, arena, i, hi, truth)
        ordered = entry[1]
        if ordered is None:
            return -1
        k = bisect_left(ordered, i)
        count = len(ordered)
        if self.set_guard[set_id][1]:
            # A member deeper than a child sits inside a child that is
            # either pruned or opened — into a set with its own holder.
            up = arena.up
            while k < count and ordered[k] < hi and ordered[k] - up[ordered[k]] != holder:
                k += 1
        return ordered[k] if k < count else hi

    def _guard_stops(self, set_id: int, arena, lo: int, hi: int, truth: ScanTruth) -> tuple:
        """``(covered_to, ordered)`` for the jumps of guarded set
        *set_id* from *lo*: the sorted candidates at which a state its
        one conditional move enters passes (``None``: a state is on
        the closure)."""
        sym = self.set_guard[set_id][0]
        move = self._moves[set_id].get(sym)
        if move is None:
            move = self._compile_move(set_id, sym)
        states = truth.states
        covered = 0
        ordered = None
        union: Optional[set] = None
        for sid in move.cond_sids:
            entry = states.get(sid)
            if entry is None or entry[0] <= lo:
                entry = self._truth_at(sid, arena, lo, hi, truth)
            if entry[1] is None:
                return hi, None
            if ordered is None:
                covered, ordered = entry[0], entry[2]
            else:
                if union is None:
                    union = set(ordered)
                union |= entry[1]
                covered = min(covered, entry[0])
        if union is not None:
            ordered = sorted(union)
        return covered, ordered

    def arena_hot_path(self) -> tuple:
        """``(move_tables, compile_move, apply_move_arena)`` for the
        arena runners' inlined per-index loops (the columnar analogue
        of :meth:`hot_path`; symbol resolution disappears because the
        arena's ``sym`` column already holds interned ids)."""
        return self._moves, self._compile_move, self.apply_move_arena
