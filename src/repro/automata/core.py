"""Shared automaton core for the selecting and filtering NFAs.

Both automata have the *semi-linear* structure the paper describes: the
only cycles are ``*`` self-loops on descendant (``//``) states.  The
selecting NFA is a single chain ("spine"); the filtering NFA adds
tree-shaped branches for qualifier paths.  This module provides the
state/transition representation and the transition step shared by both.

State sets are plain ``frozenset[int]`` of state ids.  Transitions obey
the construction of Section 3.4 (cf. Fig. 5):

* a ``label``/``wildcard`` state is entered from its predecessor by
  consuming a matching node label;
* a ``dos`` state is entered from its predecessor by ε and carries a
  ``*`` self-loop (it consumes any label and stays);
* ε-closure therefore only ever adds ``dos`` states.

The frozenset machinery below is the *reference* runner (and the form
the paper's figures describe).  The hot strategies run the same
automaton through :meth:`Automaton.dfa` — a lazily-determinized view
(:mod:`repro.automata.dfa`) with interned state sets and memoized
``(set, symbol)`` transitions.  Those tables depend on
:meth:`Automaton.shape` alone — the states with each qualifier reduced
to whether there is one — so automata of one shape can share them
(:meth:`Automaton.use_tables`).  That compilation is only affordable
because of the construction the paper proves: the NFA has O(|p|)
states and its only cycles are the ``*`` self-loops, so the reachable
subset space stays tiny (no exponential subset blow-up) and the lazy
tables converge after a handful of distinct transitions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.xpath.ast import Qual, TrueQual
from repro.xpath.normalize import BETA_DOS, BETA_LABEL, BETA_WILDCARD, NormStep

#: Test kinds for states.
TEST_START = "start"
TEST_LABEL = BETA_LABEL
TEST_WILDCARD = BETA_WILDCARD
TEST_DOS = BETA_DOS


class State:
    """One automaton state ``(s_i, [q_i])``."""

    __slots__ = ("sid", "test", "name", "qual", "is_final", "out_eps", "out_consume", "nq_id")

    def __init__(self, sid: int, test: str, name: Optional[str], qual: Qual):
        self.sid = sid
        self.test = test
        self.name = name                  # label name for TEST_LABEL states
        self.qual = qual                  # qualifier AST ([true] when trivial)
        self.is_final = False
        self.out_eps: list[int] = []      # ε edges (into dos states)
        self.out_consume: list[int] = []  # label-consuming edges (into label/wildcard states)
        self.nq_id: Optional[int] = None  # normalized-qualifier id (filtering NFA)

    @property
    def has_qualifier(self) -> bool:
        return not isinstance(self.qual, TrueQual)

    def enter_matches(self, label: str) -> bool:
        """Does consuming *label* enter this state (from a predecessor)?"""
        if self.test == TEST_LABEL:
            return self.name == label
        return self.test in (TEST_WILDCARD, TEST_DOS)

    def __repr__(self) -> str:  # pragma: no cover
        shown = self.name if self.test == TEST_LABEL else self.test
        final = ", final" if self.is_final else ""
        return f"State({self.sid}, {shown}{final})"


class Automaton:
    """State table plus the shared transition machinery."""

    def __init__(self):
        self.states: list[State] = []
        self._dfa = None
        self._tables = None

    def dfa(self):
        """The shared lazy-DFA view of this automaton.

        Built on first use and cached for the automaton's lifetime, so
        every strategy (and every re-run through a prepared statement
        or the store's compiled caches) steps through the same warm
        transition tables — the ones :meth:`use_tables` bound, shared
        with every automaton of this :meth:`shape`, or else its own.
        """
        if self._dfa is None:
            from repro.automata.dfa import LazyDFA

            self._dfa = LazyDFA(self, self._tables)
        return self._dfa

    def shape(self) -> tuple:
        """The key two automata share DFA tables under: every field of
        every state except the qualifier, which enters only as whether
        there is one.  A transition depends on a step's label and on
        whether its qualifier held (Fig. 4), never on the qualifier's
        constants, so equal shapes step through equal tables."""
        return tuple(
            (
                s.test, s.name, s.has_qualifier, s.is_final,
                tuple(s.out_eps), tuple(s.out_consume), s.nq_id,
            )
            for s in self.states
        )

    def use_tables(self, tables) -> None:
        """Step through *tables* (a :class:`~repro.automata.dfa.
        DfaTables` built from an automaton of this :meth:`shape`)
        instead of tables of this automaton's own; before the first
        :meth:`dfa` call."""
        if self._dfa is not None:
            raise ValueError("the lazy DFA is already built over its own tables")
        self._tables = tables

    def add_state(self, test: str, name: Optional[str], qual: Qual) -> State:
        state = State(len(self.states), test, name, qual)
        self.states.append(state)
        return state

    @property
    def start(self) -> State:
        return self.states[0]

    def size(self) -> int:
        return len(self.states)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def epsilon_closure(self, state_ids: Iterable[int]) -> frozenset:
        """All states reachable via ε edges (which only enter dos states)."""
        result = set(state_ids)
        frontier = list(result)
        while frontier:
            sid = frontier.pop()
            for target in self.states[sid].out_eps:
                if target not in result:
                    result.add(target)
                    frontier.append(target)
        return frozenset(result)

    def initial_states(self) -> frozenset:
        """ε-closure of the start state — the set held by the root."""
        return self.epsilon_closure([0])

    def consume(self, state_ids: frozenset, label: str) -> set:
        """One unfiltered transition step: ``S+`` of Fig. 4 line 2.

        For each current state, follow its consuming edges whose target
        test matches *label*; dos states also keep themselves alive
        (the ``*`` self-loop).  No ε-closure, no qualifier filtering.
        """
        result: set = set()
        states = self.states
        for sid in state_ids:
            state = states[sid]
            if state.test == TEST_DOS:
                result.add(sid)  # self-loop consumes any label
            for target_id in state.out_consume:
                if states[target_id].enter_matches(label):
                    result.add(target_id)
        return result

    def next_states(
        self,
        state_ids: frozenset,
        label: str,
        check: Optional[Callable[[Qual], bool]] = None,
    ) -> frozenset:
        """``nextStates()`` of Fig. 4.

        *check* is the ``checkp`` strategy: called with a state's
        qualifier AST, it must report whether the qualifier holds at the
        node being entered.  With ``check=None`` no filtering is applied
        (the filtering-NFA mode used by ``bottomUp``, Fig. 9 lines 1-2).
        """
        entered = self.consume(state_ids, label)
        if check is not None:
            entered = {
                sid
                for sid in entered
                if not self.states[sid].has_qualifier or check(self.states[sid].qual)
            }
        return self.epsilon_closure(entered)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A Fig. 5/Fig. 8-style textual rendering of the automaton.

        One line per state: id, test, qualifier, finality and outgoing
        edges — handy for debugging rewrites and in teaching examples.
        """
        lines = []
        for state in self.states:
            test = {
                TEST_START: "start",
                TEST_LABEL: f"label {state.name}",
                TEST_WILDCARD: "*",
                TEST_DOS: "// (self-loop on *)",
            }[state.test]
            qual = "true" if not state.has_qualifier else str(state.qual)
            flags = " FINAL" if state.is_final else ""
            edges = []
            for target in state.out_consume:
                edges.append(f"--consume--> s{target}")
            for target in state.out_eps:
                edges.append(f"--ε--> s{target}")
            edge_text = ("  " + ", ".join(edges)) if edges else ""
            lines.append(f"s{state.sid}: {test} [{qual}]{flags}{edge_text}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Construction helper shared by both automata
    # ------------------------------------------------------------------

    def append_chain(self, anchor: State, steps: list[NormStep]) -> State:
        """Append a chain of states for *steps* starting at *anchor*.

        Implements the Section 3.4 construction: label/wildcard steps
        hang off the previous state with a consuming edge; dos steps
        hang off it with an ε edge and loop on themselves.  Returns the
        last state of the chain (``anchor`` itself for empty *steps*).
        """
        current = anchor
        for step in steps:
            if step.beta == BETA_DOS:
                state = self.add_state(TEST_DOS, None, step.qual)
                current.out_eps.append(state.sid)
            else:
                test = TEST_LABEL if step.beta == BETA_LABEL else TEST_WILDCARD
                state = self.add_state(test, step.name, step.qual)
                current.out_consume.append(state.sid)
            current = state
        return current
