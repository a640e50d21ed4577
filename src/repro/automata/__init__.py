"""Automata for ``X`` expressions: selecting NFA and filtering NFA.

* :mod:`repro.automata.selecting` — the selecting NFA of Section 3.4:
  one state per step of the form ``β1[q1]/…/βk[qk]``; ``next_states()``
  (Fig. 4) drives the top-down transform algorithms.
* :mod:`repro.automata.filtering` — the filtering NFA of Section 5:
  the selecting spine *plus* branch states for every path occurring in
  a qualifier, used by ``bottomUp`` to prune subtrees that can affect
  neither the selecting path nor any needed qualifier.

Run convention (matches Example 6.1): the evaluation root holds the
ε-closure of the start state and consumes no symbol; every other element
consumes its label on entry.  Consequently the root itself is never
selected — correct for this fragment, whose first step is always a
child or descendant-or-self-then-child move away from the root.
"""

from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.automata.filtering import FilteringNFA, build_filtering_nfa
from repro.automata.dfa import DfaTables, LazyDFA
from repro.automata.arena_run import select_indices

__all__ = [
    "DfaTables",
    "FilteringNFA",
    "LazyDFA",
    "SelectingNFA",
    "build_filtering_nfa",
    "build_selecting_nfa",
    "select_indices",
]
