"""Interned element-label symbols — the compiled runtime's alphabet.

Every hot loop in the reproduction ultimately compares element labels:
the selecting/filtering NFAs test them on every transition, the SAX
passes test them twice per element, and the lazy DFA of
:mod:`repro.automata.dfa` keys its memoized transition tables by them.
Comparing and hashing strings is measurably slower than ints, so labels
are interned here into dense ids:

* :meth:`SymbolTable.intern` maps a label to a stable ``int`` (and
  ``sys.intern``'s the string, so un-interned call sites still get
  identity-fast dict lookups);
* :meth:`SymbolTable.canonical` returns the shared string object for a
  label, letting parsers deduplicate the many copies of ``"item"`` a
  large document would otherwise allocate.

One process-wide table (:func:`global_symbols`) is the default: ids
only ever grow, an id never changes meaning, and a DFA transition table
keyed by ``(state-set id, symbol id)`` therefore stays valid across
documents, engines and stores for the life of the process.  The XML
tokenizer (:mod:`repro.xmltree.sax`, which every parse entry point
reads through) populates it as it reads input, so by the time an
automaton runs, its alphabet is already dense ints.

Grow-only is a deliberate trade-off: evicting a symbol would invalidate
every compiled table that mentions it.  Memory is bounded by the number
of *distinct* element labels ever seen — dozens for schema-shaped data
like XMark, and one small entry per label even for pathological
vocabularies (record-names-as-tags documents).  A long-lived process
ingesting unbounded label vocabularies should construct automata with a
private ``SymbolTable`` and drop table and automata together.
"""

from __future__ import annotations

import sys
import threading
from typing import Optional

__all__ = ["SymbolTable", "global_symbols"]


class SymbolTable:
    """A grow-only mapping from element labels to dense int ids.

    Thread-safe: reads are plain dict lookups (safe under the GIL);
    writes take a lock and re-check, so concurrent interning of the
    same label yields one id.
    """

    __slots__ = ("_ids", "strings", "_lock")

    # unguarded[_ids, strings]: grow-only with double-checked locking writes under _lock; an id is appended to strings before it is published into _ids, so lock-free readers never see a dangling id

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.strings: list[str] = []   # id -> canonical label
        self._lock = threading.Lock()

    def intern(self, label: str) -> int:
        """The id of *label*, assigning the next dense id on first use."""
        sym = self._ids.get(label)
        if sym is not None:
            return sym
        with self._lock:
            sym = self._ids.get(label)
            if sym is None:
                label = sys.intern(label)
                sym = len(self.strings)
                self.strings.append(label)
                self._ids[label] = sym
        return sym

    def id_of(self, label: str) -> Optional[int]:  # hot-path
        """The id of *label* if it has been seen, else None."""
        return self._ids.get(label)

    def canonical(self, label: str) -> str:
        """The shared string object for *label* (interning it first)."""
        return self.strings[self.intern(label)]

    def __len__(self) -> int:
        return len(self.strings)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolTable({len(self.strings)} symbols)"


#: The process-wide table every parser and automaton shares by default.
_GLOBAL = SymbolTable()


def global_symbols() -> SymbolTable:
    """The process-wide symbol table (see the module docstring)."""
    return _GLOBAL
