"""Streaming query processing — the paper's future-work item 3.

Section 9 lists "extend our composition techniques to work with the SAX
based two-pass algorithm" as future work.  This package implements it
for the Section-4 user-query class:

* :mod:`repro.streaming.select` — a bounded-memory streaming evaluator
  for ``X`` path expressions: two SAX passes (the Section-6 cursor
  trick answers qualifiers at ``startElement`` time), yielding matched
  subtrees in document order while buffering only open matches.
* :mod:`repro.streaming.pipeline` — ``Q(T)`` and ``Q(Qt(T))`` on a
  document that never fits in memory: the transform's pass-2 event
  stream feeds the selector, and the user query's where/return clauses
  run on each (small) matched subtree.
"""

from repro.streaming.select import stream_select
from repro.streaming.pipeline import stream_compose, stream_query

__all__ = [
    "stream_compose",
    "stream_query",
    "stream_select",
]
