"""``tools.analysis`` — the concurrency & layering static-analysis pass.

Three AST-based checkers enforce the invariants the concurrent parts of
``repro`` rest on, so they are machine-checked instead of
hand-maintained:

* **Lock discipline** (:mod:`tools.analysis.guards`): classes declare
  which lock guards each shared mutable attribute (``# guarded-by:
  self._lock``), and the checker proves every read/write of a guarded
  attribute is lexically inside ``with <lock>:`` — or inside a method
  declared ``# holds: <lock>`` because its callers own the lock.
* **Import layering** (:mod:`tools.analysis.layers`): a declared layer
  manifest (``xmltree`` at the bottom, ``cli`` at the top) is verified
  against the *real* import graph; any back-edge or module-level import
  cycle fails the build.
* **Hot-path purity** (:mod:`tools.analysis.hotpath`): functions marked
  ``# hot-path`` (the arena DFA scan, the no-op telemetry instruments)
  must not use allocation-heavy constructs or take locks.

Violations are waived line-by-line with ``# unguarded: <reason>``; every
waiver's reason is printed in the report, so the cost of an exemption is
permanent visibility.  ``python -m tools.analysis``, run from the
repository root, exits non-zero on any finding, and ``--json`` emits a
machine-readable report whose summary keys follow the obs registry's
``layer.component.metric`` scheme (``analysis.lock.violations`` …).

The tool imports nothing from ``repro``: it analyzes source text only,
so it can lint a broken tree.
"""
