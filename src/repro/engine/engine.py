"""The Engine facade: one entry point that prepares once, picks a
strategy per input, and executes many times.

::

    from repro import Engine

    engine = Engine()
    strip = engine.prepare_transform(
        'transform copy $a := doc("db") modify do delete $a//price return $a'
    )
    view = strip.run(doc)              # the rule picks the strategy
    print(strip.explain(doc))          # ...and says what it looked at
    results = engine.prepare_composed(
        "for $x in part/supplier return $x", strip
    ).run(doc)
    redact = strip.then(               # stage 2 sees stage 1's result
        'transform copy $a := doc("db") modify do rename $a//sname as vendor return $a'
    )

The engine is a door over one :class:`~repro.compiled.CompiledCache`
(parses, automata, composed plans): each ``prepare_*`` builds a fresh
prepared object from the cache's entries, so preparing a text again is
a handful of cache hits, and a compile is paid — and traced — only at
the cache miss.  A process-wide :func:`default_engine` backs the CLI
and the thin module-level shims.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from repro.compiled import CompiledCache
from repro.engine.prepared import (
    PreparedComposed,
    PreparedQuery,
    PreparedTransform,
)
from repro.transform.query import TransformQuery


class Engine:
    """Prepared-statement facade over the five evaluation strategies,
    the Compose Method, and the streaming path."""

    def __init__(self):
        self.cache = CompiledCache()

    # ------------------------------------------------------------------
    # Preparation (parse + compile once per distinct text, in the cache)
    # ------------------------------------------------------------------

    def prepare_transform(
        self, text: Union[str, TransformQuery, PreparedTransform]
    ) -> PreparedTransform:
        """A transform query with its parse and both automata from the
        cache.

        Only *source text* is looked up: an already-parsed
        :class:`TransformQuery` is taken as it is (its rendering is
        lossy — e.g. float literals — so it must never be a cache key);
        its automata still come from the Path-keyed cache.
        """
        if isinstance(text, PreparedTransform):
            return text
        return PreparedTransform(self.cache, text)

    def prepare_query(
        self, text: Union[str, PreparedQuery]
    ) -> PreparedQuery:
        """A FLWR user query, parsed once per distinct text."""
        if isinstance(text, PreparedQuery):
            return text
        return PreparedQuery(self.cache, text)

    def prepare_composed(
        self,
        user: Union[str, PreparedQuery],
        transform: Union[str, TransformQuery, PreparedTransform],
    ) -> PreparedComposed:
        """Fuse a user query with a transform query (Compose Method):
        the plan is the cache's for the pair of source texts, or
        composed afresh for a transform that was handed in parsed."""
        return PreparedComposed(
            self.prepare_query(user), self.prepare_transform(transform)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def explain(self, text: str, doc_or_path=None) -> str:
        """Plan output for a transform or user query (detected by its
        leading keyword)."""
        if text.lstrip().startswith("transform"):
            return self.prepare_transform(text).explain(doc_or_path)
        return self.prepare_query(text).explain(doc_or_path)

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {"compiled": self.cache.stats()}

    def bind_metrics(self, registry) -> None:
        """Expose the engine's compiled caches and aggregate DFA table
        sizes through a :class:`~repro.obs.registry.MetricsRegistry` —
        as lazily sampled probes, so preparing and running pay nothing
        extra."""
        self.cache.bind_metrics(registry)


_default_engine: Optional[Engine] = None
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide engine behind the CLI and module-level shims."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = Engine()
        return _default_engine
