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

The engine owns the compiled-artifact caches (parses, automata,
composed plans — a :class:`~repro.compiled.CompiledCache`) and the
tally of strategies :func:`~repro.engine.planner.choose_strategy`
picked for execution; ``prepare_*`` calls are memoized by source text,
so repeated preparation is a dictionary hit.  A process-wide
:func:`default_engine` backs the CLI and the thin module-level shims.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from repro.engine.executor import ALL_STRATEGIES
from repro.engine.prepared import (
    PreparedComposed,
    PreparedQuery,
    PreparedStack,
    PreparedTransform,
)
from repro.compiled import CompiledCache
from repro.lru import LRUCache
from repro.obs import current_profile, span
from repro.transform.query import TransformQuery
from repro.xmltree.node import Element


class Engine:
    """Prepared-statement facade over the five evaluation strategies,
    the Compose Method, and the streaming path."""

    # guarded-by[_chosen]: self._chosen_lock

    def __init__(self):
        self.cache = CompiledCache()
        self._prepared = LRUCache(256)
        # Serializes first-time preparation of a given text so that
        # concurrent clients share ONE prepared object (and therefore
        # one set of warm DFA tables) instead of each building their
        # own on a cold-cache race.  Warm lookups never take it.
        self._build_lock = threading.Lock()
        # ``method="auto"`` executions per chosen strategy (forced
        # methods and introspective plan_for/explain calls don't count).
        self._chosen = dict.fromkeys(ALL_STRATEGIES, 0)
        self._chosen_lock = threading.Lock()

    def _prepare_shared(self, key: tuple, factory):
        """Memoized preparation with cross-thread sharing: the fast
        path is a lock-free cache hit; a miss builds under the engine's
        build lock with a double-check, so every concurrent caller for
        the same *key* receives the same prepared object."""
        found = self._prepared.get(key)
        if found is not None:
            return found

        def build():
            # Only a cold build is a "compile": warm lookups above (and
            # the double-checked hit inside get_or_compute) emit no span.
            # A run profiled through a cold build paid the compile — its
            # cache class flips from "warm" to "cold".
            profile = current_profile()
            if profile is not None:
                profile.note_compile()
            with span("compile"):
                return factory()

        with self._build_lock:
            return self._prepared.get_or_compute(key, build)

    # ------------------------------------------------------------------
    # Preparation (parse + compile exactly once per distinct text)
    # ------------------------------------------------------------------

    def prepare_transform(
        self, text: Union[str, TransformQuery, PreparedTransform]
    ) -> PreparedTransform:
        """Parse a transform query and build both automata, once.

        Only *source text* is memoized: an already-parsed
        :class:`TransformQuery` is wrapped fresh (its rendering is
        lossy — e.g. float literals — so it must never be a cache key);
        the automata underneath are still shared via the Path-keyed
        compiled cache.
        """
        if isinstance(text, PreparedTransform):
            return text
        if isinstance(text, TransformQuery):
            return self._build_transform(text)
        query = self.cache.transform(text)
        return self._prepare_shared(
            ("transform", text), lambda: self._build_transform(query, text)
        )

    def _build_transform(
        self, query: TransformQuery, text: Optional[str] = None
    ) -> PreparedTransform:
        # The automata are keyed by the parsed Path: two transform
        # texts embedding the same path share one pair of automata —
        # and therefore one set of warm lazy-DFA tables.
        return PreparedTransform(
            text if text is not None else str(query),
            query,
            self.cache.selecting_nfa_for(query.path),
            self.cache.filtering_nfa_for(query.path),
            engine=self,
        )

    def prepare_query(
        self, text: Union[str, PreparedQuery]
    ) -> PreparedQuery:
        """Parse a FLWR user query, once."""
        if isinstance(text, PreparedQuery):
            return text
        return self._prepare_shared(
            ("query", text),
            lambda: PreparedQuery(text, self.cache.user_query(text), engine=self),
        )

    def prepare_composed(
        self,
        user: Union[str, PreparedQuery],
        transform: Union[str, TransformQuery, PreparedTransform],
    ) -> PreparedComposed:
        """Fuse a user query with a transform query (Compose Method),
        once per pair of source texts.

        Memoized only when the transform's text is *authentic* (it was
        prepared from source text): a text synthesized by ``str(query)``
        is lossy and two different queries may render identically.
        """
        prepared_user = self.prepare_query(user)
        prepared_transform = self.prepare_transform(transform)
        authentic = (
            self._prepared.get(("transform", prepared_transform.text))
            is prepared_transform
        )
        if not authentic:
            return PreparedComposed(prepared_user, prepared_transform)
        return self._prepare_shared(
            ("composed", prepared_user.text, prepared_transform.text),
            lambda: PreparedComposed(prepared_user, prepared_transform),
        )

    def prepare_stack(self, *texts: Union[str, PreparedTransform]) -> PreparedStack:
        """Prepare a chain of transforms: each stage sees the previous
        stage's result."""
        return PreparedStack([self.prepare_transform(t) for t in texts])

    # ------------------------------------------------------------------
    # One-shot conveniences
    # ------------------------------------------------------------------

    def transform(self, text: str, doc_or_path, method: str = "auto") -> Element:
        return self.prepare_transform(text).run(doc_or_path, method=method)

    def query(self, text: str, doc_or_path) -> list:
        return self.prepare_query(text).run(doc_or_path)

    def composed(self, user: str, transform: str, doc_or_path) -> list:
        return self.prepare_composed(user, transform).run(doc_or_path)

    def explain(self, text: str, doc_or_path=None) -> str:
        """Plan output for a transform or user query (detected by its
        leading keyword)."""
        if text.lstrip().startswith("transform"):
            return self.prepare_transform(text).explain(doc_or_path)
        return self.prepare_query(text).explain(doc_or_path)

    # ------------------------------------------------------------------

    def count_chosen(self, strategy: str) -> None:
        """Tally one ``auto`` execution of *strategy*."""
        with self._chosen_lock:
            self._chosen[strategy] += 1

    def chosen(self) -> dict:
        """``auto`` executions so far, per strategy."""
        with self._chosen_lock:
            return dict(self._chosen)

    def stats(self) -> dict:
        return {
            "prepared": self._prepared.stats(),
            "compiled": self.cache.stats(),
            "planner": {"chosen": self.chosen()},
        }

    def bind_metrics(self, registry) -> None:
        """Expose the engine's caches, strategy tallies and aggregate
        DFA table sizes through a :class:`~repro.obs.registry.
        MetricsRegistry` — all as lazily sampled probes, so preparing
        and running pay nothing extra."""
        registry.probe("engine.prepared.cache", self._prepared.stats)
        self.cache.bind_metrics(registry)
        registry.probe("engine.planner.chosen", self.chosen)


_default_engine: Optional[Engine] = None
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide engine behind the CLI and module-level shims."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = Engine()
        return _default_engine
