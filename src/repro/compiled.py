"""The :class:`CompiledCache` of parsed queries, automata and composed
plans, built on :class:`repro.lru.LRUCache`.

Parsing a transform query, building its selecting NFA and composing a
user query against it are all pure functions of the source text, so a
resident engine or store should pay for them once per distinct text,
not once per request.  Result caches (which *do* depend on document
state) live with their owners (e.g. :class:`repro.store.store.ViewStore`,
keyed by document version); this module only caches artifacts that
never go stale.

A cache miss is the one place anything is compiled, so it is where a
compile is accounted for: the factory runs inside a ``compile`` span of
the calling thread's active trace, and stamps an active execution
profile ``cold``.  A hit pays neither.

Automata share their lazy-DFA tables by shape
(:meth:`~repro.automata.core.Automaton.shape`): every automaton the
cache builds is bound to the one :class:`~repro.automata.dfa.DfaTables`
of its shape in ``shapes``, so query texts that differ only in their
literals — ``people/person[@id='person7']`` and
``people/person[@id='person9']`` — step through the same warm tables.

Like :mod:`repro.lru`, this lives at the package root: both the engine
and the store use it and neither imports the other — shared
infrastructure lives below both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, cast

from repro.automata.core import Automaton
from repro.automata.dfa import DfaTables
from repro.automata.filtering import FilteringNFA, build_filtering_nfa
from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.compose.compose import compose
from repro.lru import LRUCache
from repro.obs import current_profile, span
from repro.transform.query import TransformQuery, parse_transform_query
from repro.xpath.ast import Path
from repro.xquery.ast import Expr, UserQuery
from repro.xquery.parser import parse_user_query

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

__all__ = ["CompiledCache"]


class CompiledCache:
    """LRU caches for every compiled artifact an engine or a store reuses:

    * parsed transform and user queries, keyed by source text,
    * selecting/filtering NFAs (each carrying its lazy DFA), keyed by
      the parsed path — two texts embedding one path share one pair of
      automata,
    * lazy-DFA tables, keyed by automaton shape — two paths that differ
      only in their qualifiers' constants share one set of warm tables,
    * composed plans — the Compose Method's output for one
      (user query, transform query) pair of source texts
      (``Engine.prepare_composed``; a store's reads splice instead).
    """

    def __init__(self, maxsize: int = 256):
        self.transforms = LRUCache(maxsize)
        self.user_queries = LRUCache(maxsize)
        self.selecting = LRUCache(maxsize)
        self.filtering = LRUCache(maxsize)
        self.plans = LRUCache(maxsize)
        self.shapes = LRUCache(maxsize)

    # ------------------------------------------------------------------
    # Parsers
    # ------------------------------------------------------------------

    def transform(self, text: str) -> TransformQuery:
        # The LRU stores Any; the casts re-assert what each cache holds.
        return cast(TransformQuery, _get(
            self.transforms, text, lambda: parse_transform_query(text)
        ))

    def user_query(self, text: str) -> UserQuery:
        return cast(UserQuery, _get(
            self.user_queries, text, lambda: parse_user_query(text)
        ))

    # ------------------------------------------------------------------
    # Automata and plans
    # ------------------------------------------------------------------

    def selecting_nfa_for(self, path: Path) -> SelectingNFA:
        # NFAs are keyed by the parsed Path (hashable, structural
        # equality): rendered text does not round-trip quoted string
        # literals, so it must never be the cache key.
        return cast(SelectingNFA, _get(
            self.selecting, path, lambda: self._shared(build_selecting_nfa(path))
        ))

    def filtering_nfa_for(self, path: Path) -> FilteringNFA:
        return cast(FilteringNFA, _get(
            self.filtering, path, lambda: self._shared(build_filtering_nfa(path))
        ))

    def _shared(self, automaton: Automaton) -> Automaton:
        """Bind a newly built *automaton* to the tables of its shape."""
        automaton.use_tables(self.shapes.get_or_compute(
            automaton.shape(), lambda: DfaTables(automaton)
        ))
        return automaton

    def composed(self, user_text: str, transform_text: str) -> Expr:
        """The composed plan for the pair of source texts.

        The transform's cached selecting NFA is threaded into the
        composer, so the plan's spliced ``topDown`` calls run on the
        same warm DFA tables every other strategy uses.
        """

        def build() -> Expr:
            transform = self.transform(transform_text)
            return compose(
                self.user_query(user_text),
                transform,
                nfa=self.selecting_nfa_for(transform.path),
            )

        return cast(Expr, _get(self.plans, (user_text, transform_text), build))

    # ------------------------------------------------------------------

    def _caches(self) -> Dict[str, LRUCache]:
        return {
            "transforms": self.transforms,
            "user_queries": self.user_queries,
            "selecting_nfas": self.selecting,
            "filtering_nfas": self.filtering,
            "plans": self.plans,
            "shapes": self.shapes,
        }

    def stats(self) -> Dict[str, Any]:
        return {name: cache.stats() for name, cache in self._caches().items()}

    def dfa_stats(self) -> Dict[str, int]:
        """Lazy-DFA table sizes summed over the shape cache — the one
        place the per-shape ``DfaTables.stats()`` counters roll up
        (``automata.dfa.tables.*`` via the owner's metrics registry);
        ``dfas`` is the number of table sets."""
        built = [tables.stats() for tables in self.shapes.values()]
        totals = {
            name: sum(stats[name] for stats in built)
            for name in ("nfa_states", "sets", "moves", "tracked_moves")
        }
        totals["dfas"] = len(built)
        return totals

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Expose every cache's hit/miss/eviction tallies (as
        ``engine.compiled.*``) and the aggregate DFA table sizes
        through a metrics registry."""
        for name, cache in self._caches().items():
            registry.probe(f"engine.compiled.{name}", cache.stats)
        registry.probe("automata.dfa.tables", self.dfa_stats)


def _get(cache: LRUCache, key: Any, build: Callable[[], Any]) -> Any:
    """*cache*'s entry for *key*; on a miss *build* compiles it, in a
    ``compile`` span and with an active profile stamped cold."""

    def compile_miss() -> Any:
        profile = current_profile()
        if profile is not None:
            profile.note_compile()
        with span("compile"):
            return build()

    return cache.get_or_compute(key, compile_miss)
