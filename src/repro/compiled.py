"""The :class:`CompiledCache` of parsed queries, automata and composed
plans, built on :class:`repro.lru.LRUCache`.

Parsing a transform query, building its selecting NFA and composing a
user query against it are all pure functions of the source text, so a
resident engine or store should pay for them once per distinct text,
not once per request.  Result caches (which *do* depend on document
state) live with their owners (e.g. :class:`repro.store.store.ViewStore`,
keyed by document version); this module only caches artifacts that
never go stale.

Like :mod:`repro.lru`, this lives at the package root: both the engine
and the store use it and neither imports the other — shared
infrastructure lives below both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, cast

from repro.automata.dfa import LazyDFA
from repro.automata.filtering import FilteringNFA, build_filtering_nfa
from repro.automata.selecting import SelectingNFA, build_selecting_nfa
from repro.compose.compose import compose
from repro.lru import LRUCache
from repro.transform.query import TransformQuery, parse_transform_query
from repro.xpath.ast import Path
from repro.xpath.parser import parse_xpath
from repro.xquery.ast import Expr, UserQuery
from repro.xquery.parser import parse_user_query

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

__all__ = ["CompiledCache", "CompiledPath"]


class CompiledPath:
    """Everything compiled from one ``X`` path, bundled: the selecting
    and filtering NFAs plus their lazy DFAs (which carry the interned
    state sets, memoized transitions and per-state qualifier closures).

    This is the artifact a prepared statement holds and the caches key
    by parsed :class:`Path`: a second preparation — or a second run of
    the same prepared statement — finds the DFA tables already warm and
    pays zero recompilation (``benchmarks/bench_dfa.py`` asserts this
    via :meth:`stats`).
    """

    __slots__ = ("path", "selecting", "filtering")

    def __init__(self, path: Path, selecting: SelectingNFA, filtering: FilteringNFA):
        self.path = path
        self.selecting = selecting
        self.filtering = filtering

    @property
    def selecting_dfa(self) -> LazyDFA:
        return self.selecting.dfa()

    @property
    def filtering_dfa(self) -> LazyDFA:
        return self.filtering.dfa()

    def stats(self) -> Dict[str, Any]:
        """Compiled-table sizes for both automata (see
        :meth:`repro.automata.dfa.LazyDFA.stats`)."""
        return {
            "selecting_dfa": self.selecting.dfa().stats(),
            "filtering_dfa": self.filtering.dfa().stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledPath({self.path})"


class CompiledCache:
    """LRU caches for every compiled artifact the store reuses:

    * parsed X paths and their selecting/filtering NFAs,
    * parsed transform and user queries,
    * composed plans — the Compose Method's output for one
      (user query, transform query) pair of source texts.
    """

    def __init__(self, maxsize: int = 256):
        self.paths = LRUCache(maxsize)
        self.transforms = LRUCache(maxsize)
        self.user_queries = LRUCache(maxsize)
        self.selecting = LRUCache(maxsize)
        self.filtering = LRUCache(maxsize)
        self.compiled_paths = LRUCache(maxsize)
        self.plans = LRUCache(maxsize)

    # ------------------------------------------------------------------
    # Parsers
    # ------------------------------------------------------------------

    def xpath(self, text: str) -> Path:
        # The LRU stores Any; the casts re-assert what each cache holds.
        return cast(Path, self.paths.get_or_compute(text, lambda: parse_xpath(text)))

    def transform(self, text: str) -> TransformQuery:
        return cast(TransformQuery, self.transforms.get_or_compute(
            text, lambda: parse_transform_query(text)
        ))

    def user_query(self, text: str) -> UserQuery:
        return cast(UserQuery, self.user_queries.get_or_compute(
            text, lambda: parse_user_query(text)
        ))

    # ------------------------------------------------------------------
    # Automata and plans
    # ------------------------------------------------------------------

    def selecting_nfa_for(self, path: Path) -> SelectingNFA:
        # NFAs are keyed by the parsed Path (hashable, structural
        # equality): rendered text does not round-trip quoted string
        # literals, so it must never be the cache key.
        return cast(SelectingNFA, self.selecting.get_or_compute(
            path, lambda: build_selecting_nfa(path)
        ))

    def filtering_nfa_for(self, path: Path) -> FilteringNFA:
        return cast(FilteringNFA, self.filtering.get_or_compute(
            path, lambda: build_filtering_nfa(path)
        ))

    def selecting_nfa(self, path_text: str) -> SelectingNFA:
        return self.selecting_nfa_for(self.xpath(path_text))

    def filtering_nfa(self, path_text: str) -> FilteringNFA:
        return self.filtering_nfa_for(self.xpath(path_text))

    def compiled_path_for(self, path: Path) -> CompiledPath:
        """The :class:`CompiledPath` bundle for a parsed path — shares
        the NFA caches, so the bundle is pure bookkeeping on top."""
        return cast(CompiledPath, self.compiled_paths.get_or_compute(
            path,
            lambda: CompiledPath(
                path, self.selecting_nfa_for(path), self.filtering_nfa_for(path)
            ),
        ))

    def compiled_path(self, path_text: str) -> CompiledPath:
        return self.compiled_path_for(self.xpath(path_text))

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

        return cast(Expr, self.plans.get_or_compute((user_text, transform_text), build))

    # ------------------------------------------------------------------

    def clear(self) -> None:
        for cache in self._caches().values():
            cache.invalidate()

    def _caches(self) -> Dict[str, LRUCache]:
        return {
            "paths": self.paths,
            "transforms": self.transforms,
            "user_queries": self.user_queries,
            "selecting_nfas": self.selecting,
            "filtering_nfas": self.filtering,
            "compiled_paths": self.compiled_paths,
            "plans": self.plans,
        }

    def stats(self) -> Dict[str, Any]:
        return {name: cache.stats() for name, cache in self._caches().items()}

    def dfa_stats(self) -> Dict[str, int]:
        """Aggregate lazy-DFA table sizes across every cached
        :class:`CompiledPath` — the one place the per-automaton
        ``LazyDFA.stats()`` counters roll up under normalized names
        (``automata.dfa.sets`` …, via the owner's metrics registry)
        instead of being scattered per prepared statement."""
        totals = {
            "paths": 0, "nfa_states": 0, "sets": 0, "moves": 0,
            "tracked_moves": 0,
        }
        for compiled in self.compiled_paths.values():
            totals["paths"] += 1
            for table in (compiled.selecting.dfa(), compiled.filtering.dfa()):
                stats = table.stats()
                totals["nfa_states"] += stats["nfa_states"]
                totals["sets"] += stats["sets"]
                totals["moves"] += stats["moves"]
                totals["tracked_moves"] += stats["tracked_moves"]
        return totals

    def bind_metrics(self, registry: "MetricsRegistry", prefix: str = "engine.compiled") -> None:
        """Expose every cache's hit/miss/eviction tallies and the
        aggregate DFA table sizes through a metrics registry."""
        for name, cache in self._caches().items():
            registry.probe(f"{prefix}.{name}", cache.stats)
        registry.probe("automata.dfa.tables", self.dfa_stats)
