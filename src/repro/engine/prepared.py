"""Prepared statements: parse and build automata exactly once, run many
times.

A :class:`PreparedTransform` owns its parsed query and both automata; a
:class:`PreparedQuery` owns a parsed FLWR user query; a
:class:`PreparedComposed` owns the Compose-Method rewrite of the pair —
built once, reused on every ``run``.  ``then`` chains prepared
transforms into a :class:`PreparedStack` (the semantics of stacked
transform queries: each stage sees the previous stage's result), and
``explain`` shows the cost-based plan for a concrete or hypothetical
input.

All ``run`` methods accept either a resident :class:`Element` or a file
path; strategy choice is delegated to the engine's planner unless a
fixed ``method=`` is forced.
"""

from __future__ import annotations

import os
import warnings
from typing import Iterable, Optional, Union

from repro.compose.compose import compose
from repro.engine.executor import ALL_STRATEGIES, run_tree_strategy
from repro.engine.features import (
    InputProfile,
    QueryFeatures,
    analyze_transform,
)
from repro.engine.planner import Plan, Planner
from repro.lru import LRUCache
from repro.obs import Profile, profiled, span
from repro.transform.query import TransformQuery
from repro.transform.sax_twopass import transform_sax_events, transform_sax_file
from repro.xmltree.arena import FrozenDocument, thaw
from repro.xmltree.node import Element
from repro.xmltree.parser import parse_file
from repro.xmltree.sax import events_to_text, events_to_tree, iter_sax_file
from repro.xmltree.serializer import write_file
from repro.xquery.ast import UserQuery
from repro.xquery.evaluator import evaluate_query

Input = Union[Element, "FrozenDocument", str, os.PathLike]


def _as_tree(doc_or_path: Input) -> Element:
    if isinstance(doc_or_path, Element):
        return doc_or_path
    if isinstance(doc_or_path, FrozenDocument):
        return thaw(doc_or_path)
    return parse_file(doc_or_path)


#: Per-prepared plan memo size: plans for the most recent distinct
#: inputs are reused across re-executions.
_PLAN_MEMO_SIZE = 16


def render_profile(snapshot: dict) -> str:
    """The human-readable "actual" block of an ``explain_analyze``
    report, from a :meth:`~repro.obs.profile.Profile.snapshot` dict.
    The same dict rides in slow-query-log entries verbatim."""
    est = snapshot.get("est_nodes")
    visited = snapshot.get("nodes_visited", 0)
    ratio = snapshot.get("visit_ratio")
    lines = ["actual:"]
    if est:
        suffix = f" (ratio {ratio})" if ratio is not None else ""
        lines.append(f"  {visited} nodes visited / {est} estimated{suffix}")
    else:
        lines.append(f"  {visited} nodes visited (no planner estimate)")
    lines.append(
        f"  {snapshot.get('subtrees_pruned', 0)} subtrees pruned, "
        f"{snapshot.get('nodes_skipped', 0)} nodes skipped by jumps, "
        f"{snapshot.get('dfa_transitions', 0)} DFA transitions "
        f"(+{snapshot.get('table_sets_added', 0)} state sets, "
        f"+{snapshot.get('table_moves_added', 0)} memoized moves)"
    )
    lines.append(
        f"  cache {snapshot.get('cache', 'warm')}, "
        f"{snapshot.get('serialize_bytes', 0)} serialize bytes, "
        f"{snapshot.get('results', 0)} results, "
        f"{snapshot.get('dur_us', 0) / 1000.0:.3f} ms"
    )
    return "\n".join(lines)


def describe_arena_memory(arena: FrozenDocument) -> str:
    """One explain()/stat line for an arena's columnar footprint."""
    info = arena.stats()
    return (
        f"arena: {info['nodes']} nodes ({info['elements']} elements) in "
        f"3 int columns + text/own-text columns; "
        f"{info['column_bytes']} column bytes, "
        f"{info['total_bytes']} bytes total"
    )


class PreparedTransform:
    """A transform query, parsed and compiled exactly once."""

    __slots__ = (
        "text", "query", "features", "selecting", "filtering", "planner",
        "engine", "compiled", "_plan_memo",
    )

    def __init__(
        self,
        text: str,
        query: TransformQuery,
        selecting,
        filtering,
        planner: Planner,
        features: Optional[QueryFeatures] = None,
        engine=None,
        compiled=None,
    ):
        self.text = text
        self.query = query
        self.selecting = selecting
        self.filtering = filtering
        self.planner = planner
        #: The owning Engine, when prepared through one: lets ``then``
        #: route raw query text through the engine's caches.
        self.engine = engine
        #: The CompiledPath bundle (NFAs + lazy DFAs), when prepared
        #: through an engine's compiled cache; None for hand-built
        #: instances (the automata still carry their own DFAs).
        self.compiled = compiled
        self.features = features or analyze_transform(query)
        self._plan_memo = LRUCache(_PLAN_MEMO_SIZE)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan_for(self, doc_or_path: Optional[Input] = None) -> Plan:
        """The plan for a concrete input (or a nominal 10k-node tree).

        Introspective: the decision is not tallied in the planner's
        execution counters (``run`` records its own).  Mirrors ``run``
        exactly — for a file below the stream threshold the plan is
        refined on the parsed tree, so explain never reports a
        different strategy than execution would use.
        """
        if doc_or_path is None:
            profile = InputProfile(form="tree", nodes=10_000, exact=False)
            return self.planner.plan_for_profile(
                self.query, profile, self.features, record=False
            )
        plan = self.planner.plan(
            self.query, doc_or_path, self.features, record=False
        )
        if plan.strategy != "stream" and not isinstance(
            doc_or_path, (Element, FrozenDocument)
        ):
            plan = self.planner.plan(
                self.query, parse_file(doc_or_path), self.features, record=False
            )
        return plan

    def _plan_memoized(self, tree: Element) -> Plan:
        """The plan for a resident tree, memoized per input identity.

        Re-executing a prepared transform on the same tree must not pay
        the profiling walk again; keying on ``id(tree)`` can at worst
        serve a *suboptimal* plan to a new tree that recycled the
        address — never a wrong result, since every strategy is
        semantically identical.
        """
        return self._plan_memo.get_or_compute(
            id(tree), lambda: self.planner.plan(self.query, tree, self.features)
        )

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        plan = self.plan_for(doc_or_path)
        header = [
            f"prepared transform: {self.query.update}",
            "compiled once: parse + selecting NFA + filtering NFA + lazy DFA",
        ]
        dfa = self.selecting.dfa()
        stats = dfa.stats()
        header.append(
            "selecting DFA: "
            f"{stats['sets']} interned state sets, "
            f"{stats['moves']} memoized transitions, "
            f"{stats['tracked_moves']} tracked moves "
            f"(over {stats['nfa_states']} NFA states)"
        )
        if isinstance(doc_or_path, FrozenDocument):
            header.append(describe_arena_memory(doc_or_path))
        if self.engine is not None:
            header.append("engine caches [hits/misses/evictions]:")
            for name, cache_stats in self.engine.cache.stats().items():
                header.append(
                    f"  {name:<14} {cache_stats['hits']}/{cache_stats['misses']}"
                    f"/{cache_stats['evictions']} "
                    f"(size {cache_stats['size']}/{cache_stats['maxsize']})"
                )
        return "\n".join(header) + "\n" + plan.describe()

    def explain_analyze(
        self, doc_or_path: Input, method: str = "auto"
    ) -> tuple[str, Element]:
        """Run the transform under an execution profile and report the
        planner's estimates next to what the run measured.

        Returns ``(report, transformed_tree)`` — the run is real (and
        tallied), not simulated, exactly like SQL ``EXPLAIN ANALYZE``.
        """
        prof = Profile()
        with profiled(prof):
            # Introspective pre-plan: stamps the estimate onto the
            # profile even when run() serves its plan from the memo.
            self.plan_for(doc_or_path)
            result = self.run(doc_or_path, method=method)
        prof.add_results(1)
        self.planner.observe_actual(prof)
        report = self.explain(doc_or_path)
        return report + "\n" + render_profile(prof.snapshot()), result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, doc_or_path: Input, method: str = "auto") -> Element:
        """Evaluate on a tree or file, returning the transformed tree."""
        if method != "auto":
            if method not in ALL_STRATEGIES:
                raise ValueError(
                    f"unknown method {method!r}; expected one of "
                    f"{', '.join(ALL_STRATEGIES)} or 'auto'"
                )
            if method == "stream" and not isinstance(doc_or_path, Element):
                return self._stream_to_tree(doc_or_path)
            return self._run_tree(_as_tree(doc_or_path), method)
        if isinstance(doc_or_path, Element):
            plan = self._plan_memoized(doc_or_path)
            return self._run_tree(doc_or_path, plan.strategy)
        if isinstance(doc_or_path, FrozenDocument):
            # Transforms build a fresh output tree: thaw once, then run
            # the planned strategy (the arena profile is exact and free).
            plan = self.planner.plan(self.query, doc_or_path, self.features)
            return self._run_tree(thaw(doc_or_path), plan.strategy)
        # File input: a cheap size-only gateway decides stream-vs-parse;
        # only the plan that actually executes is tallied.
        gateway = self.planner.plan(
            self.query, doc_or_path, self.features, record=False
        )
        if gateway.strategy == "stream":
            self.planner.record(gateway)
            return self._stream_to_tree(doc_or_path)
        # The file had to be parsed anyway; plan on the real tree — its
        # sampled depth can flip the strategy (a file profile only
        # knows the byte size).
        tree = parse_file(doc_or_path)
        plan = self.planner.plan(self.query, tree, self.features)
        return self._run_tree(tree, plan.strategy)

    def run_many(
        self, inputs: Iterable[Input], method: str = "auto"
    ) -> list[Element]:
        """Evaluate over many inputs.

        With ``method="auto"`` the tree plan is made once, on the first
        tree-sized input, and reused (a batch is assumed homogeneous) —
        but every file keeps its own size-only stream safeguard, so one
        oversized file in a batch of small ones streams instead of
        being parsed whole.
        """
        inputs = list(inputs)
        if not inputs:
            return []
        if method != "auto":
            return [self.run(item, method=method) for item in inputs]
        results: list[Element] = []
        tree_method: Optional[str] = None
        for item in inputs:
            if (
                not isinstance(item, (Element, FrozenDocument))
                and self.streams(item)
            ):
                # run() records the executed stream plan itself.
                results.append(self.run(item, method="auto"))
                continue
            if tree_method is None:
                # First tree-sized input: plan once (recorded), parsing
                # a file input a single time for both plan and run.
                tree = _as_tree(item)
                tree_method = self._plan_memoized(tree).strategy
                results.append(self._run_tree(tree, tree_method))
                continue
            results.append(self.run(item, method=tree_method))
        return results

    def run_to_file(
        self,
        in_path: Union[str, os.PathLike, "FrozenDocument"],
        out_path: Union[str, os.PathLike],
        method: str = "auto",
        pretty: bool = False,
    ) -> None:
        """File-to-file evaluation; a stream plan never builds a tree.

        ``pretty`` is ignored (with a warning) when the plan streams:
        the bounded-memory guarantee is why streaming was chosen, and
        pretty-printing would require materializing the document.

        A :class:`~repro.xmltree.arena.FrozenDocument` input takes the
        **arena-native serialize path** (``method`` "auto" or
        "arena"): one DFA scan over the columns finds the matches, and
        the output file is written by splicing the update into the
        columnar serializer — untouched subtrees stream out as raw
        pre-order ranges; no output tree, no thaw.  Byte-identical to
        the tree path (asserted by the arena test suite).
        """
        if isinstance(in_path, FrozenDocument):
            self._run_arena_to_file(in_path, out_path, method, pretty)
            return
        replan = method == "auto"
        gateway = None
        if replan:
            # Size-only gateway: stream, or parse and plan on the tree.
            gateway = self.planner.plan(
                self.query, in_path, self.features, record=False
            )
            method = gateway.strategy
        if method == "stream":
            if pretty:
                warnings.warn(
                    "pretty-printing is ignored for streamed file-to-file "
                    "transforms (streaming keeps memory bounded)",
                    stacklevel=2,
                )
            if gateway is not None:
                self.planner.record(gateway)
            self.stream_file(in_path, out_path)
            return
        source = parse_file(in_path)
        if replan:
            # Parsed anyway: the sampled tree shape refines the plan,
            # and the executed choice is the one tallied.
            method = self.planner.plan(self.query, source, self.features).strategy
        tree = self._run_tree(source, method)
        write_file(tree, str(out_path), indent="  " if pretty else None)

    def _run_arena_to_file(
        self, arena: FrozenDocument, out_path, method: str, pretty: bool
    ) -> None:
        """The columnar transform-to-text fast path (see run_to_file)."""
        from dataclasses import replace

        if not pretty and method in ("auto", "arena"):
            plan = self.planner.plan(
                self.query, arena, self.features, record=False
            )
            plan = replace(
                plan,
                strategy="serialize",
                backend="arena",
                reasons=(
                    "file output from a frozen arena: one DFA scan finds "
                    "the matches, untouched pre-order ranges stream out "
                    "as raw text — no output tree, no thaw",
                ),
            )
            self.planner.record(plan)
            from repro.automata.arena_run import write_arena_transformed

            with span("serialize"), open(out_path, "w", encoding="utf-8") as handle:
                handle.write('<?xml version="1.0" encoding="utf-8"?>\n')
                write_arena_transformed(
                    arena, self.query.update, self.selecting, handle.write
                )
                handle.write("\n")
            return
        # Pretty output (or a forced tree method): thaw and take the
        # ordinary tree path.
        tree = thaw(arena)
        strategy = method
        if method in ("auto", "arena"):
            strategy = self.planner.plan(self.query, tree, self.features).strategy
        tree_out = self._run_tree(tree, strategy)
        write_file(tree_out, str(out_path), indent="  " if pretty else None)

    # ------------------------------------------------------------------
    # Chaining
    # ------------------------------------------------------------------

    def then(self, other: Union["PreparedTransform", str]) -> "PreparedStack":
        """This transform, then *other* on its result."""
        return PreparedStack([self]).then(other)

    # ------------------------------------------------------------------

    def _run_tree(self, root: Element, strategy: str) -> Element:
        if strategy == "stream":
            strategy = "sax"
        return run_tree_strategy(
            strategy,
            root,
            self.query,
            selecting=self.selecting,
            filtering=self.filtering,
        )

    def _stream_to_tree(self, in_path: Input) -> Element:
        return events_to_tree(self._stream_events(in_path))

    def _stream_events(self, in_path: Input):
        def source():
            return iter_sax_file(str(in_path))

        return transform_sax_events(
            source, self.query, self.selecting, self.filtering
        )

    def gateway_plan(self, in_path: Input) -> Plan:
        """The size-only pre-parse plan for a file (introspective: not
        tallied; does not read the file's content)."""
        return self.planner.plan(
            self.query, in_path, self.features, record=False
        )

    def streams(self, in_path: Input) -> bool:
        """Would the size-only gateway stream this file?"""
        return self.gateway_plan(in_path).strategy == "stream"

    def stream_to(self, in_path: Input, handle) -> None:
        """Stream the transformed document into a writable *handle* —
        memory stays bounded by document depth; no tree is built."""
        events_to_text(self._stream_events(in_path), handle)

    def stream_if_planned(self, in_path: Input, handle) -> bool:
        """Stream to *handle* iff the size-only gateway plans streaming:
        records the executed plan and returns True, or returns False
        without reading the file.  Keeps the plan/tally bookkeeping in
        one place for callers that want a streaming fast path."""
        gateway = self.gateway_plan(in_path)
        if gateway.strategy != "stream":
            return False
        self.planner.record(gateway)
        self.stream_to(in_path, handle)
        return True

    def stream_file(
        self, in_path: Input, out_path: Optional[Input] = None
    ) -> Optional[str]:
        """``twoPassSAX`` file-to-file (or to a returned string) with
        the prepared automata; memory stays bounded by document depth."""
        return transform_sax_file(
            str(in_path),
            self.query,
            str(out_path) if out_path is not None else None,
            selecting=self.selecting,
            filtering=self.filtering,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedTransform({self.query.update!s})"


class PreparedStack:
    """A chain of prepared transforms: stage i+1 sees stage i's result."""

    __slots__ = ("stages",)

    def __init__(self, stages: list[PreparedTransform]):
        if not stages:
            raise ValueError("a prepared stack needs at least one stage")
        self.stages = list(stages)

    def then(self, other: Union[PreparedTransform, "PreparedStack", str]) -> "PreparedStack":
        if isinstance(other, str):
            other = _prepare_like(self.stages[0], other)
        if isinstance(other, PreparedStack):
            return PreparedStack(self.stages + other.stages)
        return PreparedStack(self.stages + [other])

    def run(self, doc_or_path: Input, method: str = "auto") -> Element:
        current = _as_tree(doc_or_path)
        for stage in self.stages:
            current = stage.run(current, method=method)
        return current

    def run_many(self, inputs: Iterable[Input], method: str = "auto") -> list[Element]:
        return [self.run(item, method=method) for item in inputs]

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        out = [f"prepared stack: {len(self.stages)} stage(s)"]
        for index, stage in enumerate(self.stages, 1):
            plan = stage.plan_for(doc_or_path)
            out.append(f"stage {index}: {stage.query.update}")
            out.append("  " + plan.describe().replace("\n", "\n  "))
            # Later stages see a transformed tree whose size we do not
            # know yet; plan them against the same input profile.
        return "\n".join(out)

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStack({len(self.stages)} stages)"


def _prepare_like(template: PreparedTransform, text: str) -> PreparedTransform:
    """Prepare *text* the way the template was prepared (used when
    ``then`` is handed raw query text instead of a prepared object):
    through the owning engine's caches, falling back to the process-wide
    default engine for the rare template built without one."""
    if template.engine is not None:
        return template.engine.prepare_transform(text)
    from repro.engine.engine import default_engine

    return default_engine().prepare_transform(text)


class PreparedQuery:
    """A FLWR user query, parsed exactly once.

    Reads have a **backend** dimension instead of a strategy choice:
    handed a :class:`~repro.xmltree.arena.FrozenDocument`, ``run``
    takes the columnar evaluator (indices over pre-order ranges,
    matches thawed only on materialization); handed a tree or file, it
    walks Node objects as before.  The planner records the choice and
    ``explain`` shows it.
    """

    __slots__ = ("text", "query", "planner", "engine")

    def __init__(
        self,
        text: str,
        query: UserQuery,
        planner: Optional[Planner] = None,
        engine=None,
    ):
        self.text = text
        self.query = query
        self.planner = planner
        self.engine = engine

    def _nfa_for(self):
        if self.engine is not None:
            return self.engine.cache.selecting_nfa_for
        return None

    def run(self, doc_or_path: Input) -> list:
        if isinstance(doc_or_path, FrozenDocument):
            with span("scan"):
                if self.planner is not None:
                    self.planner.plan_read(doc_or_path)
                from repro.xquery.arena_eval import evaluate_query_arena

                return evaluate_query_arena(
                    doc_or_path, self.query, nfa_for=self._nfa_for()
                )
        with span("scan"):
            return evaluate_query(_as_tree(doc_or_path), self.query)

    def run_refs(self, arena: FrozenDocument) -> list:
        """Zero-thaw evaluation: element results stay pre-order indices
        (serialize them straight from the columns, or thaw on demand).
        """
        from repro.xquery.arena_eval import ArenaEvaluator

        with span("scan"):
            if self.planner is not None:
                self.planner.plan_read(arena)
            return ArenaEvaluator(arena, self._nfa_for()).evaluate_refs(self.query)

    def run_many(self, inputs: Iterable[Input]) -> list[list]:
        return [self.run(item) for item in inputs]

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        lines = [f"prepared user query: {self.query}"]
        if self.planner is not None and doc_or_path is not None:
            plan = self.planner.plan_read(doc_or_path, record=False)
            lines.append(plan.describe())
        else:
            lines.append(
                "strategy: direct evaluation on the target tree "
                "(pass an input to see the backend decision)"
            )
        if isinstance(doc_or_path, FrozenDocument):
            lines.append(describe_arena_memory(doc_or_path))
        lines.append(
            "(compose with a prepared transform via "
            "Engine.prepare_composed to query a virtual view)"
        )
        return "\n".join(lines)

    def explain_analyze(self, doc_or_path: Input) -> tuple[str, list]:
        """Run the query under an execution profile and report the
        planner's estimated rows next to the measured scan.

        Returns ``(report, results)``.  On a frozen arena the run is
        the zero-thaw ref path plus the columnar serializer, so every
        counter (nodes visited, prunes, DFA transitions, table growth,
        serialize bytes) is genuinely measured by the loops that did
        the work; on a Node tree the visit count is the realized input
        walk.
        """
        prof = Profile()
        with profiled(prof):
            if isinstance(doc_or_path, FrozenDocument):
                refs = self.run_refs(doc_or_path)
                from repro.automata.arena_run import serialize_arena_items

                results = serialize_arena_items(doc_or_path, refs)
            else:
                if self.planner is not None:
                    self.planner.plan_read(doc_or_path, record=False)
                results = self.run(doc_or_path)
                prof.add_results(len(results))
        if self.planner is not None:
            self.planner.observe_actual(prof)
        report = self.explain(doc_or_path)
        return report + "\n" + render_profile(prof.snapshot()), results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedQuery({self.text!r})"


class PreparedComposed:
    """A user query fused with a transform query (the Compose Method):
    the composed plan is built once and runs on the *original* tree —
    the virtual view is never materialized."""

    __slots__ = ("user", "transform", "plan")

    def __init__(self, user: PreparedQuery, transform: PreparedTransform):
        self.user = user
        self.transform = transform
        # The prepared transform's selecting NFA (with its warm DFA
        # tables) backs the plan's spliced topDown calls.
        self.plan = compose(user.query, transform.query, nfa=transform.selecting)

    def run(self, doc_or_path: Input) -> list:
        from repro.compose.compose import evaluate_composed

        return evaluate_composed(_as_tree(doc_or_path), self.plan)

    def run_many(self, inputs: Iterable[Input]) -> list[list]:
        return [self.run(item) for item in inputs]

    def run_naive(self, doc_or_path: Input) -> list:
        """The oracle: materialize the view, then query it."""
        return self.user.run(self.transform.run(doc_or_path))

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        return (
            f"prepared composition (Compose Method, Section 4)\n"
            f"user query: {self.user.query}\n"
            f"transform:  {self.transform.query.update}\n"
            f"composed plan: {self.plan}\n"
            "strategy: evaluate the composed plan on the base tree; "
            "the view is never materialized"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PreparedComposed()"
