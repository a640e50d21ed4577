"""Prepared statements: parse and build automata exactly once, run many
times.

A :class:`PreparedTransform` holds its parsed query and both automata; a
:class:`PreparedQuery` a parsed FLWR user query; a
:class:`PreparedComposed` the Compose-Method rewrite of the pair — each
taken from the :class:`~repro.compiled.CompiledCache` it was built from
(``cache``), which compiled them once, and reused on every ``run``.
``then`` chains prepared transforms into a :class:`PreparedStack` (the
semantics of stacked transform queries: each stage sees the previous
stage's result), and ``explain`` shows the plan for a concrete or
hypothetical input.

All ``run`` methods accept a resident :class:`Element`, a frozen arena
or a file path.  A tree or file is transformed into a tree by the
strategy the rule in :func:`~repro.engine.planner.choose_strategy`
picks per input (or a forced ``method=``); a frozen arena into a frozen
arena by :func:`repro.transform.arena.transform_arena` — an arena,
like a read, has no strategy to choose.
"""

from __future__ import annotations

import os
import warnings
from typing import Iterable, Optional, Union

from repro.compiled import CompiledCache
from repro.compose.compose import compose
from repro.engine.executor import ALL_STRATEGIES, run_tree_strategy
from repro.engine.features import analyze_transform, mean_depth
from repro.engine.planner import Plan, choose_strategy
from repro.obs import Profile, current_profile, profiled, span
from repro.transform.arena import transform_arena
from repro.transform.query import TransformQuery
from repro.transform.sax_twopass import transform_sax_events, transform_sax_file
from repro.xmltree.arena import FrozenDocument
from repro.xmltree.node import Element
from repro.xmltree.parser import parse_file
from repro.xmltree.sax import events_to_text, events_to_tree, iter_sax_file
from repro.xmltree.serializer import write_arena_file, write_file
from repro.xquery.evaluator import evaluate_query

Resident = Union[Element, FrozenDocument]
Input = Union[Resident, str, os.PathLike]


def _resident(doc_or_path: Input) -> Resident:
    if isinstance(doc_or_path, (Element, FrozenDocument)):
        return doc_or_path
    return parse_file(doc_or_path)


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
        lines.append(f"  {visited} nodes visited (no estimate)")
    lines.append(
        f"  {snapshot.get('subtrees_pruned', 0)} subtrees pruned, "
        f"{snapshot.get('nodes_skipped', 0)} nodes skipped by jumps, "
        f"{snapshot.get('dfa_transitions', 0)} DFA transitions "
        f"(+{snapshot.get('table_sets_added', 0)} state sets, "
        f"+{snapshot.get('table_moves_added', 0)} memoized moves)"
    )
    verdicts = snapshot.get("qual_verdicts") or {}
    if snapshot.get("qual_sweeps") or snapshot.get("qual_stepped") or verdicts:
        why = ", ".join(f"{verdict} x{count}" for verdict, count in sorted(verdicts.items()))
        lines.append(
            f"  qualifiers: {snapshot.get('qual_sweeps', 0)} ranges swept over "
            f"{snapshot.get('qual_swept', 0)} leaf postings, "
            f"{snapshot.get('qual_stepped', 0)} candidates decided per node"
            + (f" ({why})" if why else "")
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
    """A transform query, with its parse and both automata from *cache*.

    *text* is source text or an already-parsed :class:`TransformQuery`,
    which is taken as it is: its rendering is lossy (e.g. float
    literals), so it is never a cache key.  ``from_text`` records which
    — a composition looks its plan up by the pair of source texts only
    when there is one.
    """

    __slots__ = (
        "text", "query", "from_text", "features", "selecting", "filtering", "cache",
    )

    def __init__(self, cache: CompiledCache, text: Union[str, TransformQuery]):
        self.from_text = not isinstance(text, TransformQuery)
        self.query = cache.transform(text) if self.from_text else text
        self.text = text if self.from_text else str(text)
        # Keyed by the parsed Path: two texts embedding one path share
        # one pair of automata, and so one set of warm lazy-DFA tables.
        self.selecting = cache.selecting_nfa_for(self.query.path)
        self.filtering = cache.filtering_nfa_for(self.query.path)
        self.features = analyze_transform(self.query)
        #: Where ``then`` prepares raw text, and what ``explain`` reports.
        self.cache = cache

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan_for(self, doc_or_path: Optional[Input] = None) -> Plan:
        """The plan for a concrete input (or, with none, for a
        hypothetical shallow one).

        Introspective, and exactly what ``run`` will execute on a tree
        or file: both apply the one rule to the same observations.
        Free unless the query's shape nests; then it measures the
        input's mean depth (parsing a file to do so).
        A frozen arena runs no plan, so asking for one is the
        ``ValueError`` forcing a ``method=`` on it is.
        """
        if doc_or_path is None:
            return choose_strategy(self.features)
        if isinstance(doc_or_path, FrozenDocument):
            raise _no_arena_strategy("a plan cannot be made for")
        return self._plan(doc_or_path)[0]

    def _plan(
        self, source: Union[Element, str, os.PathLike]
    ) -> tuple[Plan, Optional[Element]]:
        """The rule applied to *source*, and the tree it looked inside
        — ``None`` for a file the rule did not have to parse (it
        streams, or the shape decided alone), so callers that go on to
        execute parse a file at most once."""
        with span("plan"):
            if isinstance(source, Element):
                plan = choose_strategy(
                    self.features, mean_depth=lambda: mean_depth(source)
                )
                return plan, source
            parsed: list[Element] = []

            def parsed_depth() -> float:
                parsed.append(parse_file(source))
                return mean_depth(parsed[0])

            plan = choose_strategy(
                self.features, os.path.getsize(source), parsed_depth
            )
            return plan, parsed[0] if parsed else None

    def _describe_run(self, doc_or_path: Optional[Input] = None) -> str:
        """What ``run`` does with this input, as ``explain`` prints it:
        the kernel on a frozen arena, else the plan the rule makes."""
        if isinstance(doc_or_path, FrozenDocument):
            return (
                "evaluation: select + splice kernel over the columns "
                "(one DFA scan, matches patched in; no strategy to choose)"
            )
        return self.plan_for(doc_or_path).describe()

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
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
            header.append("input: frozen arena")
            header.append(describe_arena_memory(doc_or_path))
        elif doc_or_path is not None:
            header.append(
                "input: resident tree"
                if isinstance(doc_or_path, Element)
                else f"input: file {os.fspath(doc_or_path)}"
            )
        header.append("engine caches [hits/misses/evictions]:")
        for name, cache_stats in self.cache.stats().items():
            header.append(
                f"  {name:<14} {cache_stats['hits']}/{cache_stats['misses']}"
                f"/{cache_stats['evictions']} "
                f"(size {cache_stats['size']}/{cache_stats['maxsize']})"
            )
        return "\n".join(header) + "\n" + self._describe_run(doc_or_path)

    def explain_analyze(
        self, doc_or_path: Input, method: str = "auto"
    ) -> tuple[str, Resident]:
        """Run the transform under an execution profile and report the
        plan next to what the run measured (on an arena: the scan
        loop's own counters next to the full-scan estimate).

        Returns ``(report, result)`` — the run is real, not simulated,
        exactly like SQL ``EXPLAIN ANALYZE``.
        """
        prof = Profile()
        with profiled(prof):
            result = self.run(doc_or_path, method=method)
        prof.add_results(1)
        report = self.explain(doc_or_path)
        return report + "\n" + render_profile(prof.snapshot()), result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, doc_or_path: Input, method: str = "auto") -> Resident:
        """Evaluate on a tree or a file, returning the transformed
        tree (a resident tree forced to ``stream`` runs ``sax`` over
        synthesized events: there is no file to stream) — or on a
        frozen arena, returning a frozen arena: the input itself when
        nothing matches, else one sharing its untouched column extents.
        An arena has no strategy to force (``ValueError``)."""
        if method != "auto" and method not in ALL_STRATEGIES:
            raise ValueError(
                f"unknown method {method!r}; expected one of "
                f"{', '.join(ALL_STRATEGIES)} or 'auto'"
            )
        if isinstance(doc_or_path, FrozenDocument):
            return self._run_arena(doc_or_path, method)
        resident: Optional[Element] = None
        if method == "auto":
            plan, resident = self._plan(doc_or_path)
            method = plan.strategy
        if method == "stream" and not isinstance(doc_or_path, Element):
            return events_to_tree(self._stream_events(doc_or_path))
        return self._run_tree(
            resident if resident is not None else _resident(doc_or_path), method
        )

    def run_many(
        self, inputs: Iterable[Input], method: str = "auto"
    ) -> list[Resident]:
        """Evaluate over many inputs; ``auto`` chooses per input (the
        rule costs nothing unless the shape nests, and a batch need not
        be homogeneous)."""
        return [self.run(item, method=method) for item in inputs]

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

        A :class:`~repro.xmltree.arena.FrozenDocument` input is the
        kernel (as in :meth:`run`: nothing planned) and the
        columnar serializer on its result, pretty or not.  Byte-
        identical to the tree path (asserted by the arena test suite).
        """
        if isinstance(in_path, FrozenDocument):
            result = self._run_arena(in_path, method)
            with span("serialize"):
                write_arena_file(result, str(out_path), indent="  " if pretty else None)
            return
        source: Optional[Element] = None
        if method == "auto":
            plan, source = self._plan(in_path)
            method = plan.strategy
        if method == "stream":
            if pretty:
                warnings.warn(
                    "pretty-printing is ignored for streamed file-to-file "
                    "transforms (streaming keeps memory bounded)",
                    stacklevel=2,
                )
            self.stream_file(in_path, out_path)
            return
        tree = self._run_tree(
            source if source is not None else _resident(in_path), method
        )
        write_file(tree, str(out_path), indent="  " if pretty else None)

    # ------------------------------------------------------------------
    # Chaining
    # ------------------------------------------------------------------

    def then(self, other: Union["PreparedTransform", str]) -> "PreparedStack":
        """This transform, then *other* on its result."""
        return PreparedStack([self]).then(other)

    # ------------------------------------------------------------------

    def _run_arena(self, arena: FrozenDocument, method: str) -> FrozenDocument:
        if method != "auto":
            raise _no_arena_strategy(f"method {method!r} cannot be forced on")
        _expect_full_scan(arena)
        return transform_arena(arena, self.query.update, self.selecting).arena

    def _run_tree(self, root: Resident, strategy: str) -> Element:
        return run_tree_strategy(
            strategy,
            root,
            self.query,
            selecting=self.selecting,
            filtering=self.filtering,
        )

    def _stream_events(self, in_path: Input):
        def source():
            return iter_sax_file(str(in_path))

        return transform_sax_events(
            source, self.query, self.selecting, self.filtering
        )

    def streams(self, in_path: Input) -> bool:
        """Does the rule stream this file?  Decided from its size alone
        (the file's content is not read)."""
        plan = choose_strategy(self.features, os.path.getsize(in_path))
        return plan.strategy == "stream"

    def stream_to(self, in_path: Input, handle) -> None:
        """Stream the transformed document into a writable *handle* —
        memory stays bounded by document depth; no tree is built."""
        events_to_text(self._stream_events(in_path), handle)

    def stream_if_planned(self, in_path: Input, handle) -> bool:
        """Stream to *handle* iff the rule streams this file and return
        True, or return False without reading the file — for callers
        that want a streaming fast path."""
        if not self.streams(in_path):
            return False
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
            other = PreparedTransform(self.stages[0].cache, other)
        if isinstance(other, PreparedStack):
            return PreparedStack(self.stages + other.stages)
        return PreparedStack(self.stages + [other])

    def run(self, doc_or_path: Input, method: str = "auto") -> Resident:
        current = _resident(doc_or_path)
        for stage in self.stages:
            current = stage.run(current, method=method)
        return current

    def run_many(self, inputs: Iterable[Input], method: str = "auto") -> list[Resident]:
        return [self.run(item, method=method) for item in inputs]

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        out = [f"prepared stack: {len(self.stages)} stage(s)"]
        for index, stage in enumerate(self.stages, 1):
            # Later stages see a transformed document whose shape we
            # do not know yet; describe them against the same input.
            out.append(f"stage {index}: {stage.query.update}")
            out.append(
                "  " + stage._describe_run(doc_or_path).replace("\n", "\n  ")
            )
        return "\n".join(out)

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStack({len(self.stages)} stages)"


def _no_arena_strategy(refused: str) -> ValueError:
    return ValueError(
        f"{refused} a frozen arena, which has no strategy to choose: "
        "repro.thaw it and plan or force the strategy on the Node tree"
    )


def _expect_full_scan(arena: FrozenDocument) -> None:
    """Stamp an active execution profile with what an arena read would
    visit unpruned — every element below the root (what the scan loop
    counts) — so ``visit_ratio`` shows how much pruning and jumps saved."""
    profile = current_profile()
    if profile is not None:
        profile.set_plan("scan", arena.n_elements - 1)


class PreparedQuery:
    """A FLWR user query, with its parse from *cache*.

    A read has nothing to choose: handed a
    :class:`~repro.xmltree.arena.FrozenDocument`, ``run`` takes the
    columnar evaluator (indices over pre-order ranges, matches thawed
    only on materialization); handed a tree or file, it walks Node
    objects.
    """

    __slots__ = ("text", "query", "cache")

    def __init__(self, cache: CompiledCache, text: str):
        self.text = text
        self.query = cache.user_query(text)
        #: Where a columnar scan takes the automaton of each path.
        self.cache = cache

    def run(self, doc_or_path: Input) -> list:
        if isinstance(doc_or_path, FrozenDocument):
            from repro.xquery.arena_eval import evaluate_query_arena

            _expect_full_scan(doc_or_path)
            with span("scan"):
                return evaluate_query_arena(
                    doc_or_path, self.query, nfa_for=self.cache.selecting_nfa_for
                )
        with span("scan"):
            return evaluate_query(_resident(doc_or_path), self.query)

    def run_refs(self, arena: FrozenDocument) -> list:
        """Zero-thaw evaluation: element results stay pre-order indices
        (serialize them straight from the columns, or thaw on demand).
        """
        from repro.xquery.arena_eval import ArenaEvaluator

        _expect_full_scan(arena)
        with span("scan"):
            return ArenaEvaluator(arena, self.cache.selecting_nfa_for).evaluate_refs(self.query)

    def run_many(self, inputs: Iterable[Input]) -> list[list]:
        return [self.run(item) for item in inputs]

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        lines = [f"prepared user query: {self.query}"]
        if isinstance(doc_or_path, FrozenDocument):
            lines.append(
                "evaluation: lazy-DFA scan over the frozen arena's int "
                "columns; matches are thawed only on materialization"
            )
            lines.append(describe_arena_memory(doc_or_path))
        else:
            lines.append(
                "evaluation: direct evaluation on the Node tree (freeze() "
                "the document to scan its columns instead)"
            )
        lines.append(
            "(compose with a prepared transform via "
            "Engine.prepare_composed to query a virtual view)"
        )
        return "\n".join(lines)

    def explain_analyze(self, doc_or_path: Input) -> tuple[str, list]:
        """Run the query under an execution profile and report what the
        scan measured next to the full-scan estimate.

        Returns ``(report, results)``.  On a frozen arena the run is
        the zero-thaw ref path plus the columnar serializer, so every
        counter (nodes visited, prunes, DFA transitions, table growth,
        serialize bytes) is genuinely measured by the loops that did
        the work; a Node-tree walk counts only its results.
        """
        prof = Profile()
        with profiled(prof):
            if isinstance(doc_or_path, FrozenDocument):
                refs = self.run_refs(doc_or_path)
                from repro.automata.arena_run import serialize_arena_items

                results = serialize_arena_items(doc_or_path, refs)
            else:
                results = self.run(doc_or_path)
                prof.add_results(len(results))
        report = self.explain(doc_or_path)
        return report + "\n" + render_profile(prof.snapshot()), results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedQuery({self.text!r})"


class PreparedComposed:
    """A user query fused with a transform query (the Compose Method):
    the composed plan runs on the *original* tree — the virtual view is
    never materialized.  The plan is the transform's cache's for the
    pair of source texts; a transform handed in parsed has no source
    text to key it by, and is composed afresh."""

    __slots__ = ("user", "transform", "plan")

    def __init__(self, user: PreparedQuery, transform: PreparedTransform):
        self.user = user
        self.transform = transform
        if transform.from_text:
            self.plan = transform.cache.composed(user.text, transform.text)
        else:
            # The prepared transform's selecting NFA (with its warm DFA
            # tables) backs the plan's spliced topDown calls.
            self.plan = compose(user.query, transform.query, nfa=transform.selecting)

    def run(self, doc_or_path: Input) -> list:
        if isinstance(doc_or_path, FrozenDocument):
            # Only results and items bound to a topDown call are thawed.
            from repro.xquery.arena_eval import evaluate_query_arena

            return evaluate_query_arena(
                doc_or_path, self.plan, nfa_for=self.user.cache.selecting_nfa_for
            )
        from repro.compose.compose import evaluate_composed

        return evaluate_composed(_resident(doc_or_path), self.plan)

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
