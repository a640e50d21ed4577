"""Prepared statements: parse and build automata exactly once, run many
times.

A :class:`PreparedTransform` holds its parsed query and both automata; a
:class:`PreparedQuery` a parsed FLWR user query; a
:class:`PreparedComposed` the Compose-Method rewrite of the pair — each
taken from the :class:`~repro.compiled.CompiledCache` it was built from
(``cache``), which compiled them once, and reused on every ``run``.
``then`` chains prepared transforms into a :class:`PreparedStack`, the
one way to run transforms in sequence (the semantics of nested
transform queries: each stage sees the previous stage's result), and
``explain`` shows the plan for a concrete or hypothetical input.

Every ``run`` accepts a resident :class:`Element` or a frozen arena (a
transform's also a file, parsed into a tree).  A tree is transformed
into a tree by the strategy the rule in
:func:`~repro.engine.planner.choose_strategy` picks for it (or a forced
``method=``); a frozen arena into a frozen arena by
:func:`repro.transform.arena.transform_arena` — an arena, like a read,
has no strategy to choose.  ``run_to_file`` takes a file's route from
its size: twoPassSAX streams a large one, and a smaller one is read
into columns and goes through that same kernel.  A read's ``run_file``
reads a file of any size into columns.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import IO, Callable, Iterator, Optional, Union

from repro.automata.arena_run import serialize_arena_items
from repro.compiled import CompiledCache
from repro.compose.compose import compose, evaluate_composed
from repro.engine.executor import TREE_STRATEGIES, run_tree_strategy
from repro.engine.features import analyze_transform, mean_depth
from repro.engine.planner import Plan, choose_strategy, describe_file_route, file_streams
from repro.obs import Profile, current_profile, profiled, span
from repro.transform.arena import transform_arena
from repro.transform.query import TransformQuery
from repro.transform.sax_twopass import transform_sax_events
from repro.xmltree.arena import FrozenDocument
from repro.xmltree.node import Element
from repro.xmltree.parser import parse_file, parse_file_to_arena
from repro.xmltree.sax import events_to_text, iter_sax_file
from repro.xmltree.serializer import (
    serialize,
    serialize_arena,
    write_arena_range,
    write_stream,
)
from repro.xquery.arena_eval import ArenaEvaluator, evaluate_query_arena
from repro.xquery.evaluator import evaluate_query

Resident = Union[Element, FrozenDocument]
FilePath = Union[str, os.PathLike]
Input = Union[Resident, FilePath]
#: Where ``run_to_file`` writes: a path, or an open text handle.
Output = Union[str, os.PathLike, IO[str]]
#: What ``then`` stacks: anything but a prepared object is prepared.
Stageable = Union["PreparedTransform", "PreparedStack", str, TransformQuery]


def _check_method(method: str) -> None:
    if method != "auto" and method not in TREE_STRATEGIES:
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{', '.join(TREE_STRATEGIES)} or 'auto'"
        )


@contextmanager
def _document_out(out: Output) -> Iterator[IO[str]]:
    """Where ``run_to_file`` writes a document: a path is opened and
    starts with the XML declaration; an open handle gets the document
    alone.  Opened only once the result is ready, so a failed run
    leaves no file behind."""
    if not isinstance(out, (str, os.PathLike)):
        yield out
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="utf-8"?>\n')
        yield handle


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

    def plan_for(self, tree: Optional[Element] = None) -> Plan:
        """The plan for a resident tree (or, with none, for a
        hypothetical shallow one): exactly what ``run`` executes on it.

        Free unless the query's shape nests; then it measures the
        tree's mean depth.  Only a tree is planned: a frozen arena runs
        the kernel and a file's route is set by its size, so asking for
        a plan for either is a ``ValueError``.
        """
        if tree is None:
            return choose_strategy(self.features)
        if isinstance(tree, FrozenDocument):
            raise _no_arena_strategy("a plan cannot be made for")
        if not isinstance(tree, Element):
            raise ValueError(
                "a plan is made for a tree: a file's route is set by its "
                "size (explain(path) shows it); parse_file it to plan on "
                "the tree run(path) evaluates"
            )
        with span("plan"):
            return choose_strategy(self.features, mean_depth=lambda: mean_depth(tree))

    def _describe_run(self, doc_or_path: Optional[Input] = None) -> str:
        """What this input gets, as ``explain`` prints it: the kernel on
        a frozen arena, a file's route by its size (``run_to_file`` and
        the CLI), else the plan the rule makes for the tree."""
        if isinstance(doc_or_path, FrozenDocument):
            return (
                "evaluation: select + splice kernel over the columns "
                "(one DFA scan, matches patched in; no strategy to choose)"
            )
        if doc_or_path is None or isinstance(doc_or_path, Element):
            return self.plan_for(doc_or_path).describe()
        return describe_file_route(doc_or_path)

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
        exactly like SQL ``EXPLAIN ANALYZE``.  A file is run as the tree
        it parses into, and reported as that tree.
        """
        if not isinstance(doc_or_path, (Element, FrozenDocument)):
            doc_or_path = parse_file(doc_or_path)
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
        """Evaluate on a tree, returning the transformed tree (a file is
        parsed into one first, and planned on it) — or on a frozen
        arena, returning a frozen arena: the input itself when nothing
        matches, else one sharing its untouched column extents.  An
        arena has no strategy to force (``ValueError``)."""
        _check_method(method)
        if isinstance(doc_or_path, FrozenDocument):
            return self._run_arena(doc_or_path, method)
        tree = doc_or_path if isinstance(doc_or_path, Element) else parse_file(doc_or_path)
        if method == "auto":
            method = self.plan_for(tree).strategy
        return self._run_tree(tree, method)

    def run_to_file(
        self,
        in_path: Union[str, os.PathLike, FrozenDocument],
        out: Output,
        method: str = "auto",
        pretty: bool = False,
    ) -> None:
        """Evaluate a file (or a frozen arena) into *out*: a path, which
        gets the XML declaration, or an open text handle.

        A file's route is its size.  At or above
        :data:`~repro.engine.planner.STREAM_THRESHOLD_BYTES` twoPassSAX
        streams it, so memory stays bounded by document depth; below
        it, it is read into columns, transformed by the kernel (as in
        :meth:`run` on an arena: nothing planned) and written by the
        columnar serializer — no Node tree is built.  A frozen arena
        takes the kernel as it is.  A forced ``method=`` parses a tree
        and runs that algorithm; ``sax`` streams.

        ``pretty`` is ignored (with a warning) when the route streams:
        the bounded-memory guarantee is why it streams, and
        pretty-printing would require materializing the document.
        """
        _check_method(method)
        indent = "  " if pretty else None
        if isinstance(in_path, FrozenDocument) or (
            method == "auto" and not file_streams(in_path)
        ):
            arena = (
                in_path
                if isinstance(in_path, FrozenDocument)
                else parse_file_to_arena(str(in_path))
            )
            result = self._run_arena(arena, method)
            with span("serialize"), _document_out(out) as handle:
                if indent is None:
                    write_arena_range(result, 0, result.end_of(0), handle.write)
                    handle.write("\n")
                else:
                    handle.write(serialize_arena(result, indent=indent))
            return
        if method in ("auto", "sax"):
            if pretty:
                warnings.warn(
                    "pretty-printing is ignored for streamed file-to-file "
                    "transforms (streaming keeps memory bounded)",
                    stacklevel=2,
                )
            events = transform_sax_events(
                lambda: iter_sax_file(str(in_path)),
                self.query,
                self.selecting,
                self.filtering,
            )
            with _document_out(out) as handle:
                events_to_text(events, handle)
                handle.write("\n")
            return
        tree = self._run_tree(parse_file(str(in_path)), method)
        with _document_out(out) as handle:
            if indent is None:
                write_stream(tree, handle)
                handle.write("\n")
            else:
                handle.write(serialize(tree, indent=indent))

    # ------------------------------------------------------------------
    # Chaining
    # ------------------------------------------------------------------

    def then(self, other: Stageable) -> "PreparedStack":
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedTransform({self.query.update!s})"


class PreparedStack:
    """A chain of prepared transforms: stage i+1 sees stage i's result."""

    __slots__ = ("stages",)

    def __init__(self, stages: list[PreparedTransform]):
        if not stages:
            raise ValueError("a prepared stack needs at least one stage")
        self.stages = list(stages)

    def then(self, other: Stageable) -> "PreparedStack":
        """This stack, then *other* on its result: a prepared transform
        or stack as it is, source text or a parsed
        :class:`TransformQuery` prepared from this stack's cache."""
        if isinstance(other, PreparedStack):
            return PreparedStack(self.stages + other.stages)
        if not isinstance(other, PreparedTransform):
            other = PreparedTransform(self.stages[0].cache, other)
        return PreparedStack(self.stages + [other])

    def run(self, doc_or_path: Input, method: str = "auto") -> Resident:
        current = doc_or_path
        for stage in self.stages:
            current = stage.run(current, method=method)
        return current

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        # A stack runs a file as the tree it parses into.
        if doc_or_path is not None and not isinstance(doc_or_path, (Element, FrozenDocument)):
            doc_or_path = parse_file(doc_or_path)
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


def _read_on(doc: Resident) -> None:
    if not isinstance(doc, (Element, FrozenDocument)):
        raise ValueError("a read runs on a tree or a frozen arena: read a file with run_file(path)")


def _read_file(path: FilePath, refs: Callable) -> Iterator[str]:
    """*refs* on the file's columns, serialized from them, at any size:
    where streaming would pay off for a read is not measured yet."""
    arena = parse_file_to_arena(os.fspath(path))
    yield from serialize_arena_items(arena, refs(arena))


class PreparedQuery:
    """A FLWR user query, with its parse from *cache*.

    A read has nothing to choose: handed a
    :class:`~repro.xmltree.arena.FrozenDocument`, ``run`` takes the
    columnar evaluator (indices over pre-order ranges, matches thawed
    only on materialization); handed a tree, it walks Node objects;
    ``run_file`` reads a file.
    """

    __slots__ = ("text", "query", "cache")

    def __init__(self, cache: CompiledCache, text: str):
        self.text = text
        self.query = cache.user_query(text)
        #: Where a columnar scan takes the automaton of each path.
        self.cache = cache

    def run(self, doc: Resident) -> list:
        if isinstance(doc, FrozenDocument):
            _expect_full_scan(doc)
            with span("scan"):
                return evaluate_query_arena(
                    doc, self.query, nfa_for=self.cache.selecting_nfa_for
                )
        _read_on(doc)
        with span("scan"):
            return evaluate_query(doc, self.query)

    def run_refs(self, arena: FrozenDocument) -> list:
        """Zero-thaw evaluation: element results stay pre-order indices
        (serialize them straight from the columns, or thaw on demand).
        """
        _expect_full_scan(arena)
        with span("scan"):
            return ArenaEvaluator(arena, self.cache.selecting_nfa_for).evaluate_refs(self.query)

    def run_file(self, path: FilePath) -> Iterator[str]:
        """The answer over a file, serialized: ``run_refs`` on its columns."""
        return _read_file(path, self.run_refs)

    def explain(self, doc_or_path: Optional[Input] = None) -> str:
        lines = [f"prepared user query: {self.query}"]
        if isinstance(doc_or_path, FrozenDocument):
            lines.append(
                "evaluation: lazy-DFA scan over the frozen arena's int "
                "columns; matches are thawed only on materialization"
            )
            lines.append(describe_arena_memory(doc_or_path))
        elif isinstance(doc_or_path, (str, os.PathLike)):
            lines.append(
                "evaluation: read into columns, then the columnar evaluator "
                "and serializer (no Node tree, at every file size)"
            )
        else:
            lines.append(
                "evaluation: the Node evaluator walks a Node tree (freeze() "
                "the document to scan its columns; run_file reads a file)"
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
        the work; a Node-tree walk counts only its results.  A file is
        read into columns first, as ``run_file`` reads it, and reported
        as that arena.
        """
        doc = doc_or_path
        if not isinstance(doc, (Element, FrozenDocument)):
            doc = parse_file_to_arena(os.fspath(doc))
        prof = Profile()
        with profiled(prof):
            if isinstance(doc, FrozenDocument):
                results = serialize_arena_items(doc, self.run_refs(doc))
            else:
                results = self.run(doc)
                prof.add_results(len(results))
        report = self.explain(doc)
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

    def run(self, doc: Resident) -> list:
        if isinstance(doc, FrozenDocument):
            # Only results and items bound to a topDown call are thawed.
            return evaluate_query_arena(
                doc, self.plan, nfa_for=self.user.cache.selecting_nfa_for
            )
        _read_on(doc)
        return evaluate_composed(doc, self.plan)

    def run_file(self, path: FilePath) -> Iterator[str]:
        """The composed answer over a file, serialized: the plan on its
        columns (the view is never materialized)."""
        nfa_for = self.user.cache.selecting_nfa_for
        return _read_file(path, lambda arena: ArenaEvaluator(arena, nfa_for).evaluate_refs(self.plan))

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
