"""The cost-based strategy planner.

One transform query admits many evaluation strategies with wildly
different costs (the paper's Figures 12-14); the planner picks one from
the query's *shape* and the input's *size* instead of making the caller
choose.  The cost model is a handful of per-node unit costs, calibrated
against this repository's own Fig-12 benchmark run:

* ``topdown`` (GENTOP) prunes by the selecting NFA — the cheapest
  single pass, but its *native* qualifier evaluation walks a
  candidate's subtree for every descendant qualifier, which goes
  quadratic when candidates are dense.
* ``twopass`` (TD-BU) pays two full linear passes plus a per-qualifier
  annotation cost, in exchange for O(1) qualifier checks: it wins
  exactly when descendant qualifiers meet many candidates.
* ``naive`` and ``copy`` are the paper's baselines (linear membership
  scan / full snapshot) — modeled so ``explain()`` can show *why* they
  lose, and they are never chosen on merit.
* ``sax`` over a resident tree pays event synthesis on top of two
  passes; ``stream`` (the file-to-file SAX path) is chosen for file
  inputs too large to parse comfortably, where bounded memory beats
  raw speed.

Every estimate the model consumed is surfaced by :meth:`Plan.describe`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.engine.executor import (
    PAPER_NAMES,
    TREE_STRATEGIES,
    run_tree_strategy,
)
from repro.engine.features import (
    PROFILE_CAP,
    InputProfile,
    QueryFeatures,
    analyze_transform,
    profile_input,
)
from repro.lru import LRUCache
from repro.obs import current_profile, span
from repro.transform.query import TransformQuery
from repro.xmltree.node import Element

#: Files at or above this size stream file-to-file (bounded memory)
#: instead of being parsed into a resident tree first.
DEFAULT_STREAM_THRESHOLD = 8 * 1024 * 1024

#: Recalibrated per-node unit costs of the read (select/query) path,
#: measured on this repository's Fig-12 run at 10 MB XMark: the Node
#: walk pays Python object traversal plus the oracle's dedup and
#: document-order passes; the arena scan runs the same lazy DFA over
#: the int columns of a frozen snapshot in one pre-order loop.
READ_COST_NODE = 0.9
READ_COST_ARENA = 0.17


@dataclass(frozen=True)
class Plan:
    """The planner's decision for one (query, input) pair."""

    strategy: str                      #: chosen strategy name
    costs: dict = field(default_factory=dict)  #: strategy → estimated cost
    features: Optional[QueryFeatures] = None
    profile: Optional[InputProfile] = None
    reasons: tuple = ()                #: human-readable justification
    backend: str = "node"              #: data representation: node | arena

    @property
    def cost(self) -> float:
        found = self.costs.get(self.counter_key)
        if found is None:
            found = self.costs.get(self.strategy, 0.0)
        return found

    @property
    def paper_name(self) -> str:
        return PAPER_NAMES.get(self.strategy, self.strategy)

    @property
    def counter_key(self) -> str:
        """The execution-counter key: strategy, tagged with the backend
        when it is not the default node tree."""
        if self.backend == "node":
            return self.strategy
        return f"{self.strategy}[{self.backend}]"

    def describe(self) -> str:
        lines = [f"strategy: {self.strategy} ({self.paper_name})"]
        lines.append(
            "backend: arena (columnar, zero-copy snapshot)"
            if self.backend == "arena"
            else "backend: node (object tree)"
        )
        if self.profile is not None:
            lines.append(f"input: {self.profile.summary()}")
        if self.features is not None:
            lines.append(f"query: {self.features.summary()}")
        if self.costs:
            lines.append("estimated costs [node-visit units]:")
            chosen = self.counter_key
            for name, cost in sorted(self.costs.items(), key=lambda kv: kv[1]):
                marker = "  <== chosen" if name == chosen else ""
                lines.append(f"  {name:<11} {cost:>12.0f}{marker}")
        for reason in self.reasons:
            lines.append(f"because: {reason}")
        return "\n".join(lines)


class Planner:
    """Chooses an evaluation strategy from query shape and input form.

    Stateless apart from bookkeeping: :attr:`counters` tallies plans
    made *for execution* (introspective calls like ``explain()`` pass
    ``record=False``; memoized re-runs are not re-counted) and
    :attr:`last_plan` keeps the most recent decision either way, both
    for tests and ``stats()`` introspection.
    """

    def __init__(
        self,
        stream_threshold: int = DEFAULT_STREAM_THRESHOLD,
        profile_cap: int = PROFILE_CAP,
    ):
        self.stream_threshold = stream_threshold
        self.profile_cap = profile_cap
        self.counters: dict[str, int] = {}
        self.last_plan: Optional[Plan] = None
        self._lock = threading.Lock()
        self._features = LRUCache(1024)
        # Cumulative estimate-vs-actual drift per strategy[backend]
        # (runs profiled, estimated node visits, measured visits),
        # mutated under self._lock like the counters.
        self._drift: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def plan(
        self,
        query: TransformQuery,
        doc_or_path: Union[Element, str],
        features: Optional[QueryFeatures] = None,
        record: bool = True,
    ) -> Plan:
        """Plan *query* against a resident tree or a file path.

        ``record=False`` marks an introspective call (``explain()``):
        the decision is made identically but not tallied in
        :attr:`counters`.
        """
        profile = profile_input(doc_or_path, self.profile_cap)
        return self.plan_for_profile(query, profile, features, record=record)

    def plan_for_profile(
        self,
        query: TransformQuery,
        profile: InputProfile,
        features: Optional[QueryFeatures] = None,
        record: bool = True,
    ) -> Plan:
        if features is None:
            features = self._features_for(query)
        with span("plan"):
            plan = self._choose(features, profile)
        active = current_profile()
        if active is not None:
            active.set_plan(plan.strategy, plan.backend, plan.cost, profile.nodes)
        if record:
            self.record(plan)
        else:
            with self._lock:
                self.last_plan = plan
        return plan

    def plan_read(
        self,
        doc_or_input,
        features: Optional[QueryFeatures] = None,
        record: bool = True,
    ) -> Plan:
        """Plan a read (select or user query): the backend dimension.

        Reads never build an output tree, so the only decision is the
        data representation: a :class:`~repro.xmltree.arena.
        FrozenDocument` input takes the columnar ``arena`` backend
        (the DFA scans int columns over pre-order ranges), anything
        else walks the Node tree.  Both backends' estimated costs are
        surfaced so ``explain()`` shows what freezing would buy.
        """
        with span("plan"):
            return self._plan_read(doc_or_input, features, record)

    def _plan_read(self, doc_or_input, features, record) -> Plan:
        profile = (
            doc_or_input
            if isinstance(doc_or_input, InputProfile)
            else profile_input(doc_or_input, self.profile_cap)
        )
        n = max(1, profile.nodes)
        # Keyed like counter_key so describe() marks the chosen backend
        # and Plan.cost resolves to the executed row.
        costs = {
            "scan": READ_COST_NODE * n,
            "scan[arena]": READ_COST_ARENA * n,
        }
        if profile.form == "arena":
            backend = "arena"
            reasons = (
                "a frozen columnar snapshot is available: the DFA scans "
                f"int columns over pre-order ranges "
                f"(~{READ_COST_NODE / READ_COST_ARENA:.1f}x cheaper per "
                "node than object traversal)",
            )
        else:
            backend = "node"
            reasons = (
                "no frozen arena for this input: the scan walks the "
                "object tree (freeze() the document — or read through a "
                "store snapshot — to take the columnar backend)",
            )
        plan = Plan("scan", costs, features, profile, reasons, backend=backend)
        active = current_profile()
        if active is not None:
            # The arena scan counts the elements it steps, so a full
            # scan is every element below the root; counting texts
            # would put a visit ratio of 1.0 out of reach.
            est_nodes = profile.elements - 1 if backend == "arena" else profile.nodes
            active.set_plan(plan.strategy, plan.backend, plan.cost, est_nodes)
        if record:
            self.record(plan)
        else:
            with self._lock:
                self.last_plan = plan
        return plan

    def record(self, plan: Plan) -> None:
        """Tally *plan* as executed (callers that planned with
        ``record=False`` and then ran the plan report it here)."""
        key = plan.counter_key
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1
            self.last_plan = plan

    def observe_actual(self, profile) -> None:
        """Feed one finished execution :class:`~repro.obs.profile.
        Profile` into the cumulative estimate-vs-actual drift tally.

        Profiles that never reached the planner (no strategy) or never
        scanned (no visits) are skipped — they carry no comparison.
        """
        if not profile.strategy or not profile.est_nodes or profile.nodes_visited <= 0:
            return
        key = (
            f"{profile.strategy}.{profile.backend}"
            if profile.backend and profile.backend != "node"
            else profile.strategy
        )
        with self._lock:
            row = self._drift.setdefault(
                key, {"runs": 0, "est_nodes": 0, "actual_nodes": 0}
            )
            row["runs"] += 1
            row["est_nodes"] += profile.est_nodes
            row["actual_nodes"] += profile.nodes_visited

    def drift_stats(self) -> dict:
        """Cumulative plan-vs-actual drift per strategy key: total
        estimated and measured node visits plus their ratio (> 1 means
        the cost model underestimates the work; < 1, it overestimates
        — pruning usually pulls scans well under 1)."""
        with self._lock:
            rows = {key: dict(row) for key, row in self._drift.items()}
        for row in rows.values():
            if row["est_nodes"]:
                row["visit_ratio"] = round(
                    row["actual_nodes"] / float(row["est_nodes"]), 4
                )
        return rows

    def transform(
        self,
        root: Element,
        query: TransformQuery,
        selecting=None,
        filtering=None,
        filtering_factory: Optional[Callable] = None,
    ) -> Element:
        """Plan and evaluate in one call (the store's entry point).

        Returns the transformed tree; the decision is observable via
        :attr:`last_plan` / :attr:`counters`.
        """
        plan = self.plan(query, root)
        strategy = plan.strategy if plan.strategy != "stream" else "sax"
        return run_tree_strategy(
            strategy,
            root,
            query,
            selecting=selecting,
            filtering=filtering,
            filtering_factory=filtering_factory,
        )

    def stats(self) -> dict:
        with self._lock:
            return {
                "chosen": dict(self.counters),
                "last": self.last_plan.strategy if self.last_plan else None,
            }

    def normalized_counters(self) -> dict:
        """The execution tallies under the ``layer.component.metric``
        naming scheme: the legacy ``scan[arena]``-style backend tags
        become dotted segments (``scan.arena``), so the registry's
        snapshot shows ``engine.planner.chosen.scan.arena`` next to
        ``store.arena.reads`` instead of two divergent spellings."""
        with self._lock:
            return {
                key.replace("[", ".").rstrip("]"): count
                for key, count in self.counters.items()
            }

    def bind_metrics(self, registry) -> None:
        """Expose the execution counters through a
        :class:`~repro.obs.registry.MetricsRegistry` (as a lazily
        sampled probe; the planning hot path is untouched)."""
        registry.probe("engine.planner.chosen", self.normalized_counters)
        registry.probe("engine.planner.drift", self.drift_stats)

    # ------------------------------------------------------------------
    # The cost model
    # ------------------------------------------------------------------

    def _features_for(self, query: TransformQuery) -> QueryFeatures:
        # Keyed structurally (kind + parsed Path): rendered path text is
        # lossy (float %g, quoted literals) and must never be a key.
        key = (query.update.kind, query.path)
        return self._features.get_or_compute(
            key, lambda: analyze_transform(query)
        )

    def _choose(self, f: QueryFeatures, profile: InputProfile) -> Plan:
        reasons: list[str] = []
        if profile.form == "file" and profile.size_bytes >= self.stream_threshold:
            # Memory, not time: twoPassSAX keeps memory bounded by
            # document depth regardless of file size (Fig. 14).
            reasons.append(
                f"file is {profile.size_bytes} bytes "
                f"(>= stream threshold {self.stream_threshold}); "
                "streaming keeps memory bounded by document depth "
                "(callers that require a full result tree still "
                "materialize the output)"
            )
            costs = self._tree_costs(f, profile)
            costs["stream"] = 3.0 * profile.nodes
            return Plan("stream", costs, f, profile, tuple(reasons))

        costs = self._tree_costs(f, profile)
        if profile.form == "file":
            reasons.append(
                "file fits below the stream threshold: parse once, "
                "then evaluate on the tree"
            )
        elif profile.form == "arena":
            reasons.append(
                "input is a frozen arena: tree strategies build their "
                "output from a thawed copy (transforms are the write "
                "path); run_to_file takes the arena-native serialize "
                "path instead"
            )
        best = min(
            (name for name in TREE_STRATEGIES if name in costs),
            key=lambda name: costs[name],
        )
        reasons.extend(self._reasons_for(best, f))
        return Plan(best, costs, f, profile, tuple(reasons))

    def _tree_costs(self, f: QueryFeatures, profile: InputProfile) -> dict:
        """Estimated cost per strategy, in node-visit units.

        Constants are calibrated against this repository's Fig-12 run
        (12k-node XMark tree) *on the compiled runtime*: the NFA-driven
        passes (GENTOP, TD-BU's topDown half, the SAX automaton work)
        step through the lazy DFA — interned state sets, memoized
        ``(set, symbol)`` transitions — which cut their per-node unit
        from ~0.9 to ~0.55.  Native qualifier checks run as closures
        compiled once from the ASTs (cheaper per candidate than the old
        interpretive dispatch), but a descendant qualifier still walks
        the candidate's subtree — whose mean size is the tree's mean
        node depth, the term that makes GENTOP quadratic on deep
        documents.  ``QualDP``'s annotation pass and the baselines
        (naive's membership scan, copy's snapshot) are not DFA-driven
        and keep their seed constants.
        """
        n = max(1, profile.nodes)
        # Structural candidates: nodes the NFA reports as matches of the
        # path skeleton, before qualifiers filter them.
        candidates = max(1.0, f.selectivity * n)
        # Matches after qualifiers (each qualifier keeps ~40%).
        matches = max(1.0, candidates * (0.4 ** min(f.quals, 4)))
        # topDown visits the whole tree once a descendant gap appears;
        # a child-only path touches just its prefix levels.
        touched = 1.0 if f.has_descendant else min(1.0, 0.12 + 0.1 * f.steps)

        qual_native = 0.0
        if f.quals:
            per_candidate = 0.1 + 0.09 * max(1, f.qual_steps)
            if f.qual_dos:
                # The subtree walk: mean subtree size ≈ mean node depth.
                # Measured on deep chains, the compiled walk reaches
                # cost parity with the annotation pass at mean depth
                # ~17 and loses quadratically beyond it.
                per_candidate += 0.05 * profile.avg_depth * f.qual_dos
            qual_native = candidates * per_candidate

        topdown = 0.55 * touched * n + qual_native
        if f.quals == 0:
            # twopass delegates to topdown when there is nothing to
            # annotate; a hair more for the delegation check.
            twopass = topdown + 1.0
        else:
            # The annotation pass folds QualDP vectors per node (not
            # DFA work); only its NFA stepping got cheaper.
            twopass = 0.55 * touched * n + n * (0.15 + 0.8 * f.quals)
        return {
            "topdown": topdown,
            "twopass": twopass,
            # naive and copy both evaluate the embedded path with the
            # same native qualifier checks topdown pays (naive for its
            # $xp node list, copy inside apply_update), so they inherit
            # qual_native on top of their rebuild/snapshot costs.  Only
            # the annotation-based strategies (twopass, sax) escape it.
            "naive": 2.2 * n + 0.002 * n * matches + qual_native,
            "copy": 3.2 * n + qual_native,
            # Event synthesis dominates sax-over-a-tree; its automaton
            # half rides the same DFA tables.
            "sax": 3.8 * n,
        }

    def _reasons_for(self, strategy: str, f: QueryFeatures) -> list[str]:
        if strategy == "twopass":
            return [
                "descendant qualifiers meet many candidates: annotating "
                "every qualifier once (bottomUp) beats re-walking each "
                "candidate's subtree natively"
            ]
        if strategy == "topdown":
            if f.quals == 0:
                return [
                    "no qualifiers: a single NFA-pruned pass is optimal "
                    "(twopass would delegate here anyway)"
                ]
            return [
                "qualifiers are cheap to check natively at the few "
                "candidate nodes; a second full pass would cost more"
            ]
        return [f"{strategy} estimated cheapest for this shape"]
