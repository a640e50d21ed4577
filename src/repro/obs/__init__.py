"""``repro.obs`` — the unified telemetry substrate.

Every layer of the reproduction (store, engine, planner, automata,
service, CLI) reports through the two primitives here:

* :class:`~repro.obs.registry.MetricsRegistry` — named counters,
  gauges and fixed-bucket latency histograms (p50/p95/p99 snapshots),
  plus *probes* that sample existing attribute counters lazily at
  snapshot time, all under one ``layer.component.metric`` naming
  scheme.  Thread-safe; near-zero overhead when disabled (every
  instrument collapses to a shared no-op singleton).
* :class:`~repro.obs.trace.Tracer` — per-request traces of nested
  spans (``span("plan")``, ``span("compile")``, ``span("scan")``,
  ``span("serialize")``), sampled, kept in a ring buffer, dumpable as
  JSON-line records.  A thread-local *active trace* lets deep engine
  code emit spans without threading a trace object through every
  signature: :func:`~repro.obs.trace.span` is a no-op unless a trace
  is active on the calling thread.  Trace/span ids carry a
  per-process token, so records minted in different processes merge
  (:func:`~repro.obs.trace.stitch`) into one cross-process tree.

Built on those two primitives:

* :class:`~repro.obs.profile.Profile` — per-run plan-vs-actual
  execution profiles (nodes visited, subtrees pruned, nodes skipped
  by jumps, DFA transitions and table growth, cache class, serialize
  bytes), thread-locally activated like traces.
* :class:`~repro.obs.slowlog.SlowQueryLog` — a bounded ring of
  over-threshold requests, each with its trace, profile, queue wait
  and snapshot version.
* :mod:`~repro.obs.export` — the registry snapshot rendered in
  Prometheus text format plus JSON-line events, and the stdlib HTTP
  scrape surface ``repro serve --expose`` binds.

This package is dependency-free and imports nothing from the rest of
``repro`` — it sits below :mod:`repro.lru` in the layering so every
other layer may use it.
"""

from repro.obs.export import ExpositionServer, render_events, render_prometheus
from repro.obs.profile import Profile, current_profile, profiled
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_metric_name,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACE,
    Trace,
    Tracer,
    current_trace,
    new_span_id,
    process_token,
    span,
    stitch,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "ExpositionServer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACE",
    "Profile",
    "SlowQueryLog",
    "Trace",
    "Tracer",
    "check_metric_name",
    "current_profile",
    "current_trace",
    "new_span_id",
    "process_token",
    "profiled",
    "render_events",
    "render_prometheus",
    "span",
    "stitch",
]
