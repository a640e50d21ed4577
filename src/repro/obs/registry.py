"""The metrics registry: named counters, gauges and fixed-bucket
latency histograms under one ``layer.component.metric`` naming scheme.

Three instrument kinds, one discipline:

* :class:`Counter` — a monotonically increasing tally (``inc``).
* :class:`Gauge` — a point-in-time value (``set``).
* :class:`Histogram` — fixed log-spaced buckets with exact count/sum
  and estimated p50/p95/p99 (each percentile is interpolated inside
  its bucket, clamped to the observed min/max, so the error is bounded
  by one bucket width — buckets double, so at most ~2x).

Instruments are created through the registry (:meth:`MetricsRegistry.
counter` …) and memoized by name; asking twice returns the same
object, so hot paths hold a direct reference and pay one lock-guarded
integer bump per event.  A **disabled** registry hands out shared
no-op singletons instead: the hot path degenerates to a method call
on a preallocated object — nothing is allocated, nothing is locked
(the ``tests/test_obs.py`` zero-allocation hammer pins this down).

Existing attribute counters (``ViewStore.arena_reads``, the LRU
caches' hit/miss tallies, the planner's strategy counters, the lazy
DFA's table sizes) migrate onto the registry as **probes**: callables
sampled lazily at :meth:`MetricsRegistry.snapshot` time, so the hot
paths that bump them stay untouched while the snapshot presents every
layer under the one normalized naming scheme.

Metric names are validated: lowercase dot-separated segments of
``[a-z0-9_]``, at least ``layer.component.metric`` deep — the scheme
that replaces the seed's ad-hoc ``scan[arena]`` / ``arena_reads``
divergence.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Optional, Sequence, Type, Union, cast

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "check_metric_name",
]

_NAME_RE = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+){2,}$")


def check_metric_name(name: str) -> str:
    """Validate (and return) a ``layer.component.metric`` name."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} does not follow the "
            "layer.component.metric scheme (lowercase dot-separated "
            "segments of [a-z0-9_], at least three deep)"
        )
    return name


#: Default histogram buckets for latencies, in seconds: log-spaced
#: (doubling) from 100 µs to ~26 s, with an overflow bucket above.
DEFAULT_LATENCY_BUCKETS = tuple(0.0001 * (2 ** i) for i in range(19))


class Counter:
    """A named monotonic counter (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    # guarded-by[_value]: self._lock

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named point-in-time value (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    # guarded-by[_value]: self._lock

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram with exact count/sum and estimated
    percentiles (thread-safe).

    ``bounds`` are the inclusive upper edges of each bucket; one
    overflow bucket catches everything above the last edge.  Fixed
    buckets keep ``observe`` O(log buckets) with constant memory, the
    property that makes per-request latency capture affordable.
    """

    __slots__ = (
        "name", "bounds", "_counts", "_lock", "_count", "_sum", "_min", "_max",
    )

    # guarded-by[_counts, _count, _sum, _min, _max]: self._lock

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.bounds) + 1)
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, q: float) -> Optional[float]:
        """The estimated *q*-th percentile (``q`` in 0..100), or None
        while empty."""
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> Optional[float]:  # holds: self._lock
        if self._count == 0:
            return None
        rank = q / 100.0 * self._count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                low = self.bounds[index - 1] if index > 0 else 0.0
                high = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else (self._max if self._max is not None else low)
                )
                # Interpolate inside the bucket, then clamp to the
                # observed extremes so a single-value histogram reports
                # that value, not a bucket edge.
                fraction = (rank - seen) / bucket_count
                estimate = low + (high - low) * min(1.0, max(0.0, fraction))
                if self._max is not None:
                    estimate = min(estimate, self._max)
                if self._min is not None:
                    estimate = max(estimate, self._min)
                return estimate
            seen += bucket_count
        return self._max

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0}
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "p50": self._percentile_locked(50.0),
                "p95": self._percentile_locked(95.0),
                "p99": self._percentile_locked(99.0),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class _NullInstrument:
    """The shared no-op instrument a disabled registry hands out.

    One preallocated singleton serves every name and every kind: the
    methods take anything and touch nothing, so the instrumented hot
    paths cost a plain method call and allocate nothing.
    """

    __slots__ = ()

    name = "disabled"
    bounds: "tuple[float, ...]" = ()
    value = 0
    count = 0

    def inc(self, amount: float = 1) -> None:  # hot-path
        pass

    def dec(self, amount: float = 1) -> None:  # hot-path
        pass

    def set(self, value: float) -> None:  # hot-path
        pass

    def observe(self, value: float) -> None:  # hot-path
        pass

    def percentile(self, q: float) -> None:
        return None

    def snapshot(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<disabled instrument>"


NULL_INSTRUMENT = _NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """The process's (or one service's) named instruments and probes.

    * ``enabled=False`` turns the whole registry off: every ``counter``
      /``gauge``/``histogram`` call returns :data:`NULL_INSTRUMENT`,
      probes are dropped on registration, and :meth:`snapshot` is
      empty — the disabled fast path the ≤3 % overhead bar in
      ``benchmarks/bench_service.py`` is measured against.
    * Instruments are memoized by (validated) name; re-registering a
      name as a different kind raises.
    * Probes (:meth:`probe`) are sampled only at snapshot time.  A
      probe may return a number or a (nested) dict, which the snapshot
      flattens into dotted names — that is how pre-existing attribute
      counters and ``stats()`` dicts join the unified namespace
      without touching their hot paths.  Re-registering a probe name
      replaces it (a store and an engine sharing one planner bind the
      same probe twice, harmlessly).
    """

    # guarded-by[_instruments, _probes]: self._lock

    def __init__(self, enabled: bool = True):
        self.enabled = enabled  # immutable after construction
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}
        self._probes: Dict[str, Callable[[], Any]] = {}

    # ------------------------------------------------------------------
    # Instrument creation (memoized by name)
    # ------------------------------------------------------------------

    def _instrument(
        self, name: str, kind: Type[Instrument], factory: Callable[[], Instrument]
    ) -> Instrument:
        if not self.enabled:
            return NULL_INSTRUMENT
        check_metric_name(name)
        with self._lock:
            found = self._instruments.get(name)
            if found is not None:
                if not isinstance(found, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(found).__name__}, not {kind.__name__}"
                    )
                return found
            made = factory()
            self._instruments[name] = made
            return made

    def counter(self, name: str) -> Counter:
        # The disabled registry returns the null singleton, which
        # quacks like every instrument kind; the cast keeps call sites
        # typed against the real one.
        return cast(Counter, self._instrument(name, Counter, lambda: Counter(name)))

    def gauge(self, name: str) -> Gauge:
        return cast(Gauge, self._instrument(name, Gauge, lambda: Gauge(name)))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return cast(
            Histogram,
            self._instrument(name, Histogram, lambda: Histogram(name, buckets)),
        )

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a lazily-sampled metric source under *name*: a
        callable returning a number or a nested dict (flattened into
        ``name.key…`` at snapshot time)."""
        if not self.enabled:
            return
        check_metric_name(name)
        with self._lock:
            self._probes[name] = fn

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument and probe, flattened to ``{name: value}``
        (histograms appear as their summary dicts), sorted by name."""
        if not self.enabled:
            return {}
        with self._lock:
            instruments = list(self._instruments.items())
            probes = list(self._probes.items())
        out: Dict[str, Any] = {}
        for name, instrument in instruments:
            out[name] = instrument.snapshot()
        for name, fn in probes:
            _flatten_into(out, name, fn())
        return dict(sorted(out.items()))

    def get(self, name: str) -> Any:
        """The current snapshot value of one metric (or None)."""
        return self.snapshot().get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments or name in self._probes


def _flatten_into(out: Dict[str, Any], prefix: str, value: Any) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten_into(out, f"{prefix}.{_sanitize(str(key))}", sub)
    else:
        out[prefix] = value


def _sanitize(key: str) -> str:
    """Coerce a dict key from a probe (a document name, a cache label)
    into legal metric segments.  Dots are respected as separators — a
    probe returning an already-normalized ``scan.arena`` key lands as
    two segments, not ``scan_arena``."""
    segments = [
        re.sub(r"[^a-z0-9_]", "_", segment.lower()) or "_"
        for segment in key.split(".")
        if segment != ""
    ]
    return ".".join(segments) or "_"
