"""Counters and gauges: a tiny always-on metrics registry.

Counters are plain attribute increments on slotted objects, cheap
enough to leave enabled unconditionally (they count *events* --
candidates examined, cache hits, simulations run -- never per-cycle
work).  Hot call sites hold a module-level reference::

    _HITS = counters.counter("harness.experiment.baseline_cache.hits")
    ...
    _HITS.add()

``counters.snapshot()`` feeds the run manifest, so every run records
what its phases actually did.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Union


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value-wins measurement (e.g. retired instructions/sec)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class LatencyWindow:
    """A bounded ring of recent observations with percentile queries.

    The experiment server's admission controller derives its
    ``Retry-After`` from the observed p95 service time, and the load
    harness summarizes per-request latencies the same way, so both read
    from this one implementation.  Thread-safe: observations come from
    handler/executor threads, percentiles from whoever is reporting.
    """

    __slots__ = ("capacity", "_values", "_next", "_count", "_lock")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("LatencyWindow capacity must be >= 1")
        self.capacity = capacity
        self._values = [0.0] * capacity
        self._next = 0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values[self._next] = float(value)
            self._next = (self._next + 1) % self.capacity
            if self._count < self.capacity:
                self._count += 1

    def __len__(self) -> int:
        return self._count

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the window, by the
        nearest-rank method; 0.0 while the window is empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            values = sorted(self._values[: self._count])
        rank = max(1, -(-int(self._count * q) // 100))  # ceil
        return values[min(rank, self._count) - 1]

    def p95(self) -> float:
        return self.percentile(95.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an arbitrary sequence (0.0 if empty)."""
    window = LatencyWindow(capacity=max(1, len(values)))
    for value in values:
        window.observe(value)
    return window.percentile(q)


#: Fixed log-spaced latency bucket upper bounds (seconds), 1-2-5 per
#: decade from 1 ms to 500 s.  Fixed bounds are what make histograms
#: *mergeable*: a worker's delta adds bucket-for-bucket into the
#: parent's histogram, exactly like counters.
HISTOGRAM_BOUNDS: tuple = (
    0.001, 0.002, 0.005,
    0.01, 0.02, 0.05,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0,
    10.0, 20.0, 50.0,
    100.0, 200.0, 500.0,
)


class Histogram:
    """A fixed-bucket latency histogram with worker-delta merging.

    Observations land in log-spaced buckets (:data:`HISTOGRAM_BOUNDS`
    plus a final +Inf bucket).  The registry snapshots it as a
    JSON-safe state dict ``{"buckets": [...], "sum": s, "count": n}``
    so the existing snapshot/delta/merge machinery ships it across
    process boundaries unchanged.  Thread-safe.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, bounds=HISTOGRAM_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def state(self) -> Dict[str, object]:
        """JSON-safe snapshot: per-bucket counts (non-cumulative),
        total sum and count."""
        with self._lock:
            return {
                "buckets": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    #: Snapshot protocol: the registry reads ``metric.value``.
    @property
    def value(self) -> Dict[str, object]:
        return self.state()

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Add another histogram's (delta) state bucket-for-bucket."""
        buckets = list(state.get("buckets") or [])
        with self._lock:
            for i, n in enumerate(buckets[: len(self._counts)]):
                self._counts[i] += int(n)
            self._sum += float(state.get("sum") or 0.0)
            self._count += int(state.get("count") or 0)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    def __len__(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100) as the upper edge
        of the bucket holding that rank -- within one bucket width of
        the true value by construction.  0.0 while empty; the +Inf
        bucket reports the largest finite bound."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = max(1, -(-int(total * q) // 100))  # ceil, nearest-rank
        seen = 0
        for i, n in enumerate(counts):
            seen += n
            if seen >= rank:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.bounds[-1]
        return self.bounds[-1]


def _is_histogram_state(value: object) -> bool:
    return isinstance(value, Mapping) and "buckets" in value


def _histogram_state_delta(
    after: Mapping[str, object], before: Optional[Mapping[str, object]]
) -> Dict[str, object]:
    """Elementwise ``after - before`` for histogram state dicts."""
    after_buckets = list(after.get("buckets") or [])
    before_buckets: List[int] = []
    before_sum = 0.0
    before_count = 0
    if before is not None and _is_histogram_state(before):
        before_buckets = list(before.get("buckets") or [])
        before_sum = float(before.get("sum") or 0.0)
        before_count = int(before.get("count") or 0)
    before_buckets += [0] * (len(after_buckets) - len(before_buckets))
    return {
        "buckets": [
            int(a) - int(b) for a, b in zip(after_buckets, before_buckets)
        ],
        "sum": float(after.get("sum") or 0.0) - before_sum,
        "count": int(after.get("count") or 0) - before_count,
    }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name -> metric registry with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, cls(name))
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def snapshot(self) -> Dict[str, float]:
        """All metric values, sorted by name (counters as ints)."""
        return {
            name: self._metrics[name].value
            for name in sorted(self._metrics)
        }

    def delta_since(self, before: Mapping[str, float]) -> Dict[str, float]:
        """Type-aware change since a :meth:`snapshot`: counters report the
        difference, gauges report their current value (they are last-value
        metrics, so "delta" has no meaning).  Zero entries are dropped."""
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Gauge):
                if metric.value:
                    out[name] = metric.value
            elif isinstance(metric, Histogram):
                change = _histogram_state_delta(
                    metric.state(), before.get(name)  # type: ignore[arg-type]
                )
                if change["count"]:
                    out[name] = change  # type: ignore[assignment]
            else:
                change = metric.value - before.get(name, 0)
                if change:
                    out[name] = change
        return out

    def merge(self, values: Mapping[str, float]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counter values are *added* (the argument is treated as a delta, as
        produced by :func:`snapshot_delta`); gauge values are *set*
        (last-writer-wins).  Names not yet registered here become counters,
        the common case for worker-process telemetry arriving before the
        parent touched the same code path.
        """
        for name, value in values.items():
            if _is_histogram_state(value):
                self.histogram(name).merge_state(value)  # type: ignore[arg-type]
                continue
            metric = self._metrics.get(name)
            if metric is None:
                metric = self.counter(name)
            if isinstance(metric, Histogram):
                # A scalar arriving for a histogram name: treat it as
                # one observation rather than corrupting the state.
                metric.observe(float(value))
            elif isinstance(metric, Gauge):
                metric.set(value)
            else:
                metric.add(value)

    def reset(self) -> None:
        """Zero every metric but keep registrations (and cached refs) alive."""
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Histogram):
                    metric.reset()
                else:
                    metric.value = 0 if isinstance(metric, Counter) else 0.0

    def clear(self) -> None:
        """Drop all registrations (invalidates cached references)."""
        with self._lock:
            self._metrics.clear()


def snapshot_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    """The per-name difference between two :meth:`MetricsRegistry.snapshot`
    calls, suitable for :meth:`MetricsRegistry.merge`.

    Counters that did not move are dropped so merges stay small; names new
    in ``after`` count from zero.  (Gauges are last-value metrics, so their
    "delta" is simply the ``after`` value.)
    """
    delta: Dict[str, float] = {}
    for name, value in after.items():
        if _is_histogram_state(value):
            change = _histogram_state_delta(
                value, before.get(name)  # type: ignore[arg-type]
            )
            if change["count"]:
                delta[name] = change  # type: ignore[assignment]
            continue
        change = value - before.get(name, 0)
        if change:
            delta[name] = change
    return delta


#: The process-wide default registry all repro instrumentation uses.
counters = MetricsRegistry()
