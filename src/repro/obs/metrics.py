"""Counters: a tiny always-on metrics registry.

Counters are plain attribute increments on slotted objects, cheap
enough to leave enabled unconditionally (they count *events* --
candidates examined, cache hits, simulations run -- never per-cycle
work).  Hot call sites hold a module-level reference::

    _HITS = counters.counter("harness.experiment.baseline_cache.hits")
    ...
    _HITS.add()

``counters.snapshot()`` feeds the run manifest, so every run records
what its phases actually did.  :class:`LatencyWindow` is the one
non-counter: a percentile ring the server's admission control and the
load harness read directly, never snapshotted.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


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


class MetricsRegistry:
    """Name -> counter registry with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, Counter(name))
        return metric

    def snapshot(self) -> Dict[str, float]:
        """All counter values, sorted by name."""
        return {
            name: self._metrics[name].value
            for name in sorted(self._metrics)
        }

    def delta_since(self, before: Mapping[str, float]) -> Dict[str, float]:
        """Each counter's change since a :meth:`snapshot`, suitable for
        :meth:`merge`.  Zero entries are dropped so merges stay small."""
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            change = self._metrics[name].value - before.get(name, 0)
            if change:
                out[name] = change
        return out

    def merge(self, values: Mapping[str, float]) -> None:
        """Add another registry's :meth:`delta_since` into this one.

        Names not yet registered here become counters, the common case
        for worker-process telemetry arriving before the parent touched
        the same code path.
        """
        for name, value in values.items():
            self.counter(name).add(value)

    def reset(self) -> None:
        """Zero every counter but keep registrations (and cached refs) alive."""
        with self._lock:
            for metric in self._metrics.values():
                metric.value = 0

    def clear(self) -> None:
        """Drop all registrations (invalidates cached references)."""
        with self._lock:
            self._metrics.clear()


#: The process-wide default registry all repro instrumentation uses.
counters = MetricsRegistry()
