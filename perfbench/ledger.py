"""Per-layer ledger for the traced run.

Wraps each layer's public entry point where its caller looks it up,
from outside the program: nothing under ``src/`` changes.  Every
wrapped call is a span; a span's self time is its duration minus the
time of the wrapped calls nested inside it, so self times never count
a second twice and, with the unwrapped residual, add up to the traced
wall.

Layer -> entry point wrapped:

- ``interpret``: ``interpret`` as bound in ``repro.frontend.tracestore``
- ``base_sim`` / ``opt_sim``: ``simulate`` as bound in
  ``repro.harness.experiment`` and ``repro.cpu.pipeline``, split by
  whether p-threads were passed
- ``batch_sim``: ``repro.cpu.batch.simulate_batch``
- ``classify``: ``classify_trace_cached`` as bound in
  ``repro.pthsel.framework`` and ``repro.critpath.classify.classify_trace``
- ``cost``: ``build_cost_functions`` as bound in ``repro.pthsel.framework``
- ``slice``: ``build_slice_tree`` as bound in ``repro.pthsel.framework``
- ``search``: ``TreeSelector.select`` and ``merge_pthreads`` as bound in
  ``repro.pthsel.framework``
- ``augment``: ``expand_pthreads`` as bound in ``repro.harness.experiment``;
  its re-interpretation, ``interpret`` as bound in ``repro.ddmt.augment``,
  is the separate layer ``augment.interpret``
- ``energy``: ``EnergyModel.evaluate``
- ``simcache``: ``SimCache.get``, ``put`` and ``contains``
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Obs counters whose growth during the traced run the ledger reports.
COUNTER_METRICS = {
    "opt_sim.memo_hits": "harness.experiment.opt_cache.hits",
    "augment.spawn_cache_hits": "ddmt.augment.spawn_cache.hits",
}


def _sim_layer(args, kwargs) -> str:
    pthreads = args[2] if len(args) > 2 else kwargs.get("pthreads")
    return "opt_sim" if pthreads is not None else "base_sim"


class Ledger:
    """Self time and work counts per layer, for one process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._counters_before: Dict[str, float] = {}

    # -- spans --------------------------------------------------------- #

    def wrap(
        self,
        layer,
        fn: Callable,
        calls_key: Optional[str] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with its self time charged to ``layer`` (a name, or a
        function of the call's arguments returning one)."""
        ledger = self

        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            nested = [0.0]
            ledger._stack.append(nested)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                ledger._stack.pop()
                ledger.self_s[name] += elapsed - nested[0]
                if ledger._stack:
                    ledger._stack[-1][0] += elapsed
            ledger.counts[calls_key or f"{name}.calls"] += 1
            if count is not None:
                count(ledger.counts, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module: str, attr: str, layer, **kw) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``)."""
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, **kw))

    # -- lifecycle ----------------------------------------------------- #

    def install(self) -> None:
        """Wrap every layer's entry point and start counting."""
        from repro import obs

        p = self.patch
        p("repro.frontend.tracestore", "interpret", "interpret",
          count=_count_insts)
        p("repro.harness.experiment", "simulate", _sim_layer,
          count=_count_sim)
        p("repro.cpu.pipeline", "simulate", _sim_layer, count=_count_sim)
        p("repro.cpu.batch", "simulate_batch", "batch_sim",
          count=_count_configs)
        p("repro.pthsel.framework", "classify_trace_cached", "classify")
        p("repro.critpath.classify", "classify_trace", "classify",
          calls_key="classify.computed")
        p("repro.pthsel.framework", "build_cost_functions", "cost",
          count=_count_loads)
        p("repro.pthsel.framework", "build_slice_tree", "slice",
          count=_count_trees)
        p("repro.pthsel.selector", "TreeSelector.select", "search",
          count=_count_selected)
        p("repro.pthsel.framework", "merge_pthreads", "search",
          calls_key="search.merges")
        p("repro.harness.experiment", "expand_pthreads", "augment",
          count=_count_spawns)
        p("repro.ddmt.augment", "interpret", "augment.interpret")
        p("repro.energy.wattch", "EnergyModel.evaluate", "energy")
        for method in ("get", "contains"):
            p("repro.harness.simcache", f"SimCache.{method}", "simcache")
        p("repro.harness.simcache", "SimCache.put", "simcache",
          count=_count_writes)
        self._counters_before = obs.counters.snapshot()

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def report(self, traced_wall_s: float) -> Dict[str, float]:
        """Per-layer metrics for a traced region of ``traced_wall_s``."""
        from repro import obs

        out: Dict[str, float] = dict(self.counts)
        for layer, seconds in self.self_s.items():
            out[f"{layer}.self_s"] = seconds
        after = obs.counters.snapshot()
        for metric, counter in COUNTER_METRICS.items():
            out[metric] = float(
                after.get(counter, 0) - self._counters_before.get(counter, 0)
            )
        for layer in ("base_sim", "opt_sim"):
            seconds = self.self_s.get(layer, 0.0)
            out[f"{layer}.cycles_per_s"] = (
                self.counts.get(f"{layer}.cycles", 0.0) / seconds
                if seconds else 0.0
            )
        seconds = self.self_s.get("base_sim", 0.0)
        out["base_sim.insts_per_s"] = (
            self.counts.get("base_sim.insts", 0.0) / seconds
            if seconds else 0.0
        )
        accounted = sum(self.self_s.values())
        out["harness.overhead_s"] = traced_wall_s - accounted
        out["harness.overhead_share"] = (
            out["harness.overhead_s"] / traced_wall_s if traced_wall_s else 0.0
        )
        out["traced.wall_s"] = traced_wall_s
        return out


# -- work counts ------------------------------------------------------- #


def _count_insts(counts, layer, args, kwargs, trace) -> None:
    counts[f"{layer}.insts"] += len(trace)


def _count_sim(counts, layer, args, kwargs, stats) -> None:
    counts[f"{layer}.cycles"] += stats.cycles
    counts[f"{layer}.insts"] += stats.committed


def _count_configs(counts, layer, args, kwargs, results) -> None:
    counts[f"{layer}.configs"] += len(results)


def _count_loads(counts, layer, args, kwargs, cost_functions) -> None:
    counts[f"{layer}.loads"] += len(cost_functions)


def _count_trees(counts, layer, args, kwargs, tree) -> None:
    counts[f"{layer}.trees"] += 1


def _count_selected(counts, layer, args, kwargs, candidates) -> None:
    counts[f"{layer}.trees"] += 1
    counts[f"{layer}.pthreads"] += len(candidates)


def _count_spawns(counts, layer, args, kwargs, augmented) -> None:
    counts[f"{layer}.spawns"] += sum(augmented.spawn_counts.values())


def _count_writes(counts, layer, args, kwargs, result) -> None:
    counts[f"{layer}.writes"] += 1
