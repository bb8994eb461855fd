"""Per-problem-load cost functions (the Section 4.1 PTHSEL extension).

Original PTHSEL assumes one cycle of load latency tolerance buys one cycle
of execution time (:class:`FlatLoadCost`).  The criticality-based model
(:class:`LoadCostFunction`) evaluates, per static problem load, how much
execution time is actually saved when its misses are tolerated by 25%,
50%, 75% and 100% of the miss latency, interpolating linearly in between.

Each sample point averages two dependence-graph estimates:

- *pessimistic*: only this load's misses are reduced; contemporaneous
  misses from other loads keep their full latency (underestimates the
  benefit because the other misses keep the ROB wedged);
- *optimistic*: all other loads' misses are assumed resolved before
  reducing this one (overestimates, like original PTHSEL, but does see
  secondary critical paths).

The average lets PTHSEL target overlapping loads independently without
either double-counting their joint benefit or giving up on both
(the paper's worked example assigns two same-cycle misses 45 cycles of
savings each instead of 100/100 or 0/0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.critpath.classify import L2, MEM, LoadClassification
from repro.critpath.graph import ForwardPass, service_latency
from repro.errors import SelectionError
from repro.frontend.trace import Trace

#: Latency-reduction sample points (fractions of the miss latency).
SAMPLE_POINTS = (0.25, 0.5, 0.75, 1.0)


class FlatLoadCost:
    """Original PTHSEL's cycle-for-cycle model: gain(t) = t."""

    def gain(self, tolerated_cycles: float) -> float:
        """Execution cycles saved per miss when ``tolerated_cycles`` of
        its latency are hidden."""
        return max(0.0, tolerated_cycles)


@dataclass(frozen=True)
class LoadCostFunction:
    """Piecewise-linear latency-reduction -> execution-time-reduction.

    ``samples[k]`` is the average execution time saved per covered miss
    when ``SAMPLE_POINTS[k]`` of the miss latency is tolerated.
    """

    pc: int
    miss_latency: float
    samples: Tuple[float, ...]

    def gain(self, tolerated_cycles: float) -> float:
        """Interpolate the execution cycles saved per covered miss."""
        if tolerated_cycles <= 0 or self.miss_latency <= 0:
            return 0.0
        fraction = min(1.0, tolerated_cycles / self.miss_latency)
        points = SAMPLE_POINTS
        prev_x, prev_y = 0.0, 0.0
        for x, y in zip(points, self.samples):
            if fraction <= x:
                span = x - prev_x
                if span <= 0:
                    return y
                t = (fraction - prev_x) / span
                return prev_y + t * (y - prev_y)
            prev_x, prev_y = x, y
        return self.samples[-1]

    @property
    def saturation(self) -> float:
        """Saved cycles at full tolerance (the function's plateau)."""
        return self.samples[-1]

    @property
    def criticality(self) -> float:
        """Fraction of the miss latency that converts into saved time."""
        if self.miss_latency <= 0:
            return 0.0
        return self.samples[-1] / self.miss_latency


def build_cost_functions(
    trace: Trace,
    classification: LoadClassification,
    problem_pcs: Sequence[int],
    config: Optional[MachineConfig] = None,
    window: int = 60_000,
) -> Dict[int, LoadCostFunction]:
    """Build criticality-based cost functions for each problem load.

    ``window`` bounds the dependence-graph passes: the model is evaluated
    over the first ``window`` instructions of the trace (the functions are
    statistical averages; a large window is representative of the whole
    run while keeping the passes affordable).  Each load takes 1 + 2 x 4
    passes -- its optimistic baseline, then a pessimistic and an
    optimistic pass per sample point -- on top of one shared baseline
    pass.
    """
    config = config or MachineConfig()
    if not problem_pcs:
        return {}
    end = min(window, len(trace))
    fp = ForwardPass(trace, config, classification, start=0, end=end)
    miss_latency = float(service_latency(MEM, config))
    resolved_latency = float(service_latency(L2, config))

    # Misses per problem pc inside the window.
    window_misses: Dict[int, List[int]] = {pc: [] for pc in problem_pcs}
    all_miss_seqs: List[int] = []
    pc_l = trace.as_lists().pc
    service_get = classification.service.get
    for seq in fp.load_seqs():
        if service_get(seq) == MEM:
            all_miss_seqs.append(seq)
            pc = pc_l[seq]
            if pc in window_misses:
                window_misses[pc].append(seq)

    base_time = fp.run()
    # Optimistic baseline: every miss in the window resolved to an L2 hit.
    all_resolved = {seq: resolved_latency for seq in all_miss_seqs}
    functions: Dict[int, LoadCostFunction] = {}

    for pc in problem_pcs:
        seqs = window_misses[pc]
        if not seqs:
            raise SelectionError(
                f"problem load pc={pc} has no misses in the analysis window"
            )
        n = len(seqs)
        # Optimistic baseline specific to this load: all OTHER misses
        # resolved, this load's misses at full latency.
        opt_base_override = dict(all_resolved)
        for seq in seqs:
            opt_base_override.pop(seq, None)
        opt_base_time = fp.run(opt_base_override)

        samples: List[float] = []
        for fraction in SAMPLE_POINTS:
            reduced = miss_latency - fraction * (miss_latency - resolved_latency)
            # Pessimistic: only this load's misses get faster.
            pess_override = {seq: reduced for seq in seqs}
            pess_gain = (base_time - fp.run(pess_override)) / n
            # Optimistic: all other misses already resolved.
            opt_override = dict(opt_base_override)
            for seq in seqs:
                opt_override[seq] = reduced
            opt_gain = (opt_base_time - fp.run(opt_override)) / n
            samples.append(max(0.0, 0.5 * (pess_gain + opt_gain)))
        # Enforce monotonicity (sampling noise can produce tiny dips).
        for k in range(1, len(samples)):
            samples[k] = max(samples[k], samples[k - 1])
        functions[pc] = LoadCostFunction(
            pc=pc,
            miss_latency=miss_latency - resolved_latency,
            samples=tuple(samples),
        )
    return functions
