"""Lock-step batching of grid cells that share a sealed trace.

A figure sweep frequently contains many cells that simulate the *same*
workload trace under *different* machine configurations (a latency or
L2-size axis).  The per-cell path discovers that sharing incidentally --
each :func:`~repro.harness.experiment.run_experiment` re-enters the
baseline path with its own machine config, interleaved with selection
and augmented runs for other cells.  This module makes the sharing
explicit:

- :func:`plan_batches` groups a job grid's baseline simulations by
  ``(benchmark, input, program fingerprint, max_instructions)`` -- i.e.
  by sealed trace content -- collecting the distinct machine
  configurations each group needs;
- :func:`prewarm` advances each multi-config group through
  :func:`repro.cpu.batch.simulate_batch` in one pass over the shared
  trace (the configs share only its sealed columns; per-config
  ``SimStats`` fully independent), and hands every result to :func:`repro.harness.experiment.adopt_baseline`,
  which stores it on the shared trace, so the subsequent per-cell
  experiments are served from there and the results fan back out as
  ordinary per-cell rows.  The pass reports only through the
  ``harness.batchplan.*`` counters.

Members whose baseline is already cached (on the trace the store holds,
or in the persistent simulation cache) are skipped, so re-runs and
journal resumes do not re-simulate.  The engine only invokes the pass
on the sequential path when the compiled cycle kernel loads
(:func:`repro.cpu.pipeline.use_reference` is false); everything here is
bit-identical to the per-cell path because :func:`simulate_batch` runs
the same kernel on the same trace objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro import obs
from repro.config import MachineConfig, SimulationConfig
from repro.cpu import pipeline
from repro.frontend import tracestore
from repro.harness import experiment
from repro.workloads.registry import get_program

_GROUPS_PLANNED = obs.counters.counter("harness.batchplan.groups")
_MEMBERS_SIMULATED = obs.counters.counter("harness.batchplan.simulated")
_MEMBERS_CACHED = obs.counters.counter("harness.batchplan.cached")


@dataclass(frozen=True)
class BatchMember:
    """One baseline simulation a job grid needs."""

    benchmark: str
    input_name: str
    machine: MachineConfig
    sim: SimulationConfig


@dataclass
class BatchGroup:
    """All distinct machine configs wanted for one sealed trace."""

    benchmark: str
    input_name: str
    program_fp: str
    max_instructions: int
    members: List[BatchMember] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)


def plan_batches(jobs: Iterable) -> List[BatchGroup]:
    """Group a grid's baseline needs by shared trace content.

    ``jobs`` is any iterable of objects with ``baseline_keys()`` (the
    :class:`~repro.harness.parallel.ExperimentJob` protocol), whose
    configs were checked when they were built.  Within a
    group, machine configurations are deduplicated by fingerprint while
    preserving first-appearance order, so the lock-step pass simulates
    each distinct machine exactly once.
    """
    groups: Dict[Tuple, BatchGroup] = {}
    seen: Dict[Tuple, set] = {}
    for job in jobs:
        for benchmark, input_name, machine, sim in job.baseline_keys():
            program_fp = get_program(benchmark, input_name).fingerprint()
            gkey = (benchmark, input_name, program_fp, sim.max_instructions)
            group = groups.get(gkey)
            if group is None:
                group = BatchGroup(
                    benchmark=benchmark,
                    input_name=input_name,
                    program_fp=program_fp,
                    max_instructions=sim.max_instructions,
                )
                groups[gkey] = group
                seen[gkey] = set()
            if machine.fingerprint in seen[gkey]:
                continue
            seen[gkey].add(machine.fingerprint)
            group.members.append(
                BatchMember(benchmark, input_name, machine, sim)
            )
    return list(groups.values())


def prewarm(jobs: Iterable) -> None:
    """Batch-simulate every multi-config shared-trace group of ``jobs``.

    Single-config groups are left to the per-cell path -- a batch of one
    is just a simulation with extra bookkeeping.
    """
    from repro.cpu.batch import simulate_batch

    for group in plan_batches(jobs):
        if len(group) < 2:
            continue
        _GROUPS_PLANNED.add()
        need: List[BatchMember] = []
        for member in group.members:
            if experiment.baseline_cached(
                member.benchmark, member.input_name, member.machine,
                member.sim,
            ):
                _MEMBERS_CACHED.add()
            else:
                need.append(member)
        if not need:
            continue
        program = get_program(group.benchmark, group.input_name)
        trace, _ = tracestore.get_trace(program, group.max_instructions)
        with obs.span(
            "batch_prewarm",
            benchmark=group.benchmark,
            input=group.input_name,
            configs=len(need),
        ):
            results = simulate_batch(
                trace, [member.machine for member in need]
            )
        for member, sim_stats in zip(need, results):
            experiment.adopt_baseline(
                member.benchmark,
                member.input_name,
                member.machine,
                member.sim,
                trace,
                sim_stats,
            )
        _MEMBERS_SIMULATED.add(len(need))


def maybe_prewarm(jobs: List) -> None:
    """Gate and run :func:`prewarm` for the sequential engine path.

    Skipped when fewer than two jobs, or when there is no compiled cycle
    kernel to batch on (:func:`~repro.cpu.pipeline.use_reference`).
    """
    if len(jobs) >= 2 and not pipeline.use_reference():
        prewarm(jobs)
