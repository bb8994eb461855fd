"""Periodic-sampling simulation.

The paper simulates SPEC programs to completion using 2% periodic
sampling with cache/branch-predictor warm-up and 10M-instruction samples.
Our synthetic workloads are small enough to simulate in full (strictly
more accurate), but the sampling engine is provided -- and tested -- so
the harness scales to long workloads with the same methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.config import MachineConfig, SimulationConfig
from repro.cpu.pipeline import Pipeline
from repro.cpu.pthreads import PThreadProgram, SpawnSpec
from repro.cpu.stats import SimStats
from repro.errors import ConfigError
from repro.frontend.trace import NO_PRODUCER, Trace


@dataclass
class SampledEstimate:
    """Whole-run estimates extrapolated from measured samples."""

    estimated_cycles: float
    estimated_ipc: float
    measured_instructions: int
    total_instructions: int
    n_samples: int
    sample_stats: List[SimStats]

    @property
    def coverage(self) -> float:
        return self.measured_instructions / self.total_instructions


def _slice_pthreads(
    pthreads: Optional[PThreadProgram], start: int, end: int
) -> Optional[PThreadProgram]:
    """The spawns triggered in ``[start, end)``, renumbered like the
    shifted window trace: a seq ``s >= start`` becomes ``s - start``, an
    earlier live-in producer becomes ``NO_PRODUCER`` ("ready at start")
    and a hint outside the window becomes -1 (no hint)."""
    if pthreads is None or pthreads.empty():
        return None

    def livein(seq: int) -> int:
        return seq - start if seq >= start else NO_PRODUCER

    def hint(seq: int) -> int:
        return seq - start if start <= seq < end else -1

    spawns: List[SpawnSpec] = []
    for trigger_seq, group in pthreads.spawns_by_trigger.items():
        if start <= trigger_seq < end:
            for spawn in group:
                insts = tuple(
                    replace(
                        inst,
                        livein_seqs=tuple(map(livein, inst.livein_seqs)),
                        hint_branch_seq=hint(inst.hint_branch_seq),
                    )
                    for inst in spawn.insts
                )
                spawns.append(
                    SpawnSpec(
                        trigger_seq=trigger_seq - start,
                        static_id=spawn.static_id,
                        insts=insts,
                    )
                )
    return PThreadProgram.from_spawns(spawns)


def sampled_simulate(
    trace: Trace,
    machine: Optional[MachineConfig] = None,
    pthreads: Optional[PThreadProgram] = None,
    sim: Optional[SimulationConfig] = None,
) -> SampledEstimate:
    """Estimate whole-run cycles by timing evenly spaced sample windows.

    Each sample is simulated with warm structures (the Pipeline's
    functional warm-up models the paper's warm-up intervals); cycles are
    extrapolated by the sampled instruction fraction.
    """
    machine = machine or MachineConfig()
    sim = sim or SimulationConfig()
    n = len(trace)
    if n == 0:
        raise ConfigError("cannot sample an empty trace")

    fraction = sim.sample_fraction
    sample_len = min(sim.sample_instructions, n)
    if fraction >= 1.0 or sample_len >= n:
        pipeline = Pipeline(trace, machine, pthreads)
        stats = pipeline.run()
        return SampledEstimate(
            estimated_cycles=float(stats.cycles),
            estimated_ipc=stats.ipc,
            measured_instructions=n,
            total_instructions=n,
            n_samples=1,
            sample_stats=[stats],
        )

    n_samples = max(1, int(round(n * fraction / sample_len)))
    stride = n // n_samples
    sample_stats: List[SimStats] = []
    measured = 0
    for k in range(n_samples):
        start = k * stride
        end = min(start + sample_len, n)
        window = Trace(trace.program, trace.insts[start:end])
        # Re-number producer links that point before the window: they are
        # simply "ready at start", which Pipeline treats any out-of-range
        # negative producer as.  Rather than rewriting the instructions,
        # shift sequence numbers via a lightweight copy.
        shifted = Trace(
            trace.program,
            [
                type(d)(
                    seq=d.seq - start,
                    pc=d.pc,
                    op=d.op,
                    src1_seq=d.src1_seq - start if d.src1_seq >= start else -1,
                    src2_seq=d.src2_seq - start if d.src2_seq >= start else -1,
                    addr=d.addr,
                    taken=d.taken,
                    next_pc=d.next_pc,
                )
                for d in window.insts
            ],
        )
        pipeline = Pipeline(
            shifted,
            machine,
            _slice_pthreads(pthreads, start, end),
            warm=False,
        )
        # Warm caches/TLBs with the *preceding* interval (the paper's
        # warm-up regions), not with the sample itself -- a short window's
        # own footprint fits the caches and would hide capacity misses.
        warm_len = max(sample_len, int(stride * sim.warmup_fraction))
        for dyn in trace.insts[max(0, start - warm_len):start]:
            if dyn.addr >= 0:
                pipeline.hierarchy.warm_data(dyn.addr)
        stats = pipeline.run()
        sample_stats.append(stats)
        measured += len(shifted)

    total_cycles = sum(s.cycles for s in sample_stats)
    ipc = measured / total_cycles if total_cycles else 0.0
    return SampledEstimate(
        estimated_cycles=n / ipc if ipc else float("inf"),
        estimated_ipc=ipc,
        measured_instructions=measured,
        total_instructions=n,
        n_samples=len(sample_stats),
        sample_stats=sample_stats,
    )
