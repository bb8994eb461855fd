"""Top-down stall attribution: the slot invariant and its breakdowns.

The property under test: every issue slot of every cycle is charged to
exactly one category, so ``stalls.total == width * cycles`` for any
program on any machine, and the breakdown is a pure function of the
simulated configuration (bit-identical between sequential and parallel
engine runs).
"""

import pytest

from repro.config import MachineConfig, SimulationConfig
from repro.cpu.pipeline import simulate
from repro.cpu.stats import (
    STALL_CATEGORIES,
    LatencyBreakdown,
    StallBreakdown,
)
from repro.frontend import tracestore
from repro.harness.parallel import ExperimentJob, run_experiments
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program

#: Three cheap benchmarks x two machine shapes (the paper's 6-wide
#: default and a narrow 4-wide core with half-size OOO structures).
BENCHMARKS = ("gap", "gcc", "vortex")
MACHINES = (
    MachineConfig(),
    MachineConfig(width=4, commit_width=4, rob_entries=64, rs_entries=40),
)


def _baseline_stats(benchmark, machine):
    program = get_program(benchmark, "train")
    trace, _ = tracestore.get_trace(
        program, SimulationConfig().max_instructions
    )
    return simulate(trace, machine)


class TestSlotInvariant:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("machine", MACHINES, ids=("w6", "w4"))
    def test_attributed_slots_equal_width_times_cycles(
        self, bench, machine
    ):
        stats = _baseline_stats(bench, machine)
        assert stats.cycles > 0
        assert stats.stalls.total == machine.width * stats.cycles
        stats.stalls.verify(machine.width, stats.cycles)  # same, loudly
        # Commit bandwidth >= issue width here, so every committed
        # instruction consumed exactly one retiring slot.
        assert stats.stalls.retiring == stats.committed
        assert all(v >= 0 for v in stats.stalls.as_dict().values())
        assert sum(stats.stalls.fractions().values()) == pytest.approx(1.0)


class TestEngineIdentity:
    def test_breakdowns_bit_identical_jobs1_vs_jobs4(self):
        grid = [
            ExperimentJob(benchmark, target=Target.LATENCY,
                          sim=SimulationConfig())
            for benchmark in ("gap", "gcc")
        ]
        tracestore.clear()
        sequential = run_experiments(grid, n_jobs=1)
        tracestore.clear()
        parallel = run_experiments(grid, n_jobs=4)
        for seq, par in zip(sequential, parallel):
            assert (
                seq.baseline.stats.stalls.as_dict()
                == par.baseline.stats.stalls.as_dict()
            )
            assert (
                seq.optimized.stats.stalls.as_dict()
                == par.optimized.stats.stalls.as_dict()
            )
            assert (
                seq.optimized.stats.breakdown.as_dict()
                == par.optimized.stats.breakdown.as_dict()
            )


class TestZeroCycleGuards:
    def test_stall_fractions_zero_run(self):
        empty = StallBreakdown()
        assert empty.total == 0
        fractions = empty.fractions()
        assert set(fractions) == set(STALL_CATEGORIES)
        assert all(v == 0.0 for v in fractions.values())

    def test_latency_fractions_zero_run(self):
        fractions = LatencyBreakdown().fractions()
        assert all(v == 0.0 for v in fractions.values())
        assert sum(fractions.values()) == 0.0

    def test_verify_raises_on_violation(self):
        bad = StallBreakdown(retiring=5)
        with pytest.raises(ValueError, match="slot invariant"):
            bad.verify(width=6, cycles=100)

    def test_verify_passes_on_exact_total(self):
        good = StallBreakdown(retiring=8, load_miss=4)
        good.verify(width=6, cycles=2)
