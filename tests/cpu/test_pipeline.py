"""Tests for the cycle-level pipeline on hand-built programs."""

import pytest

from repro.config import MachineConfig
from repro.cpu.pipeline import Pipeline, simulate
from repro.cpu.pthreads import (
    PInstClass,
    PInstSpec,
    PThreadProgram,
    SpawnSpec,
)
from repro.errors import ExecutionError
from repro.frontend import interpret
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import CODE_BY_OP, LD_CODE, Op
from repro.isa.registers import Reg


def _alu_loop(n=100, chain=4):
    b = ProgramBuilder("alu")
    b.set_reg(Reg.r2, n)
    b.li(Reg.r1, 0)
    b.label("top")
    for _ in range(chain):
        b.add(Reg.r3, Reg.r3, Reg.r4)
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return interpret(b.build())


def _missing_load_loop(n=50, stride=4096):
    """A loop whose load misses every iteration (huge stride)."""
    b = ProgramBuilder("miss")
    b.data.alloc("big", (n + 1) * stride // 8)
    base = b.data.base("big")
    b.set_reg(Reg.r2, n)
    b.set_reg(Reg.r5, stride)
    b.li(Reg.r1, 0)
    b.li(Reg.r6, base)
    b.label("top")
    b.load(Reg.r3, Reg.r6)
    b.add(Reg.r6, Reg.r6, Reg.r5)
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return interpret(b.build())


class TestBasicExecution:
    def test_all_instructions_commit(self):
        trace = _alu_loop()
        stats = simulate(trace)
        assert stats.committed == len(trace)

    def test_ipc_bounded_by_width(self):
        stats = simulate(_alu_loop())
        assert 0 < stats.ipc <= MachineConfig().width

    def test_serial_chain_limits_ipc(self):
        fast = simulate(_alu_loop(chain=1))
        slow_trace = _alu_loop(chain=12)
        slow = simulate(slow_trace)
        # A longer serial ALU chain must not raise IPC.
        assert slow.cycles > fast.cycles

    def test_pipeline_runs_once_only(self):
        trace = _alu_loop(10)
        p = Pipeline(trace)
        p.run()
        with pytest.raises(ExecutionError, match="only run once"):
            p.run()

    def test_breakdown_covers_all_cycles(self):
        stats = simulate(_alu_loop())
        assert stats.breakdown.total == stats.cycles

    def test_deterministic(self):
        trace = _missing_load_loop()
        a = simulate(trace, warm=False)
        b = simulate(trace, warm=False)
        assert a.cycles == b.cycles
        assert a.demand_l2_misses == b.demand_l2_misses


class TestMemoryBehavior:
    def test_missing_loads_dominate_breakdown(self):
        stats = simulate(_missing_load_loop(), warm=False)
        assert stats.demand_l2_misses > 20
        fractions = stats.breakdown.fractions()
        assert fractions["mem"] > 0.5

    def test_misses_attributed_to_static_pc(self):
        trace = _missing_load_loop()
        stats = simulate(trace, warm=False)
        load_pc = next(i.pc for i in trace.program if i.op is Op.LD)
        assert stats.l2_misses_by_pc.get(load_pc, 0) > 20

    def test_warm_false_sees_cold_misses(self):
        b = ProgramBuilder("cold")
        b.data.alloc("t", 64)
        b.set_reg(Reg.r2, 32)
        b.li(Reg.r1, 0)
        b.li(Reg.r6, b.data.base("t"))
        b.label("top")
        b.load(Reg.r3, Reg.r6)
        b.addi(Reg.r1, Reg.r1, 1)
        b.blt(Reg.r1, Reg.r2, "top")
        b.halt()
        trace = interpret(b.build())
        cold = simulate(trace, warm=False)
        warmed = simulate(trace, warm=True)
        assert cold.demand_l2_misses >= 1
        assert warmed.demand_l2_misses == 0


class TestBranchBehavior:
    def test_predictable_loop_branch_low_mispredicts(self):
        stats = simulate(_alu_loop(n=400))
        assert stats.branches == 400
        assert stats.misprediction_rate < 0.05

    def test_random_branch_mispredicts_and_slows(self):
        import random

        rng = random.Random(9)
        b = ProgramBuilder("rnd")
        values = [rng.randint(0, 1) for _ in range(256)]
        b.data.alloc("bits", 256)
        b.data.fill("bits", values)
        b.set_reg(Reg.r2, 256 * 8)
        b.li(Reg.r1, 0)
        b.label("top")
        b.load(Reg.r3, Reg.r1, base_symbol="bits")
        b.beq(Reg.r3, 0, "skip", rhs_is_imm=True)
        b.nop()
        b.label("skip")
        b.addi(Reg.r1, Reg.r1, 8)
        b.blt(Reg.r1, Reg.r2, "top")
        b.halt()
        trace = interpret(b.build())
        stats = simulate(trace)
        assert stats.misprediction_rate > 0.1
        assert stats.breakdown.fetch > 0


class TestPThreadExecution:
    def _spawned_run(self, trace, addr, trigger_seq):
        spawn = SpawnSpec(
            trigger_seq=trigger_seq,
            static_id=0,
            insts=(
                PInstSpec(klass=PInstClass.ALU),
                PInstSpec(klass=PInstClass.LOAD, addr=addr, body_deps=(0,),
                          is_target=True),
            ),
        )
        return simulate(trace, pthreads=PThreadProgram.from_spawns([spawn]))

    def test_pthread_counts_and_energy_attribution(self):
        trace = _alu_loop(50)
        stats = self._spawned_run(trace, addr=0x40000, trigger_seq=5)
        assert stats.spawns_started == 1
        assert stats.pinsts_executed == 2
        assert stats.activity.dispatched_pth == 2
        assert stats.activity.fetch_blocks_pth >= 1

    def test_pthread_prefetch_covers_later_miss(self):
        trace = _missing_load_loop(n=40)
        # Prefetch iteration 30's address early (trigger at iteration 2).
        load_seqs = [s for s, c in enumerate(trace.columns.op_code)
                     if c == LD_CODE]
        spawn = SpawnSpec(
            trigger_seq=load_seqs[2],
            static_id=0,
            insts=(PInstSpec(klass=PInstClass.LOAD,
                             addr=trace.columns.addr[load_seqs[30]],
                             is_target=True),),
        )
        stats = simulate(trace, pthreads=PThreadProgram.from_spawns([spawn]),
                         warm=False)
        assert stats.covered_misses_full + stats.covered_misses_partial >= 1

    def test_spawns_dropped_when_contexts_exhausted(self):
        trace = _alu_loop(60)
        # Many long-lived spawns at the same trigger exhaust 7 contexts.
        body = tuple(
            PInstSpec(klass=PInstClass.LOAD, addr=0x80000 + i * 4096)
            for i in range(8)
        )
        spawns = [
            SpawnSpec(trigger_seq=3, static_id=i, insts=body)
            for i in range(12)
        ]
        stats = simulate(trace, pthreads=PThreadProgram.from_spawns(spawns))
        assert stats.spawns_dropped_no_context > 0
        assert stats.spawns_started <= MachineConfig().thread_contexts - 1

    def test_pthreads_slow_fetch_bound_program(self):
        """P-threads steal fetch slots: with a fetch-bound main thread,
        adding useless p-threads must not speed it up."""
        trace = _alu_loop(n=300, chain=1)
        base = simulate(trace)
        body = tuple(PInstSpec(klass=PInstClass.ALU) for _ in range(12))
        addi = CODE_BY_OP[Op.ADDI]
        addi_seqs = [s for s, c in enumerate(trace.columns.op_code)
                     if c == addi]
        spawns = [
            SpawnSpec(trigger_seq=s, static_id=0, insts=body)
            for s in addi_seqs[::2]
        ]
        stats = simulate(trace, pthreads=PThreadProgram.from_spawns(spawns))
        assert stats.cycles >= base.cycles


class TestFaultsAndDeadlockDiagnostics:
    def test_deadlock_error_carries_machine_state(self):
        from collections import deque

        from repro.cpu.pipeline import _deadlock_error
        from repro.errors import PipelineDeadlockError

        err = _deadlock_error(
            now=123,
            committed=7,
            n_main=50,
            rob=deque([0]),
            pc_arr=[0x400],
            kind_arr=[2],
            completion=[125],
            fetch_active=[],
        )
        assert isinstance(err, PipelineDeadlockError)
        assert isinstance(err, ExecutionError)  # deterministic: no retry
        assert err.context["cycle"] == 123
        assert err.context["committed"] == 7
        assert err.context["total"] == 50
        assert err.context["rob_head"] == {
            "seq": 0, "pc": 0x400, "kind": 2, "done_at": 125,
        }
        assert err.context["fetch_state"] == []

    def test_deadlock_error_reports_pthread_fetch_contexts(self):
        from collections import deque

        from repro.cpu.pipeline import _Context, _deadlock_error

        spawn = SpawnSpec(
            static_id=3,
            trigger_seq=11,
            insts=(PInstSpec(PInstClass.ALU),),
        )
        ctx = _Context(spawn, uid_base=100, now=40)
        err = _deadlock_error(
            now=60,
            committed=0,
            n_main=10,
            rob=deque(),
            pc_arr=[],
            kind_arr=[],
            completion=[],
            fetch_active=[ctx],
        )
        assert err.context["rob_head"] is None
        (state,) = err.context["fetch_state"]
        assert state["static_id"] == 3
        assert state["trigger_seq"] == 11
        assert state["fetched_all"] is False
