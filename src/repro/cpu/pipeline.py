"""The cycle-level out-of-order pipeline.

Trace-driven timing model of the paper's default machine (Section 3.1).
Each cycle runs commit, wakeup, issue, dispatch, and fetch in reverse
pipeline order.  When no stage can make progress the simulator jumps
directly to the next scheduled event (a completion, an I-cache fill, a
redirect resolution, or a p-thread fetch slot), charging the skipped
cycles to the latency-breakdown category of the stalled state -- so
miss-dominated programs simulate in time proportional to events, not
cycles.

Main-thread instructions flow fetch -> frontend pipe (``frontend_depth``
cycles) -> dispatch (ROB + reservation station + physical register) ->
issue -> complete -> commit.  P-instructions follow DDMT lightweight
execution: they are fetched in width-sized blocks at one instruction per
cycle per context, dispatch into reservation stations and physical
registers only (no ROB/LSQ), and never retire.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.branch.btb import BTB
from repro.branch.predictors import HybridPredictor
from repro.config import MachineConfig
from repro.cpu.pthreads import (
    KIND_BY_PCLASS,
    PInstClass,
    PThreadProgram,
    SpawnSpec,
)
from repro.cpu.stats import SimStats
from repro.errors import ExecutionError, PipelineDeadlockError
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.opcodes import CLASS_BY_CODE, OpClass, WRITES_BY_CODE
from repro.memory.hierarchy import MemoryHierarchy

#: Bytes per instruction when mapping PCs into the I-cache address space.
INST_BYTES = 4

_SIM_RUNS = obs.counters.counter("cpu.pipeline.simulations")
_SIM_CYCLES = obs.counters.counter("cpu.pipeline.cycles_total")
_SIM_RETIRED = obs.counters.counter("cpu.pipeline.retired_total")

_NOT_DONE = -1

# Entry kinds.
_ALU, _MUL, _LOAD, _STORE, _BRANCH, _NOP = range(6)

_CLASS_TO_KIND = {
    OpClass.ALU: _ALU,
    OpClass.MUL: _MUL,
    OpClass.LOAD: _LOAD,
    OpClass.STORE: _STORE,
    OpClass.BRANCH: _BRANCH,
    OpClass.JUMP: _NOP,
    OpClass.NOP: _NOP,
    OpClass.HALT: _NOP,
}

_PCLASS_TO_KIND = KIND_BY_PCLASS
assert _PCLASS_TO_KIND == {
    PInstClass.ALU: _ALU,
    PInstClass.MUL: _MUL,
    PInstClass.LOAD: _LOAD,
}

# Control classes on the fetch path.
_CTRL_NONE, _CTRL_BRANCH, _CTRL_JUMP = range(3)

# Per-dense-opcode hot-loop tables: code -> entry kind / control class.
_KIND_BY_CODE = tuple(_CLASS_TO_KIND[cls] for cls in CLASS_BY_CODE)
_CTRL_BY_CODE = tuple(
    _CTRL_BRANCH if cls is OpClass.BRANCH
    else _CTRL_JUMP if cls is OpClass.JUMP
    else _CTRL_NONE
    for cls in CLASS_BY_CODE
)


def _pipeline_view(trace: Trace) -> Tuple[List, ...]:
    """Flat per-instruction arrays for the hot loop, memoized on the trace.

    The per-cycle closures index plain lists instead of mapping each
    opcode to its ``Op`` and ``OpClass`` per cycle.  The
    kind/ctrl/writes columns are one table-lookup sweep over the trace's
    dense opcode column; the value columns are the trace's own shared
    lists, borrowed read-only.  Sequence numbers equal trace indices, so
    no seq column is needed.  A trace is simulated many times across an
    experiment grid (baseline + profile + per-target augmented runs, and
    -- with the trace memo -- many cells), so the one-time sweep
    amortizes immediately.
    """
    view = trace.derived.get("pipeline")
    if view is None:
        L = trace.as_lists()
        kinds = _KIND_BY_CODE
        ctrls = _CTRL_BY_CODE
        writes = WRITES_BY_CODE
        codes = L.op_code
        view = (
            [kinds[c] for c in codes],           # kind
            [ctrls[c] for c in codes],           # ctrl
            [writes[c] for c in codes],          # writes_register
            L.pc,
            L.addr,
            L.src1,
            L.src2,
            [t != 0 for t in L.taken],
            L.next_pc,
        )
        trace.derived["pipeline"] = view
    return view


class _Entry:
    """One instruction in the out-of-order window."""

    __slots__ = (
        "uid",
        "kind",
        "seq",
        "pc",
        "addr",
        "pending",
        "is_pth",
        "is_target",
        "ctx",
        "hint_seq",
        "hint_taken",
    )

    def __init__(self, uid: int, kind: int, seq: int, pc: int, addr: int,
                 is_pth: bool = False, is_target: bool = False,
                 ctx: Optional["_Context"] = None, hint_seq: int = -1,
                 hint_taken: bool = False) -> None:
        self.uid = uid
        self.kind = kind
        self.seq = seq
        self.pc = pc
        self.addr = addr
        self.pending = 0
        self.is_pth = is_pth
        self.is_target = is_target
        self.ctx = ctx
        self.hint_seq = hint_seq
        self.hint_taken = hint_taken


class _Context:
    """A hardware thread context running one p-thread spawn."""

    __slots__ = ("spawn", "uid_base", "fetch_idx", "next_fetch", "in_flight",
                 "fetched_all")

    def __init__(self, spawn: SpawnSpec, uid_base: int, now: int) -> None:
        self.spawn = spawn
        self.uid_base = uid_base
        self.fetch_idx = 0
        self.next_fetch = now + 1
        self.in_flight = 0
        self.fetched_all = False


def _deadlock_error(
    now: int,
    committed: int,
    n_main: int,
    rob: "Deque[int]",
    pc_arr: List[int],
    kind_arr: List[int],
    completion: List[int],
    fetch_active: List[_Context],
) -> PipelineDeadlockError:
    """Build the diagnostic error for a wedged pipeline.

    Raised when no stage is active and no future event exists to jump to.
    This should be unreachable; if a scheduling bug ever introduces it,
    the error must carry enough machine state to debug from a failure row
    alone: the stall cycle, commit progress, the ROB head op, and every
    live p-thread fetch context.
    """
    rob_head: Optional[Dict[str, object]] = None
    if rob:
        head = rob[0]
        done_at = completion[head] if head < len(completion) else _NOT_DONE
        rob_head = {
            "seq": head,
            "pc": pc_arr[head] if head < len(pc_arr) else None,
            "kind": kind_arr[head] if head < len(kind_arr) else None,
            "done_at": None if done_at == _NOT_DONE else done_at,
        }
    fetch_state = [
        {
            "static_id": ctx.spawn.static_id,
            "trigger_seq": ctx.spawn.trigger_seq,
            "fetch_idx": ctx.fetch_idx,
            "next_fetch": ctx.next_fetch,
            "in_flight": ctx.in_flight,
            "fetched_all": ctx.fetched_all,
        }
        for ctx in fetch_active
    ]
    return PipelineDeadlockError(
        f"pipeline deadlock at cycle {now}: "
        f"{committed}/{n_main} committed, rob={len(rob)}",
        cycle=now,
        committed=committed,
        total=n_main,
        rob_size=len(rob),
        rob_head=rob_head,
        fetch_state=fetch_state,
    )


def record_run(stats: SimStats, wall_s: float) -> None:
    """Bump the simulator counters and log ``sim.done`` for one run."""
    now = stats.cycles
    committed = stats.committed
    _SIM_RUNS.add()
    _SIM_CYCLES.add(now)
    _SIM_RETIRED.add(committed)
    if obs.is_enabled("info"):
        obs.log_event(
            "sim.done",
            cycles=now,
            committed=committed,
            ipc=round(stats.ipc, 4),
            spawns=stats.spawns_started,
            pinsts=stats.pinsts_executed,
            stall_slots=stats.stalls.as_dict(),
            wall_s=round(wall_s, 6),
            cycles_per_sec=round(now / wall_s) if wall_s else 0,
            retired_per_sec=round(committed / wall_s) if wall_s else 0,
        )


class Pipeline:
    """One timing simulation of a trace, optionally with p-threads."""

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        pthreads: Optional[PThreadProgram] = None,
        warm: bool = True,
    ) -> None:
        self.trace = trace
        self.config = config or MachineConfig()
        self.pthreads = pthreads or PThreadProgram()
        self.hierarchy = MemoryHierarchy(self.config)
        self.predictor = HybridPredictor(self.config.bpred_entries)
        self.btb = BTB(self.config.btb_entries)
        self.stats = SimStats()
        self.warm = warm
        self._ran = False

    def _warm_caches(self) -> None:
        """Functional warm-up pass, mirroring the paper's sampled-run cache
        warm-up: touch every data access and fetch line once so the timed
        run measures steady-state (capacity) misses, not cold misses."""
        hierarchy = self.hierarchy
        line_insts = self.config.icache.line_bytes // INST_BYTES
        seen_lines = set()
        L = self.trace.as_lists()
        for pc, addr in zip(L.pc, L.addr):
            line = pc // line_insts
            if line not in seen_lines:
                seen_lines.add(line)
                hierarchy.warm_inst(pc * INST_BYTES)
            if addr >= 0:
                hierarchy.warm_data(addr)

    # ------------------------------------------------------------------ #

    def run(self) -> SimStats:
        """Simulate to completion and return the statistics."""
        if self._ran:
            raise ExecutionError("a Pipeline instance can only run once")
        self._ran = True
        if self.warm:
            self._warm_caches()

        cfg = self.config
        trace = self.trace
        n_main = len(trace)
        stats = self.stats
        act = stats.activity
        hierarchy = self.hierarchy

        # Hot-loop locals: per-trace flat arrays plus bound methods, so the
        # per-cycle closures never resolve attributes, properties, or
        # enum-keyed dicts on the critical path.
        (kind_arr, ctrl_arr, writes_arr, pc_arr, addr_arr, src1_arr,
         src2_arr, taken_arr, next_pc_arr) = _pipeline_view(trace)
        heappush = heapq.heappush
        heappop = heapq.heappop
        data_access = hierarchy.data_access
        inst_fetch = hierarchy.inst_fetch
        predict_and_update = self.predictor.predict_and_update
        btb_lookup = self.btb.lookup
        btb_update = self.btb.update
        spawns_by_trigger = self.pthreads.spawns_by_trigger
        has_spawns = bool(spawns_by_trigger)

        width = cfg.width
        commit_width = cfg.commit_width
        frontend_depth = cfg.frontend_depth
        rs_capacity = cfg.rs_entries
        rob_capacity = cfg.rob_entries
        phys_budget = cfg.physical_registers - 32  # main arch state
        pipe_capacity = width * frontend_depth
        line_shift = cfg.icache.line_bytes.bit_length() - 1
        pth_block_interval = max(1, int(round(width / cfg.pthread_fetch_ipc)))
        int_alus = cfg.int_alus
        load_ports = cfg.load_ports
        store_ports = cfg.store_ports
        mul_latency = cfg.mul_latency
        issue_pool_limit = width + 8

        # Completion times: list for main instructions, dict for p-insts.
        completion: List[int] = [_NOT_DONE] * n_main
        p_completion: Dict[int, int] = {}

        # Wakeup machinery.
        wakeup: Dict[int, List[_Entry]] = {}
        ready: List[Tuple[int, _Entry]] = []  # heap keyed by age (uid)
        deferred: List[_Entry] = []  # ready but port/MSHR limited this cycle
        completion_events: List[Tuple[int, int]] = []  # (time, uid)

        # Window state.  P-instructions flow through their own frontend
        # pipe (DDMT's separate sequencers), so a stalled main-thread
        # dispatch never blocks them head-of-line and vice versa.  The
        # main thread may not occupy the last `pthread_rs_reserve`
        # reservation stations.
        rob: Deque[int] = deque()
        frontend_pipe: Deque[Tuple[int, int]] = deque()  # (ready_at, seq)
        pth_pipe: Deque[Tuple[int, "_Context", int]] = deque()
        rs_used_main = 0
        rs_used_pth = 0
        main_rs_cap = max(cfg.width, rs_capacity - cfg.pthread_rs_reserve)
        phys_used = 0

        # Fetch state.
        next_seq = 0
        fetch_line = -1
        line_ready_at = 0
        fetch_hold_until = 0
        pending_redirect: Optional[int] = None  # seq of unresolved mispredict
        redirect_clear_at: Optional[int] = None

        # Load classification for breakdown attribution.
        load_kind: Dict[int, str] = {}
        # Lines whose in-flight prefetch already got partial-cover credit
        # (several demand accesses can merge with one prefetched line; the
        # paper's coverage bars count misses, not accesses).
        partial_counted: set = set()
        l2_line_shift = cfg.l2.line_bytes.bit_length() - 1

        # Branch pre-execution hints: branch seq -> (ready time, taken).
        branch_hints: Dict[int, Tuple[int, bool]] = {}

        # P-thread state.  Only contexts that still have instructions to
        # fetch live in fetch_active; finished ones are dropped so the
        # fetch stage never scans dead contexts.
        fetch_active: List[_Context] = []
        free_contexts = cfg.thread_contexts - 1  # context 0 is the main thread
        next_uid = n_main

        now = 0
        committed = 0

        # -------------------------------------------------------------- #
        # Helpers (closures over the hot state).
        # -------------------------------------------------------------- #

        def schedule_completion(uid: int, time: int) -> None:
            if uid < n_main:
                completion[uid] = time
            else:
                p_completion[uid] = time
            heappush(completion_events, (time, uid))

        def register_deps(entry: _Entry, producers: Tuple[int, ...]) -> bool:
            """Register wakeups; return True if already ready."""
            pending = 0
            for producer in producers:
                if producer == NO_PRODUCER:
                    continue
                # done_at(), inlined for the hot path.
                if producer < n_main:
                    t = completion[producer]
                else:
                    t = p_completion.get(producer, _NOT_DONE)
                if t == _NOT_DONE or t > now:
                    wakeup.setdefault(producer, []).append(entry)
                    pending += 1
            entry.pending = pending
            if pending == 0:
                heappush(ready, (entry.uid, entry))
                return True
            return False

        def finish_context(ctx: _Context) -> None:
            nonlocal free_contexts, phys_used
            phys_used -= len(ctx.spawn.insts)
            free_contexts += 1

        def attempt_spawns(trigger_seq: int) -> None:
            nonlocal free_contexts, next_uid, phys_used
            for spawn in spawns_by_trigger.get(trigger_seq, ()):
                stats.spawns_attempted += 1
                if free_contexts <= 0:
                    stats.spawns_dropped_no_context += 1
                    continue
                if phys_used + len(spawn.insts) > phys_budget:
                    stats.spawns_dropped_no_context += 1
                    continue
                free_contexts -= 1
                phys_used += len(spawn.insts)
                fetch_active.append(_Context(spawn, next_uid, now))
                next_uid += len(spawn.insts)
                stats.spawns_started += 1

        # -------------------------------------------------------------- #
        # Pipeline stages.
        # -------------------------------------------------------------- #

        def do_commit() -> int:
            """Retire up to ``commit_width`` ready heads; returns the
            retire count (the cycle's ``retiring`` slots for top-down
            attribution)."""
            nonlocal committed, phys_used
            n = 0
            while n < commit_width and rob:
                head = rob[0]
                t = completion[head]
                if t == _NOT_DONE or t > now:
                    break
                rob.popleft()
                if writes_arr[head]:
                    phys_used -= 1
                committed += 1
                n += 1
            if n:
                act.committed_main += n
            return n

        def process_completions() -> bool:
            fired = False
            while completion_events and completion_events[0][0] <= now:
                _, uid = heappop(completion_events)
                fired = True
                for waiter in wakeup.pop(uid, ()):
                    waiter.pending -= 1
                    if waiter.pending == 0:
                        heappush(ready, (waiter.uid, waiter))
            return fired

        def issue_one(entry: _Entry) -> bool:
            """Execute an entry; returns False if it must retry (MSHR full)."""
            nonlocal redirect_clear_at
            kind = entry.kind
            if kind == _LOAD:
                result = data_access(
                    entry.addr, now, is_write=False, is_pthread=entry.is_pth
                )
                if result.retry:
                    return False
                if entry.is_pth:
                    act.dmem_accesses_pth += 1
                    if result.l2_accessed or result.mem_access:
                        act.l2_accesses_pth += 1
                    if result.mem_access:
                        stats.pthread_l2_misses += 1
                else:
                    act.dmem_accesses_main += 1
                    if result.l2_accessed or result.mem_access:
                        act.l2_accesses_main += 1
                    if result.mem_access:
                        stats.demand_l2_misses += 1
                        stats.missed_load_seqs.add(entry.seq)
                        stats.l2_misses_by_pc[entry.pc] = (
                            stats.l2_misses_by_pc.get(entry.pc, 0) + 1
                        )
                        load_kind[entry.seq] = "mem"
                    elif result.mshr_merged:
                        load_kind[entry.seq] = "mem"
                        if result.merged_with_prefetch:
                            line = entry.addr >> l2_line_shift
                            if line not in partial_counted:
                                partial_counted.add(line)
                                stats.covered_misses_partial += 1
                                stats.useful_prefetches += 1
                            stats.missed_load_seqs.add(entry.seq)
                    elif result.l2_accessed:
                        load_kind[entry.seq] = "l2"
                    if result.prefetched_hit:
                        stats.covered_misses_full += 1
                        stats.useful_prefetches += 1
                schedule_completion(entry.uid, result.complete_at)
            elif kind == _STORE:
                result = data_access(entry.addr, now, is_write=True)
                if result.retry:
                    return False
                act.dmem_accesses_main += 1
                if result.l2_accessed or result.mem_access:
                    act.l2_accesses_main += 1
                # Stores drain through the store buffer off the critical path.
                schedule_completion(entry.uid, now + 1)
            elif kind == _MUL:
                schedule_completion(entry.uid, now + mul_latency)
            else:  # ALU or BRANCH
                schedule_completion(entry.uid, now + 1)
                if kind == _BRANCH and entry.seq == pending_redirect:
                    redirect_clear_at = now + 1
            if entry.is_pth:
                stats.pinsts_executed += 1
                if kind in (_ALU, _MUL):
                    act.alu_ops_pth += 1
                if entry.hint_seq >= 0:
                    done = (
                        p_completion.get(entry.uid)
                        if entry.uid >= n_main
                        else completion[entry.uid]
                    )
                    branch_hints[entry.hint_seq] = (done, entry.hint_taken)
                ctx = entry.ctx
                ctx.in_flight -= 1
                if ctx.fetched_all and ctx.in_flight == 0:
                    finish_context(ctx)
            else:
                if kind in (_ALU, _MUL, _BRANCH):
                    act.alu_ops_main += 1
            return True

        def do_issue() -> bool:
            nonlocal rs_used_main, rs_used_pth
            if not ready and not deferred:
                return False
            alu_slots = int_alus
            load_slots = load_ports
            store_slots = store_ports
            issued = 0
            retry: List[_Entry] = []
            pool: List[_Entry] = deferred[:]
            deferred.clear()
            while ready and len(pool) < issue_pool_limit:
                pool.append(heappop(ready)[1])
            for entry in pool:
                kind = entry.kind
                if kind == _LOAD:
                    can = load_slots > 0
                elif kind == _STORE:
                    can = store_slots > 0
                else:
                    can = alu_slots > 0
                if not can or issued >= width:
                    retry.append(entry)
                    continue
                if issue_one(entry):
                    if kind == _LOAD:
                        load_slots -= 1
                    elif kind == _STORE:
                        store_slots -= 1
                    else:
                        alu_slots -= 1
                    if entry.is_pth:
                        rs_used_pth -= 1
                    else:
                        rs_used_main -= 1
                    issued += 1
                else:
                    # MSHR-blocked: the access will replay next chance.
                    retry.append(entry)
            deferred.extend(retry)
            return issued > 0

        def do_dispatch() -> bool:
            nonlocal rs_used_main, rs_used_pth, phys_used
            n = 0
            while n < width and frontend_pipe:
                ready_at, seq = frontend_pipe[0]
                if ready_at > now:
                    break
                kind = kind_arr[seq]
                if len(rob) >= rob_capacity:
                    break
                needs_rs = kind != _NOP
                if needs_rs and rs_used_main >= main_rs_cap:
                    break
                writes = writes_arr[seq]
                if writes and phys_used >= phys_budget:
                    break
                frontend_pipe.popleft()
                rob.append(seq)
                act.dispatched_main += 1
                if writes:
                    phys_used += 1
                if needs_rs:
                    rs_used_main += 1
                    entry = _Entry(seq, kind, seq, pc_arr[seq],
                                   addr_arr[seq])
                    register_deps(entry, (src1_arr[seq], src2_arr[seq]))
                else:
                    schedule_completion(seq, now)
                if has_spawns:
                    attempt_spawns(seq)
                n += 1
            while n < width and pth_pipe:
                ready_at, ctx, idx = pth_pipe[0]
                if ready_at > now:
                    break
                if rs_used_main + rs_used_pth >= rs_capacity:
                    break
                pth_pipe.popleft()
                rs_used_pth += 1
                act.dispatched_pth += 1
                spec = ctx.spawn.insts[idx]
                uid = ctx.uid_base + idx
                entry = _Entry(
                    uid,
                    _PCLASS_TO_KIND[spec.klass],
                    -1,
                    -1,
                    spec.addr,
                    is_pth=True,
                    is_target=spec.is_target,
                    ctx=ctx,
                    hint_seq=spec.hint_branch_seq,
                    hint_taken=spec.hint_taken,
                )
                producers = tuple(
                    ctx.uid_base + d for d in spec.body_deps
                ) + spec.livein_seqs
                register_deps(entry, producers)
                n += 1
            return n > 0

        def do_fetch() -> bool:
            nonlocal next_seq, fetch_line, line_ready_at, fetch_hold_until
            nonlocal pending_redirect, redirect_clear_at

            # P-thread contexts fetch width-sized blocks on their slots.
            if len(pth_pipe) < pipe_capacity:
                for ctx in fetch_active:
                    if ctx.next_fetch > now:
                        continue
                    body = ctx.spawn.insts
                    block_start = ctx.fetch_idx
                    block_end = min(block_start + width, len(body))
                    for idx in range(block_start, block_end):
                        pth_pipe.append((now + frontend_depth, ctx, idx))
                        ctx.in_flight += 1
                        stats.pinsts_fetched += 1
                    ctx.fetch_idx = block_end
                    ctx.next_fetch = now + pth_block_interval
                    if ctx.fetch_idx >= len(body):
                        ctx.fetched_all = True
                        fetch_active.remove(ctx)
                    act.fetch_blocks_pth += 1
                    return True

            # Main thread.
            if len(frontend_pipe) >= pipe_capacity:
                return False
            if pending_redirect is not None:
                if redirect_clear_at is None or now <= redirect_clear_at:
                    return False
                pending_redirect = None
                redirect_clear_at = None
                fetch_line = -1  # refetch the target line
            if now < fetch_hold_until:
                return False
            if next_seq >= n_main:
                return False

            pc = pc_arr[next_seq]
            line = (pc * INST_BYTES) >> line_shift
            if line != fetch_line:
                result = inst_fetch(pc * INST_BYTES, now)
                fetch_line = line
                if not result.l1_hit:
                    line_ready_at = result.complete_at
                    return True  # the fetch slot is consumed by the miss
                line_ready_at = now
            if now < line_ready_at:
                return False

            act.fetch_blocks_main += 1
            fetched = 0
            while (
                fetched < width
                and next_seq < n_main
                and len(frontend_pipe) < pipe_capacity
            ):
                pc = pc_arr[next_seq]
                if (pc * INST_BYTES) >> line_shift != fetch_line:
                    break
                idx = next_seq
                frontend_pipe.append((now + frontend_depth, idx))
                next_seq += 1
                fetched += 1
                ctrl = ctrl_arr[idx]
                if ctrl == _CTRL_BRANCH:
                    taken = taken_arr[idx]
                    stats.branches += 1
                    act.bpred_accesses += 1
                    predicted = predict_and_update(pc, taken)
                    hint = branch_hints.get(idx)
                    if hint is not None and hint[0] <= now:
                        # A branch p-thread pre-computed this outcome in
                        # time: fetch follows the hint instead of the
                        # predictor (a wrong hint still mispredicts).
                        stats.branch_hints_used += 1
                        predicted = hint[1]
                    if predicted != taken:
                        stats.mispredictions += 1
                        pending_redirect = idx
                        redirect_clear_at = None
                        break
                    if taken:
                        branch_next_pc = next_pc_arr[idx]
                        target = btb_lookup(pc)
                        if target != branch_next_pc:
                            stats.btb_misses += 1
                            btb_update(pc, branch_next_pc)
                            fetch_hold_until = now + 2
                        fetch_line = (
                            branch_next_pc * INST_BYTES
                        ) >> line_shift
                        result = inst_fetch(branch_next_pc * INST_BYTES, now)
                        if not result.l1_hit:
                            line_ready_at = result.complete_at
                        break
                elif ctrl == _CTRL_JUMP:
                    jump_next_pc = next_pc_arr[idx]
                    fetch_line = (jump_next_pc * INST_BYTES) >> line_shift
                    result = inst_fetch(jump_next_pc * INST_BYTES, now)
                    if not result.l1_hit:
                        line_ready_at = result.complete_at
                    break
            return fetched > 0

        # Cycle attribution accumulates into plain integers and is flushed
        # into ``stats.breakdown`` once after the loop: the per-cycle
        # getattr/setattr of ``LatencyBreakdown.add`` was a top cost.
        # The same applies to the top-down issue-slot attribution
        # (``stats.stalls``): eight plain-int slot counters, flushed once.
        bd_mem = bd_l2 = bd_exec = bd_commit = bd_fetch = 0
        sl_retire = sl_fetch = sl_branch = sl_load = 0
        sl_rob = sl_rs = sl_pth = sl_exec = 0
        load_kind_get = load_kind.get

        def attribute_cycles(n: int, retired: int = 0) -> None:
            """Charge ``n`` cycles to a latency category and all
            ``width * n`` issue slots to top-down causes.

            ``retired`` slots (capped at ``width``) go to ``retiring``;
            the remainder is charged to exactly one cause read off the
            machine state, so the attributed slots sum to
            ``width * cycles`` by construction (StallBreakdown.verify).
            """
            nonlocal bd_mem, bd_l2, bd_exec, bd_commit, bd_fetch
            nonlocal sl_retire, sl_fetch, sl_branch, sl_load
            nonlocal sl_rob, sl_rs, sl_pth, sl_exec
            r = retired if retired < width else width
            sl_retire += r
            slots = width * n - r
            if not rob:
                bd_fetch += n
                # Empty window: the frontend is the bottleneck -- either
                # recovering from a mispredicted branch or starved by
                # I-cache misses / fetch bandwidth.
                if pending_redirect is not None:
                    sl_branch += slots
                else:
                    sl_fetch += slots
                return
            head = rob[0]
            t = completion[head]
            if t != _NOT_DONE and t <= now:
                bd_commit += n
                # Head is done but commit bandwidth limits drain: no
                # structural hazard, pure bandwidth.
                sl_exec += slots
                return
            if kind_arr[head] == _LOAD:
                kind = load_kind_get(head)
                if kind == "mem":
                    bd_mem += n
                    sl_load += slots
                    return
                if kind == "l2":
                    bd_l2 += n
                    sl_load += slots
                    return
            bd_exec += n
            # Execution-bound: charge the structural hazard if one is
            # live (window full, stations exhausted -- distinguishing
            # p-thread reservation-station contention), else pure
            # execution latency.
            if len(rob) >= rob_capacity:
                sl_rob += slots
            elif rs_used_pth and rs_used_main + rs_used_pth >= rs_capacity:
                sl_pth += slots
            elif rs_used_main >= main_rs_cap:
                sl_rs += slots
            else:
                sl_exec += slots

        # -------------------------------------------------------------- #
        # Main loop.
        # -------------------------------------------------------------- #

        safety_limit = 400 * n_main + 10_000_000
        wall_start = time.perf_counter()
        while committed < n_main:
            if completion_events and completion_events[0][0] <= now:
                process_completions()
            ncommitted = do_commit()
            active = ncommitted > 0
            active |= do_issue()
            active |= do_dispatch()
            active |= do_fetch()

            if now > safety_limit:
                raise ExecutionError(
                    f"simulation exceeded {safety_limit} cycles "
                    f"({committed}/{n_main} committed)"
                )

            if committed >= n_main:
                attribute_cycles(1, ncommitted)
                now += 1
                break

            if active or ready:
                attribute_cycles(1, ncommitted)
                now += 1
                continue

            # Entries still in `deferred` with no stage active this cycle
            # can only be MSHR-blocked loads (a port-limited entry implies
            # something else issued, i.e. active).  MSHRs free exactly at
            # load completion events, so jumping to the next completion is
            # safe -- and essential for miss-saturated programs like mcf.

            # Nothing can happen until the next event: jump.
            candidates: List[int] = []
            if completion_events:
                candidates.append(completion_events[0][0])
            if frontend_pipe:
                candidates.append(frontend_pipe[0][0])
            if pth_pipe:
                candidates.append(pth_pipe[0][0])
            if pending_redirect is not None and redirect_clear_at is not None:
                candidates.append(redirect_clear_at + 1)
            if line_ready_at > now:
                candidates.append(line_ready_at)
            if fetch_hold_until > now:
                candidates.append(fetch_hold_until)
            for ctx in fetch_active:
                candidates.append(ctx.next_fetch)
            if not candidates:
                raise _deadlock_error(
                    now, committed, n_main, rob, pc_arr, kind_arr,
                    completion, fetch_active,
                )
            target = max(now + 1, min(candidates))
            attribute_cycles(target - now)
            now = target

        stats.cycles = now
        stats.committed = committed
        act.cycles = now
        breakdown = stats.breakdown
        breakdown.mem += bd_mem
        breakdown.l2 += bd_l2
        breakdown.exec += bd_exec
        breakdown.commit += bd_commit
        breakdown.fetch += bd_fetch
        stalls = stats.stalls
        stalls.retiring += sl_retire
        stalls.fetch_starved += sl_fetch
        stalls.branch_recovery += sl_branch
        stalls.load_miss += sl_load
        stalls.rob_full += sl_rob
        stalls.rs_full += sl_rs
        stalls.pthread_contention += sl_pth
        stalls.exec += sl_exec

        record_run(stats, time.perf_counter() - wall_start)
        return stats


def use_reference() -> bool:
    """Whether a simulation must run on the reference :class:`Pipeline`:
    exactly when the compiled ``kernel`` library does not load (no C
    toolchain, ``REPRO_NATIVE=0``).
    """
    from repro.cpu import nativebuild

    return nativebuild.load() is None


def simulate(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    pthreads: Optional[PThreadProgram] = None,
    warm: bool = True,
) -> SimStats:
    """Run one timing simulation on the cycle engine that loads.

    Runs the compiled cycle kernel (:mod:`repro.cpu.kerneldriver`)
    when it loads, and :class:`Pipeline` otherwise.  The two
    are bit-identical (``tests/cpu/test_golden_sim_backends``), so
    nothing downstream can observe the dispatch.
    """
    if use_reference():
        return Pipeline(trace, config, pthreads, warm=warm).run()
    from repro.cpu import kerneldriver

    return kerneldriver.simulate_kernel(trace, config, pthreads, warm=warm)
