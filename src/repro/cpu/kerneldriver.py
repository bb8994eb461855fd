"""Marshal/unmarshal driver for the compiled C cycle kernel.

:func:`repro.cpu.pipeline.simulate` routes every run here when the
``kernel`` library loads (:func:`repro.cpu.pipeline.use_reference`),
and :func:`repro.cpu.batch.simulate_batch` calls it once per machine
config.  It drives ``cpu/_kernel.c``, loaded by
:mod:`repro.cpu.nativebuild`, and owns the marshaled layout the two
share: the ``C_*`` config block and ``O_*`` counter block indices, the
status codes and the entry-kind enums below.  All object traffic stops
at this boundary.  The driver only marshals:

- the trace's sealed ``array('q')``/``array('b')`` columns (pc, addr,
  sources, taken, next pc), passed as zero-copy pointers;
- the kind, control-class and writes-register columns, one
  ``bytes.translate`` each over the dense opcode column, per call;
- the p-thread program's spawn columns, also zero-copy;
- the machine config, flattened into the ``C_*`` config block.

The kernel derives everything else -- branch predictions, BTB
redirects, fetch line ids and the warmed caches -- itself, so nothing
is memoized on the trace.  On the way back the driver rebuilds
``SimStats`` (and the byte-identical error objects) from the ``O_*``
counter block and ordered event streams the kernel returns.  No
per-instruction Python list is built on the way.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from typing import List, Optional, Tuple

from repro.config import MachineConfig
from repro.cpu import nativebuild
from repro.cpu import pipeline as _ref
from repro.cpu.pthreads import PThreadProgram
from repro.cpu.stats import SimStats
from repro.errors import ExecutionError, PipelineDeadlockError
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.opcodes import WRITES_BY_CODE

# ------------------------------------------------------------------ #
# The marshaled layout shared with _kernel.c: every value below must
# match the C enums (nativebuild.KERNEL_ABI is bumped whenever it
# changes).
# ------------------------------------------------------------------ #

NOT_DONE = -1

# Entry kinds / control classes -- value-identical to the pipeline's.
K_ALU, K_MUL, K_LOAD, K_STORE, K_BRANCH, K_NOP = range(6)
CTRL_NONE, CTRL_BRANCH, CTRL_JUMP = range(3)
assert (K_ALU, K_MUL, K_LOAD, K_STORE, K_BRANCH, K_NOP) == (
    _ref._ALU, _ref._MUL, _ref._LOAD, _ref._STORE, _ref._BRANCH, _ref._NOP
)
assert (CTRL_NONE, CTRL_BRANCH, CTRL_JUMP) == (
    _ref._CTRL_NONE, _ref._CTRL_BRANCH, _ref._CTRL_JUMP
)
assert NOT_DONE == _ref._NOT_DONE

# cfg block indices, in _kernel.c's C_* order.
(
    C_N_MAIN, C_WIDTH, C_COMMIT_WIDTH, C_FRONTEND_DEPTH, C_RS_CAPACITY,
    C_ROB_CAPACITY, C_PHYS_BUDGET, C_PIPE_CAPACITY, C_PTH_BLOCK_INTERVAL,
    C_INT_ALUS, C_LOAD_PORTS, C_STORE_PORTS, C_MUL_LATENCY,
    C_ISSUE_POOL_LIMIT, C_MAIN_RS_CAP, C_FREE_CONTEXTS, C_SAFETY_LIMIT,
    C_INST_BYTES, C_LINE_SHIFT, C_L2_LINE_SHIFT, C_HAS_SPAWNS,
    C_HAS_HINTS, C_BPRED_ENTRIES, C_BTB_ENTRIES, C_PTHREAD_FILL_L1,
    C_NO_PRODUCER, C_DO_WARM,
    # memory hierarchy geometry/timing
    C_IC_OFFSET_BITS, C_IC_INDEX_BITS, C_IC_INDEX_MASK, C_IC_ASSOC,
    C_IC_NSETS, C_IC_HIT_LAT,
    C_DC_OFFSET_BITS, C_DC_INDEX_BITS, C_DC_INDEX_MASK, C_DC_ASSOC,
    C_DC_NSETS, C_DC_HIT_LAT,
    C_L2_OFFSET_BITS, C_L2_INDEX_BITS, C_L2_INDEX_MASK, C_L2_ASSOC,
    C_L2_NSETS, C_L2_HIT_LAT,
    C_ITLB_ENTRIES, C_DTLB_ENTRIES, C_PAGE_SHIFT, C_TLB_MISS_LAT,
    C_MSHR_ENTRIES, C_MEMORY_LATENCY,
    C_L2BUS_CYC_DLINE, C_L2BUS_CYC_ILINE, C_MEMBUS_CYC_L2LINE,
    # p-thread program shape
    C_N_SPAWNS, C_N_PINSTS, C_DEP_LEN, C_LIVE_LEN,
    C_LEN,
) = range(59)

# out block indices, in _kernel.c's O_* order.
(
    O_CYCLES, O_COMMITTED, O_BRANCHES, O_MISPREDICTIONS, O_BTB_MISSES,
    O_DEMAND_L2, O_PTHREAD_L2, O_COVERED_FULL, O_COVERED_PARTIAL,
    O_USEFUL, O_HINTS_USED, O_PINSTS_FETCHED, O_PINSTS_EXECUTED,
    O_SPAWNS_ATTEMPTED, O_SPAWNS_STARTED, O_SPAWNS_DROPPED,
    O_AC_COMMITTED, O_AC_DISP_MAIN, O_AC_DISP_PTH, O_AC_FETCH_MAIN,
    O_AC_FETCH_PTH, O_AC_BPRED, O_AC_DMEM_MAIN, O_AC_DMEM_PTH,
    O_AC_L2_MAIN, O_AC_L2_PTH, O_AC_ALU_MAIN, O_AC_ALU_PTH,
    O_BD_MEM, O_BD_L2, O_BD_EXEC, O_BD_COMMIT, O_BD_FETCH,
    O_SL_RETIRE, O_SL_FETCH, O_SL_BRANCH, O_SL_LOAD, O_SL_ROB,
    O_SL_RS, O_SL_PTH, O_SL_EXEC,
    O_STATUS, O_DEAD_ROB_LEN, O_DEAD_HEAD_SEQ, O_DEAD_HEAD_DONE,
    O_N_MISSED, O_N_MISSPC, O_N_FA,
    O_LEN,
) = range(49)

#: O_STATUS values.
STATUS_OK, STATUS_DEADLOCK, STATUS_SAFETY = range(3)


def _code_table(values) -> bytes:
    """A ``bytes.translate`` table mapping dense opcode -> ``values``."""
    return bytes(int(values[c]) if c < len(values) else 0 for c in range(256))


_KIND_TABLE = _code_table(_ref._KIND_BY_CODE)
_CTRL_TABLE = _code_table(_ref._CTRL_BY_CODE)
_WRITES_TABLE = _code_table(WRITES_BY_CODE)


def _op_columns(trace: Trace) -> Tuple[bytes, bytes, bytes]:
    """(kind, ctrl, writes) per instruction, from the opcode column."""
    codes = trace.columns.op_code.tobytes()
    return (
        codes.translate(_KIND_TABLE),
        codes.translate(_CTRL_TABLE),
        codes.translate(_WRITES_TABLE),
    )


def _has_branch_hints(pthreads: PThreadProgram) -> bool:
    return max(pthreads.pi_hint_seq, default=-1) >= 0


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _cfg_block(
    cfg: MachineConfig,
    n_main: int,
    pth: PThreadProgram,
    do_warm: bool,
    has_spawns: bool,
    has_hints: bool,
) -> List[int]:
    c = [0] * C_LEN
    c[C_N_MAIN] = n_main
    c[C_WIDTH] = cfg.width
    c[C_COMMIT_WIDTH] = cfg.commit_width
    c[C_FRONTEND_DEPTH] = cfg.frontend_depth
    c[C_RS_CAPACITY] = cfg.rs_entries
    c[C_ROB_CAPACITY] = cfg.rob_entries
    c[C_PHYS_BUDGET] = cfg.physical_registers - 32  # main arch state
    c[C_PIPE_CAPACITY] = cfg.width * cfg.frontend_depth
    c[C_PTH_BLOCK_INTERVAL] = max(
        1, int(round(cfg.width / cfg.pthread_fetch_ipc))
    )
    c[C_INT_ALUS] = cfg.int_alus
    c[C_LOAD_PORTS] = cfg.load_ports
    c[C_STORE_PORTS] = cfg.store_ports
    c[C_MUL_LATENCY] = cfg.mul_latency
    c[C_ISSUE_POOL_LIMIT] = cfg.width + 8
    c[C_MAIN_RS_CAP] = max(
        cfg.width, cfg.rs_entries - cfg.pthread_rs_reserve
    )
    c[C_FREE_CONTEXTS] = cfg.thread_contexts - 1
    c[C_SAFETY_LIMIT] = 400 * n_main + 10_000_000
    c[C_INST_BYTES] = _ref.INST_BYTES
    c[C_LINE_SHIFT] = cfg.icache.line_bytes.bit_length() - 1
    c[C_L2_LINE_SHIFT] = cfg.l2.line_bytes.bit_length() - 1
    c[C_HAS_SPAWNS] = 1 if has_spawns else 0
    c[C_HAS_HINTS] = 1 if has_hints else 0
    c[C_BPRED_ENTRIES] = cfg.bpred_entries
    c[C_BTB_ENTRIES] = cfg.btb_entries
    c[C_PTHREAD_FILL_L1] = 1 if cfg.pthread_fill_l1 else 0
    c[C_NO_PRODUCER] = NO_PRODUCER
    c[C_DO_WARM] = 1 if do_warm else 0
    for base, cc in (
        (C_IC_OFFSET_BITS, cfg.icache),
        (C_DC_OFFSET_BITS, cfg.dcache),
        (C_L2_OFFSET_BITS, cfg.l2),
    ):
        n_sets = cc.n_sets
        c[base] = cc.line_bytes.bit_length() - 1
        c[base + 1] = n_sets.bit_length() - 1
        c[base + 2] = n_sets - 1
        c[base + 3] = cc.assoc
        c[base + 4] = n_sets
        c[base + 5] = cc.hit_latency
    c[C_ITLB_ENTRIES] = cfg.itlb_entries
    c[C_DTLB_ENTRIES] = cfg.dtlb_entries
    c[C_PAGE_SHIFT] = cfg.page_bytes.bit_length() - 1
    c[C_TLB_MISS_LAT] = cfg.tlb_miss_latency
    c[C_MSHR_ENTRIES] = cfg.mshr_entries
    c[C_MEMORY_LATENCY] = cfg.memory_latency
    c[C_L2BUS_CYC_DLINE] = _ceil_div(cfg.dcache.line_bytes, cfg.bus_bytes)
    c[C_L2BUS_CYC_ILINE] = _ceil_div(cfg.icache.line_bytes, cfg.bus_bytes)
    c[C_MEMBUS_CYC_L2LINE] = (
        _ceil_div(cfg.l2.line_bytes, cfg.bus_bytes) * cfg.memory_bus_divisor
    )
    c[C_N_SPAWNS] = len(pth.sp_trigger)
    c[C_N_PINSTS] = len(pth.pi_kind)
    c[C_DEP_LEN] = len(pth.dep_flat)
    c[C_LIVE_LEN] = len(pth.live_flat)
    return c


def _run_native(lib, cfg_block, columns, pth, n_loads):
    """Run the C kernel; returns ``(out, missed, misspc, fetch_state)``."""
    (kind_b, ctrl_b, writes_b, pc_a, addr_a, src1_a, src2_a, taken_a,
     next_pc_a) = columns
    n_spawns = cfg_block[C_N_SPAWNS]

    # Each main load appends at most once to each uid stream.
    out = array("q", bytes(8 * O_LEN))
    missed_out = array("q", bytes(8 * (n_loads + 1)))
    misspc_out = array("q", bytes(8 * (n_loads + 1)))
    fa_out = array("q", bytes(8 * (6 * n_spawns + 8)))
    cfg_a = array("q", cfg_block)

    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    ip = nativebuild.int64_ptr

    # The kernel reads every per-instruction input at n_main entries of
    # the item width its table slot declares; anything else would be
    # read out of bounds.
    n_main = cfg_block[C_N_MAIN]
    for col in columns:
        if len(col) != n_main:
            raise ValueError(
                f"kernel input of length {len(col)} for a trace of "
                f"{n_main} instructions"
            )

    # Every array/bytes object below stays referenced for the whole
    # call; the kernel reads the inputs in place and never writes them.
    def bp(buf):
        if not len(buf):
            return ctypes.cast(None, u8p)
        if isinstance(buf, array):
            if buf.typecode not in "bB":
                raise TypeError(
                    f"8-bit kernel input has typecode {buf.typecode!r}"
                )
            return ctypes.cast(buf.buffer_info()[0], u8p)
        return ctypes.cast(ctypes.c_char_p(buf), u8p)

    i_tbl = (i64p * nativebuild.I_LEN)(
        ip(pc_a), ip(addr_a), ip(src1_a), ip(src2_a), ip(next_pc_a),
        ip(pth.sp_trigger), ip(pth.sp_static), ip(pth.sp_inst_lo),
        ip(pth.sp_inst_hi), ip(pth.pi_addr), ip(pth.pi_hint_seq),
        ip(pth.pi_dep_lo), ip(pth.pi_dep_hi), ip(pth.dep_flat),
        ip(pth.pi_live_lo), ip(pth.pi_live_hi), ip(pth.live_flat),
    )
    b_tbl = (u8p * nativebuild.B_LEN)(
        bp(kind_b), bp(ctrl_b), bp(writes_b), bp(taken_a),
        bp(pth.pi_kind), bp(pth.pi_hint_taken),
    )
    rc = lib.repro_kernel_simulate(
        ip(cfg_a), i_tbl, b_tbl, ip(out), ip(missed_out), ip(misspc_out),
        ip(fa_out),
    )
    if rc != 0:
        raise MemoryError(f"native kernel failed to allocate (rc={rc})")
    out_list = out.tolist()
    missed = missed_out[: out_list[O_N_MISSED]].tolist()
    misspc = misspc_out[: out_list[O_N_MISSPC]].tolist()
    dead_fa = [
        tuple(fa_out[6 * i: 6 * i + 6]) for i in range(out_list[O_N_FA])
    ]
    return out_list, missed, misspc, dead_fa


# ------------------------------------------------------------------ #
# Entry point.
# ------------------------------------------------------------------ #


def simulate_kernel(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    pthreads: Optional[PThreadProgram] = None,
    warm: bool = True,
) -> SimStats:
    """Run one timing simulation through the compiled C kernel.

    Bit-identical to :class:`repro.cpu.pipeline.Pipeline`.  Requires the
    ``kernel`` library (:func:`repro.cpu.nativebuild.load`); without it
    this raises, and :func:`repro.cpu.pipeline.simulate` never calls
    here (:func:`repro.cpu.pipeline.use_reference` routes the run to
    the reference).
    """
    lib = nativebuild.load()
    if lib is None:
        raise RuntimeError(
            "the C cycle kernel is unavailable "
            f"({nativebuild.native_error()}); simulate() runs such "
            "simulations on the reference Pipeline"
        )
    cfg = config or MachineConfig()
    pth = pthreads or PThreadProgram()
    wall_start = time.perf_counter()
    n_main = len(trace)
    cols = trace.columns

    kind_b, ctrl_b, writes_b = _op_columns(trace)
    has_spawns = not pth.empty()
    has_hints = has_spawns and _has_branch_hints(pth)
    cfg_block = _cfg_block(cfg, n_main, pth, warm, has_spawns, has_hints)

    columns = (
        kind_b, ctrl_b, writes_b, cols.pc, cols.addr, cols.src1, cols.src2,
        cols.taken, cols.next_pc,
    )
    out, missed, misspc, dead_fa = _run_native(
        lib, cfg_block, columns, pth, kind_b.count(K_LOAD),
    )

    status = out[O_STATUS]
    now = out[O_CYCLES]
    committed = out[O_COMMITTED]
    if status == STATUS_SAFETY:
        raise ExecutionError(
            f"simulation exceeded {cfg_block[C_SAFETY_LIMIT]} cycles "
            f"({committed}/{n_main} committed)"
        )
    if status == STATUS_DEADLOCK:
        raise _rebuild_deadlock(out, dead_fa, n_main, cols.pc, kind_b)
    assert status == STATUS_OK

    stats = SimStats()
    stats.cycles = now
    stats.committed = committed
    stats.branches = out[O_BRANCHES]
    stats.mispredictions = out[O_MISPREDICTIONS]
    stats.btb_misses = out[O_BTB_MISSES]
    stats.demand_l2_misses = out[O_DEMAND_L2]
    stats.pthread_l2_misses = out[O_PTHREAD_L2]
    stats.covered_misses_full = out[O_COVERED_FULL]
    stats.covered_misses_partial = out[O_COVERED_PARTIAL]
    stats.useful_prefetches = out[O_USEFUL]
    stats.branch_hints_used = out[O_HINTS_USED]
    stats.pinsts_fetched = out[O_PINSTS_FETCHED]
    stats.pinsts_executed = out[O_PINSTS_EXECUTED]
    stats.spawns_attempted = out[O_SPAWNS_ATTEMPTED]
    stats.spawns_started = out[O_SPAWNS_STARTED]
    stats.spawns_dropped_no_context = out[O_SPAWNS_DROPPED]
    act = stats.activity
    act.cycles = now
    act.committed_main = out[O_AC_COMMITTED]
    act.dispatched_main = out[O_AC_DISP_MAIN]
    act.dispatched_pth = out[O_AC_DISP_PTH]
    act.fetch_blocks_main = out[O_AC_FETCH_MAIN]
    act.fetch_blocks_pth = out[O_AC_FETCH_PTH]
    act.bpred_accesses = out[O_AC_BPRED]
    act.dmem_accesses_main = out[O_AC_DMEM_MAIN]
    act.dmem_accesses_pth = out[O_AC_DMEM_PTH]
    act.l2_accesses_main = out[O_AC_L2_MAIN]
    act.l2_accesses_pth = out[O_AC_L2_PTH]
    act.alu_ops_main = out[O_AC_ALU_MAIN]
    act.alu_ops_pth = out[O_AC_ALU_PTH]
    breakdown = stats.breakdown
    breakdown.mem += out[O_BD_MEM]
    breakdown.l2 += out[O_BD_L2]
    breakdown.exec += out[O_BD_EXEC]
    breakdown.commit += out[O_BD_COMMIT]
    breakdown.fetch += out[O_BD_FETCH]
    stalls = stats.stalls
    stalls.retiring += out[O_SL_RETIRE]
    stalls.fetch_starved += out[O_SL_FETCH]
    stalls.branch_recovery += out[O_SL_BRANCH]
    stalls.load_miss += out[O_SL_LOAD]
    stalls.rob_full += out[O_SL_ROB]
    stalls.rs_full += out[O_SL_RS]
    stalls.pthread_contention += out[O_SL_PTH]
    stalls.exec += out[O_SL_EXEC]
    stats.missed_load_seqs.update(missed)
    misses_by_pc = stats.l2_misses_by_pc
    pc_arr = cols.pc
    for uid in misspc:
        pc = pc_arr[uid]
        misses_by_pc[pc] = misses_by_pc.get(pc, 0) + 1

    _ref.record_run(stats, time.perf_counter() - wall_start)
    return stats


def _rebuild_deadlock(
    out: List[int],
    dead_fa: List[Tuple[int, ...]],
    n_main: int,
    pc_arr,
    kind_arr,
) -> PipelineDeadlockError:
    """Byte-identical reconstruction of pipeline._deadlock_error."""
    now = out[O_CYCLES]
    committed = out[O_COMMITTED]
    rob_len = out[O_DEAD_ROB_LEN]
    rob_head = None
    if rob_len:
        head = out[O_DEAD_HEAD_SEQ]
        done_at = out[O_DEAD_HEAD_DONE]
        rob_head = {
            "seq": head,
            "pc": pc_arr[head] if head < len(pc_arr) else None,
            "kind": kind_arr[head] if head < len(kind_arr) else None,
            "done_at": None if done_at == NOT_DONE else done_at,
        }
    fetch_state = [
        {
            "static_id": fa[0],
            "trigger_seq": fa[1],
            "fetch_idx": fa[2],
            "next_fetch": fa[3],
            "in_flight": fa[4],
            "fetched_all": bool(fa[5]),
        }
        for fa in dead_fa
    ]
    return PipelineDeadlockError(
        f"pipeline deadlock at cycle {now}: "
        f"{committed}/{n_main} committed, rob={rob_len}",
        cycle=now,
        committed=committed,
        total=n_main,
        rob_size=rob_len,
        rob_head=rob_head,
        fetch_state=fetch_state,
    )
