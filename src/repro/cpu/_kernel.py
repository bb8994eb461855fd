"""The self-contained cycle kernel: flat arrays and scalars only.

This is the fast cycle engine behind :func:`repro.cpu.pipeline.simulate`
(the ``native`` backend): the reference
:class:`~repro.cpu.pipeline.Pipeline` rewritten as one event-driven loop
over nothing but integers -- flat per-instruction columns, packed cache
sets, scalar bus/TLB/MSHR state.  No ``Trace``, ``MachineConfig``,
``PThreadProgram`` or hierarchy objects appear inside the loop; the
driver (:mod:`repro.cpu.kerneldriver`) marshals them into the arrays
below and unmarshals the counter block back into ``SimStats``.

Two interchangeable implementations exist:

- ``_kernel.c``, a direct C transliteration loaded through ``ctypes``
  (:mod:`repro.cpu.nativebuild`) -- what runs whenever a C compiler (or
  a previously built artifact) is available;
- this file, pure CPython -- the fallback when no compiled artifact can
  be loaded (``REPRO_NATIVE=0``, no toolchain).

Both consume the same marshaled form (the ``C_*`` config block and the
flat columns) and produce the same ``O_*`` counter block plus ordered
event streams, and both are gated on bit-identical ``SimStats`` against
the reference by ``tests/cpu/test_golden_sim_backends.py``.  The ABI
version below is embedded in the compiled artifact and checked at load
time.

Where the loop departs from the reference's per-cycle stage closures,
and why nothing observable changes:

- main-thread instructions are identified by their sequence number
  (uid == seq), so completion times and pending counts live in flat
  per-seq arrays; p-instructions take uids from ``n_main`` up;
- ready uids are appended unsorted and sorted once per issue cycle: the
  reference pops a min-heap, yielding the same ascending prefix and the
  same remainder.  Wakeup waiter order is free, since each wakeup
  independently decrements a pending counter;
- completions landing at exactly ``now + 1`` bypass the event heap (the
  ``events_t1`` side list): anything issued at ``now`` makes the cycle
  active, so they are always drained at the next iteration, before any
  jump logic can observe the heap;
- the frontend pipe holds only dispatch-ready times: fetch appends
  sequence numbers in strictly increasing order and nothing flushes the
  pipe (a redirect only stalls fetch; the trace is the correct path),
  so the head entry's sequence number is always ``fp_head``;
- NOPs complete at dispatch and can never have waiters: dispatch is
  in-order, so any reader dispatches later and sees the completion
  already set, and the reference's next-cycle event fires into an empty
  wakeup list;
- when no stage can act and no load is MSHR-deferred, the loop jumps to
  the earliest *future* event.  The reference keeps stale candidates (a
  frontend-pipe head whose ready time has passed but which is blocked on
  ROB/RS/registers) that pin its jump to ``now + 1``; a structurally
  blocked stage can only unblock through commit or issue, and with
  ``ready`` empty both first need a completion event, so the skipped
  cycles are attributed identically.  With a deferred load the loop
  steps like the reference: a store-allocated MSHR expires at a fill
  time with no completion event, so a per-cycle retry can succeed
  between events;
- MSHR expiry installs fills in insertion order (the dict preserves it
  here; the C mirror keeps its entry array insertion-ordered);
- ``l2_misses_by_pc`` insertion order is preserved by returning demand
  miss uids as an ordered stream the driver replays.

The trace-pure inputs -- the branch-predictor outcome column, the BTB
redirect column, fetch line ids and the warmed cache image -- are
derived once per trace by the driver (see its docstring for why each is
independent of machine timing).

A ``progress`` callable, when given, is called every
``cfg[C_HEARTBEAT_CYCLES]`` simulated cycles with ``(cycles, committed,
spawns_started)``; the driver turns those calls into ``sim_heartbeat``
events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

#: Bumped whenever the marshaled layout (C_*/O_* blocks, array meanings,
#: packing) changes; the compiled artifact must report the same value.
KERNEL_ABI = 2

NOT_DONE = -1

# Entry kinds / control classes -- value-identical to repro.cpu.pipeline
# (asserted by the driver at import, so the kernel stays import-free).
K_ALU, K_MUL, K_LOAD, K_STORE, K_BRANCH, K_NOP = range(6)
CTRL_NONE, CTRL_BRANCH, CTRL_JUMP = range(3)

# ------------------------------------------------------------------ #
# cfg block indices.
# ------------------------------------------------------------------ #
(
    C_N_MAIN,
    C_WIDTH,
    C_COMMIT_WIDTH,
    C_FRONTEND_DEPTH,
    C_RS_CAPACITY,
    C_ROB_CAPACITY,
    C_PHYS_BUDGET,
    C_PIPE_CAPACITY,
    C_PTH_BLOCK_INTERVAL,
    C_INT_ALUS,
    C_LOAD_PORTS,
    C_STORE_PORTS,
    C_MUL_LATENCY,
    C_ISSUE_POOL_LIMIT,
    C_MAIN_RS_CAP,
    C_FREE_CONTEXTS,
    C_SAFETY_LIMIT,
    C_INST_BYTES,
    C_LINE_SHIFT,
    C_L2_LINE_SHIFT,
    C_HAS_SPAWNS,
    C_HAS_HINTS,
    C_USE_BTB_COL,
    C_BTB_ENTRIES,
    C_PTHREAD_FILL_L1,
    C_NO_PRODUCER,
    C_DO_WARM,
    # memory hierarchy geometry/timing
    C_IC_OFFSET_BITS,
    C_IC_INDEX_BITS,
    C_IC_INDEX_MASK,
    C_IC_ASSOC,
    C_IC_NSETS,
    C_IC_HIT_LAT,
    C_DC_OFFSET_BITS,
    C_DC_INDEX_BITS,
    C_DC_INDEX_MASK,
    C_DC_ASSOC,
    C_DC_NSETS,
    C_DC_HIT_LAT,
    C_L2_OFFSET_BITS,
    C_L2_INDEX_BITS,
    C_L2_INDEX_MASK,
    C_L2_ASSOC,
    C_L2_NSETS,
    C_L2_HIT_LAT,
    C_ITLB_ENTRIES,
    C_DTLB_ENTRIES,
    C_PAGE_SHIFT,
    C_TLB_MISS_LAT,
    C_MSHR_ENTRIES,
    C_MEMORY_LATENCY,
    C_L2BUS_CYC_DLINE,
    C_L2BUS_CYC_ILINE,
    C_MEMBUS_CYC_L2LINE,
    # p-thread program shape
    C_N_SPAWNS,
    C_N_PINSTS,
    C_DEP_LEN,
    C_LIVE_LEN,
    # progress hook interval (simulated cycles)
    C_HEARTBEAT_CYCLES,
    C_LEN,
) = range(60)

# ------------------------------------------------------------------ #
# out block indices.
# ------------------------------------------------------------------ #
(
    O_CYCLES,
    O_COMMITTED,
    O_BRANCHES,
    O_MISPREDICTIONS,
    O_BTB_MISSES,
    O_DEMAND_L2,
    O_PTHREAD_L2,
    O_COVERED_FULL,
    O_COVERED_PARTIAL,
    O_USEFUL,
    O_HINTS_USED,
    O_PINSTS_FETCHED,
    O_PINSTS_EXECUTED,
    O_SPAWNS_ATTEMPTED,
    O_SPAWNS_STARTED,
    O_SPAWNS_DROPPED,
    O_AC_COMMITTED,
    O_AC_DISP_MAIN,
    O_AC_DISP_PTH,
    O_AC_FETCH_MAIN,
    O_AC_FETCH_PTH,
    O_AC_BPRED,
    O_AC_DMEM_MAIN,
    O_AC_DMEM_PTH,
    O_AC_L2_MAIN,
    O_AC_L2_PTH,
    O_AC_ALU_MAIN,
    O_AC_ALU_PTH,
    O_BD_MEM,
    O_BD_L2,
    O_BD_EXEC,
    O_BD_COMMIT,
    O_BD_FETCH,
    O_SL_RETIRE,
    O_SL_FETCH,
    O_SL_BRANCH,
    O_SL_LOAD,
    O_SL_ROB,
    O_SL_RS,
    O_SL_PTH,
    O_SL_EXEC,
    O_STATUS,
    O_DEAD_ROB_LEN,
    O_DEAD_HEAD_SEQ,
    O_DEAD_HEAD_DONE,
    O_N_MISSED,
    O_N_MISSPC,
    O_N_FA,
    O_LEN,
) = range(49)

#: O_STATUS values.
STATUS_OK, STATUS_DEADLOCK, STATUS_SAFETY = range(3)

#: Access-result flag bits (packed as ``complete_at << 8 | flags``).
F_RETRY, F_L1_HIT, F_L2_ACC, F_MEM_ACC, F_MERGED, F_MERGED_PF, F_PF_HIT = (
    1, 2, 4, 8, 16, 32, 64,
)

#: MSHR cached-minimum sentinel (mirrors MSHRFile._NO_FILL).
NO_FILL = 1 << 62


def _unpack_sets(ways, occ, assoc: int) -> List[List[int]]:
    """Per-set way lists from the flat warm-image arrays."""
    return [
        ways[base: base + n].tolist()
        for base, n in zip(range(0, len(occ) * assoc, assoc), occ)
    ]


def run(
    cfg: List[int],
    # per-instruction columns (length n_main)
    kind_arr,
    ctrl_arr,
    writes_arr,
    pc_arr,
    addr_arr,
    src1_arr,
    src2_arr,
    taken_arr,
    next_pc_arr,
    # shared precompute columns
    line_arr,
    pred_arr,
    btb_col,          # redirect flags, or None when C_USE_BTB_COL == 0
    # warmed cache image: per cache, flat ways[set * assoc + i] packed
    # (tag << 1 | dirty), LRU first, plus occupied-way counts per set
    ic_ways,
    ic_occ,
    dc_ways,
    dc_occ,
    l2_ways,
    l2_occ,
    # flattened p-thread program, spawns sorted by trigger_seq (stable)
    sp_trigger,
    sp_static,
    sp_inst_lo,
    sp_inst_hi,
    pi_kind,
    pi_addr,
    pi_hint_seq,
    pi_hint_taken,
    pi_dep_lo,
    pi_dep_hi,
    dep_flat,
    pi_live_lo,
    pi_live_hi,
    live_flat,
    progress=None,
) -> Tuple[List[int], List[int], List[int], List[Tuple[int, ...]]]:
    """Run one timing simulation over the marshaled flat state.

    Returns ``(out, missed, misspc, fetch_state)``: the ``O_*`` counter
    block, the ordered missed-load seq stream (``missed_load_seqs``),
    the ordered demand-miss uid stream (``l2_misses_by_pc`` replay), and
    -- only on ``STATUS_DEADLOCK`` -- the live fetch-context snapshot as
    ``(static_id, trigger_seq, fetch_idx, next_fetch, in_flight,
    fetched_all)`` tuples.
    """
    n_main = cfg[C_N_MAIN]
    width = cfg[C_WIDTH]
    commit_width = cfg[C_COMMIT_WIDTH]
    frontend_depth = cfg[C_FRONTEND_DEPTH]
    rs_capacity = cfg[C_RS_CAPACITY]
    rob_capacity = cfg[C_ROB_CAPACITY]
    phys_budget = cfg[C_PHYS_BUDGET]
    pipe_capacity = cfg[C_PIPE_CAPACITY]
    pth_block_interval = cfg[C_PTH_BLOCK_INTERVAL]
    int_alus = cfg[C_INT_ALUS]
    load_ports = cfg[C_LOAD_PORTS]
    store_ports = cfg[C_STORE_PORTS]
    mul_latency = cfg[C_MUL_LATENCY]
    issue_pool_limit = cfg[C_ISSUE_POOL_LIMIT]
    main_rs_cap = cfg[C_MAIN_RS_CAP]
    free_contexts = cfg[C_FREE_CONTEXTS]
    safety_limit = cfg[C_SAFETY_LIMIT]
    inst_bytes = cfg[C_INST_BYTES]
    line_shift = cfg[C_LINE_SHIFT]
    l2_line_shift = cfg[C_L2_LINE_SHIFT]
    has_spawns = cfg[C_HAS_SPAWNS]
    has_hints = cfg[C_HAS_HINTS]
    use_btb_col = cfg[C_USE_BTB_COL]
    btb_entries = cfg[C_BTB_ENTRIES]
    pthread_fill_l1 = cfg[C_PTHREAD_FILL_L1]
    no_producer = cfg[C_NO_PRODUCER]

    # ---- memory subsystem state (flat) --------------------------- #
    ic_ob = cfg[C_IC_OFFSET_BITS]
    ic_ib = cfg[C_IC_INDEX_BITS]
    ic_im = cfg[C_IC_INDEX_MASK]
    ic_assoc = cfg[C_IC_ASSOC]
    ic_hitlat = cfg[C_IC_HIT_LAT]
    dc_ob = cfg[C_DC_OFFSET_BITS]
    dc_ib = cfg[C_DC_INDEX_BITS]
    dc_im = cfg[C_DC_INDEX_MASK]
    dc_assoc = cfg[C_DC_ASSOC]
    dc_hitlat = cfg[C_DC_HIT_LAT]
    l2_ob = cfg[C_L2_OFFSET_BITS]
    l2_ib = cfg[C_L2_INDEX_BITS]
    l2_im = cfg[C_L2_INDEX_MASK]
    l2_assoc = cfg[C_L2_ASSOC]
    l2_hitlat = cfg[C_L2_HIT_LAT]
    itlb_entries = cfg[C_ITLB_ENTRIES]
    dtlb_entries = cfg[C_DTLB_ENTRIES]
    page_shift = cfg[C_PAGE_SHIFT]
    tlb_miss_lat = cfg[C_TLB_MISS_LAT]
    mshr_entries = cfg[C_MSHR_ENTRIES]
    memory_latency = cfg[C_MEMORY_LATENCY]
    l2bus_cyc_dline = cfg[C_L2BUS_CYC_DLINE]
    l2bus_cyc_iline = cfg[C_L2BUS_CYC_ILINE]
    membus_cyc_l2line = cfg[C_MEMBUS_CYC_L2LINE]

    if cfg[C_DO_WARM]:
        ic_sets = _unpack_sets(ic_ways, ic_occ, ic_assoc)
        dc_sets = _unpack_sets(dc_ways, dc_occ, dc_assoc)
        l2_sets = _unpack_sets(l2_ways, l2_occ, l2_assoc)
    else:
        ic_sets = [[] for _ in range(cfg[C_IC_NSETS])]
        dc_sets = [[] for _ in range(cfg[C_DC_NSETS])]
        l2_sets = [[] for _ in range(cfg[C_L2_NSETS])]
    itlb_pages: List[int] = []     # LRU first
    dtlb_pages: List[int] = []
    mshr = {}                      # line -> fill_time << 3 | pth<<2|l1<<1|dirty
    mshr_next_fill = NO_FILL
    l2bus_free = 0
    membus_free = 0
    prefetched: set = set()

    def cache_access(sets, ob, ib, im, addr, wbit):
        line = addr >> ob
        tag2 = (line >> ib) << 1
        ways = sets[line & im]
        for i in range(len(ways)):
            e = ways[i]
            if e & -2 == tag2:
                del ways[i]
                ways.append(e | wbit)
                return True
        return False

    def cache_fill(sets, ob, ib, im, assoc, addr, wbit):
        line = addr >> ob
        index = line & im
        tag2 = (line >> ib) << 1
        ways = sets[index]
        for i in range(len(ways)):
            e = ways[i]
            if e & -2 == tag2:  # already present (e.g. racing fills)
                del ways[i]
                ways.append(e | wbit)
                return -1
        victim_line = -1
        if len(ways) >= assoc:
            v = ways.pop(0)
            if v & 1:
                victim_line = ((v >> 1) << ib | index) << ob
        ways.append(tag2 | wbit)
        return victim_line

    def tlb_access(pages, entries, addr):
        page = addr >> page_shift
        if page in pages:
            pages.remove(page)
            pages.append(page)
            return 0
        if len(pages) >= entries:
            del pages[0]
        pages.append(page)
        return tlb_miss_lat

    def mshr_sync(t):
        # Retires expired entries in insertion order (dict order), each
        # installing its line -- the MemoryHierarchy._install hook inlined.
        nonlocal mshr_next_fill, membus_free
        if t < mshr_next_fill:
            return
        done = [line for line, e in mshr.items() if e >> 3 <= t]
        for line in done:
            e = mshr.pop(line)
            fill_time = e >> 3
            victim = cache_fill(l2_sets, l2_ob, l2_ib, l2_im, l2_assoc,
                                line, 0)
            if victim != -1:
                start = fill_time if fill_time > membus_free else membus_free
                membus_free = start + membus_cyc_l2line
            if e & 2:
                cache_fill(dc_sets, dc_ob, dc_ib, dc_im, dc_assoc,
                           line, e & 1)
            if e & 4:
                prefetched.add(line)
            else:
                prefetched.discard(line)
        mshr_next_fill = min(
            (e >> 3 for e in mshr.values()), default=NO_FILL
        )

    def data_access(addr, now, is_write, is_pth):
        # MemoryHierarchy.data_access inlined; returns complete_at<<8|flags.
        nonlocal mshr_next_fill, l2bus_free, membus_free
        t = now + tlb_access(dtlb_pages, dtlb_entries, addr)
        fill_l1 = (not is_pth) or pthread_fill_l1
        mshr_sync(t)
        wbit = 1 if is_write else 0
        if cache_access(dc_sets, dc_ob, dc_ib, dc_im, addr, wbit):
            return (t + dc_hitlat) << 8 | F_L1_HIT
        t += dc_hitlat
        line = (addr >> l2_ob) << l2_ob
        mshr_sync(t)
        e = mshr.get(line)
        if e is not None:
            flags = F_MERGED
            if not is_pth and e & 4:
                flags |= F_MERGED_PF
            mshr[line] = e | (2 if fill_l1 else 0) | wbit
            floor = t + l2_hitlat
            outstanding = e >> 3
            complete = outstanding if outstanding > floor else floor
            return complete << 8 | flags
        if cache_access(l2_sets, l2_ob, l2_ib, l2_im, addr, 0):
            req = t + l2_hitlat
            start = req if req > l2bus_free else l2bus_free
            done = start + l2bus_cyc_dline
            l2bus_free = done
            if fill_l1:
                cache_fill(dc_sets, dc_ob, dc_ib, dc_im, dc_assoc,
                           addr, wbit)
            flags = F_L2_ACC
            if not is_pth and line in prefetched:
                prefetched.discard(line)
                flags |= F_PF_HIT
            return done << 8 | flags
        if not (line in mshr or len(mshr) < mshr_entries):
            return t << 8 | F_RETRY
        mem_done = t + l2_hitlat + memory_latency
        start = mem_done if mem_done > membus_free else membus_free
        fill_time = start + membus_cyc_l2line
        membus_free = fill_time
        mshr[line] = (
            fill_time << 3
            | (4 if is_pth else 0)
            | (2 if fill_l1 else 0)
            | wbit
        )
        if fill_time < mshr_next_fill:
            mshr_next_fill = fill_time
        return fill_time << 8 | F_L2_ACC | F_MEM_ACC

    def inst_fetch(addr, now):
        # MemoryHierarchy.inst_fetch inlined (no MSHRs on the I-side).
        nonlocal l2bus_free, membus_free
        t = now + tlb_access(itlb_pages, itlb_entries, addr)
        if cache_access(ic_sets, ic_ob, ic_ib, ic_im, addr, 0):
            return (t + ic_hitlat) << 8 | F_L1_HIT
        t += ic_hitlat
        if cache_access(l2_sets, l2_ob, l2_ib, l2_im, addr, 0):
            req = t + l2_hitlat
            start = req if req > l2bus_free else l2bus_free
            done = start + l2bus_cyc_iline
            l2bus_free = done
            cache_fill(ic_sets, ic_ob, ic_ib, ic_im, ic_assoc, addr, 0)
            return done << 8 | F_L2_ACC
        mem_done = t + l2_hitlat + memory_latency
        start = mem_done if mem_done > membus_free else membus_free
        fill_time = start + membus_cyc_l2line
        membus_free = fill_time
        cache_fill(l2_sets, l2_ob, l2_ib, l2_im, l2_assoc, addr, 0)
        cache_fill(ic_sets, ic_ob, ic_ib, ic_im, ic_assoc, addr, 0)
        return fill_time << 8 | F_L2_ACC | F_MEM_ACC

    # Live BTB (branch-hint mode only): LRU-ordered pc -> target.
    live_btb: dict = {}

    # ---- scheduler state ----------------------------------------- #
    completion: List[int] = [NOT_DONE] * n_main
    pending_main: List[int] = [0] * n_main
    p_completion: List[int] = []
    p_pending: List[int] = []
    p_kind: List[int] = []
    p_addr: List[int] = []
    p_ctx: List[int] = []
    p_spec: List[int] = []

    wakeup: dict = {}
    ready: List[int] = []
    ready_append = ready.append
    deferred: List[int] = []
    completion_events: List[Tuple[int, int]] = []
    events_t1: List[int] = []

    rob: List[int] = []            # ring semantics via head index
    rob_head_i = 0
    frontend_pipe: List[int] = []
    fp_head_i = 0
    fp_head = 0
    pth_pipe: List[Tuple[int, int, int]] = []
    pp_head_i = 0
    rob_len = 0
    fp_len = 0
    pp_len = 0
    rs_used_main = 0
    rs_used_pth = 0
    phys_used = 0

    next_seq = 0
    fetch_line = -1
    line_ready_at = 0
    fetch_hold_until = 0
    pending_redirect = -1          # sentinel for None
    redirect_clear_at = NOT_DONE   # sentinel for None

    load_kind = bytearray(n_main)  # 0 none / 1 "mem" / 2 "l2"
    partial_counted: set = set()
    if has_hints:
        hint_time = [NOT_DONE] * n_main
        hint_dir = bytearray(n_main)
    else:
        hint_time = []
        hint_dir = bytearray()

    # Per-context state, indexed by creation order (mirrors _Context).
    ctx_spawn: List[int] = []
    ctx_uid_base: List[int] = []
    ctx_fetch_idx: List[int] = []
    ctx_next_fetch: List[int] = []
    ctx_in_flight: List[int] = []
    ctx_fetched_all: List[int] = []
    fetch_active: List[int] = []
    sp_next = 0
    n_spawns = cfg[C_N_SPAWNS]

    next_uid = n_main
    now = 0
    committed = 0

    st_branches = st_mispredictions = st_btb_misses = 0
    st_demand_l2 = st_pthread_l2 = 0
    st_covered_full = st_covered_partial = st_useful = 0
    st_hints_used = 0
    st_pinsts_fetched = st_pinsts_executed = 0
    st_spawns_attempted = st_spawns_started = st_spawns_dropped = 0
    ac_committed = ac_dispatched_main = ac_dispatched_pth = 0
    ac_fetch_main = ac_fetch_pth = ac_bpred = 0
    ac_dmem_main = ac_dmem_pth = ac_l2_main = ac_l2_pth = 0
    ac_alu_main = ac_alu_pth = 0

    bd_mem = bd_l2 = bd_exec = bd_commit = bd_fetch = 0
    sl_retire = sl_fetch = sl_branch = sl_load = 0
    sl_rob = sl_rs = sl_pth = sl_exec = 0

    missed: List[int] = []
    missed_append = missed.append
    misspc: List[int] = []
    misspc_append = misspc.append

    status = STATUS_OK
    dead_fa: List[Tuple[int, ...]] = []

    def attribute_cycles(n, retired=0):
        # Identical charging rules to the reference (see Pipeline.run).
        nonlocal bd_mem, bd_l2, bd_exec, bd_commit, bd_fetch
        nonlocal sl_retire, sl_fetch, sl_branch, sl_load
        nonlocal sl_rob, sl_rs, sl_pth, sl_exec
        r = retired if retired < width else width
        sl_retire += r
        slots = width * n - r
        if not rob_len:
            bd_fetch += n
            if pending_redirect != -1:
                sl_branch += slots
            else:
                sl_fetch += slots
            return
        head = rob[rob_head_i]
        t = completion[head]
        if t != NOT_DONE and t <= now:
            bd_commit += n
            sl_exec += slots
            return
        if kind_arr[head] == K_LOAD:
            lk = load_kind[head]
            if lk == 1:
                bd_mem += n
                sl_load += slots
                return
            if lk == 2:
                bd_l2 += n
                sl_load += slots
                return
        bd_exec += n
        if rob_len >= rob_capacity:
            sl_rob += slots
        elif rs_used_pth and rs_used_main + rs_used_pth >= rs_capacity:
            sl_pth += slots
        elif rs_used_main >= main_rs_cap:
            sl_rs += slots
        else:
            sl_exec += slots

    hb_cycles = cfg[C_HEARTBEAT_CYCLES]
    hb_next = hb_cycles if progress is not None else NO_FILL

    while committed < n_main:
        if now >= hb_next:
            progress(now, committed, st_spawns_started)
            hb_next = now + hb_cycles

        # ---- wakeup ---------------------------------------------- #
        if events_t1:
            for uid in events_t1:
                waiters = wakeup.pop(uid, None)
                if waiters:
                    for w in waiters:
                        if w < n_main:
                            p = pending_main[w] - 1
                            pending_main[w] = p
                        else:
                            wi = w - n_main
                            p = p_pending[wi] - 1
                            p_pending[wi] = p
                        if p == 0:
                            ready_append(w)
            events_t1 = []
        if completion_events and completion_events[0][0] <= now:
            while completion_events and completion_events[0][0] <= now:
                _, uid = heappop(completion_events)
                waiters = wakeup.pop(uid, None)
                if waiters:
                    for w in waiters:
                        if w < n_main:
                            p = pending_main[w] - 1
                            pending_main[w] = p
                        else:
                            wi = w - n_main
                            p = p_pending[wi] - 1
                            p_pending[wi] = p
                        if p == 0:
                            ready_append(w)

        # ---- commit ---------------------------------------------- #
        ncommitted = 0
        while ncommitted < commit_width and rob_len:
            head = rob[rob_head_i]
            t = completion[head]
            if t == NOT_DONE or t > now:
                break
            rob_head_i += 1
            rob_len -= 1
            if writes_arr[head]:
                phys_used -= 1
            committed += 1
            ncommitted += 1
        if ncommitted:
            ac_committed += ncommitted
            if rob_head_i > 4096 and not rob_len:
                del rob[:rob_head_i]
                rob_head_i = 0
        active = ncommitted > 0

        # ---- issue ----------------------------------------------- #
        if ready or deferred:
            now1 = now + 1
            alu_slots = int_alus
            load_slots = load_ports
            store_slots = store_ports
            issued = 0
            retry: List[int] = []
            pool: List[int] = deferred[:]
            deferred.clear()
            if ready:
                ready.sort()
                k = issue_pool_limit - len(pool)
                if k > 0:
                    pool += ready[:k]
                    del ready[:k]
            for uid in pool:
                if uid < n_main:
                    kind = kind_arr[uid]
                    if kind == K_LOAD:
                        if load_slots <= 0 or issued >= width:
                            retry.append(uid)
                            continue
                        r = data_access(addr_arr[uid], now, False, False)
                        flags = r & 0xFF
                        if flags & F_RETRY:
                            retry.append(uid)
                            continue
                        ac_dmem_main += 1
                        if flags & (F_L2_ACC | F_MEM_ACC):
                            ac_l2_main += 1
                        if flags & F_MEM_ACC:
                            st_demand_l2 += 1
                            missed_append(uid)
                            misspc_append(uid)
                            load_kind[uid] = 1
                        elif flags & F_MERGED:
                            load_kind[uid] = 1
                            if flags & F_MERGED_PF:
                                line = addr_arr[uid] >> l2_line_shift
                                if line not in partial_counted:
                                    partial_counted.add(line)
                                    st_covered_partial += 1
                                    st_useful += 1
                                missed_append(uid)
                        elif flags & F_L2_ACC:
                            load_kind[uid] = 2
                        if flags & F_PF_HIT:
                            st_covered_full += 1
                            st_useful += 1
                        t = r >> 8
                        completion[uid] = t
                        if t == now1:
                            events_t1.append(uid)
                        else:
                            heappush(completion_events, (t, uid))
                        load_slots -= 1
                    elif kind == K_STORE:
                        if store_slots <= 0 or issued >= width:
                            retry.append(uid)
                            continue
                        r = data_access(addr_arr[uid], now, True, False)
                        flags = r & 0xFF
                        if flags & F_RETRY:
                            retry.append(uid)
                            continue
                        ac_dmem_main += 1
                        if flags & (F_L2_ACC | F_MEM_ACC):
                            ac_l2_main += 1
                        completion[uid] = now1
                        events_t1.append(uid)
                        store_slots -= 1
                    else:
                        if alu_slots <= 0 or issued >= width:
                            retry.append(uid)
                            continue
                        if kind == K_MUL:
                            t = now + mul_latency
                            completion[uid] = t
                            if t == now1:
                                events_t1.append(uid)
                            else:
                                heappush(completion_events, (t, uid))
                        else:
                            if kind == K_BRANCH and uid == pending_redirect:
                                redirect_clear_at = now1
                            completion[uid] = now1
                            events_t1.append(uid)
                        ac_alu_main += 1
                        alu_slots -= 1
                    rs_used_main -= 1
                else:
                    pu = uid - n_main
                    kind = p_kind[pu]
                    if kind == K_LOAD:
                        if load_slots <= 0 or issued >= width:
                            retry.append(uid)
                            continue
                        r = data_access(p_addr[pu], now, False, True)
                        flags = r & 0xFF
                        if flags & F_RETRY:
                            retry.append(uid)
                            continue
                        ac_dmem_pth += 1
                        if flags & (F_L2_ACC | F_MEM_ACC):
                            ac_l2_pth += 1
                        if flags & F_MEM_ACC:
                            st_pthread_l2 += 1
                        t = r >> 8
                        p_completion[pu] = t
                        if t == now1:
                            events_t1.append(uid)
                        else:
                            heappush(completion_events, (t, uid))
                        load_slots -= 1
                    else:
                        if alu_slots <= 0 or issued >= width:
                            retry.append(uid)
                            continue
                        t = now + mul_latency if kind == K_MUL else now1
                        p_completion[pu] = t
                        if t == now1:
                            events_t1.append(uid)
                        else:
                            heappush(completion_events, (t, uid))
                        ac_alu_pth += 1
                        alu_slots -= 1
                    st_pinsts_executed += 1
                    j = p_spec[pu]
                    hs = pi_hint_seq[j]
                    if hs >= 0:
                        hint_time[hs] = t
                        hint_dir[hs] = pi_hint_taken[j]
                    ci = p_ctx[pu]
                    ctx_in_flight[ci] -= 1
                    if ctx_fetched_all[ci] and ctx_in_flight[ci] == 0:
                        s = ctx_spawn[ci]
                        phys_used -= sp_inst_hi[s] - sp_inst_lo[s]
                        free_contexts += 1
                    rs_used_pth -= 1
                issued += 1
            deferred.extend(retry)
            if issued:
                active = True

        # ---- dispatch -------------------------------------------- #
        n = 0
        while n < width and fp_len:
            if frontend_pipe[fp_head_i] > now:
                break
            seq = fp_head
            kind = kind_arr[seq]
            if rob_len >= rob_capacity:
                break
            needs_rs = kind != K_NOP
            if needs_rs and rs_used_main >= main_rs_cap:
                break
            writes = writes_arr[seq]
            if writes and phys_used >= phys_budget:
                break
            fp_head_i += 1
            fp_len -= 1
            if not fp_len:
                del frontend_pipe[:]
                fp_head_i = 0
            fp_head += 1
            rob.append(seq)
            rob_len += 1
            ac_dispatched_main += 1
            if writes:
                phys_used += 1
            if needs_rs:
                rs_used_main += 1
                pending = 0
                producer = src1_arr[seq]
                if producer != no_producer:
                    t = completion[producer]
                    if t == NOT_DONE or t > now:
                        w = wakeup.get(producer)
                        if w is None:
                            wakeup[producer] = [seq]
                        else:
                            w.append(seq)
                        pending += 1
                producer = src2_arr[seq]
                if producer != no_producer:
                    t = completion[producer]
                    if t == NOT_DONE or t > now:
                        w = wakeup.get(producer)
                        if w is None:
                            wakeup[producer] = [seq]
                        else:
                            w.append(seq)
                        pending += 1
                if pending:
                    pending_main[seq] = pending
                else:
                    ready_append(seq)
            else:
                # NOPs complete instantly and can never have waiters
                # (dispatch is in-order; see the module docstring).
                completion[seq] = now
            if has_spawns:
                while sp_next < n_spawns and sp_trigger[sp_next] <= seq:
                    if sp_trigger[sp_next] < seq:
                        sp_next += 1
                        continue
                    s = sp_next
                    sp_next += 1
                    st_spawns_attempted += 1
                    if free_contexts <= 0:
                        st_spawns_dropped += 1
                        continue
                    k = sp_inst_hi[s] - sp_inst_lo[s]
                    if phys_used + k > phys_budget:
                        st_spawns_dropped += 1
                        continue
                    free_contexts -= 1
                    phys_used += k
                    ci = len(ctx_spawn)
                    ctx_spawn.append(s)
                    ctx_uid_base.append(next_uid)
                    ctx_fetch_idx.append(0)
                    ctx_next_fetch.append(now + 1)
                    ctx_in_flight.append(0)
                    ctx_fetched_all.append(0)
                    fetch_active.append(ci)
                    next_uid += k
                    for j in range(sp_inst_lo[s], sp_inst_hi[s]):
                        p_kind.append(pi_kind[j])
                        p_addr.append(pi_addr[j])
                        p_ctx.append(ci)
                        p_spec.append(j)
                    p_completion.extend([NOT_DONE] * k)
                    p_pending.extend([0] * k)
                    st_spawns_started += 1
            n += 1
        while n < width and pp_len:
            ready_at, ci, idx = pth_pipe[pp_head_i]
            if ready_at > now:
                break
            if rs_used_main + rs_used_pth >= rs_capacity:
                break
            pp_head_i += 1
            pp_len -= 1
            if not pp_len:
                del pth_pipe[:]
                pp_head_i = 0
            rs_used_pth += 1
            ac_dispatched_pth += 1
            s = ctx_spawn[ci]
            j = sp_inst_lo[s] + idx
            uid_base = ctx_uid_base[ci]
            uid = uid_base + idx
            pending = 0
            base_off = uid_base - n_main
            for di in range(pi_dep_lo[j], pi_dep_hi[j]):
                d = dep_flat[di]
                t = p_completion[base_off + d]
                if t == NOT_DONE or t > now:
                    producer = uid_base + d
                    w = wakeup.get(producer)
                    if w is None:
                        wakeup[producer] = [uid]
                    else:
                        w.append(uid)
                    pending += 1
            for li in range(pi_live_lo[j], pi_live_hi[j]):
                producer = live_flat[li]
                if producer < n_main:
                    t = completion[producer]
                else:
                    t = p_completion[producer - n_main]
                if t == NOT_DONE or t > now:
                    w = wakeup.get(producer)
                    if w is None:
                        wakeup[producer] = [uid]
                    else:
                        w.append(uid)
                    pending += 1
            if pending:
                p_pending[uid - n_main] = pending
            else:
                ready_append(uid)
            n += 1
        if n:
            active = True

        # ---- fetch ----------------------------------------------- #
        fetched_any = False
        if fetch_active and pp_len < pipe_capacity:
            for pos in range(len(fetch_active)):
                ci = fetch_active[pos]
                if ctx_next_fetch[ci] > now:
                    continue
                s = ctx_spawn[ci]
                body_len = sp_inst_hi[s] - sp_inst_lo[s]
                block_start = ctx_fetch_idx[ci]
                block_end = block_start + width
                if block_end > body_len:
                    block_end = body_len
                for idx in range(block_start, block_end):
                    pth_pipe.append((now + frontend_depth, ci, idx))
                    pp_len += 1
                    ctx_in_flight[ci] += 1
                    st_pinsts_fetched += 1
                ctx_fetch_idx[ci] = block_end
                ctx_next_fetch[ci] = now + pth_block_interval
                if block_end >= body_len:
                    ctx_fetched_all[ci] = 1
                    del fetch_active[pos]
                ac_fetch_pth += 1
                fetched_any = True
                break
        if not fetched_any and fp_len < pipe_capacity:
            fetch_ok = True
            if pending_redirect != -1:
                if redirect_clear_at == NOT_DONE or now <= redirect_clear_at:
                    fetch_ok = False
                else:
                    pending_redirect = -1
                    redirect_clear_at = NOT_DONE
                    fetch_line = -1  # refetch the target line
            if fetch_ok and now >= fetch_hold_until and next_seq < n_main:
                line = line_arr[next_seq]
                line_miss = False
                if line != fetch_line:
                    r = inst_fetch(pc_arr[next_seq] * inst_bytes, now)
                    fetch_line = line
                    if not r & F_L1_HIT:
                        line_ready_at = r >> 8
                        # The fetch slot is consumed by the miss.
                        line_miss = True
                        fetched_any = True
                    else:
                        line_ready_at = now
                if not line_miss and now >= line_ready_at:
                    ac_fetch_main += 1
                    fetched = 0
                    dispatch_at = now + frontend_depth
                    while (
                        fetched < width
                        and next_seq < n_main
                        and fp_len < pipe_capacity
                    ):
                        idx = next_seq
                        if line_arr[idx] != fetch_line:
                            break
                        frontend_pipe.append(dispatch_at)
                        fp_len += 1
                        next_seq += 1
                        fetched += 1
                        ctrl = ctrl_arr[idx]
                        if ctrl == CTRL_BRANCH:
                            taken = taken_arr[idx]
                            st_branches += 1
                            ac_bpred += 1
                            predicted = pred_arr[idx]
                            if has_hints:
                                ht = hint_time[idx]
                                if ht != NOT_DONE and ht <= now:
                                    st_hints_used += 1
                                    predicted = hint_dir[idx]
                            if predicted != taken:
                                st_mispredictions += 1
                                pending_redirect = idx
                                redirect_clear_at = NOT_DONE
                                break
                            if taken:
                                branch_next_pc = next_pc_arr[idx]
                                if use_btb_col:
                                    if btb_col[idx]:
                                        st_btb_misses += 1
                                        fetch_hold_until = now + 2
                                else:
                                    # Live BTB: LRU dict, mirrors
                                    # repro.branch.btb.BTB op for op.
                                    pc = pc_arr[idx]
                                    target = live_btb.get(pc, -1)
                                    if target != -1:
                                        del live_btb[pc]
                                        live_btb[pc] = target
                                    if target != branch_next_pc:
                                        st_btb_misses += 1
                                        if pc in live_btb:
                                            del live_btb[pc]
                                        elif len(live_btb) >= btb_entries:
                                            del live_btb[
                                                next(iter(live_btb))
                                            ]
                                        live_btb[pc] = branch_next_pc
                                        fetch_hold_until = now + 2
                                fetch_line = (
                                    branch_next_pc * inst_bytes
                                ) >> line_shift
                                r = inst_fetch(
                                    branch_next_pc * inst_bytes, now
                                )
                                if not r & F_L1_HIT:
                                    line_ready_at = r >> 8
                                break
                        elif ctrl == CTRL_JUMP:
                            jump_next_pc = next_pc_arr[idx]
                            fetch_line = (
                                jump_next_pc * inst_bytes
                            ) >> line_shift
                            r = inst_fetch(jump_next_pc * inst_bytes, now)
                            if not r & F_L1_HIT:
                                line_ready_at = r >> 8
                            break
                    if fetched:
                        fetched_any = True
        if fetched_any:
            active = True

        if now > safety_limit:
            status = STATUS_SAFETY
            break

        if committed >= n_main:
            attribute_cycles(1, ncommitted)
            now += 1
            break

        if active or ready:
            # attribute_cycles(1, ncommitted), inlined (hottest path).
            r = ncommitted if ncommitted < width else width
            sl_retire += r
            slots = width - r
            if not rob_len:
                bd_fetch += 1
                if pending_redirect != -1:
                    sl_branch += slots
                else:
                    sl_fetch += slots
            else:
                head = rob[rob_head_i]
                t = completion[head]
                if t != NOT_DONE and t <= now:
                    bd_commit += 1
                    sl_exec += slots
                elif kind_arr[head] == K_LOAD and (
                    (lk := load_kind[head]) == 1 or lk == 2
                ):
                    if lk == 1:
                        bd_mem += 1
                    else:
                        bd_l2 += 1
                    sl_load += slots
                elif rob_len >= rob_capacity:
                    bd_exec += 1
                    sl_rob += slots
                elif rs_used_pth and rs_used_main + rs_used_pth >= rs_capacity:
                    bd_exec += 1
                    sl_pth += slots
                elif rs_used_main >= main_rs_cap:
                    bd_exec += 1
                    sl_rs += slots
                else:
                    bd_exec += 1
                    sl_exec += slots
            now += 1
            continue

        # Nothing can happen until the next event: jump (see the
        # module docstring for the stale-candidate derivation).
        if not deferred:
            candidates: List[int] = []
            if completion_events:
                candidates.append(completion_events[0][0])
            if fp_len and frontend_pipe[fp_head_i] > now:
                candidates.append(frontend_pipe[fp_head_i])
            if pp_len and pth_pipe[pp_head_i][0] > now:
                candidates.append(pth_pipe[pp_head_i][0])
            if (
                pending_redirect != -1
                and redirect_clear_at != NOT_DONE
                and redirect_clear_at + 1 > now
            ):
                candidates.append(redirect_clear_at + 1)
            if line_ready_at > now:
                candidates.append(line_ready_at)
            if fetch_hold_until > now:
                candidates.append(fetch_hold_until)
            for ci in fetch_active:
                if ctx_next_fetch[ci] > now:
                    candidates.append(ctx_next_fetch[ci])
            if candidates:
                target = min(candidates)
                attribute_cycles(target - now)
                now = target
                continue
            # Only stale candidates (if any) remain: fall through to the
            # reference's single-cycle step / deadlock decision.
        candidates = []
        if completion_events:
            candidates.append(completion_events[0][0])
        if fp_len:
            candidates.append(frontend_pipe[fp_head_i])
        if pp_len:
            candidates.append(pth_pipe[pp_head_i][0])
        if pending_redirect != -1 and redirect_clear_at != NOT_DONE:
            candidates.append(redirect_clear_at + 1)
        if line_ready_at > now:
            candidates.append(line_ready_at)
        if fetch_hold_until > now:
            candidates.append(fetch_hold_until)
        for ci in fetch_active:
            candidates.append(ctx_next_fetch[ci])
        if not candidates:
            status = STATUS_DEADLOCK
            dead_fa = [
                (
                    sp_static[ctx_spawn[ci]],
                    sp_trigger[ctx_spawn[ci]],
                    ctx_fetch_idx[ci],
                    ctx_next_fetch[ci],
                    ctx_in_flight[ci],
                    ctx_fetched_all[ci],
                )
                for ci in fetch_active
            ]
            break
        target = max(now + 1, min(candidates))
        attribute_cycles(target - now)
        now = target

    out = [0] * O_LEN
    out[O_CYCLES] = now
    out[O_COMMITTED] = committed
    out[O_BRANCHES] = st_branches
    out[O_MISPREDICTIONS] = st_mispredictions
    out[O_BTB_MISSES] = st_btb_misses
    out[O_DEMAND_L2] = st_demand_l2
    out[O_PTHREAD_L2] = st_pthread_l2
    out[O_COVERED_FULL] = st_covered_full
    out[O_COVERED_PARTIAL] = st_covered_partial
    out[O_USEFUL] = st_useful
    out[O_HINTS_USED] = st_hints_used
    out[O_PINSTS_FETCHED] = st_pinsts_fetched
    out[O_PINSTS_EXECUTED] = st_pinsts_executed
    out[O_SPAWNS_ATTEMPTED] = st_spawns_attempted
    out[O_SPAWNS_STARTED] = st_spawns_started
    out[O_SPAWNS_DROPPED] = st_spawns_dropped
    out[O_AC_COMMITTED] = ac_committed
    out[O_AC_DISP_MAIN] = ac_dispatched_main
    out[O_AC_DISP_PTH] = ac_dispatched_pth
    out[O_AC_FETCH_MAIN] = ac_fetch_main
    out[O_AC_FETCH_PTH] = ac_fetch_pth
    out[O_AC_BPRED] = ac_bpred
    out[O_AC_DMEM_MAIN] = ac_dmem_main
    out[O_AC_DMEM_PTH] = ac_dmem_pth
    out[O_AC_L2_MAIN] = ac_l2_main
    out[O_AC_L2_PTH] = ac_l2_pth
    out[O_AC_ALU_MAIN] = ac_alu_main
    out[O_AC_ALU_PTH] = ac_alu_pth
    out[O_BD_MEM] = bd_mem
    out[O_BD_L2] = bd_l2
    out[O_BD_EXEC] = bd_exec
    out[O_BD_COMMIT] = bd_commit
    out[O_BD_FETCH] = bd_fetch
    out[O_SL_RETIRE] = sl_retire
    out[O_SL_FETCH] = sl_fetch
    out[O_SL_BRANCH] = sl_branch
    out[O_SL_LOAD] = sl_load
    out[O_SL_ROB] = sl_rob
    out[O_SL_RS] = sl_rs
    out[O_SL_PTH] = sl_pth
    out[O_SL_EXEC] = sl_exec
    out[O_STATUS] = status
    out[O_DEAD_ROB_LEN] = rob_len
    out[O_DEAD_HEAD_SEQ] = rob[rob_head_i] if rob_len else -1
    out[O_DEAD_HEAD_DONE] = (
        completion[rob[rob_head_i]] if rob_len else NOT_DONE
    )
    out[O_N_MISSED] = len(missed)
    out[O_N_MISSPC] = len(misspc)
    out[O_N_FA] = len(dead_fa)
    return out, missed, misspc, dead_fa
