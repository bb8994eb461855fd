"""Functional (timing-free) classification of a trace's loads and branches.

PTHSEL operates on program profiles, not timing simulations.  This module
replays a trace through the cache geometry and branch predictor
functionally -- in program order, no cycle accounting -- to classify every
dynamic load by the level that services it and every branch by whether
the predictor gets it right.  The result is the profile the slicer and
the selection models consume (DCptcm mining, per-load miss latencies,
wrong-path spawn rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.branch.predictors import HybridPredictor
from repro.config import MachineConfig
from repro.frontend.trace import Trace
from repro.isa.opcodes import BRANCH_CODES, LD_CODE, ST_CODE
from repro.memory.cache import Cache

#: Load service levels.
L1, L2, MEM = "l1", "l2", "mem"


@dataclass
class LoadClassification:
    """Profile of a trace's memory and control behavior.

    ``service`` reflects *latency*, not just residency: a load whose line
    was brought in by a miss initiated only a few instructions earlier
    (i.e. one that would merge with the outstanding MSHR entry and wait
    nearly the whole miss) is classified "mem" even though the line is
    nominally present.  ``miss_counts`` counts only miss *initiators*,
    which is what problem-load identification needs.
    """

    #: Dynamic load seq -> service level ("l1" | "l2" | "mem").
    service: Dict[int, str] = field(default_factory=dict)
    #: Static load pc -> number of dynamic L2 misses (initiators only).
    miss_counts: Dict[int, int] = field(default_factory=dict)
    #: Static load pc -> number of dynamic instances.
    load_counts: Dict[int, int] = field(default_factory=dict)
    #: Static load pc -> number of dynamic L1 misses (hits L2 or memory).
    l1_miss_counts: Dict[int, int] = field(default_factory=dict)
    #: Static load pc -> [n_l1, n_l2, n_mem] service-level counts.
    service_counts: Dict[int, List[int]] = field(default_factory=dict)
    #: Dynamic branch seq numbers the hybrid predictor got wrong.
    mispredicted: Set[int] = field(default_factory=set)
    #: Static branch pc -> (total, mispredicted) counts.
    branch_counts: Dict[int, List[int]] = field(default_factory=dict)
    total_l2_misses: int = 0

    def miss_seqs_of(self, pc: int, trace: Trace) -> List[int]:
        """Sequence numbers of the L2-missing instances of static pc."""
        return [
            seq
            for seq in trace.occurrences(pc)
            if self.service.get(seq) == MEM
        ]

    def miss_rate_l1(self, pc: int) -> float:
        """L1 miss rate of a static load (used by equation E7)."""
        total = self.load_counts.get(pc, 0)
        if not total:
            return 0.0
        return self.l1_miss_counts.get(pc, 0) / total

    def mispredict_rate(self, pc: int) -> float:
        entry = self.branch_counts.get(pc)
        if not entry or not entry[0]:
            return 0.0
        return entry[1] / entry[0]

    def expected_service_latency(self, pc: int, latencies: Dict[str, float],
                                 default: float) -> float:
        """Mean wait of a static load given per-level latencies."""
        counts = self.service_counts.get(pc)
        if not counts:
            return default
        total = sum(counts)
        return (
            counts[0] * latencies[L1]
            + counts[1] * latencies[L2]
            + counts[2] * latencies[MEM]
        ) / total


def classify_trace(
    trace: Trace, config: MachineConfig | None = None, warm: bool = True
) -> LoadClassification:
    """Classify every load and branch of ``trace`` functionally.

    ``warm`` pre-touches every data access once (mirroring the timing
    simulator's warm-up) so the profile reflects steady-state capacity
    misses rather than cold misses.
    """
    config = config or MachineConfig()
    dcache = Cache("l1d", config.dcache)
    l2 = Cache("l2", config.l2)
    predictor = HybridPredictor(config.bpred_entries)
    result = LoadClassification()

    L = trace.as_lists()
    if warm:
        dc_access = dcache.access
        l2_access = l2.access
        l2_fill = l2.fill
        dc_fill = dcache.fill
        for addr in L.addr:
            if addr >= 0:
                if not dc_access(addr):
                    if not l2_access(addr):
                        l2_fill(addr)
                    dc_fill(addr)

    service = result.service
    miss_counts = result.miss_counts
    load_counts = result.load_counts
    l1_miss_counts = result.l1_miss_counts
    service_counts = result.service_counts
    line_shift = config.l2.line_bytes.bit_length() - 1
    #: Line -> seq of the miss that brought it; a subsequent access within
    #: one ROB's worth of instructions would merge with the outstanding
    #: fill and wait nearly the full miss latency.
    recent_miss: Dict[int, int] = {}
    merge_window = config.rob_entries
    _LEVEL_INDEX = {L1: 0, L2: 1, MEM: 2}

    dc_access = dcache.access
    l2_access = l2.access
    l2_fill = l2.fill
    dc_fill = dcache.fill
    predict_and_update = predictor.predict_and_update
    branch_counts = result.branch_counts
    mispredicted = result.mispredicted
    recent_miss_get = recent_miss.get
    ld_code = LD_CODE
    st_code = ST_CODE
    branch_codes = BRANCH_CODES

    for seq, (pc, code, addr, taken) in enumerate(
        zip(L.pc, L.op_code, L.addr, L.taken)
    ):
        if code == ld_code:
            load_counts[pc] = load_counts.get(pc, 0) + 1
            line = addr >> line_shift
            if dc_access(addr):
                level = L1
            else:
                l1_miss_counts[pc] = l1_miss_counts.get(pc, 0) + 1
                if l2_access(addr):
                    level = L2
                else:
                    level = MEM
                    miss_counts[pc] = miss_counts.get(pc, 0) + 1
                    result.total_l2_misses += 1
                    recent_miss[line] = seq
                    l2_fill(addr)
                dc_fill(addr)
            if level != MEM:
                initiator = recent_miss_get(line)
                if initiator is not None and seq - initiator <= merge_window:
                    level = MEM  # would merge with the in-flight fill
            service[seq] = level
            counts = service_counts.setdefault(pc, [0, 0, 0])
            counts[_LEVEL_INDEX[level]] += 1
        elif code == st_code:
            if not dc_access(addr, is_write=True):
                if not l2_access(addr):
                    l2_fill(addr)
                dc_fill(addr, dirty=True)
        elif code in branch_codes:
            taken_b = taken != 0
            predicted = predict_and_update(pc, taken_b)
            entry = branch_counts.setdefault(pc, [0, 0])
            entry[0] += 1
            if predicted != taken_b:
                entry[1] += 1
                mispredicted.add(seq)
    return result


def profile_geometry_key(config: MachineConfig, warm: bool = True) -> Tuple:
    """The machine parameters the functional profile actually depends
    on: cache geometry, predictor size, and the MSHR-merge window (ROB
    depth) -- NOT latencies.  Sweeps that vary only latency share one
    classification per trace."""
    d, l2c = config.dcache, config.l2
    return (
        d.size_bytes, d.assoc, d.line_bytes,
        l2c.size_bytes, l2c.assoc, l2c.line_bytes,
        config.bpred_entries, config.rob_entries, warm,
    )


def classify_trace_cached(
    trace: Trace, config: MachineConfig | None = None, warm: bool = True
) -> LoadClassification:
    """Memoizing wrapper over :func:`classify_trace`.

    The profile is a deterministic function of the trace and the cache /
    predictor geometry, so the result is memoized on the trace itself
    (``trace.derived``) keyed by :func:`profile_geometry_key`.  The
    returned object is shared and must be treated as read-only.
    """
    config = config or MachineConfig()
    key = ("classify", profile_geometry_key(config, warm))
    cached = trace.derived.get(key)
    if cached is None:
        cached = classify_trace(trace, config, warm)
        trace.derived[key] = cached
    return cached
