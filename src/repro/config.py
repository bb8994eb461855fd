"""Configuration objects for the machine, energy model, selection, and runs.

Defaults reproduce the paper's experimental setup (Section 3.1):

- a 6-way superscalar, 15-stage, dynamically scheduled multithreaded
  processor with a 128-entry ROB, 80 reservation stations, 384 physical
  registers and 8 thread contexts;
- 32KB/2-way/1-cycle L1I, 16KB/2-way/2-cycle L1D, 256KB/4-way/12-cycle L2,
  64-entry I/D TLBs, 16-byte buses with the memory bus at 1/4 core clock,
  a 200-cycle infinite main memory, 2 load + 1 store ports, 16 MSHRs;
- an 8K-entry hybrid branch predictor with a 2K-entry BTB;
- Wattch-style energy with a 5% idle energy factor at 100nm / 3GHz / 1.2V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import ConfigError


def _require(
    owner: str, field_name: str, value: object, ok: bool, legal: str
) -> None:
    """Raise a :class:`ConfigError` naming the offending field and its
    legal range -- the contract of every ``validate()`` below."""
    if not ok:
        raise ConfigError(
            f"{owner}.{field_name} = {value!r} is invalid; legal: {legal}"
        )


def _power_of_two(n: int) -> bool:
    return n >= 1 and not (n & (n - 1))


class _Fingerprinted:
    """Mixin: short stable content hash for run-manifest provenance."""

    @property
    def fingerprint(self) -> str:
        from repro.obs.manifest import config_fingerprint

        return config_fingerprint(self)


@dataclass(frozen=True)
class CacheConfig(_Fingerprinted):
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache geometry values must be positive")
        n_lines = self.size_bytes // self.line_bytes
        if n_lines % self.assoc:
            raise ConfigError(
                f"cache of {n_lines} lines not divisible into {self.assoc} ways"
            )
        n_sets = n_lines // self.assoc
        if n_sets & (n_sets - 1):
            raise ConfigError(f"number of sets must be a power of two, got {n_sets}")
        if self.hit_latency < 1:
            raise ConfigError("hit latency must be at least one cycle")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    def validate(self, owner: str = "CacheConfig") -> "CacheConfig":
        """Field-by-field validation with named-field diagnostics.

        ``__post_init__`` keeps obviously broken geometry from ever being
        constructed; this re-checks with messages that name the offending
        field and its legal range, so a bad sweep axis fails at experiment
        start with an actionable error instead of deep in a worker.
        """
        _require(owner, "size_bytes", self.size_bytes, self.size_bytes >= 1, ">= 1")
        _require(owner, "assoc", self.assoc, self.assoc >= 1, ">= 1")
        _require(
            owner,
            "line_bytes",
            self.line_bytes,
            _power_of_two(self.line_bytes),
            "a power of two >= 1",
        )
        _require(
            owner,
            "hit_latency",
            self.hit_latency,
            self.hit_latency >= 1,
            ">= 1 cycle",
        )
        _require(
            owner,
            "size_bytes",
            self.size_bytes,
            _power_of_two(self.n_sets),
            f"a size giving a power-of-two set count "
            f"(got {self.n_sets} sets for assoc={self.assoc}, "
            f"line_bytes={self.line_bytes})",
        )
        return self


@dataclass(frozen=True)
class MachineConfig(_Fingerprinted):
    """Microarchitectural parameters of the simulated processor."""

    width: int = 6
    pipeline_stages: int = 15
    rob_entries: int = 128
    rs_entries: int = 80
    physical_registers: int = 384
    thread_contexts: int = 8
    commit_width: int = 6
    load_ports: int = 2
    store_ports: int = 1
    mshr_entries: int = 16
    int_alus: int = 6
    mul_latency: int = 3

    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, 64, 1)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024, 2, 64, 2)
    )
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, 4, 64, 12))
    itlb_entries: int = 64
    dtlb_entries: int = 64
    page_bytes: int = 8192
    tlb_miss_latency: int = 30

    memory_latency: int = 200
    bus_bytes: int = 16
    memory_bus_divisor: int = 4

    bpred_entries: int = 8192
    btb_entries: int = 2048

    # DDMT: p-threads are sequenced in width-sized blocks at a frequency that
    # achieves 1 instruction/cycle of aggregate bandwidth (Section 4.2, E5).
    pthread_fetch_ipc: float = 1.0
    #: Reservation stations the main thread may not occupy, so p-threads
    #: can always enter the scheduler even when the main thread's window
    #: is full of long-latency waiters (DDMT allocates p-instructions
    #: reservation stations of their own).
    pthread_rs_reserve: int = 12
    # DDMT prefetches into the L2 only, bypassing the L1 (Section 4.2).
    pthread_fill_l1: bool = False

    def __post_init__(self) -> None:
        if self.width < 1 or self.commit_width < 1:
            raise ConfigError("pipeline widths must be positive")
        if self.thread_contexts < 1:
            raise ConfigError("at least one thread context is required")
        if self.memory_latency < 1:
            raise ConfigError("memory latency must be positive")
        if self.rob_entries < self.width:
            raise ConfigError("ROB must hold at least one fetch group")

    def validate(self) -> "MachineConfig":
        """Validate every field (and the cache sub-configs), raising a
        :class:`ConfigError` that names the offending field and its legal
        range.  Called at experiment start so misconfigured sweeps fail
        before any simulation work is dispatched."""
        owner = "MachineConfig"
        _require(owner, "width", self.width, 1 <= self.width <= 64, "1..64")
        _require(
            owner,
            "pipeline_stages",
            self.pipeline_stages,
            self.pipeline_stages >= 6,
            ">= 6 (frontend depth must be positive)",
        )
        _require(
            owner,
            "commit_width",
            self.commit_width,
            self.commit_width >= 1,
            ">= 1",
        )
        _require(
            owner,
            "rob_entries",
            self.rob_entries,
            self.rob_entries >= self.width,
            f">= width ({self.width}): the ROB must hold a full fetch group",
        )
        _require(
            owner, "rs_entries", self.rs_entries, self.rs_entries >= 1, ">= 1"
        )
        _require(
            owner,
            "pthread_rs_reserve",
            self.pthread_rs_reserve,
            0 <= self.pthread_rs_reserve < self.rs_entries,
            f"0..rs_entries-1 (rs_entries={self.rs_entries})",
        )
        _require(
            owner,
            "physical_registers",
            self.physical_registers,
            self.physical_registers >= self.rob_entries,
            f">= rob_entries ({self.rob_entries})",
        )
        _require(
            owner,
            "thread_contexts",
            self.thread_contexts,
            self.thread_contexts >= 1,
            ">= 1",
        )
        _require(
            owner, "load_ports", self.load_ports, self.load_ports >= 1, ">= 1"
        )
        _require(
            owner,
            "store_ports",
            self.store_ports,
            self.store_ports >= 1,
            ">= 1",
        )
        _require(
            owner,
            "mshr_entries",
            self.mshr_entries,
            self.mshr_entries >= 1,
            ">= 1",
        )
        _require(owner, "int_alus", self.int_alus, self.int_alus >= 1, ">= 1")
        _require(
            owner,
            "mul_latency",
            self.mul_latency,
            self.mul_latency >= 1,
            ">= 1 cycle",
        )
        _require(
            owner,
            "itlb_entries",
            self.itlb_entries,
            self.itlb_entries >= 1,
            ">= 1",
        )
        _require(
            owner,
            "dtlb_entries",
            self.dtlb_entries,
            self.dtlb_entries >= 1,
            ">= 1",
        )
        _require(
            owner,
            "page_bytes",
            self.page_bytes,
            _power_of_two(self.page_bytes),
            "a power of two >= 1",
        )
        _require(
            owner,
            "tlb_miss_latency",
            self.tlb_miss_latency,
            self.tlb_miss_latency >= 0,
            ">= 0 cycles",
        )
        _require(
            owner,
            "memory_latency",
            self.memory_latency,
            self.memory_latency >= 1,
            ">= 1 cycle",
        )
        _require(
            owner,
            "bus_bytes",
            self.bus_bytes,
            _power_of_two(self.bus_bytes),
            "a power of two >= 1",
        )
        _require(
            owner,
            "memory_bus_divisor",
            self.memory_bus_divisor,
            self.memory_bus_divisor >= 1,
            ">= 1",
        )
        _require(
            owner,
            "bpred_entries",
            self.bpred_entries,
            _power_of_two(self.bpred_entries),
            "a power of two >= 1 (predictor tables are index-masked)",
        )
        _require(
            owner,
            "btb_entries",
            self.btb_entries,
            self.btb_entries >= 1,
            ">= 1",
        )
        _require(
            owner,
            "pthread_fetch_ipc",
            self.pthread_fetch_ipc,
            0.0 < self.pthread_fetch_ipc <= float(self.width),
            f"in (0, width] (width={self.width})",
        )
        self.icache.validate("MachineConfig.icache")
        self.dcache.validate("MachineConfig.dcache")
        self.l2.validate("MachineConfig.l2")
        return self

    @property
    def frontend_depth(self) -> int:
        """Stages between fetch and execute, charged on a mispredict redirect."""
        return max(1, self.pipeline_stages - 5)

    def scaled_l2(self, size_bytes: int, hit_latency: int) -> "MachineConfig":
        """Return a copy with a different L2 size/latency (Figure 5 bottom)."""
        new_l2 = CacheConfig(size_bytes, self.l2.assoc, self.l2.line_bytes, hit_latency)
        return replace(self, l2=new_l2)

    def with_memory_latency(self, latency: int) -> "MachineConfig":
        """Return a copy with a different memory latency (Figure 5 middle)."""
        return replace(self, memory_latency=latency)


#: Per-structure share of maximum per-cycle energy, from Section 3.1.  The
#: breakdown "corresponds to an unrealistic cycle in which every port of
#: every structure is accessed".
PAPER_STRUCTURE_SHARES: Dict[str, float] = {
    "bpred": 0.044,  # branch predictor + BTB
    "icache": 0.181,  # instruction cache + ITLB
    "window": 0.136,  # issue window / ROB / result bus
    "regfile": 0.142,
    "alu": 0.055,
    "dcache": 0.086,  # data cache + DTLB + LSQ
    "l2": 0.136,
    "clock": 0.220,
}


@dataclass(frozen=True)
class EnergyConfig(_Fingerprinted):
    """Wattch-style energy model parameters.

    All per-access / per-cycle constants are expressed as fractions of the
    maximum per-cycle energy consumption ``e_max_per_cycle`` (Section 4.2,
    equation E8 lists the fractions used by PTHSEL+E).
    """

    #: Absolute scale in joules for one maximum-activity cycle.  100nm, 3GHz,
    #: 1.2V; chosen so that full-activity power is ~60W, in line with
    #: high-end 2005 desktop parts.  Only ratios matter for the results.
    e_max_per_cycle: float = 20e-9

    #: Fraction of a structure's max energy drawn even when unused
    #: ("all structures draw some fixed fraction of their maximum per-cycle
    #: energy even when unused").  This together with the clock tree makes up
    #: the idle energy.
    idle_factor: float = 0.05

    structure_shares: Dict[str, float] = field(
        default_factory=lambda: dict(PAPER_STRUCTURE_SHARES)
    )

    # PTHSEL+E external parameters (equation E8), as fractions of
    # e_max_per_cycle: fetch 9%, all-execute 4.9%, ALU 0.8%, load 3.8%,
    # L2 13.6%, idle 5%.
    e_fetch_access: float = 0.09
    e_xall_access: float = 0.049
    e_xalu_access: float = 0.008
    e_xload_access: float = 0.038
    e_l2_access: float = 0.136
    # e_idle_per_cycle defaults to idle_factor; kept separate so the
    # selection model can be fed a wrong constant in validation studies.

    process_nm: int = 100
    frequency_ghz: float = 3.0
    vdd: float = 1.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_factor <= 1.0:
            raise ConfigError("idle_factor must be within [0, 1]")
        if self.e_max_per_cycle <= 0:
            raise ConfigError("e_max_per_cycle must be positive")
        total = sum(self.structure_shares.values())
        if not math.isclose(total, 1.0, abs_tol=0.02):
            raise ConfigError(
                f"structure shares must sum to ~1.0, got {total:.3f}"
            )

    def validate(self) -> "EnergyConfig":
        """Validate every field, naming the offender and its legal range."""
        owner = "EnergyConfig"
        _require(
            owner,
            "e_max_per_cycle",
            self.e_max_per_cycle,
            self.e_max_per_cycle > 0,
            "> 0 joules",
        )
        _require(
            owner,
            "idle_factor",
            self.idle_factor,
            0.0 <= self.idle_factor <= 1.0,
            "in [0, 1]",
        )
        for field_name in (
            "e_fetch_access",
            "e_xall_access",
            "e_xalu_access",
            "e_xload_access",
            "e_l2_access",
        ):
            value = getattr(self, field_name)
            _require(
                owner,
                field_name,
                value,
                0.0 <= value <= 1.0,
                "in [0, 1] (a fraction of e_max_per_cycle)",
            )
        total = sum(self.structure_shares.values())
        _require(
            owner,
            "structure_shares",
            round(total, 3),
            math.isclose(total, 1.0, abs_tol=0.02),
            "shares summing to 1.0 +/- 0.02",
        )
        _require(
            owner,
            "process_nm",
            self.process_nm,
            self.process_nm >= 1,
            ">= 1",
        )
        _require(
            owner,
            "frequency_ghz",
            self.frequency_ghz,
            self.frequency_ghz > 0,
            "> 0",
        )
        _require(owner, "vdd", self.vdd, self.vdd > 0, "> 0 volts")
        return self

    @property
    def e_idle_per_cycle(self) -> float:
        """Idle energy per cycle as a fraction of max per-cycle energy."""
        return self.idle_factor

    def with_idle_factor(self, factor: float) -> "EnergyConfig":
        """Return a copy with a different idle energy factor (Figure 5 top)."""
        return replace(self, idle_factor=factor)

    def joules(self, fraction_cycles: float) -> float:
        """Convert an energy expressed in max-cycle fractions to joules."""
        return fraction_cycles * self.e_max_per_cycle


class LoadCostModel:
    """Which latency-reduction -> execution-time-reduction model to use.

    ``FLAT`` is original PTHSEL's cycle-for-cycle assumption; ``CRITICALITY``
    is the Section 4.1 model built from averaged pessimistic/optimistic
    critical-path estimates.
    """

    FLAT = "flat"
    CRITICALITY = "criticality"


@dataclass(frozen=True)
class SelectionConfig(_Fingerprinted):
    """PTHSEL / PTHSEL+E algorithm parameters (Section 3.1 defaults)."""

    slicing_window: int = 2048
    max_pthread_insts: int = 64
    max_unroll: int = 8
    load_cost_model: str = LoadCostModel.CRITICALITY
    #: Problem loads below this share of total L2 misses are not targeted.
    min_miss_share: float = 0.02
    #: Candidates whose modeled execution-time gain per covered miss is
    #: below this many cycles are never selected (filters degenerate
    #: zero-lookahead p-threads that only add overhead).
    min_gain_cycles: float = 1.0
    #: Derating applied to cache misses *embedded inside a p-thread body*
    #: when estimating how long the p-thread takes to reach its target
    #: load.  A p-thread's own misses see bus/MSHR queueing on top of the
    #: raw miss latency, so un-derated estimates make serial
    #: chase-through-chase p-threads (which can never outrun the main
    #: thread's identical dependence chain) look marginally profitable.
    embedded_latency_factor: float = 1.4
    #: Maximum number of static problem loads considered per program.
    max_problem_loads: int = 12
    merge_triggers: bool = True
    overlap_discount: bool = True
    #: Composition weight W (C2): 1 = latency, 0 = energy, 0.5 = ED,
    #: 0.67 = ED^2.  Set by the Target used at the framework level.
    composition_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.slicing_window < 2:
            raise ConfigError("slicing window must cover at least 2 instructions")
        if self.max_pthread_insts < 1:
            raise ConfigError("p-threads must be allowed at least 1 instruction")
        if not 0.0 <= self.composition_weight <= 1.0:
            raise ConfigError("composition weight W must be in [0, 1]")
        if self.load_cost_model not in (LoadCostModel.FLAT, LoadCostModel.CRITICALITY):
            raise ConfigError(f"unknown load cost model {self.load_cost_model!r}")

    def validate(self) -> "SelectionConfig":
        """Validate every field, naming the offender and its legal range."""
        owner = "SelectionConfig"
        _require(
            owner,
            "slicing_window",
            self.slicing_window,
            self.slicing_window >= 2,
            ">= 2 instructions",
        )
        _require(
            owner,
            "max_pthread_insts",
            self.max_pthread_insts,
            self.max_pthread_insts >= 1,
            ">= 1",
        )
        _require(
            owner,
            "max_unroll",
            self.max_unroll,
            self.max_unroll >= 1,
            ">= 1",
        )
        _require(
            owner,
            "load_cost_model",
            self.load_cost_model,
            self.load_cost_model
            in (LoadCostModel.FLAT, LoadCostModel.CRITICALITY),
            f"'{LoadCostModel.FLAT}' or '{LoadCostModel.CRITICALITY}'",
        )
        _require(
            owner,
            "min_miss_share",
            self.min_miss_share,
            0.0 <= self.min_miss_share <= 1.0,
            "in [0, 1]",
        )
        _require(
            owner,
            "min_gain_cycles",
            self.min_gain_cycles,
            self.min_gain_cycles >= 0.0,
            ">= 0 cycles",
        )
        _require(
            owner,
            "embedded_latency_factor",
            self.embedded_latency_factor,
            self.embedded_latency_factor >= 1.0,
            ">= 1.0 (a derating multiplier)",
        )
        _require(
            owner,
            "max_problem_loads",
            self.max_problem_loads,
            self.max_problem_loads >= 1,
            ">= 1",
        )
        _require(
            owner,
            "composition_weight",
            self.composition_weight,
            0.0 <= self.composition_weight <= 1.0,
            "in [0, 1] (1 = latency, 0 = energy)",
        )
        return self


@dataclass(frozen=True)
class SimulationConfig(_Fingerprinted):
    """How much of a workload to run and how."""

    max_instructions: int = 400_000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.max_instructions < 1:
            raise ConfigError("max_instructions must be positive")

    def validate(self) -> "SimulationConfig":
        """Validate every field, naming the offender and its legal range."""
        owner = "SimulationConfig"
        _require(
            owner,
            "max_instructions",
            self.max_instructions,
            self.max_instructions >= 1,
            ">= 1",
        )
        _require(owner, "seed", self.seed, self.seed >= 0, ">= 0")
        return self
