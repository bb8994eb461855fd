"""Configuration objects for the machine, energy model, selection, and runs.

Defaults reproduce the paper's experimental setup (Section 3.1):

- a 6-way superscalar, 15-stage, dynamically scheduled multithreaded
  processor with a 128-entry ROB, 80 reservation stations, 384 physical
  registers and 8 thread contexts;
- 32KB/2-way/1-cycle L1I, 16KB/2-way/2-cycle L1D, 256KB/4-way/12-cycle L2,
  64-entry I/D TLBs, 16-byte buses with the memory bus at 1/4 core clock,
  a 200-cycle infinite main memory, 2 load + 1 store ports, 16 MSHRs;
- an 8K-entry hybrid branch predictor with a 2K-entry BTB;
- Wattch-style energy with a 5% idle energy factor (the paper's 100nm /
  3GHz / 1.2V design point enters only through the energy calibration).

Every field is one the program reads.  Each config checks all of its
fields in ``__post_init__``, raising a :class:`ConfigError` that names
the offending field and its legal range, so an invalid config cannot be
built.
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
    legal range; every config's ``__post_init__`` checks through this."""
    if not ok:
        raise ConfigError(
            f"{owner}.{field_name} = {value!r} is invalid; legal: {legal}"
        )


def _require_at_least(config: object, floor: int, *names: str) -> None:
    """Require each named field of ``config`` to be ``>= floor``."""
    owner = type(config).__name__
    for name in names:
        value = getattr(config, name)
        _require(owner, name, value, value >= floor, f">= {floor}")


def _require_power_of_two(config: object, *names: str) -> None:
    """Require each named field of ``config`` to be a power of two."""
    owner = type(config).__name__
    for name in names:
        value = getattr(config, name)
        _require(owner, name, value, _power_of_two(value),
                 "a power of two >= 1")


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
        _require_at_least(self, 1, "size_bytes", "assoc", "hit_latency")
        _require_power_of_two(self, "line_bytes")
        n_lines = self.size_bytes // self.line_bytes
        _require(
            "CacheConfig",
            "size_bytes",
            self.size_bytes,
            n_lines % self.assoc == 0 and _power_of_two(n_lines // self.assoc),
            f"a size giving a whole, power-of-two number of sets "
            f"(got {n_lines} lines for assoc={self.assoc}, "
            f"line_bytes={self.line_bytes})",
        )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


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
        owner = "MachineConfig"
        _require(owner, "width", self.width, 1 <= self.width <= 64, "1..64")
        _require(
            owner,
            "pipeline_stages",
            self.pipeline_stages,
            self.pipeline_stages >= 6,
            ">= 6 (frontend depth must be positive)",
        )
        _require_at_least(
            self, 1, "commit_width", "rs_entries", "thread_contexts",
            "load_ports", "store_ports", "mshr_entries", "int_alus",
            "mul_latency", "itlb_entries", "dtlb_entries", "memory_latency",
            "memory_bus_divisor", "btb_entries",
        )
        _require_at_least(self, 0, "tlb_miss_latency")
        _require_power_of_two(self, "page_bytes", "bus_bytes", "bpred_entries")
        _require(
            owner,
            "rob_entries",
            self.rob_entries,
            self.rob_entries >= self.width,
            f">= width ({self.width}): the ROB must hold a full fetch group",
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
            "pthread_rs_reserve",
            self.pthread_rs_reserve,
            0 <= self.pthread_rs_reserve < self.rs_entries,
            f"0..rs_entries-1 (rs_entries={self.rs_entries})",
        )
        _require(
            owner,
            "pthread_fetch_ipc",
            self.pthread_fetch_ipc,
            0.0 < self.pthread_fetch_ipc <= float(self.width),
            f"in (0, width] (width={self.width})",
        )

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

    Per-structure energies are fractions of the maximum per-cycle energy
    ``e_max_per_cycle``.  PTHSEL+E's external constants (Section 4.2,
    equation E8) are derived from this same calibration by
    :meth:`repro.energy.wattch.EnergyModel.pthsel_constants`.
    """

    #: Absolute scale in joules for one maximum-activity cycle, chosen so
    #: that full-activity power is ~60W at 3GHz, in line with high-end
    #: 2005 desktop parts.  Only ratios matter for the results.
    e_max_per_cycle: float = 20e-9

    #: Fraction of a structure's max energy drawn even when unused
    #: ("all structures draw some fixed fraction of their maximum per-cycle
    #: energy even when unused").  This together with the clock tree makes up
    #: the idle energy.
    idle_factor: float = 0.05

    structure_shares: Dict[str, float] = field(
        default_factory=lambda: dict(PAPER_STRUCTURE_SHARES)
    )

    def __post_init__(self) -> None:
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
        total = sum(self.structure_shares.values())
        _require(
            owner,
            "structure_shares",
            round(total, 3),
            math.isclose(total, 1.0, abs_tol=0.02),
            "shares summing to 1.0 +/- 0.02",
        )

    def with_idle_factor(self, factor: float) -> "EnergyConfig":
        """Return a copy with a different idle energy factor (Figure 5 top)."""
        return replace(self, idle_factor=factor)


@dataclass(frozen=True)
class SelectionConfig(_Fingerprinted):
    """PTHSEL / PTHSEL+E algorithm parameters (Section 3.1 defaults).

    The target (:class:`repro.pthsel.targets.Target`) picks the load cost
    model and the composition weight W.
    """

    slicing_window: int = 2048
    max_pthread_insts: int = 64
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

    def __post_init__(self) -> None:
        owner = "SelectionConfig"
        _require(
            owner,
            "slicing_window",
            self.slicing_window,
            self.slicing_window >= 2,
            ">= 2 instructions",
        )
        _require_at_least(self, 1, "max_pthread_insts", "max_problem_loads")
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


@dataclass(frozen=True)
class SimulationConfig(_Fingerprinted):
    """How much of a workload to run."""

    max_instructions: int = 400_000

    def __post_init__(self) -> None:
        _require_at_least(self, 1, "max_instructions")
