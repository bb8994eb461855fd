"""The Wattch-style energy model.

Converts the timing simulator's :class:`~repro.cpu.stats.ActivityCounts`
into joules.  Calibration: per-structure per-access energies are chosen so
that a cycle in which every port of every structure is used consumes
``e_max_per_cycle`` split according to the paper's published breakdown;
on top of that, every cycle draws ``idle_factor * e_max_per_cycle`` of
idle energy (leakage, imperfect clock gating, and gating control -- the
component only "deep sleep" could recover).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import EnergyConfig, MachineConfig
from repro.cpu.stats import ActivityCounts
from repro.energy.breakdown import EnergyBreakdown
from repro.energy.cacti import l2_access_energy_scale


@dataclass(frozen=True)
class EnergyResult:
    """Total and per-category energy of one run."""

    total_joules: float
    idle_joules: float
    breakdown: EnergyBreakdown


class EnergyModel:
    """Maps activity counts to energy for one machine configuration."""

    #: Structure -> (share key splits, max accesses per cycle).  The
    #: window/ROB/result-bus share from the paper is split between the
    #: issue-window complex (touched by every instruction including
    #: p-instructions) and the ROB (main thread only).
    WINDOW_SHARE = 0.090
    ROB_SHARE = 0.046

    def __init__(self, energy: Optional[EnergyConfig] = None,
                 machine: Optional[MachineConfig] = None) -> None:
        self.energy = energy or EnergyConfig()
        self.machine = machine or MachineConfig()
        shares = self.energy.structure_shares
        e_max = self.energy.e_max_per_cycle
        dyn = 1.0 - self.energy.idle_factor
        width = self.machine.width

        def unit(share: float, max_rate: float) -> float:
            return share * e_max * dyn / max_rate

        self._e_bpred = unit(shares["bpred"], 2.0)
        self._e_icache_block = unit(shares["icache"], 1.0)
        self._e_window = unit(self.WINDOW_SHARE, width)
        self._e_rob = unit(self.ROB_SHARE, 2.0 * width)
        self._e_regfile = unit(shares["regfile"], width)
        self._e_alu = unit(shares["alu"], float(self.machine.int_alus))
        self._e_dcache = unit(
            shares["dcache"],
            float(self.machine.load_ports + self.machine.store_ports),
        )
        l2_scale = l2_access_energy_scale(self.machine.l2.size_bytes)
        self._e_l2 = unit(shares["l2"], 1.0) * l2_scale
        self._e_clock = unit(shares["clock"], width)
        self._e_idle_cycle = self.energy.idle_factor * e_max

    # ------------------------------------------------------------------ #

    def evaluate(self, activity: ActivityCounts) -> EnergyResult:
        """Compute the energy of a run from its activity counts."""
        b = EnergyBreakdown()

        b.add("imem_main", activity.fetch_blocks_main * self._e_icache_block)
        b.add("imem_pth", activity.fetch_blocks_pth * self._e_icache_block)

        b.add("dmem_main", activity.dmem_accesses_main * self._e_dcache)
        b.add("dmem_pth", activity.dmem_accesses_pth * self._e_dcache)

        b.add("l2_main", activity.l2_accesses_main * self._e_l2)
        b.add("l2_pth", activity.l2_accesses_pth * self._e_l2)

        ooo_main = (
            activity.dispatched_main * (self._e_window + self._e_regfile
                                        + self._e_clock)
            + activity.alu_ops_main * self._e_alu
        )
        ooo_pth = (
            activity.dispatched_pth * (self._e_window + self._e_regfile
                                       + self._e_clock)
            + activity.alu_ops_pth * self._e_alu
        )
        b.add("ooo_main", ooo_main)
        b.add("ooo_pth", ooo_pth)

        rob_bpred = (
            activity.bpred_accesses * self._e_bpred
            + (activity.dispatched_main + activity.committed_main)
            * self._e_rob
        )
        b.add("rob_bpred", rob_bpred)

        idle = activity.cycles * self._e_idle_cycle
        b.add("idle", idle)

        return EnergyResult(
            total_joules=b.total, idle_joules=idle, breakdown=b
        )

    # ------------------------------------------------------------------ #

    def pthsel_constants(self) -> Dict[str, float]:
        """The external energy parameters PTHSEL+E consumes (equation E8).

        Values are *joules per access / per cycle* for this configuration,
        derived from the same calibration as :meth:`evaluate`, so the
        selection model and the simulator agree by construction:

        - ``e_fetch``:  one p-thread I-cache block access,
        - ``e_xall``:   rename/window/register/result-bus per p-instruction,
        - ``e_xalu``:   the extra ALU energy of an ALU p-instruction,
        - ``e_xload``:  the extra D-cache/DTLB/LSQ energy of a p-load,
        - ``e_l2``:     one L2 access,
        - ``e_idle``:   idle energy per cycle.
        """
        return {
            "e_fetch": self._e_icache_block,
            "e_xall": self._e_window + self._e_regfile + self._e_clock,
            "e_xalu": self._e_alu,
            "e_xload": self._e_dcache,
            "e_l2": self._e_l2,
            "e_idle": self._e_idle_cycle,
        }
