"""P-thread descriptions consumed by the timing simulator.

The DDMT layer (:mod:`repro.ddmt`) expands selected static p-threads into
per-spawn instruction lists functionally (addresses resolved from the
architectural state at the trigger).  The timing simulator only needs each
p-instruction's class, address, and dependences.

:class:`PThreadProgram` stores them as flat spawn columns in the layout
the cycle kernel reads (zero-copy in C), spawns ordered by trigger:
dispatch visits sequence numbers in increasing order, so the kernel
walks the spawns with one advancing cursor.
:class:`SpawnSpec`/:class:`PInstSpec` objects are a lazy view over the
columns (``spawns_by_trigger``), built on first use for the reference
``Pipeline``, sampling and tests, the way ``DynInst`` rows are for the
trace.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


class PInstClass(enum.Enum):
    """Timing-relevant classes of p-instructions.

    P-threads contain neither stores nor branches (DDMT control-less-ness),
    so three classes suffice.
    """

    ALU = "alu"
    MUL = "mul"
    LOAD = "load"


#: Column code of each class: the cycle kernel's entry kinds (the
#: pipeline's ``_ALU``, ``_MUL`` and ``_LOAD``).
KIND_BY_PCLASS: Dict[PInstClass, int] = {
    PInstClass.ALU: 0,
    PInstClass.MUL: 1,
    PInstClass.LOAD: 2,
}
_PCLASS_BY_KIND = {kind: klass for klass, kind in KIND_BY_PCLASS.items()}


@dataclass(frozen=True)
class PInstSpec:
    """One p-instruction within one dynamic spawn.

    ``body_deps`` are indices of earlier instructions in the same body this
    instruction reads; ``livein_seqs`` are main-thread trace sequence
    numbers whose results this instruction reads directly (values captured
    through the spawn-time register map).  ``addr`` is the resolved
    effective address for loads, -1 otherwise.  ``is_target`` marks the
    problem load the p-thread exists to prefetch.
    """

    klass: PInstClass
    addr: int = -1
    body_deps: Tuple[int, ...] = ()
    livein_seqs: Tuple[int, ...] = ()
    is_target: bool = False
    #: Branch pre-execution (the paper's Section 7 extension): when >= 0,
    #: this p-instruction computes the outcome of the dynamic branch with
    #: this trace sequence number; ``hint_taken`` is the pre-computed
    #: direction the fetch stage may consume once the p-instruction
    #: completes.
    hint_branch_seq: int = -1
    hint_taken: bool = False


@dataclass(frozen=True)
class SpawnSpec:
    """One dynamic p-thread instance, anchored at a main-thread trigger.

    ``trigger_seq`` is the trace sequence number of the trigger instance;
    ``static_id`` identifies the static p-thread (for per-p-thread
    accounting).
    """

    trigger_seq: int
    static_id: int
    insts: Tuple[PInstSpec, ...]


#: Spawn columns: one entry per spawn; p-inst columns: one per
#: p-instruction (spawn ``s`` owns ``[sp_inst_lo[s], sp_inst_hi[s])``);
#: p-inst ``j`` reads ``dep_flat[pi_dep_lo[j]:pi_dep_hi[j]]`` and
#: ``live_flat[pi_live_lo[j]:pi_live_hi[j]]``.
INT64_COLUMNS = (
    "sp_trigger", "sp_static", "sp_inst_lo", "sp_inst_hi",
    "pi_addr", "pi_hint_seq", "pi_dep_lo", "pi_dep_hi", "pi_live_lo",
    "pi_live_hi", "dep_flat", "live_flat",
)
INT8_COLUMNS = ("pi_kind", "pi_hint_taken", "pi_is_target")
COLUMNS = INT64_COLUMNS + INT8_COLUMNS


def _flatten(spawns: Iterable[SpawnSpec]) -> Dict[str, array]:
    """Spawn objects, in the given order, as columns."""
    cols: Dict[str, list] = {name: [] for name in COLUMNS}
    sp_trigger, sp_static = cols["sp_trigger"], cols["sp_static"]
    sp_inst_lo, sp_inst_hi = cols["sp_inst_lo"], cols["sp_inst_hi"]
    pi_kind, pi_addr = cols["pi_kind"], cols["pi_addr"]
    pi_hint_seq, pi_hint_taken = cols["pi_hint_seq"], cols["pi_hint_taken"]
    pi_is_target = cols["pi_is_target"]
    pi_dep_lo, pi_dep_hi = cols["pi_dep_lo"], cols["pi_dep_hi"]
    pi_live_lo, pi_live_hi = cols["pi_live_lo"], cols["pi_live_hi"]
    dep_flat, live_flat = cols["dep_flat"], cols["live_flat"]
    for spawn in spawns:
        sp_trigger.append(spawn.trigger_seq)
        sp_static.append(spawn.static_id)
        sp_inst_lo.append(len(pi_kind))
        for spec in spawn.insts:
            pi_kind.append(KIND_BY_PCLASS[spec.klass])
            pi_addr.append(spec.addr)
            pi_hint_seq.append(spec.hint_branch_seq)
            pi_hint_taken.append(1 if spec.hint_taken else 0)
            pi_is_target.append(1 if spec.is_target else 0)
            pi_dep_lo.append(len(dep_flat))
            dep_flat.extend(spec.body_deps)
            pi_dep_hi.append(len(dep_flat))
            pi_live_lo.append(len(live_flat))
            live_flat.extend(spec.livein_seqs)
            pi_live_hi.append(len(live_flat))
        sp_inst_hi.append(len(pi_kind))
    return {
        name: array("q" if name in INT64_COLUMNS else "b", values)
        for name, values in cols.items()
    }


class PThreadProgram:
    """All dynamic spawns for one simulation, as flat columns.

    Build it from columns (``columns=``, spawns already in trigger
    order), from spawn objects (:meth:`from_spawns`) or from a
    ``spawns_by_trigger`` dict.  The columns are read-only once built.
    """

    def __init__(
        self,
        spawns_by_trigger: Optional[Mapping[int, List[SpawnSpec]]] = None,
        *,
        columns: Optional[Mapping[str, array]] = None,
    ) -> None:
        if columns is None:
            columns = _flatten(
                spawn
                for _, group in sorted((spawns_by_trigger or {}).items())
                for spawn in group
            )
        for name in COLUMNS:
            setattr(self, name, columns[name])
        self._view: Optional[Dict[int, List[SpawnSpec]]] = None

    @classmethod
    def from_spawns(cls, spawns: Iterable[SpawnSpec]) -> "PThreadProgram":
        """Spawns in any order; ties on a trigger keep their order."""
        return cls(
            columns=_flatten(sorted(spawns, key=lambda s: s.trigger_seq))
        )

    @property
    def spawns_by_trigger(self) -> Dict[int, List[SpawnSpec]]:
        """trigger seq -> its spawns, as objects (lazy, memoized; do not
        mutate)."""
        view = self._view
        if view is None:
            view = {}
            kind = self.pi_kind.tolist()
            addr = self.pi_addr.tolist()
            hint_seq = self.pi_hint_seq.tolist()
            hint_taken = self.pi_hint_taken.tolist()
            is_target = self.pi_is_target.tolist()
            dep_lo, dep_hi = self.pi_dep_lo.tolist(), self.pi_dep_hi.tolist()
            live_lo = self.pi_live_lo.tolist()
            live_hi = self.pi_live_hi.tolist()
            dep_flat, live_flat = self.dep_flat.tolist(), self.live_flat.tolist()
            for trigger, static_id, lo, hi in zip(
                self.sp_trigger, self.sp_static, self.sp_inst_lo,
                self.sp_inst_hi,
            ):
                insts = tuple(
                    PInstSpec(
                        klass=_PCLASS_BY_KIND[kind[j]],
                        addr=addr[j],
                        body_deps=tuple(dep_flat[dep_lo[j]:dep_hi[j]]),
                        livein_seqs=tuple(live_flat[live_lo[j]:live_hi[j]]),
                        is_target=bool(is_target[j]),
                        hint_branch_seq=hint_seq[j],
                        hint_taken=bool(hint_taken[j]),
                    )
                    for j in range(lo, hi)
                )
                spawn = SpawnSpec(trigger, static_id, insts)
                group = view.get(trigger)
                if group is None:
                    view[trigger] = [spawn]
                else:
                    group.append(spawn)
            self._view = view
        return view

    @property
    def total_spawns(self) -> int:
        return len(self.sp_trigger)

    @property
    def total_pinsts(self) -> int:
        return len(self.pi_kind)

    def empty(self) -> bool:
        return not len(self.sp_trigger)
