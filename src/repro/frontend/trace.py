"""Dynamic trace containers.

The trace is stored columnar (:class:`~repro.frontend.columns.TraceColumns`)
rather than as one Python object per dynamic instruction.  :class:`DynInst`
survives as a lazy row view built on demand for the shrinking set of call
sites that still want objects.  The cycle kernel and the compiled
slice-tree miner read the sealed columns directly (zero-copy in C); the
reference pipeline and the Python analysis loops consume the memoized
flat-list view (:meth:`Trace.as_lists`).

Derived artifacts -- the pc->seqs occurrence index, per-class counts, and
branch statistics -- are built in one pass on first use and cached, so a
figure grid's cells share them instead of re-scanning the trace per call.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Union

from repro.frontend.columns import TraceColumns
from repro.isa.instruction import Program
from repro.isa.opcodes import (
    BRANCH_CODES,
    CLASS_BY_CODE,
    LD_CODE,
    Op,
    OpClass,
    OPS_BY_CODE,
)

#: Sentinel producer sequence number meaning "ready at program start".
NO_PRODUCER = -1


class DynInst:
    """One dynamic instruction (a materialized row of the columnar trace).

    ``src1_seq``/``src2_seq`` are the trace sequence numbers of the dynamic
    instructions that produced this instruction's register sources
    (:data:`NO_PRODUCER` when the value predates the trace).  For loads and
    stores ``addr`` is the effective byte address.  For branches ``taken``
    records the resolved direction and ``next_pc`` the resolved successor.
    """

    __slots__ = (
        "seq",
        "pc",
        "op",
        "src1_seq",
        "src2_seq",
        "addr",
        "taken",
        "next_pc",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: Op,
        src1_seq: int = NO_PRODUCER,
        src2_seq: int = NO_PRODUCER,
        addr: int = -1,
        taken: bool = False,
        next_pc: int = -1,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.src1_seq = src1_seq
        self.src2_seq = src2_seq
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc

    @property
    def is_load(self) -> bool:
        return self.op is Op.LD

    @property
    def is_store(self) -> bool:
        return self.op is Op.ST

    @property
    def is_branch(self) -> bool:
        return self.op.is_branch

    @property
    def is_control(self) -> bool:
        return self.op.is_control

    def __repr__(self) -> str:
        return (
            f"DynInst(seq={self.seq}, pc={self.pc}, op={self.op.value}, "
            f"addr={self.addr}, taken={self.taken})"
        )


class TraceLists(NamedTuple):
    """The trace's columns as plain Python lists (one shared conversion).

    CPython elementwise loops index plain lists faster than any other
    container, so the Python sequential consumers (reference pipeline,
    classifier, Python slicer) read these; they are materialized once per trace and shared.
    ``op_code`` holds dense :data:`~repro.isa.opcodes.CODE_BY_OP` codes
    and ``taken`` holds 0/1 ints.
    """

    pc: List[int]
    op_code: List[int]
    src1: List[int]
    src2: List[int]
    addr: List[int]
    taken: List[int]
    next_pc: List[int]


class Trace:
    """A complete dynamic execution trace of the main thread."""

    def __init__(
        self,
        program: Program,
        insts: Union[TraceColumns, List[DynInst]],
    ) -> None:
        self.program = program
        if isinstance(insts, TraceColumns):
            self.columns = insts
            self._insts: Optional[List[DynInst]] = None
        else:
            # Legacy row-object path (tests, sampled windows).
            self.columns = TraceColumns.from_rows(insts)
            self._insts = list(insts)
        self._n = len(self.columns)
        self._lists: Optional[TraceLists] = None
        self._pc_index: Optional[Dict[int, List[int]]] = None
        self._class_counts: Optional[Dict[OpClass, int]] = None
        self._branch_stats: Optional[Dict[int, Dict[str, int]]] = None
        self._pc_counts: Optional[Counter] = None
        #: Consumer-memoized derivations (e.g. the pipeline's kind/ctrl
        #: view), keyed by consumer name.  Shared like the columns.
        self.derived: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Views.
    # ------------------------------------------------------------------ #

    def as_lists(self) -> TraceLists:
        """The columns as plain lists, converted once and memoized."""
        lists = self._lists
        if lists is None:
            c = self.columns
            lists = TraceLists(
                c.pc.tolist(),
                c.op_code.tolist(),
                c.src1.tolist(),
                c.src2.tolist(),
                c.addr.tolist(),
                c.taken.tolist(),
                c.next_pc.tolist(),
            )
            self._lists = lists
        return lists

    @property
    def insts(self) -> List[DynInst]:
        """All rows as :class:`DynInst` objects (lazy, memoized)."""
        cached = self._insts
        if cached is None:
            cached = list(iter(self))
            self._insts = cached
        return cached

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, seq: int) -> DynInst:
        if self._insts is not None:
            return self._insts[seq]
        if seq < 0:
            seq += self._n
        if not 0 <= seq < self._n:
            raise IndexError(f"trace index {seq} out of range")
        L = self.as_lists()
        return DynInst(
            seq,
            L.pc[seq],
            OPS_BY_CODE[L.op_code[seq]],
            L.src1[seq],
            L.src2[seq],
            L.addr[seq],
            L.taken[seq] != 0,
            L.next_pc[seq],
        )

    def __iter__(self) -> Iterator[DynInst]:
        if self._insts is not None:
            return iter(self._insts)
        return self._iter_rows()

    def _iter_rows(self) -> Iterator[DynInst]:
        L = self.as_lists()
        ops = OPS_BY_CODE
        make = DynInst
        for seq, (pc, code, s1, s2, addr, taken, npc) in enumerate(
            zip(L.pc, L.op_code, L.src1, L.src2, L.addr, L.taken, L.next_pc)
        ):
            yield make(seq, pc, ops[code], s1, s2, addr, taken != 0, npc)

    def static_of(self, dyn: DynInst):
        """The static instruction a dynamic instruction came from."""
        return self.program[dyn.pc]

    # ------------------------------------------------------------------ #
    # Derived statistics: one single-pass construction, shared by every
    # consumer.
    # ------------------------------------------------------------------ #

    def _materialize_stats(self) -> None:
        if self._pc_index is not None:
            return
        n_codes = len(OPS_BY_CODE)
        L = self.as_lists()
        pc_index = {}
        index_get = pc_index.get
        code_counts = [0] * n_codes
        for seq, (pc, code) in enumerate(zip(L.pc, L.op_code)):
            bucket = index_get(pc)
            if bucket is None:
                pc_index[pc] = [seq]
            else:
                bucket.append(seq)
            code_counts[code] += 1
        # Per-class totals and per-branch-pc taken counts fall out of the
        # code histogram and the occurrence index without another sweep.
        class_counts: Dict[OpClass, int] = {}
        for code, count in enumerate(code_counts):
            if count:
                cls = CLASS_BY_CODE[code]
                class_counts[cls] = class_counts.get(cls, 0) + count
        taken_l = L.taken
        code_l = L.op_code
        branch_stats: Dict[int, Dict[str, int]] = {}
        for pc, seqs in pc_index.items():
            if code_l[seqs[0]] in BRANCH_CODES:
                branch_stats[pc] = {
                    "total": len(seqs),
                    "taken": sum(taken_l[s] for s in seqs),
                }
        self._class_counts = class_counts
        self._branch_stats = branch_stats
        self._pc_index = pc_index

    def pc_index(self) -> Dict[int, List[int]]:
        """pc -> ascending seqs of its dynamic instances (do not mutate)."""
        self._materialize_stats()
        return self._pc_index

    def count_by_class(self) -> Dict[OpClass, int]:
        """Dynamic instruction counts per op class."""
        self._materialize_stats()
        return dict(self._class_counts)

    def dynamic_loads_by_pc(self) -> Dict[int, List[int]]:
        """Map static load PC -> sequence numbers of its dynamic instances."""
        self._materialize_stats()
        code_l = self.as_lists().op_code
        return {
            pc: list(seqs)
            for pc, seqs in self._pc_index.items()
            if code_l[seqs[0]] == LD_CODE
        }

    def occurrences(self, pc: int) -> List[int]:
        """Sequence numbers of all dynamic instances of static PC ``pc``.

        Served from the precomputed occurrence index; callers must treat
        the result as read-only.
        """
        self._materialize_stats()
        return self._pc_index.get(pc, [])

    def pc_occurrence_counts(self) -> Counter:
        """Dynamic execution count per static PC (DCtrig), memoized."""
        counts = self._pc_counts
        if counts is None:
            self._materialize_stats()
            counts = Counter(
                {pc: len(seqs) for pc, seqs in self._pc_index.items()}
            )
            self._pc_counts = counts
        return counts

    def branch_stats(self) -> Dict[int, Dict[str, int]]:
        """Per-static-branch dynamic counts: total and taken."""
        self._materialize_stats()
        return {pc: dict(entry) for pc, entry in self._branch_stats.items()}

    def summary(self) -> Dict[str, int]:
        """Headline dynamic counts."""
        by_class = self.count_by_class()
        return {
            "instructions": self._n,
            "loads": by_class.get(OpClass.LOAD, 0),
            "stores": by_class.get(OpClass.STORE, 0),
            "branches": by_class.get(OpClass.BRANCH, 0),
        }


class TraceWindow:
    """A contiguous view over a region of a trace (used by the slicer)."""

    def __init__(self, trace: Trace, start: int, end: int) -> None:
        if not 0 <= start <= end <= len(trace):
            raise IndexError(f"bad window [{start}, {end}) over {len(trace)} insts")
        self.trace = trace
        self.start = start
        self.end = end

    def __len__(self) -> int:
        return self.end - self.start

    def __iter__(self) -> Iterator[DynInst]:
        for seq in range(self.start, self.end):
            yield self.trace[seq]

    def contains(self, seq: int) -> bool:
        return self.start <= seq < self.end
