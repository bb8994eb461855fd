"""Dynamic trace containers.

A trace is its sealed columns (:class:`~repro.frontend.columns.TraceColumns`):
seven flat arrays, one row per dynamic instruction, with no per-instruction
Python object.  The cycle kernel and the compiled slice-tree miner read
the columns directly (zero-copy in C); the reference pipeline and the
Python analysis loops consume the memoized flat-list view
(:meth:`Trace.as_lists`).

The pc->seqs occurrence index is built in one pass on first use and
cached, so a figure grid's cells share it instead of re-scanning the
trace per call.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Optional

from repro.frontend.columns import TraceColumns
from repro.isa.instruction import Program

#: Sentinel producer sequence number meaning "ready at program start".
NO_PRODUCER = -1


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

    def __init__(self, program: Program, columns: TraceColumns) -> None:
        self.program = program
        self.columns = columns
        self._lists: Optional[TraceLists] = None
        self._seqs_by_pc: Optional[Dict[int, List[int]]] = None
        self._pc_counts: Optional[Counter] = None
        #: Consumer-memoized derivations (e.g. the pipeline's kind/ctrl
        #: view), keyed by consumer name.  Shared like the columns.
        self.derived: Dict[str, object] = {}

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

    def __len__(self) -> int:
        return len(self.columns)

    def _occurrence_index(self) -> Dict[int, List[int]]:
        """pc -> ascending seqs of its dynamic instances, built once."""
        seqs_by_pc = self._seqs_by_pc
        if seqs_by_pc is None:
            seqs_by_pc = {}
            get = seqs_by_pc.get
            for seq, pc in enumerate(self.as_lists().pc):
                bucket = get(pc)
                if bucket is None:
                    seqs_by_pc[pc] = [seq]
                else:
                    bucket.append(seq)
            self._seqs_by_pc = seqs_by_pc
        return seqs_by_pc

    def occurrences(self, pc: int) -> List[int]:
        """Sequence numbers of all dynamic instances of static PC ``pc``.

        Served from the precomputed occurrence index; callers must treat
        the result as read-only.
        """
        return self._occurrence_index().get(pc, [])

    def pc_occurrence_counts(self) -> Counter:
        """Dynamic execution count per static PC (DCtrig), memoized."""
        counts = self._pc_counts
        if counts is None:
            counts = Counter(
                {pc: len(seqs) for pc, seqs in self._occurrence_index().items()}
            )
            self._pc_counts = counts
        return counts
