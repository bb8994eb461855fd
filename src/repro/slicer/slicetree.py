"""Slice trees: p-thread candidates grouped per static problem load.

The root of a tree is the problem load.  Each node is a potential
trigger; its body is the path from the node (exclusive) down to the root
(inclusive).  A fork marks a control decision that changes the load's
data slice between dynamic instances (Figure 1b of the paper).

Nodes carry the counts the PTHSEL formulae need:

- ``count_total``: dynamic instances whose slice passes through the node
  (how often the trigger leads to the load along the assumed path);
- ``count_miss``: those instances whose load actually missed (DCptcm);
- ``sum_distance``: accumulated trigger-to-load instruction distances
  (for the latency-tolerance estimate);
- the trigger's total dynamic execution count (DCtrig) comes from the
  whole-trace occurrence counter, because DDMT spawns on *every*
  execution of the trigger PC, path-assumed or not.

Trees are mined by the compiled miner (``_slicetree.c``, loaded through
:mod:`repro.cpu.nativebuild` the first time a tree is mined) whenever
it loads, and by the pure-Python loop otherwise.  The Python loop is
also the golden oracle the compiled miner is tested against: both
produce the same nodes, counts and children order.
"""

from __future__ import annotations

import bisect
import ctypes
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.critpath.classify import MEM, LoadClassification
from repro.frontend.trace import Trace
from repro.slicer.backslice import backward_slice


@dataclass
class SliceNode:
    """One node of a slice tree."""

    pc: int
    depth: int
    parent: Optional["SliceNode"] = None
    children: Dict[int, "SliceNode"] = field(default_factory=dict)
    count_total: int = 0
    count_miss: int = 0
    sum_distance: int = 0
    sum_distance_miss: int = 0
    #: Accumulated number of *root-PC occurrences* in (trigger, root] --
    #: i.e. how many dynamic instances of the target a trigger instance
    #: leads by.  Exact, unlike dividing instruction distance by average
    #: iteration length (loop bodies vary).  Branch pre-execution uses it
    #: to pair each spawn's hint with the right future branch instance.
    sum_root_gap: int = 0

    @property
    def dc_ptcm(self) -> int:
        """Covered misses if this node triggers a p-thread (DCpt-cm)."""
        return self.count_miss

    @property
    def avg_distance(self) -> float:
        """Mean trigger-to-load distance in dynamic instructions."""
        if not self.count_total:
            return 0.0
        return self.sum_distance / self.count_total

    @property
    def avg_root_gap(self) -> float:
        """Mean number of root instances a trigger instance leads by."""
        if not self.count_total:
            return 0.0
        return self.sum_root_gap / self.count_total

    def path_to_root(self) -> List["SliceNode"]:
        """Nodes from this one down to (and including) the root."""
        path: List[SliceNode] = []
        node: Optional[SliceNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def body_pcs(self) -> List[int]:
        """Static PCs of the p-thread body, in execution order.

        The body is everything between the trigger (exclusive -- its
        result reaches the body as a live-in) and the problem load
        (inclusive).  ``path_to_root`` walks trigger -> root, which is
        already oldest-to-newest: deeper nodes are further back in the
        slice, and the root is the load itself.
        """
        return [node.pc for node in self.path_to_root()[1:]]


@dataclass
class SliceTree:
    """All linear p-thread candidates for one static problem load."""

    root_pc: int
    root: SliceNode
    #: Static PC -> dynamic execution count over the whole trace (DCtrig).
    trigger_counts: Counter = field(default_factory=Counter)
    instances: int = 0
    instances_missed: int = 0

    def candidates(self) -> Iterator[SliceNode]:
        """All candidate trigger nodes (everything except the root)."""
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def dc_trig(self, node: SliceNode) -> int:
        """DCtrig: dynamic executions of the node's (trigger's) static PC."""
        return self.trigger_counts[node.pc]

    @property
    def n_candidates(self) -> int:
        return sum(1 for _ in self.candidates())


#: Columns of the compiled miner's exported node table, in
#: ``_slicetree.c``'s F_* order.
_NODE_FIELDS = (
    "pc",
    "parent",
    "depth",
    "count_total",
    "count_miss",
    "sum_distance",
    "sum_distance_miss",
    "sum_root_gap",
)


def build_slice_tree(
    trace: Trace,
    classification: LoadClassification,
    problem_pc: int,
    window: int = 2048,
    max_insts: int = 64,
    pc_occurrences: Optional[Counter] = None,
    event_seqs: Optional[set] = None,
) -> SliceTree:
    """Mine the slice tree of one problem instruction from a trace.

    Every dynamic instance of the root contributes its backward slice as
    a root-to-leaf path; forks appear where instances' slices diverge.

    By default the "covered event" that DCptcm counts is an L2 miss of
    the root load; passing ``event_seqs`` overrides this with an explicit
    set of dynamic sequence numbers (e.g. mispredicted instances, for
    branch pre-execution).

    Runs the compiled miner when ``nativebuild.load("slicetree")``
    returns a library (building it on the first call), the Python loop
    otherwise; the trees are identical.
    """
    from repro.cpu import nativebuild

    return _build(
        trace, classification, problem_pc, window, max_insts,
        pc_occurrences, event_seqs, nativebuild.load("slicetree"),
    )


def _build(
    trace: Trace,
    classification: LoadClassification,
    problem_pc: int,
    window: int,
    max_insts: int,
    pc_occurrences: Optional[Counter],
    event_seqs: Optional[set],
    lib,
) -> SliceTree:
    """:func:`build_slice_tree` on the compiled miner ``lib``, or on the
    Python loop when ``lib`` is None."""
    if pc_occurrences is None:
        pc_occurrences = trace.pc_occurrence_counts()
    root = SliceNode(pc=problem_pc, depth=0)
    tree = SliceTree(
        root_pc=problem_pc, root=root, trigger_counts=pc_occurrences
    )
    occurrences = trace.occurrences(problem_pc)
    args = (tree, trace, classification, occurrences, window, max_insts,
            event_seqs)
    if lib is None:
        _mine_python(*args)
    else:
        _mine_native(lib, *args)
    return tree


def _mine_python(
    tree: SliceTree,
    trace: Trace,
    classification: LoadClassification,
    occurrences: List[int],
    window: int,
    max_insts: int,
    event_seqs: Optional[set],
) -> None:
    """The pure-Python miner: fills ``tree`` occurrence by occurrence."""
    root = tree.root
    service = classification.service
    pc_l = trace.as_lists().pc

    for root_index, seq in enumerate(occurrences):
        slice_seqs = backward_slice(trace, seq, window, max_insts)
        if event_seqs is not None:
            missed = seq in event_seqs
        else:
            missed = service.get(seq) == MEM
        tree.instances += 1
        if missed:
            tree.instances_missed += 1
        node = root
        node.count_total += 1
        if missed:
            node.count_miss += 1
        for slice_seq in slice_seqs[1:]:
            pc = pc_l[slice_seq]
            child = node.children.get(pc)
            if child is None:
                child = SliceNode(pc=pc, depth=node.depth + 1, parent=node)
                node.children[pc] = child
            distance = seq - slice_seq
            child.count_total += 1
            child.sum_distance += distance
            # Root instances strictly after the trigger, up to and
            # including this one: exact lead in occurrence counts.
            child.sum_root_gap += root_index - bisect.bisect_right(
                occurrences, slice_seq
            ) + 1
            if missed:
                child.count_miss += 1
                child.sum_distance_miss += distance
            node = child


def _mine_native(
    lib,
    tree: SliceTree,
    trace: Trace,
    classification: LoadClassification,
    occurrences: List[int],
    window: int,
    max_insts: int,
    event_seqs: Optional[set],
) -> None:
    """The compiled miner: fills ``tree`` from ``_slicetree.c``'s table.

    The event flags cross as one byte per occurrence and the trace
    columns are read in place.  The node table comes back column-major,
    nodes in creation order, so appending each node to its parent's
    children reproduces the Python miner's first-seen order.
    """
    from repro.cpu.nativebuild import int64_ptr

    if event_seqs is not None:
        missed = bytes([seq in event_seqs for seq in occurrences])
    else:
        service_get = classification.service.get
        missed = bytes([service_get(seq) == MEM for seq in occurrences])
    cols = trace.columns
    occ = array("q", occurrences)
    handle = ctypes.c_void_p()
    rc = lib.repro_slicetree_mine(
        int64_ptr(cols.pc), int64_ptr(cols.src1), int64_ptr(cols.src2),
        len(cols), int64_ptr(occ), missed, len(occ), window, max_insts,
        ctypes.byref(handle),
    )
    if rc == 1:
        raise MemoryError("native slice-tree miner failed to allocate")
    if rc != 0:
        raise ValueError(f"native slice-tree miner rejected its input (rc={rc})")
    try:
        n = lib.repro_slicetree_nodes(handle)
        table = array("q", bytes(8 * len(_NODE_FIELDS) * n))
        lib.repro_slicetree_export(handle, int64_ptr(table))
    finally:
        lib.repro_slicetree_free(handle)
    (pcs, parents, depths, totals, misses, dists, dists_miss,
     gaps) = (table[k * n:(k + 1) * n].tolist() for k in range(len(_NODE_FIELDS)))

    tree.instances = len(occurrences)
    tree.instances_missed = missed.count(1)
    root = tree.root
    root.count_total = totals[0]
    root.count_miss = misses[0]
    nodes = [root]
    append = nodes.append
    for i in range(1, n):
        parent = nodes[parents[i]]
        node = SliceNode(
            pc=pcs[i],
            depth=depths[i],
            parent=parent,
            count_total=totals[i],
            count_miss=misses[i],
            sum_distance=dists[i],
            sum_distance_miss=dists_miss[i],
            sum_root_gap=gaps[i],
        )
        parent.children[pcs[i]] = node
        append(node)
