"""Golden identity: the compiled slice-tree miner against the Python loop.

For every benchmark program on its train input, the tree of every
problem load -- at the paper's slicing geometry (2048-instruction
window, 64-instruction slices) and at a truncating one (64, 8) -- and
every problem branch's tree (covered events = mispredictions) must come
out of ``_slicetree.c`` equal to the pure-Python miner's field by field,
children order included.  Without a loadable compiled miner the C leg
is skipped with the loader's reason.
"""

import pytest

from repro.config import MachineConfig, SelectionConfig, SimulationConfig
from repro.cpu import nativebuild
from repro.critpath.classify import classify_trace_cached
from repro.frontend import tracestore
from repro.pthsel.branches import identify_problem_branches
from repro.slicer import identify_problem_loads
from repro.slicer import slicetree
from repro.workloads.registry import benchmark_names, get_program

HAVE_SLICER = nativebuild.native_available("slicetree")
SKIP_REASON = f"compiled slice miner unavailable: {nativebuild.native_error('slicetree')}"

GEOMETRIES = [(2048, 64), (64, 8)]


def tree_rows(tree):
    """Every node's fields in pre-order, children in dict order."""
    rows = [("tree", tree.root_pc, tree.instances, tree.instances_missed)]
    stack = [tree.root]
    while stack:
        node = stack.pop()
        rows.append((
            node.pc,
            node.depth,
            node.parent.pc if node.parent is not None else None,
            node.count_total,
            node.count_miss,
            node.sum_distance,
            node.sum_distance_miss,
            node.sum_root_gap,
            tuple(node.children),
        ))
        stack.extend(reversed(list(node.children.values())))
    return rows


def _profile(name):
    program = get_program(name, "train")
    trace, _ = tracestore.get_trace(
        program, SimulationConfig().max_instructions
    )
    return trace, classify_trace_cached(trace, MachineConfig())


@pytest.mark.skipif(not HAVE_SLICER, reason=SKIP_REASON)
@pytest.mark.parametrize("name", benchmark_names())
def test_c_miner_matches_python_miner(name):
    trace, cls = _profile(name)
    lib = nativebuild.load("slicetree")
    load_pcs = identify_problem_loads(cls)
    branch_pcs = identify_problem_branches(cls, SelectionConfig())
    assert load_pcs, f"{name} has no problem loads"
    cases = [
        (pc, window, max_insts, None)
        for pc in load_pcs
        for window, max_insts in GEOMETRIES
    ] + [
        (pc, window, max_insts, cls.mispredicted)
        for pc in branch_pcs
        for window, max_insts in GEOMETRIES
    ]
    counts = trace.pc_occurrence_counts()
    for pc, window, max_insts, events in cases:
        args = (trace, cls, pc, window, max_insts, counts, events)
        expected = slicetree._build(*args, None)
        got = slicetree._build(*args, lib)
        assert tree_rows(got) == tree_rows(expected), (
            name, pc, window, max_insts, events is not None,
        )
        assert got.trigger_counts is counts
