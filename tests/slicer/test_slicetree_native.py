"""The compiled slice-tree miner on synthetic traces, and when it loads.

Property tests draw producer columns in which every source is
``NO_PRODUCER`` or an earlier seq (the trace invariant both miners rely
on) and check that the two miners agree, and that ``backward_slice``
returns the ``max_insts`` largest members of the windowed producer
closure in descending order -- the invariant that lets the C miner
replace the worklist with one descending stamp-array scan.

The laziness tests pin down that the library is built and loaded only
when the first tree is mined, and that ``REPRO_NATIVE=0`` routes
``build_slice_tree`` through the Python loop.
"""

import os
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import nativebuild
from repro.critpath.classify import L1, MEM, LoadClassification
from repro.frontend.columns import TraceColumns
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.slicer import backward_slice, build_slice_tree, slicetree

from tests.slicer.test_golden_slicetree import tree_rows

HAVE_SLICER = nativebuild.native_available("slicetree")
SKIP_REASON = f"compiled slice miner unavailable: {nativebuild.native_error('slicetree')}"

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@st.composite
def synthetic_traces(draw):
    """A trace whose producers are NO_PRODUCER or earlier seqs."""
    n = draw(st.integers(min_value=1, max_value=80))
    n_pcs = draw(st.integers(min_value=1, max_value=6))
    pcs = draw(st.lists(st.integers(0, n_pcs - 1), min_size=n, max_size=n))

    def source(seq):
        return st.one_of(st.just(NO_PRODUCER), st.integers(0, seq - 1)) \
            if seq else st.just(NO_PRODUCER)

    src1 = [draw(source(seq)) for seq in range(n)]
    src2 = [draw(source(seq)) for seq in range(n)]
    columns = TraceColumns(
        array("q", pcs), array("b", bytes(n)), array("q", src1),
        array("q", src2), array("q", [-1] * n), array("b", bytes(n)),
        array("q", [-1] * n),
    )
    return Trace(None, columns)


def _closure(trace, seq, window):
    """The producer closure of ``seq`` inside its slicing window."""
    lo = max(seq - window, 0)
    members, stack = {seq}, [seq]
    while stack:
        current = stack.pop()
        for producer in (trace.columns.src1[current],
                         trace.columns.src2[current]):
            if producer >= lo and producer not in members:
                members.add(producer)
                stack.append(producer)
    return members


@settings(max_examples=200, deadline=None)
@given(
    trace=synthetic_traces(),
    window=st.integers(0, 40),
    max_insts=st.integers(0, 12),
    data=st.data(),
)
def test_backward_slice_is_top_of_windowed_closure(
    trace, window, max_insts, data
):
    seq = data.draw(st.integers(0, len(trace) - 1))
    got = backward_slice(trace, seq, window, max_insts)
    expected = sorted(_closure(trace, seq, window), reverse=True)[:max_insts]
    assert got == expected
    if max_insts:
        assert got[0] == seq


@pytest.mark.skipif(not HAVE_SLICER, reason=SKIP_REASON)
@settings(max_examples=200, deadline=None)
@given(
    trace=synthetic_traces(),
    window=st.integers(0, 40),
    max_insts=st.integers(0, 12),
    data=st.data(),
)
def test_miners_agree_on_synthetic_traces(trace, window, max_insts, data):
    root_pc = data.draw(st.sampled_from(sorted(set(trace.columns.pc))))
    occurrences = trace.occurrences(root_pc)
    flags = data.draw(
        st.lists(st.booleans(), min_size=len(occurrences),
                 max_size=len(occurrences))
    )
    use_events = data.draw(st.booleans())
    if use_events:
        cls = LoadClassification()
        events = {seq for seq, flag in zip(occurrences, flags) if flag}
    else:
        cls = LoadClassification(service={
            seq: MEM if flag else L1
            for seq, flag in zip(occurrences, flags)
        })
        events = None
    args = (trace, cls, root_pc, window, max_insts, None, events)
    expected = slicetree._build(*args, None)
    got = slicetree._build(*args, nativebuild.load("slicetree"))
    assert tree_rows(got) == tree_rows(expected)


def test_no_build_before_the_first_tree(tmp_path):
    # A fresh process: importing the slicer and selection packages and
    # running a timing simulation must never touch the slicer library.
    code = (
        "import os\n"
        "import repro.pthsel, repro.slicer\n"
        "from repro.cpu import nativebuild, pipeline\n"
        "from repro.frontend.interpreter import interpret\n"
        "from repro.workloads.registry import get_program\n"
        "trace = interpret(get_program('gap', 'train'),\n"
        "                  max_instructions=5000, require_halt=False)\n"
        "pipeline.simulate(trace)\n"
        "assert 'slicetree' not in nativebuild._probes, nativebuild._probes\n"
        "built = os.listdir(os.environ['REPRO_NATIVE_DIR'])\n"
        "assert not [f for f in built if 'slicetree' in f], built\n"
    )
    native_dir = tmp_path / "native"
    native_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    env["REPRO_NATIVE_DIR"] = str(native_dir)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_repro_native_0_takes_the_python_loop(monkeypatch):
    trace = Trace(None, TraceColumns(
        array("q", [0, 1, 0, 1]), array("b", bytes(4)),
        array("q", [-1, 0, 1, 2]), array("q", [-1, -1, -1, -1]),
        array("q", [-1] * 4), array("b", bytes(4)), array("q", [-1] * 4),
    ))
    calls = []
    real = slicetree._mine_python

    def spy(*args, **kwargs):
        calls.append("python")
        return real(*args, **kwargs)

    monkeypatch.setattr(slicetree, "_mine_python", spy)
    monkeypatch.setattr(
        slicetree, "_mine_native",
        lambda *a, **k: pytest.fail("compiled miner ran under REPRO_NATIVE=0"),
    )
    monkeypatch.setenv("REPRO_NATIVE", "0")
    nativebuild.reset_probe()
    try:
        tree = build_slice_tree(trace, LoadClassification(), 1)
        assert "REPRO_NATIVE=0" in nativebuild.native_error("slicetree")
    finally:
        monkeypatch.delenv("REPRO_NATIVE")
        nativebuild.reset_probe()
    assert calls == ["python"]
    assert tree.instances == 2
    assert [node.pc for node in tree.candidates()] == [0, 1, 0]
