"""Golden identity: the compiled forward pass against the Python loop.

For every benchmark program on its train input at the default machine,
and for gcc at 100- and 300-cycle memory, the load-cost functions priced
on ``_critpath.c`` must equal those priced on the pure-Python loop, and
``ForwardPass.run`` must return the same time on both engines for every
kind of override and window.  Without a loadable compiled pass these
cases are skipped with the loader's reason.

The laziness test pins down that selecting with the flat load cost
(target O) and running a timing simulation never build the library.
"""

import os
import subprocess
import sys

import pytest

from repro.config import MachineConfig, SimulationConfig
from repro.cpu import nativebuild
from repro.critpath.classify import classify_trace_cached
from repro.critpath.graph import ForwardPass
from repro.critpath.loadcost import build_cost_functions
from repro.frontend import tracestore
from repro.slicer import identify_problem_loads
from repro.workloads.registry import benchmark_names, get_program

HAVE_CRITPATH = nativebuild.native_available("critpath")
SKIP_REASON = (
    "compiled forward pass unavailable: "
    f"{nativebuild.native_error('critpath')}"
)
needs_native = pytest.mark.skipif(not HAVE_CRITPATH, reason=SKIP_REASON)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _profile(name):
    program = get_program(name, "train")
    trace, _ = tracestore.get_trace(
        program, SimulationConfig().max_instructions
    )
    return trace, classify_trace_cached(trace, MachineConfig())


def _on_python_loop(monkeypatch):
    """Route every ``ForwardPass.run`` through the Python loop."""
    monkeypatch.setattr(
        ForwardPass, "run",
        lambda self, latency_override=None: self._run(latency_override, None),
    )


@needs_native
@pytest.mark.parametrize("name,memory_latency", [
    (name, None) for name in benchmark_names()
] + [("gcc", 100), ("gcc", 300)])
def test_cost_functions_match_python_loop(name, memory_latency, monkeypatch):
    trace, cls = _profile(name)
    machine = MachineConfig()
    if memory_latency is not None:
        machine = machine.with_memory_latency(memory_latency)
    pcs = identify_problem_loads(cls)
    assert pcs, f"{name} has no problem loads"
    got = build_cost_functions(trace, cls, pcs, machine)
    _on_python_loop(monkeypatch)
    expected = build_cost_functions(trace, cls, pcs, machine)
    assert got == expected


@needs_native
@pytest.mark.parametrize("start,end", [
    (0, 60_000),       # the cost model's window
    (1_000, 5_000),    # a window that starts late and is cut short
    (2_000, 2_000),    # empty
    (-100, None),      # the last 100 instructions
])
def test_run_matches_python_loop(start, end):
    trace, cls = _profile("gcc")
    lib = nativebuild.load("critpath")
    if start < 0:
        start += len(trace)
    fp = ForwardPass(trace, MachineConfig(), cls, start=start, end=end)
    lo, hi = fp.start, fp.end
    overrides = [
        None,
        {},
        {seq: float(seq % 7) * 37.5 for seq in range(lo, hi)},
        {lo - 1: 999.0, hi: 999.0, -5: 1.0, lo + 3: 300.0},
    ]
    for override in overrides:
        expected = fp._run(override, None)
        assert fp._run(override, lib) == expected, override
        assert fp.run(override) == expected, override
    if lo == hi:
        assert len(fp) == 0 and fp.run() == 0.0


def test_no_critpath_build_without_cost_functions(tmp_path):
    # A fresh process: a target-O selection prices loads with the flat
    # cost and a timing simulation prices none, so neither may touch
    # the forward-pass library.
    code = (
        "import os\n"
        "from repro.config import SimulationConfig\n"
        "from repro.cpu import nativebuild, pipeline\n"
        "from repro.frontend.interpreter import interpret\n"
        "from repro.pthsel import Target, select_pthreads\n"
        "from repro.pthsel.framework import BaselineEstimates\n"
        "from repro.workloads.registry import get_program\n"
        "trace = interpret(get_program('gap', 'train'),\n"
        "                  max_instructions=SimulationConfig().max_instructions)\n"
        "stats = pipeline.simulate(trace)\n"
        "baseline = BaselineEstimates(ipc=stats.ipc, l0=float(stats.cycles),\n"
        "                             e0=1.0)\n"
        "result = select_pthreads(trace, baseline, target=Target.ORIGINAL)\n"
        "assert result.problem_pcs, 'gap selected no problem loads'\n"
        "assert 'critpath' not in nativebuild._probes, nativebuild._probes\n"
        "built = os.listdir(os.environ['REPRO_NATIVE_DIR'])\n"
        "assert not [f for f in built if f.startswith('repro_critpath_')], built\n"
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
