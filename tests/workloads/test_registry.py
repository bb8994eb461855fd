"""Workload suite integrity tests."""

import pytest

from repro.errors import WorkloadError
from repro.frontend import interpret
from repro.isa.opcodes import CODE_BY_OP, Op
from repro.workloads import benchmark_names, get_program, input_set


@pytest.fixture(scope="module", params=benchmark_names())
def traced(request):
    prog = get_program(request.param)
    return prog, interpret(prog, max_instructions=2_000_000)


def test_benchmark_names_count():
    assert len(benchmark_names()) == 9  # the paper's nine runs


def test_unknown_benchmark_raises():
    with pytest.raises(WorkloadError, match="unknown benchmark"):
        get_program("eon")


def test_unknown_input_raises():
    with pytest.raises(WorkloadError, match="unknown input set"):
        get_program("gcc", "bogus")


def test_every_benchmark_halts(traced):
    _, trace = traced
    assert trace.columns.op_code[-1] == CODE_BY_OP[Op.HALT]


def test_every_benchmark_has_annotated_problem_load(traced):
    prog, _ = traced
    problems = [i for i in prog if i.annotation.startswith("problem:")]
    assert problems, f"{prog.name} declares no problem load"
    assert all(i.op is Op.LD for i in problems)


def test_dynamic_size_in_simulation_budget(traced):
    _, trace = traced
    assert 50_000 <= len(trace) <= 400_000


def test_problem_loads_have_spread_addresses(traced):
    """Problem loads must roam a large working set (that's what makes
    them miss in a 256KB L2)."""
    prog, trace = traced
    problem_pcs = {i.pc for i in prog if i.annotation.startswith("problem:")}
    addrs = {trace.columns.addr[seq]
             for pc in problem_pcs for seq in trace.occurrences(pc)}
    lines = {a >> 6 for a in addrs}
    assert len(lines) > 2000, f"{prog.name}: only {len(lines)} distinct lines"


def test_train_and_ref_differ(traced):
    prog, _ = traced
    name = prog.name.rsplit(".", 1)[0]
    ref = get_program(name, "ref")
    assert ref.name.endswith(".ref")
    assert ref.data != prog.data  # different seeds -> different images


def test_inputs_are_deterministic():
    a = get_program("gcc", "train")
    b = get_program("gcc", "train")
    assert a.data == b.data
    assert [str(i) for i in a] == [str(i) for i in b]


def test_bzip2_ref_is_less_memory_critical():
    """The Section 5.3 observation: bzip2's ref input has a smaller
    working set than train."""
    train = get_program("bzip2", "train")
    ref = get_program("bzip2", "ref")
    train_table = max(a for a in train.data) - min(a for a in train.data)
    ref_table = max(a for a in ref.data) - min(a for a in ref.data)
    assert ref_table < train_table


def test_input_set_helper_rejects_garbage():
    with pytest.raises(WorkloadError):
        input_set("validation")
