"""Tests for the per-process trace memo, which also bounds everything
derived from its traces."""

import pytest

from repro.config import MachineConfig, SimulationConfig
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret
from repro.harness import experiment, simcache
from repro.harness.experiment import run_experiment
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program

SIM = SimulationConfig()


@pytest.fixture(autouse=True)
def _clean_store():
    tracestore.clear()
    yield
    tracestore.clear()


def test_memo_shares_one_trace_object():
    program = get_program("gcc", "train")
    first, t_first = tracestore.get_trace(program, SIM.max_instructions)
    second, t_second = tracestore.get_trace(program, SIM.max_instructions)
    assert second is first
    assert t_first > 0.0
    assert t_second == 0.0
    stats = tracestore.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1


def test_memo_keyed_by_budget():
    program = get_program("gcc", "train")
    full, _ = tracestore.get_trace(program, SIM.max_instructions)
    # A different instruction budget is a different trace artifact.
    other, _ = tracestore.get_trace(program, SIM.max_instructions + 1)
    assert other is not full
    assert tracestore.stats()["entries"] == 2


def test_memo_keyed_by_program_content():
    gcc, _ = tracestore.get_trace(
        get_program("gcc", "train"), SIM.max_instructions
    )
    twolf, _ = tracestore.get_trace(
        get_program("twolf", "train"), SIM.max_instructions
    )
    assert twolf is not gcc
    assert tracestore.stats() == {"entries": 2, "hits": 0, "misses": 2}


def test_memo_matches_fresh_interpret():
    program = get_program("gcc", "train")
    memoized, _ = tracestore.get_trace(program, SIM.max_instructions)
    fresh = interpret(program, max_instructions=SIM.max_instructions)
    assert fresh is not memoized
    # The memo serves the same bits a fresh interpretation builds.
    assert memoized.as_lists() == fresh.as_lists()


def test_clear_drops_entries_and_counters():
    program = get_program("gcc", "train")
    tracestore.get_trace(program, SIM.max_instructions)
    tracestore.clear()
    assert tracestore.stats() == {"entries": 0, "hits": 0, "misses": 0}


class _FakeProgram(str):
    # The store keys on workload *content*; here each name stands in
    # for distinct content.
    def fingerprint(self):
        return str(self)


class _FakeTrace:
    def __init__(self):
        self.derived = {}


class _FakeStats:
    cycles = 100
    committed = 10


def test_store_is_lru_not_fifo_and_derived_dies_with_its_trace(monkeypatch):
    monkeypatch.setattr(tracestore, "_MAX_ENTRIES", 2)
    monkeypatch.setattr(
        tracestore, "interpret",
        lambda program, max_instructions: _FakeTrace(),
    )
    monkeypatch.setattr(
        experiment, "get_program", lambda b, i: _FakeProgram(b)
    )
    monkeypatch.setattr(
        experiment, "simulate", lambda trace, machine: _FakeStats()
    )
    machine = MachineConfig()
    slot = ("baseline", machine.fingerprint)
    hits0 = experiment._CACHE_HITS.value
    misses0 = experiment._CACHE_MISSES.value

    def run(name):
        return experiment._baseline_sim(name, "train", machine, SIM)[2]

    assert run("aa")["src"] == "simulated"
    assert run("bb")["src"] == "simulated"
    assert run("aa")["src"] == "memo"  # hit: aa is now most recent
    run("cc")  # miss: evicts bb, the least recently used

    def held(name):
        return tracestore.peek(_FakeProgram(name), SIM.max_instructions)

    assert held("aa") is not None, "LRU must keep the recently-hit trace"
    assert slot in held("aa").derived, "its baseline must survive with it"
    assert held("bb") is None, "LRU must evict the least recently used"
    assert held("cc") is not None
    assert experiment._CACHE_HITS.value - hits0 == 1
    assert experiment._CACHE_MISSES.value - misses0 == 3
    # bb's baseline went with its trace: it is interpreted and
    # simulated afresh.
    again = run("bb")
    assert again["src_trace"] == "interpreted"
    assert again["src"] == "simulated"


def test_clear_alone_forgets_every_derived_run():
    with simcache.disabled():
        run_experiment("gap", target=Target.LATENCY)
        tracestore.clear()
        second = run_experiment("gap", target=Target.LATENCY)
    assert second.provenance["trace"] == "interpreted"
    assert second.provenance["baseline"] == "simulated"
    assert second.provenance["optimized"] == "simulated"
