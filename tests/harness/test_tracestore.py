"""Tests for the per-process trace-artifact memo."""

import pytest

from repro.config import SimulationConfig
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret
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
