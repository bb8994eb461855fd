"""``benchmarks/perfbench_gate.py``: a workload passes only with the
baseline's rows digest, ``correct: true``, no failed operations and a
wall within the band; a workload without a baseline entry fails."""

import importlib.util
import os

_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "perfbench_gate.py"
)
_spec = importlib.util.spec_from_file_location("perfbench_gate", _PATH)
perfbench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_gate)

_BASELINE = {"digest": "abc123", "wall_s": 4.0}


def _result(wall_s=4.0, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 12,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}},
    }


def test_matching_run_passes():
    assert perfbench_gate.problems(_result(), "abc123", _BASELINE) == []


def test_digest_mismatch_fails():
    (problem,) = perfbench_gate.problems(_result(), "def456", _BASELINE)
    assert "def456" in problem and "abc123" in problem


def test_incorrect_run_fails():
    (problem,) = perfbench_gate.problems(
        _result(correct=False), "abc123", _BASELINE
    )
    assert "correct: false" in problem


def test_failed_operations_fail():
    (problem,) = perfbench_gate.problems(
        _result(failed=2), "abc123", _BASELINE
    )
    assert "2 failed" in problem


def test_wall_above_band_fails():
    band = perfbench_gate.WALL_BAND
    assert band == 2.0
    ok = perfbench_gate.problems(_result(wall_s=4.0 * band), "abc123",
                                 _BASELINE)
    assert ok == []
    (problem,) = perfbench_gate.problems(
        _result(wall_s=4.0 * band + 0.01), "abc123", _BASELINE
    )
    assert "wall_s" in problem


def test_missing_workload_fails():
    assert perfbench_gate.problems(_result(), "abc123", None) == [
        "no baseline entry"
    ]


def test_every_problem_is_reported():
    found = perfbench_gate.problems(
        _result(wall_s=100.0, correct=False, failed=1), "zzz", _BASELINE
    )
    assert len(found) == 4
