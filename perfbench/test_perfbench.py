"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The ledger and digest tests run the one-cell ``smoke`` workload in
fresh child processes, a few seconds each.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from child import rows_digest  # noqa: E402
from workload_spec import WORKLOADS, check_activity, grid_cells  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _scratch(name: str) -> str:
    path = os.path.join(CHECKOUT, ".perfbench", "selftest", name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def test_metric_names_and_units_are_well_formed():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


def test_benchmark_json_matches_runner():
    spec = _benchmark_json()
    assert {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    } == {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {
        m["name"]: m["unit"] for m in spec["per_layer"]
    } == {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    for workload in spec["workloads"]:
        assert workload["name"] in WORKLOADS


def test_seed_permutes_cells_only():
    cells = sorted(grid_cells("memlat-sweep", 0))
    for seed in range(1, 6):
        assert sorted(grid_cells("memlat-sweep", seed)) == cells


def test_digest_ignores_order_and_unstable_columns():
    rows = [
        {"benchmark": "a", "speedup_pct": 1.5, "t_total": 0.3,
         "src_result": "computed", "trace_id": "x"},
        {"benchmark": "b", "speedup_pct": 2.0, "t_total": 0.1},
    ]
    shuffled = [dict(rows[1], t_total=9.0), dict(rows[0], src_result="memo")]
    assert rows_digest(rows) == rows_digest(shuffled)
    assert rows_digest(rows) != rows_digest(
        [dict(rows[0], speedup_pct=1.51), rows[1]]
    )


def test_activity_guard_flags_moved_call_sites():
    counts = {f"{layer}.calls": 1 for layer in
              WORKLOADS["suite-original"]["active"]}
    assert check_activity("suite-original", counts) == []
    assert check_activity("suite-original", dict(counts, **{
        "cost.calls": 2})) == [
        "cost recorded 2 calls on suite-original, where it should be idle"
    ]
    assert check_activity(
        "suite-original", dict(counts, **{"slice.calls": 0})
    ) == ["slice recorded no calls on suite-original"]


def test_ledger_self_times_reconcile_on_one_cell():
    traced = run.run_child(CHECKOUT, _scratch("ledger"), "smoke", "train", 0,
                           trace=True)
    ledger = traced["ledger"]
    self_times = {k: v for k, v in ledger.items() if k.endswith(".self_s")}
    assert all(v >= 0.0 for v in self_times.values()), self_times
    wall = traced["prep_s"] + traced["wall_s"]
    assert ledger["traced.wall_s"] == pytest.approx(wall)
    assert ledger["harness.overhead_s"] >= 0.0
    assert sum(self_times.values()) + ledger["harness.overhead_s"] == (
        pytest.approx(wall, rel=1e-9)
    )
    assert check_activity("smoke", ledger) == []
    assert ledger.get("cost.self_s", 0.0) == 0.0
    assert traced["failed"] == 0 and traced["attempted"] == 1


def test_digest_is_stable_across_processes_and_seeds():
    first = run.run_child(CHECKOUT, _scratch("d1"), "smoke", "train", 1)
    second = run.run_child(CHECKOUT, _scratch("d2"), "smoke", "train", 2)
    assert first["digest"] == second["digest"]
    assert first["failed"] == 0


def test_runner_refuses_a_directory_without_the_program():
    bare = _scratch("bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-only",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
