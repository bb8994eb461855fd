"""CI gate over perfbench: same rows, no failures, no gross slow-down.

Runs every workload that ``BENCHMARK.json`` declares through
``perfbench/run.py`` (cold passes in fresh processes) and compares each
run with the committed ``benchmarks/perfbench_baseline.json``::

    python benchmarks/perfbench_gate.py

A workload fails the gate when its rows digest differs from the
baseline's, perfbench reports ``correct: false`` or failed operations,
the workload has no baseline entry, or its median ``wall_s`` exceeds
``WALL_BAND`` times the baseline's.  The baseline walls come from one
host and the gate may run on another, so the band is wide; the paired
same-host comparison against ``BENCHMARK.json``'s bounds is separate.
Each run prints its measured digest and wall, which is what a
deliberate baseline update copies into the JSON file.  Exits 1 when
any workload fails.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "benchmarks", "perfbench_baseline.json")

#: A wall above this multiple of the baseline's fails (2x = +100%).
WALL_BAND = 2.0
#: perfbench's pass budget per workload.
SECONDS = 20


def problems(result, digest, baseline_entry):
    """Why one workload's perfbench run fails the gate ([] = it passes).

    ``result`` is perfbench's final JSON line, ``digest`` the rows
    digest from its ``run_table.csv`` and ``baseline_entry`` the
    workload's ``{"digest", "wall_s"}`` baseline (None when missing).
    """
    if baseline_entry is None:
        return ["no baseline entry"]
    found = []
    if digest != baseline_entry["digest"]:
        found.append(
            f"rows digest {digest} != baseline {baseline_entry['digest']}"
        )
    if result.get("correct") is not True:
        found.append("perfbench reports correct: false")
    if result.get("failed", 0) > 0:
        found.append(f"{result['failed']} failed operation(s)")
    wall = result["metrics"]["wall_s"]["value"]
    limit = WALL_BAND * baseline_entry["wall_s"]
    if wall > limit:
        found.append(
            f"wall_s {wall:.2f} s > {WALL_BAND:g}x baseline "
            f"{baseline_entry['wall_s']:.2f} s"
        )
    return found


def run_workload(workload, out_dir):
    """Run perfbench on ``workload``; its final JSON and rows digest,
    or ``(None, None)`` when perfbench itself fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--trace", "0", "--input", "train",
         "--seed", "0", "--out", out_dir],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(out_dir, "run_table.csv"), newline="") as fh:
        (digest,) = {row["digest"] for row in csv.DictReader(fh)}
    return result, digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    with open(BASELINE) as fh:
        baseline = json.load(fh)["workloads"]
    failed = False
    for workload in workloads:
        with tempfile.TemporaryDirectory() as out_dir:
            result, digest = run_workload(workload, out_dir)
        if result is None:
            print(f"  FAIL {workload}: perfbench exited non-zero")
            failed = True
            continue
        wall = result["metrics"]["wall_s"]["value"]
        print(f"{workload}: digest {digest} wall_s {wall:.2f}")
        for problem in problems(result, digest, baseline.get(workload)):
            print(f"  FAIL {workload}: {problem}")
            failed = True
    print("perfbench gate: " + ("FAILED" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
