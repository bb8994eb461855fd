"""Chaos harness: prove the engine's recovery paths under injected faults.

:func:`run_chaos` runs one experiment grid twice -- once fault-free as a
reference, once under an active :mod:`repro.faults` plan -- and reports
whether the engine actually recovered:

- **zero aborted grids**: the faulted run must complete and return a row
  for every cell (graceful degradation turns exhausted cells into
  failure rows rather than exceptions);
- **bit-identical recovery**: every cell that completed under faults
  must produce exactly the reference row (modulo wall-clock ``t_*``
  phase timings) -- retries re-run a pure function, so any drift is an
  engine bug;
- **full fault accounting**: for ``worker.run`` (whose draw keys are
  computable in the parent), the report compares the *predicted* fault
  schedule against the injected-fault counters that came back from the
  workers; a mismatch means injections were dropped or double-counted.

The ``repro chaos`` CLI command wraps this and renders the report; the
``--quick`` smoke (used by CI) probes for a fault seed that injects at
least one fault into the small grid so the run always exercises a retry.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults, obs
from repro.faults import FaultSpec, draw
from repro.frontend import tracestore
from repro.harness import simcache
from repro.harness.figures import result_row
from repro.harness.parallel import (
    ExperimentJob,
    JobFailure,
    RetryPolicy,
    run_experiments,
)
from repro.pthsel.targets import Target
from repro.workloads.registry import BENCHMARK_NAMES

#: Default injection: crash jobs in their workers 30% of the time.
DEFAULT_SPEC = "worker.run:0.3"

#: Chaos runs retry harder than production sweeps: with p=0.3 and eight
#: attempts the per-cell permafail probability is 0.3^8 ~ 7e-5.
CHAOS_MAX_ATTEMPTS = 8

QUICK_BENCHMARKS = 2


def _comparable(row: Dict[str, object]) -> Dict[str, object]:
    """A result row minus its wall-clock and cache-provenance columns
    (the only legitimate run-to-run differences: retries and memo
    warmth change where a layer came from, never what it computed)."""
    return {
        k: v
        for k, v in row.items()
        if not str(k).startswith("t_") and not str(k).startswith("src_")
    }


def predict_worker_run_faults(
    grid: Sequence[ExperimentJob],
    spec: FaultSpec,
    max_attempts: int,
) -> Dict[str, int]:
    """Replay the ``worker.run`` fault schedule for ``grid`` in-process.

    The site's draw key is a pure function of (cell key, attempt) --
    exactly what the worker computes -- so the parent can predict how
    many faults will fire, how many cells retry, and how many exhaust
    every attempt, then check the workers' counters against it.
    """
    injections = retried = permafails = 0
    for job in grid:
        cell = job.cell_key()
        cell_injections = 0
        for attempt in range(1, max_attempts + 1):
            # _execute_job draws under faults.scoped("<cell>:<attempt>")
            # with key "run"; the plan mixes the scope into the key.
            if draw(spec, f"{cell}:{attempt}|run"):
                cell_injections += 1
            else:
                break
        injections += cell_injections
        if cell_injections:
            retried += 1
        if cell_injections >= max_attempts:
            permafails += 1
    return {
        "injections": injections,
        "cells_retried": retried,
        "permafails": permafails,
    }


def _pick_quick_seed(
    grid: Sequence[ExperimentJob], probability: float, max_attempts: int
) -> Tuple[FaultSpec, Dict[str, int]]:
    """A seed whose schedule injects at least one fault into ``grid``
    without permafailing any cell -- so the quick smoke always exercises
    the retry path and always recovers."""
    for seed in range(256):
        spec = FaultSpec("worker.run", probability, seed)
        predicted = predict_worker_run_faults(grid, spec, max_attempts)
        if predicted["injections"] >= 1 and predicted["permafails"] == 0:
            return spec, predicted
    # Unreachable for any sane probability; fall back to seed 0.
    spec = FaultSpec("worker.run", probability, 0)
    return spec, predict_worker_run_faults(grid, spec, max_attempts)


def run_chaos(
    benchmarks: Optional[Sequence[str]] = None,
    targets: Sequence[Target] = (Target.LATENCY,),
    specs: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    max_attempts: int = CHAOS_MAX_ATTEMPTS,
    timeout_s: Optional[float] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the chaos experiment and return the recovery report.

    Both runs disable the persistent cache and start from an empty
    trace store: a cache or memo hit would let the faulted run answer
    from the reference run's results, proving nothing about recovery.
    """
    if benchmarks is None:
        benchmarks = (
            BENCHMARK_NAMES[:QUICK_BENCHMARKS] if quick else BENCHMARK_NAMES
        )
    grid = [
        ExperimentJob(benchmark, target=target)
        for benchmark in benchmarks
        for target in targets
    ]

    predicted: Optional[Dict[str, int]] = None
    if specs is None:
        base = FaultSpec.parse(DEFAULT_SPEC)
        if quick:
            spec, predicted = _pick_quick_seed(
                grid, base.probability, max_attempts
            )
        else:
            spec = base
            predicted = predict_worker_run_faults(grid, spec, max_attempts)
        plan_specs: List[str] = [spec.encode()]
    else:
        plan_specs = list(specs)
        parsed = [FaultSpec.parse(s) for s in plan_specs]
        run_specs = [s for s in parsed if s.site == "worker.run"]
        if len(run_specs) == 1:
            predicted = predict_worker_run_faults(
                grid, run_specs[0], max_attempts
            )

    policy = RetryPolicy(max_attempts=max_attempts, timeout_s=timeout_s)

    with simcache.disabled():
        tracestore.clear()
        started = time.monotonic()
        # faults.pristine(): the reference grid must be fault-free even
        # when the process carries an ambient plan (CLI --inject-fault,
        # REPRO_FAULTS, or a leaked test plan).
        with faults.pristine():
            reference = run_experiments(
                grid, n_jobs=jobs, policy=RetryPolicy(max_attempts=1),
                journal=None, degrade=False,
            )
        reference_wall_s = time.monotonic() - started

        # In-process cells (--jobs 1) would otherwise read the reference
        # run's baselines and optimized stats back from the trace store.
        tracestore.clear()
        before = obs.counters.snapshot()
        started = time.monotonic()
        with faults.active(plan_specs):
            chaotic = run_experiments(
                grid, n_jobs=jobs, policy=policy, journal=None,
                degrade=True,
            )
        chaos_wall_s = time.monotonic() - started
        delta = obs.counters.delta_since(before)

    reference_rows = [_comparable(result_row(r)) for r in reference]
    chaos_rows = [_comparable(result_row(r)) for r in chaotic]

    identical = 0
    mismatched: List[Dict[str, object]] = []
    failures: List[Dict[str, object]] = []
    for job, ref_row, chaos_result, chaos_row in zip(
        grid, reference_rows, chaotic, chaos_rows
    ):
        if isinstance(chaos_result, JobFailure):
            failures.append(chaos_result.row())
            continue
        if chaos_row == ref_row:
            identical += 1
        else:
            mismatched.append(
                {
                    "benchmark": job.benchmark,
                    "target": job.target.label,
                    "reference": ref_row,
                    "chaos": chaos_row,
                }
            )

    injected = {
        name.split("faults.injected.", 1)[1]: int(value)
        for name, value in delta.items()
        if name.startswith("faults.injected.")
    }
    report: Dict[str, object] = {
        "specs": plan_specs,
        "cells": len(grid),
        "benchmarks": list(benchmarks),
        "targets": [t.label for t in targets],
        "max_attempts": max_attempts,
        "aborted_runs": 0,  # both run_experiments calls returned
        "completed_cells": len(grid) - len(failures),
        "failed_cells": failures,
        "identical_cells": identical,
        "mismatched_cells": mismatched,
        "injected": injected,
        "retries": int(delta.get("harness.parallel.retries", 0)),
        "recoveries": int(delta.get("harness.parallel.recoveries", 0)),
        "failures": int(delta.get("harness.parallel.failures", 0)),
        "timeouts": int(delta.get("harness.parallel.timeouts", 0)),
        "pool_rebuilds": int(
            delta.get("harness.parallel.pool_rebuilds", 0)
        ),
        "reference_wall_s": round(reference_wall_s, 3),
        "chaos_wall_s": round(chaos_wall_s, 3),
        "ok": not failures and not mismatched,
    }
    if predicted is not None:
        report["predicted_worker_run"] = predicted
        actual = injected.get("worker.run", 0)
        report["accounted"] = actual == predicted["injections"]
        report["ok"] = bool(report["ok"]) and bool(report["accounted"])
    obs.log_event(
        "chaos_report",
        level="info" if report["ok"] else "error",
        **{
            k: report[k]
            for k in (
                "cells",
                "identical_cells",
                "retries",
                "recoveries",
                "injected",
                "ok",
            )
        },
    )
    return report


# --------------------------------------------------------------------- #
# Server drill: kill -9 a faulted server mid-grid, resume, verify.

#: Default server-side injection: drop connections before parse, fail
#: enqueues after admission, drop connections after accept.  Moderate
#: probabilities -- every site must fire sometimes, but the submit retry
#: loop must converge quickly.
DEFAULT_SERVER_SPECS = (
    "server.accept:0.2:1",
    "queue.enqueue:0.2:1",
    "server.respond:0.2:1",
)

_SERVE_URL_RE = re.compile(
    r"serving on (http://[^ ]+) \(.*resumed: (\d+)\)"
)


class _ServeProcess:
    """A ``repro serve`` subprocess plus its parsed bind URL."""

    def __init__(
        self,
        state_dir: str,
        specs: Sequence[str] = (),
        resume: bool = False,
        drain_s: float = 120.0,
    ) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--state", state_dir,
            "--workers", "1",
            "--no-sim-cache",
            "--drain-timeout", str(drain_s),
        ]
        if resume:
            cmd.append("--resume")
        for spec in specs:
            cmd += ["--inject-fault", spec]
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        match = _SERVE_URL_RE.search(line)
        if not match:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(
                f"repro serve did not announce its URL (got {line!r})"
            )
        self.url = match.group(1)
        self.resumed = int(match.group(2))

    def kill9(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def terminate(self, timeout_s: float = 150.0) -> int:
        """SIGTERM and wait for the graceful-drain exit."""
        self.proc.terminate()
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def _submit_until_acked(
    client: Any,
    spec: Dict[str, Any],
    deadline: float,
) -> Tuple[Optional[str], int]:
    """Retry one submit through drops and sheds until a 202 lands.

    Returns ``(job_id, attempts)``; ``job_id`` is ``None`` only if the
    deadline expired first.  Resubmitting after an *ambiguous* drop
    (``server.respond`` fired after the accept was journaled) is safe by
    design: the content-addressed dedup attaches the retry to the
    already-accepted flight instead of re-running it.
    """
    attempts = 0
    while time.monotonic() < deadline:
        attempts += 1
        response = client.submit(spec)
        if response.status == 202:
            return str(response.body["job_id"]), attempts
        if response.status not in (0, 429, 503):
            raise RuntimeError(
                f"submit for {spec} got unexpected status "
                f"{response.status}: {response.body}"
            )
        time.sleep(0.05)
    return None, attempts


def _journal_duplicate_keys(state_dir: str) -> List[str]:
    """Cell keys journaled more than once -- exactly-once violations."""
    path = os.path.join(state_dir, "journal.jsonl")
    seen: Dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                except (ValueError, KeyError, TypeError):
                    continue
                seen[key] = seen.get(key, 0) + 1
    except OSError:
        return []
    return sorted(k for k, n in seen.items() if n > 1)


def run_server_chaos(
    benchmarks: Optional[Sequence[str]] = None,
    specs: Optional[Sequence[str]] = None,
    kill_after: int = 2,
    quick: bool = False,
    timeout_s: float = 420.0,
) -> Dict[str, object]:
    """The server resilience drill: prove the exactly-once contract.

    Phase 1 starts ``repro serve`` under connection-drop and enqueue
    faults, submits the grid through a retry loop until ``kill_after``
    jobs are acknowledged, then ``kill -9``\\ s the server.  Phase 2
    restarts it with ``--resume`` (fault-free) and verifies:

    - every phase-1 acknowledged job reaches DONE under its original ID
      (zero lost),
    - no cell key is journaled twice (zero duplicated completions),
    - every row is bit-identical to a fault-free in-process reference,
    - the restarted server drains cleanly on SIGTERM with exit 0.
    """
    from repro.server.client import ServerClient

    if benchmarks is None:
        count = QUICK_BENCHMARKS if quick else 3
        benchmarks = BENCHMARK_NAMES[:count]
    if specs is None:
        specs = DEFAULT_SERVER_SPECS
    submit_specs = [
        {"benchmark": benchmark, "target": Target.LATENCY.label}
        for benchmark in benchmarks
    ]
    kill_after = max(1, min(kill_after, len(submit_specs)))
    deadline = time.monotonic() + timeout_s

    # Fault-free reference rows, computed in this process.
    grid = [ExperimentJob(b, target=Target.LATENCY) for b in benchmarks]
    with simcache.disabled(), faults.pristine():
        reference = run_experiments(
            grid, policy=RetryPolicy(max_attempts=1), journal=None,
            degrade=False,
        )
    reference_rows = {
        spec["benchmark"]: _comparable(result_row(result))
        for spec, result in zip(submit_specs, reference)
    }

    state_dir = tempfile.mkdtemp(prefix="repro-server-chaos-")
    submit_attempts = 0

    # Phase 1: faulted server, ack kill_after jobs, kill -9.  Before the
    # kill, best-effort wait for the first job to complete, so the drill
    # covers both recovery paths: a journaled completion resolving
    # instantly post-resume, and an accepted-but-unfinished job
    # re-running.
    phase1 = _ServeProcess(state_dir, specs=specs)
    acked: Dict[str, Dict[str, Any]] = {}
    completed_before_kill = 0
    try:
        client = ServerClient(phase1.url, timeout_s=10.0)
        for spec in submit_specs[:kill_after]:
            job_id, attempts = _submit_until_acked(client, spec, deadline)
            submit_attempts += attempts
            if job_id is None:
                raise RuntimeError(
                    f"timed out acking {spec} under faults {specs}"
                )
            acked[job_id] = spec
        first = next(iter(acked))
        settle = min(deadline, time.monotonic() + 60.0)
        while time.monotonic() < settle:
            # Poll through the still-faulted server: drops and sheds
            # are retried, only a real terminal answer ends the wait.
            response = client.result(first)
            if response.status == 200:
                completed_before_kill = 1
                break
            if response.status not in (0, 202, 429, 503):
                break
            time.sleep(0.1)
    finally:
        phase1.kill9()

    # Phase 2: resume fault-free; every acked job must complete.
    phase2 = _ServeProcess(state_dir, resume=True)
    lost: List[str] = []
    mismatched: List[Dict[str, object]] = []
    failed: List[Dict[str, object]] = []
    identical = 0
    exit_code: Optional[int] = None
    try:
        client = ServerClient(phase2.url, timeout_s=10.0)
        for spec in submit_specs[kill_after:]:
            job_id, attempts = _submit_until_acked(client, spec, deadline)
            submit_attempts += attempts
            if job_id is None:
                raise RuntimeError(f"timed out acking {spec} post-resume")
            acked[job_id] = spec
        for job_id, spec in acked.items():
            remaining = max(1.0, deadline - time.monotonic())
            final = client.wait(job_id, timeout_s=remaining)
            if final.status == 404:
                lost.append(job_id)
                continue
            if final.status != 200:
                failed.append(
                    {"job_id": job_id, "status": final.status,
                     "body": final.body}
                )
                continue
            row = _comparable(dict(final.body["row"]))
            if row == reference_rows[spec["benchmark"]]:
                identical += 1
            else:
                mismatched.append(
                    {
                        "job_id": job_id,
                        "benchmark": spec["benchmark"],
                        "reference": reference_rows[spec["benchmark"]],
                        "server": row,
                    }
                )
    finally:
        exit_code = phase2.terminate()

    duplicates = _journal_duplicate_keys(state_dir)
    report: Dict[str, object] = {
        "specs": list(specs),
        "benchmarks": list(benchmarks),
        "cells": len(submit_specs),
        "kill_after": kill_after,
        "acked": len(acked),
        "completed_before_kill": completed_before_kill,
        "submit_attempts": submit_attempts,
        "resumed_jobs": phase2.resumed,
        "lost_jobs": lost,
        "failed_jobs": failed,
        "identical_rows": identical,
        "mismatched_rows": mismatched,
        "duplicate_completions": duplicates,
        "drain_exit_code": exit_code,
        "state_dir": state_dir,
        "ok": (
            not lost
            and not failed
            and not mismatched
            and not duplicates
            and identical == len(acked)
            and exit_code == 0
        ),
    }
    obs.log_event(
        "server_chaos_report",
        level="info" if report["ok"] else "error",
        **{
            k: report[k]
            for k in (
                "cells", "acked", "submit_attempts", "resumed_jobs",
                "identical_rows", "drain_exit_code", "ok",
            )
        },
    )
    return report
