"""Tests for the engine's recovery paths: retry, degradation, pool
rebuilds, timeouts, and checkpoint/resume.

These use fake (instant) jobs -- ``ExperimentJob.run`` is monkeypatched
before any pool exists, and the fork start method carries the patch into
workers -- so they exercise the engine machinery, not the simulator.
"""

import time

import pytest

from repro import faults, obs
from repro.errors import FaultInjectedError, ProgramError, WorkerCrashError
from repro.faults import FaultSpec, draw
from repro.harness import parallel
from repro.harness.journal import Journal
from repro.harness.parallel import (
    ExperimentJob,
    JobFailure,
    RetryPolicy,
    run_experiments,
)
from repro.pthsel.targets import Target

FAST = RetryPolicy(max_attempts=3)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def fake_jobs(monkeypatch):
    """Two instant jobs (patched before any pool forks workers)."""

    def fake_run(self):
        return {"benchmark": self.benchmark, "target": self.target.label}

    monkeypatch.setattr(ExperimentJob, "run", fake_run)
    return [
        ExperimentJob("gcc", target=Target.LATENCY),
        ExperimentJob("mcf", target=Target.ENERGY),
    ]


def _delta(before):
    return obs.counters.delta_since(before)


def _run_key(job, attempt):
    """The effective worker.run draw key for ``job`` at ``attempt``
    (scope ``<cell>:<attempt>`` mixed with the site key ``run``)."""
    return f"{job.cell_key()}:{attempt}|run"


def _seed_faulting_once(job, probability=0.5, clean=None):
    """A seed where ``job`` faults on attempt 1 but not attempt 2 (and
    the job ``clean``, if given, does not fault on attempt 1)."""
    for seed in range(512):
        spec = FaultSpec("worker.run", probability, seed)
        if (
            draw(spec, _run_key(job, 1))
            and not draw(spec, _run_key(job, 2))
            and not (clean and draw(spec, _run_key(clean, 1)))
        ):
            return seed
    raise AssertionError("no such seed in 512 tries")


# --------------------------------------------------------------------- #
# Retry
# --------------------------------------------------------------------- #


def test_sequential_retry_recovers(fake_jobs):
    job = fake_jobs[0]
    seed = _seed_faulting_once(job)
    before = obs.counters.snapshot()
    with faults.active([f"worker.run:0.5:{seed}"]):
        results = run_experiments(
            [job], n_jobs=1, policy=FAST, degrade=False
        )
    assert results == [{"benchmark": "gcc", "target": "L"}]
    delta = _delta(before)
    assert delta.get("harness.parallel.retries") == 1
    assert delta.get("harness.parallel.recoveries") == 1
    assert delta.get("faults.injected.worker.run") == 1


class _NoSleep:
    """Stands in for the engine's ``time`` module: a retry must not
    wait, so any sleep is an error."""

    monotonic = staticmethod(time.monotonic)

    @staticmethod
    def sleep(seconds):
        raise AssertionError(f"engine slept {seconds}s before a retry")


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_retry_does_not_wait(n_jobs, fake_jobs, monkeypatch):
    seed = _seed_faulting_once(fake_jobs[0], clean=fake_jobs[1])
    monkeypatch.setattr(parallel, "time", _NoSleep)
    before = obs.counters.snapshot()
    with faults.active([f"worker.run:0.5:{seed}"]):
        results = run_experiments(
            fake_jobs, n_jobs=n_jobs, policy=FAST, degrade=False
        )
    assert results == [
        {"benchmark": "gcc", "target": "L"},
        {"benchmark": "mcf", "target": "E"},
    ]
    delta = _delta(before)
    assert delta.get("harness.parallel.retries") == 1
    assert delta.get("harness.parallel.recoveries") == 1


def test_pool_retry_recovers_bit_identical(fake_jobs):
    seed = _seed_faulting_once(fake_jobs[0])
    spec = FaultSpec("worker.run", 0.5, seed)
    # The other job must also finish inside the retry budget.
    assert not all(
        draw(spec, _run_key(fake_jobs[1], a))
        for a in range(1, FAST.max_attempts + 1)
    )
    expected = [
        {"benchmark": "gcc", "target": "L"},
        {"benchmark": "mcf", "target": "E"},
    ]
    before = obs.counters.snapshot()
    with faults.active([spec]):
        results = run_experiments(
            fake_jobs, n_jobs=2, policy=FAST, degrade=True
        )
    assert results == expected  # same order, same values as fault-free
    delta = _delta(before)
    assert delta.get("harness.parallel.retries", 0) >= 1
    assert delta.get("harness.parallel.recoveries", 0) >= 1
    assert not delta.get("harness.parallel.failures", 0)


def test_exhausted_retries_degrade_to_failure_row(fake_jobs):
    job = fake_jobs[0]
    before = obs.counters.snapshot()
    with faults.active(["worker.run:1.0"]):
        results = run_experiments(
            [job], n_jobs=1, policy=FAST, degrade=True
        )
    (failure,) = results
    assert isinstance(failure, JobFailure)
    assert failure.failed is True
    assert failure.error == "FaultInjectedError"
    assert failure.attempts == FAST.max_attempts
    assert failure.benchmark == "gcc"
    row = failure.row()
    assert row["failed"] is True and row["error"] == "FaultInjectedError"
    delta = _delta(before)
    assert delta.get("harness.parallel.failures") == 1
    assert delta.get("harness.parallel.retries") == FAST.max_attempts - 1


def test_exhausted_retries_raise_without_degrade(fake_jobs):
    with faults.active(["worker.run:1.0"]):
        with pytest.raises(FaultInjectedError):
            run_experiments(
                [fake_jobs[0]], n_jobs=1, policy=FAST, degrade=False
            )


def test_deterministic_errors_fail_fast(monkeypatch):
    def broken_run(self):
        raise ProgramError("label defined nowhere")

    monkeypatch.setattr(ExperimentJob, "run", broken_run)
    job = ExperimentJob("gcc")
    results = run_experiments([job], n_jobs=1, policy=FAST, degrade=True)
    (failure,) = results
    assert isinstance(failure, JobFailure)
    assert failure.error == "ProgramError"
    assert failure.attempts == 1  # no retries for NON_RETRYABLE


# --------------------------------------------------------------------- #
# Pool rebuilds: broken initializers and hung workers
# --------------------------------------------------------------------- #


def _seed_breaking_first_pool(probability=0.5):
    """worker.start fires for epoch 0 but not epochs 1-3 (parent-side
    draws are unscoped)."""
    for seed in range(512):
        spec = FaultSpec("worker.start", probability, seed)
        if draw(spec, "epoch:0") and not any(
            draw(spec, f"epoch:{e}") for e in (1, 2, 3)
        ):
            return seed
    raise AssertionError("no such seed in 512 tries")


def test_broken_pool_is_rebuilt(fake_jobs):
    seed = _seed_breaking_first_pool()
    before = obs.counters.snapshot()
    with faults.active([f"worker.start:0.5:{seed}"]):
        results = run_experiments(
            fake_jobs, n_jobs=2, policy=FAST, degrade=True
        )
    assert results == [
        {"benchmark": "gcc", "target": "L"},
        {"benchmark": "mcf", "target": "E"},
    ]
    delta = _delta(before)
    assert delta.get("harness.parallel.pool_rebuilds", 0) >= 1
    assert delta.get("harness.parallel.pools_started", 0) >= 2
    assert delta.get("faults.injected.worker.start") == 1


def test_unrebuildable_pool_gives_up(fake_jobs, monkeypatch):
    # Generous per-cell attempts so the pool-rebuild budget -- not
    # retry exhaustion -- is deterministically what trips first.
    monkeypatch.setattr(parallel, "MAX_POOL_REBUILDS", 2)
    policy = RetryPolicy(max_attempts=10)
    with faults.active(["worker.start:1.0"]):
        with pytest.raises(WorkerCrashError, match="giving up"):
            run_experiments(
                fake_jobs, n_jobs=2, policy=policy, degrade=True
            )


def test_timeouts_do_not_spend_the_rebuild_budget(fake_jobs, monkeypatch):
    # Every attempt of both cells hangs, so the one-worker grid rebuilds
    # its pool after each of four timeouts: twice the budget, which
    # counts broken pools only.  max_attempts bounds the timeouts.
    monkeypatch.setattr(parallel, "MAX_POOL_REBUILDS", 1)
    monkeypatch.setattr(parallel, "HANG_SECONDS", 2.0)
    policy = RetryPolicy(max_attempts=2, timeout_s=0.3)
    before = obs.counters.snapshot()
    with faults.active(["worker.hang:1.0"]):
        results = run_experiments(
            fake_jobs, n_jobs=1, policy=policy, degrade=True
        )
    assert [type(r) for r in results] == [JobFailure, JobFailure]
    assert [r.error for r in results] == ["SimulationTimeoutError"] * 2
    assert [r.attempts for r in results] == [2, 2]
    assert _delta(before).get("harness.parallel.pool_rebuilds") == 4


def _seed_hanging_once(job, other, probability=0.5):
    """``job`` hangs on attempt 1 only; ``other`` never hangs."""
    for seed in range(2048):
        spec = FaultSpec("worker.hang", probability, seed)
        if (
            draw(spec, f"{job.cell_key()}:1|hang")
            and not draw(spec, f"{job.cell_key()}:2|hang")
            and not any(
                draw(spec, f"{other.cell_key()}:{a}|hang")
                for a in (1, 2, 3)
            )
        ):
            return seed
    raise AssertionError("no such seed in 2048 tries")


def test_hung_job_times_out_and_recovers(fake_jobs):
    seed = _seed_hanging_once(fake_jobs[0], fake_jobs[1])
    policy = RetryPolicy(max_attempts=3, timeout_s=0.5)
    before = obs.counters.snapshot()
    with faults.active([f"worker.hang:0.5:{seed}"]):
        results = run_experiments(
            fake_jobs, n_jobs=2, policy=policy, degrade=True
        )
    assert results == [
        {"benchmark": "gcc", "target": "L"},
        {"benchmark": "mcf", "target": "E"},
    ]
    delta = _delta(before)
    assert delta.get("harness.parallel.timeouts") == 1
    assert delta.get("harness.parallel.pool_rebuilds", 0) >= 1


def test_timeout_holds_with_one_worker(fake_jobs, monkeypatch):
    # A single-cell grid still runs in a pool when a timeout is set:
    # an in-process hang could not be cut short.
    monkeypatch.setattr(parallel, "HANG_SECONDS", 2.0)
    policy = RetryPolicy(max_attempts=1, timeout_s=0.5)
    with faults.active(["worker.hang:1.0"]):
        (result,) = run_experiments(
            [fake_jobs[0]], n_jobs=4, policy=policy, degrade=True
        )
    assert isinstance(result, JobFailure)
    assert result.error == "SimulationTimeoutError"


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #


def test_journal_checkpoints_every_completed_cell(fake_jobs, tmp_path):
    journal = Journal.for_run_dir(str(tmp_path))
    run_experiments(fake_jobs, n_jobs=1, policy=FAST, journal=journal)
    entries = Journal.for_run_dir(str(tmp_path)).load()
    assert set(entries) == {job.cell_key() for job in fake_jobs}


def test_resume_skips_completed_cells(fake_jobs, tmp_path, monkeypatch):
    journal = Journal.for_run_dir(str(tmp_path))
    expected = run_experiments(
        fake_jobs, n_jobs=1, policy=FAST, journal=journal
    )

    # A resumed run must not re-execute finished cells: make execution
    # itself an error.
    def must_not_run(self):
        raise AssertionError("resumed cell was re-executed")

    monkeypatch.setattr(ExperimentJob, "run", must_not_run)
    resumed_journal = Journal.for_run_dir(str(tmp_path))
    resumed_journal.load()
    before = obs.counters.snapshot()
    results = run_experiments(
        fake_jobs, n_jobs=1, policy=FAST, journal=resumed_journal
    )
    assert results == expected
    delta = _delta(before)
    assert delta.get("harness.parallel.cells_resumed") == 2
    assert not delta.get("harness.parallel.jobs_dispatched", 0)


def test_partial_journal_runs_only_missing_cells(
    fake_jobs, tmp_path, monkeypatch
):
    journal = Journal.for_run_dir(str(tmp_path))
    run_experiments(
        [fake_jobs[0]], n_jobs=1, policy=FAST, journal=journal
    )

    ran = []
    original_run = ExperimentJob.run

    def counting_run(self):
        ran.append(self.benchmark)
        return original_run(self)

    monkeypatch.setattr(ExperimentJob, "run", counting_run)
    resumed = Journal.for_run_dir(str(tmp_path))
    resumed.load()
    results = run_experiments(
        fake_jobs, n_jobs=1, policy=FAST, journal=resumed
    )
    assert ran == ["mcf"]  # only the unjournaled cell executed
    assert results == [
        {"benchmark": "gcc", "target": "L"},
        {"benchmark": "mcf", "target": "E"},
    ]


def test_failed_cells_are_not_journaled(fake_jobs, tmp_path):
    journal = Journal.for_run_dir(str(tmp_path))
    with faults.active(["worker.run:1.0"]):
        results = run_experiments(
            fake_jobs, n_jobs=1, policy=FAST, journal=journal,
            degrade=True,
        )
    assert all(isinstance(r, JobFailure) for r in results)
    assert Journal.for_run_dir(str(tmp_path)).load() == {}
