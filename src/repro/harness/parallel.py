"""Fault-tolerant parallel experiment engine.

Every paper figure is a grid of *independent* experiments -- benchmark x
target x sweep point -- so the harness fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor`:

- ``jobs=1`` (or a single-job grid) preserves the in-process sequential
  path exactly: no pool, no pickling, byte-identical behavior to the
  pre-parallel harness.
- ``jobs=N`` dispatches whole experiments to worker processes.  The
  simulators are deterministic, so results are bit-identical to the
  sequential path regardless of worker count, completion order, or how
  many retries a cell needed (results are returned in submission order).
- Identical baseline simulations are **deduplicated before dispatch**:
  a sweep that reuses one baseline across many targets warms it exactly
  once (through :mod:`repro.harness.simcache`) instead of simulating it
  concurrently in several workers.
- Worker telemetry is not dropped: each job returns the
  :mod:`repro.obs` counter delta it produced -- *also on failure* -- and
  the parent merges it into its own registry, so run manifests account
  for all work done, including every injected fault.

Long sweeps must survive partial failure, so the engine layers four
recovery mechanisms on top of the fan-out:

- **Bounded retries with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`): transient job failures re-run up to
  ``max_attempts`` times; deterministic errors (:data:`NON_RETRYABLE`)
  fail fast.
- **Per-job wall-clock timeouts**: a hung worker cannot be cancelled,
  so the engine terminates the pool, rebuilds it, and re-submits every
  outstanding job (the timed-out cell with its attempt count bumped).
- **BrokenProcessPool recovery**: a crashed worker (or a failed worker
  initializer) breaks the whole pool; the engine rebuilds it -- at most
  ``max_pool_rebuilds`` times -- and re-submits outstanding jobs.
- **Graceful degradation**: with ``degrade=True``, a cell that exhausts
  its attempts yields a structured :class:`JobFailure` row (error
  class, attempts, elapsed) instead of aborting the grid.

A :class:`~repro.harness.journal.Journal` checkpoints each completed
cell as it finishes; an interrupted run resumed with the same journal
skips every finished cell.  ``KeyboardInterrupt``/``SIGTERM`` terminate
and join all workers (no orphans) before propagating, with the journal
already flushed per record.

The worker count resolves as: explicit argument > ``REPRO_JOBS``
environment variable > ``os.cpu_count()``.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import faults, obs
from repro.obs import utrace
from repro.config import (
    EnergyConfig,
    MachineConfig,
    SelectionConfig,
    SimulationConfig,
)
from repro.errors import (
    ReproError,
    SimulationTimeoutError,
    WorkerCrashError,
    is_retryable,
)
from repro.cpu import engine as sim_engine
from repro.harness import simcache
from repro.harness.experiment import (
    ExperimentResult,
    run_experiment,
    warm_baseline,
)
from repro.harness.journal import Journal
from repro.pthsel.targets import Target

_JOBS_DISPATCHED = obs.counters.counter("harness.parallel.jobs_dispatched")
_BASELINES_DEDUPED = obs.counters.counter(
    "harness.parallel.baselines_deduped"
)
_POOLS_STARTED = obs.counters.counter("harness.parallel.pools_started")
_RETRIES = obs.counters.counter("harness.parallel.retries")
_RECOVERIES = obs.counters.counter("harness.parallel.recoveries")
_FAILURES = obs.counters.counter("harness.parallel.failures")
_TIMEOUTS = obs.counters.counter("harness.parallel.timeouts")
_POOL_REBUILDS = obs.counters.counter("harness.parallel.pool_rebuilds")
_INTERRUPTS = obs.counters.counter("harness.parallel.interrupts")
_CELLS_RESUMED = obs.counters.counter("harness.parallel.cells_resumed")

#: How long an injected ``worker.hang`` fault sleeps; far beyond any
#: sane per-job timeout, so the timeout path always fires first.
HANG_SECONDS = 600.0


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine retries, backs off, and times out grid jobs."""

    #: Total tries per cell (1 = no retries).
    max_attempts: int = 3
    #: First backoff delay; doubles per attempt up to ``max_delay_s``.
    base_delay_s: float = 0.1
    max_delay_s: float = 2.0
    #: +/- fraction of the backoff applied as deterministic jitter.
    jitter: float = 0.25
    #: Per-job wall clock; ``None`` disables (and the in-process
    #: sequential path cannot enforce one either way).
    timeout_s: Optional[float] = None
    #: Pool rebuilds (worker crashes, hangs, failed initializers)
    #: tolerated before the whole grid is declared unrunnable.
    max_pool_rebuilds: int = 5

    def delay_for(self, attempt: int, key: str) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered
        deterministically from the ``cell:attempt`` key -- the same
        material :func:`repro.faults.scoped` mixes into fault draws --
        so a ``--resume`` (or any rerun of the same cell) replays an
        identical backoff schedule while a burst of failed cells still
        doesn't retry in lockstep."""
        base = min(
            self.base_delay_s * (2.0 ** max(0, attempt - 1)),
            self.max_delay_s,
        )
        sample = faults.unit(f"backoff|{key}:{attempt}")
        return max(0.0, base * (1.0 + self.jitter * (2.0 * sample - 1.0)))


@dataclass
class JobFailure:
    """A grid cell that exhausted its attempts, as a structured row.

    Under graceful degradation these take the failed cell's place in
    the results list, so a partial grid still renders -- with gaps --
    and the manifest records exactly what failed and why.
    """

    benchmark: str
    target: Target
    error: str
    message: str
    attempts: int
    elapsed_s: float
    cell_key: str = ""
    context: Dict[str, object] = field(default_factory=dict)
    tag: Dict[str, object] = field(default_factory=dict)

    #: Discriminates failure rows in ``results.jsonl``.
    failed: bool = True

    def row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "benchmark": self.benchmark,
            "target": self.target.label,
            "failed": True,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 3),
        }
        row.update(self.tag)
        return row


@dataclass
class ExperimentJob:
    """One unit of work for the engine: the arguments of
    :func:`repro.harness.experiment.run_experiment`, plus an arbitrary
    ``tag`` of extra row columns (e.g. the sweep point that produced it).
    """

    benchmark: str
    target: Target = Target.LATENCY
    profile_input: str = "train"
    run_input: str = "train"
    machine: Optional[MachineConfig] = None
    energy: Optional[EnergyConfig] = None
    selection: Optional[SelectionConfig] = None
    sim: Optional[SimulationConfig] = None
    include_branch_pthreads: bool = False
    tag: Dict[str, object] = field(default_factory=dict)

    def run(self) -> ExperimentResult:
        return run_experiment(
            self.benchmark,
            target=self.target,
            profile_input=self.profile_input,
            run_input=self.run_input,
            machine=self.machine,
            energy=self.energy,
            selection=self.selection,
            sim=self.sim,
            include_branch_pthreads=self.include_branch_pthreads,
        )

    def baseline_keys(
        self,
    ) -> List[Tuple[str, str, MachineConfig, SimulationConfig]]:
        """The baseline simulations this job will need (run + profile)."""
        machine = self.machine or MachineConfig()
        sim = self.sim or SimulationConfig()
        keys = [(self.benchmark, self.run_input, machine, sim)]
        if self.profile_input != self.run_input:
            keys.append((self.benchmark, self.profile_input, machine, sim))
        return keys

    def cell_key(self) -> str:
        """Content hash of the cell's full configuration.

        Used as the journal key and the fault/jitter draw key, so two
        jobs are the same cell iff every input that could change the
        result is the same.
        """
        from repro.obs.manifest import stable_json

        material = {
            "benchmark": self.benchmark,
            "target": self.target.label,
            "profile_input": self.profile_input,
            "run_input": self.run_input,
            "machine": (self.machine or MachineConfig()).fingerprint,
            "energy": (self.energy or EnergyConfig()).fingerprint,
            "selection": (self.selection or SelectionConfig()).fingerprint,
            "sim": (self.sim or SimulationConfig()).fingerprint,
            "branch_pthreads": self.include_branch_pthreads,
            "tag": self.tag,
        }
        return hashlib.sha256(
            stable_json(material).encode()
        ).hexdigest()[:20]


GridResult = Union[ExperimentResult, JobFailure]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: argument > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# --------------------------------------------------------------------- #
# Ambient engine options.  The CLI configures retry/journal/degradation
# once per invocation; figure helpers deep in the call tree then pick
# them up without threading kwargs through every signature.
# --------------------------------------------------------------------- #

_OPTIONS: Dict[str, object] = {
    "policy": None,
    "journal": None,
    "degrade": None,
}


@contextlib.contextmanager
def engine_options(
    policy: Optional[RetryPolicy] = None,
    journal: Optional[Journal] = None,
    degrade: Optional[bool] = None,
) -> Iterator[None]:
    """Scope default engine options for nested :func:`run_experiments`."""
    previous = dict(_OPTIONS)
    if policy is not None:
        _OPTIONS["policy"] = policy
    if journal is not None:
        _OPTIONS["journal"] = journal
    if degrade is not None:
        _OPTIONS["degrade"] = degrade
    try:
        yield
    finally:
        _OPTIONS.update(previous)


def _resolve_options(
    policy: Optional[RetryPolicy],
    journal: Optional[Journal],
    degrade: Optional[bool],
) -> Tuple[RetryPolicy, Optional[Journal], bool]:
    if policy is None:
        policy = _OPTIONS["policy"] or RetryPolicy()
    if journal is None:
        journal = _OPTIONS["journal"]
    if degrade is None:
        degrade = bool(_OPTIONS["degrade"])
    return policy, journal, degrade


# --------------------------------------------------------------------- #
# Worker side.  Module-level functions so they pickle under any start
# method; the initializer re-applies the parent's cache, log, and fault
# configuration (fork inherits it, spawn does not).
# --------------------------------------------------------------------- #


@dataclass
class _WorkerFailure:
    """A worker-side exception, shipped back as a value so the counter
    delta (including injected-fault counts) survives the failure."""

    error: str
    message: str
    context: Dict[str, object]
    retryable: bool


def _worker_init(
    cache_dir: Optional[str],
    cache_enabled: bool,
    log_level: str,
    fault_specs: Sequence[str],
    fail_start: bool,
    utrace_payload: Optional[Dict[str, object]] = None,
    cycle_backend: Optional[str] = None,
    quiet: bool = False,
) -> None:
    simcache.configure(cache_dir=cache_dir, enabled=cache_enabled)
    if log_level != "off":
        obs.configure(level=log_level)
    # --quiet must silence heartbeats in the workers too.
    obs.set_quiet(quiet)
    # A spawn-started worker must re-apply the cycle-engine backend: a
    # --sim-backend override lives in process state, not the environment.
    if cycle_backend is not None:
        sim_engine.set_sim_backend(cycle_backend)
    # Microarchitectural tracing configuration must survive spawn too;
    # worker-side trace files land in the same --out directory and the
    # artifact records ride back on the ExperimentResult.
    utrace.apply_encoded(utrace_payload)
    faults.configure(fault_specs)
    if fail_start:
        # The parent drew the worker.start fault for this pool epoch
        # (and counted it); every worker in the epoch dies at birth,
        # breaking the pool -- the BrokenProcessPool recovery path.
        raise RuntimeError("injected fault at worker.start")


def _execute_job(
    job: ExperimentJob, cell_key: str, attempt: int
) -> ExperimentResult:
    """Run one job, honoring the worker.run / worker.hang fault sites.

    Draw keys include the attempt number, so a retried cell samples
    independently and recovery converges.  The whole job runs under a
    ``faults.scoped`` context for the same reason: sites deep inside the
    job (``pipeline.step``, ``simcache.*``) key their draws on replayed
    deterministic state, and only the mixed-in scope makes a retry a
    fresh sample instead of a permafail.
    """
    with faults.scoped(f"{cell_key}:{attempt}"):
        faults.raise_if("worker.run", key="run")
        if faults.site_active("worker.hang") and faults.should_fault(
            "worker.hang", key="hang"
        ):
            time.sleep(HANG_SECONDS)
        if utrace.enabled():
            # Distinct sweep cells can share a benchmark+target label;
            # the cell key disambiguates their trace file names.
            with utrace.scope(cell=cell_key[:12]):
                return job.run()
        return job.run()


def _describe_failure(exc: BaseException) -> _WorkerFailure:
    return _WorkerFailure(
        error=type(exc).__name__,
        message=str(exc),
        context=dict(getattr(exc, "context", {}) or {}),
        retryable=is_retryable(exc),
    )


def _worker_experiment(
    job: ExperimentJob, cell_key: str, attempt: int
) -> Tuple[
    Optional[ExperimentResult], Optional[_WorkerFailure], Dict[str, float]
]:
    """Run one job in a pool worker; returns ``(result, failure,
    counter_delta)``."""
    before = obs.counters.snapshot()
    result: Optional[ExperimentResult] = None
    failure: Optional[_WorkerFailure] = None
    try:
        result = _execute_job(job, cell_key, attempt)
    except Exception as exc:
        failure = _describe_failure(exc)
    return result, failure, obs.counters.delta_since(before)


def _worker_warm(
    key: Tuple[str, str, MachineConfig, SimulationConfig],
) -> Dict[str, float]:
    benchmark, input_name, machine, sim = key
    before = obs.counters.snapshot()
    warm_baseline(benchmark, input_name, machine=machine, sim=sim)
    return obs.counters.delta_since(before)


# --------------------------------------------------------------------- #
# Parent side.
# --------------------------------------------------------------------- #


def _dedupe_baselines(
    jobs: Sequence[ExperimentJob],
) -> List[Tuple[str, str, MachineConfig, SimulationConfig]]:
    """Unique baseline sims the grid needs, in first-appearance order;
    only keys needed by more than one job are worth pre-warming."""
    counts: Dict[Tuple, int] = {}
    order: List[Tuple[str, str, MachineConfig, SimulationConfig]] = []
    for job in jobs:
        for key in job.baseline_keys():
            if key not in counts:
                order.append(key)
            counts[key] = counts.get(key, 0) + 1
    shared = [key for key in order if counts[key] > 1]
    if shared:
        _BASELINES_DEDUPED.add(
            sum(counts[key] - 1 for key in shared)
        )
    return shared


@dataclass
class _Flight:
    """One in-flight pool submission."""

    index: int
    job: ExperimentJob
    key: str
    attempt: int
    started: float
    deadline: Optional[float]


def _journal_record(
    journal: Optional[Journal],
    key: str,
    job: ExperimentJob,
    result: ExperimentResult,
    attempts: int,
    elapsed_s: float,
) -> None:
    if journal is not None:
        meta: Dict[str, object] = {
            "benchmark": job.benchmark,
            "target": job.target.label,
            "attempts": attempts,
            "elapsed_s": round(elapsed_s, 3),
        }
        arts = getattr(result, "trace_artifacts", None)
        if arts:
            # Resume treats a traced cell as complete only while its
            # trace files exist (Journal.result_for checks these paths).
            meta["trace_artifacts"] = [a["path"] for a in arts]
        journal.record(key, result, **meta)


def _adopt_trace_artifacts(result: object) -> None:
    """Register trace artifacts produced outside this process's utrace
    registry (worker-side runs, journal-resumed cells) so the CLI's
    manifest drain sees every file of the grid."""
    arts = getattr(result, "trace_artifacts", None)
    if arts:
        utrace.register_artifacts(list(arts))


def _make_failure(
    job: ExperimentJob,
    key: str,
    failure: _WorkerFailure,
    attempts: int,
    elapsed_s: float,
) -> JobFailure:
    _FAILURES.add()
    obs.log_event(
        "job_failed",
        level="error",
        benchmark=job.benchmark,
        target=job.target.label,
        error=failure.error,
        message=failure.message,
        attempts=attempts,
        elapsed_s=round(elapsed_s, 3),
    )
    return JobFailure(
        benchmark=job.benchmark,
        target=job.target,
        error=failure.error,
        message=failure.message,
        attempts=attempts,
        elapsed_s=elapsed_s,
        cell_key=key,
        context=failure.context,
        tag=dict(job.tag),
    )


def _failure_exception(jf: JobFailure) -> ReproError:
    """The exception to raise for ``jf`` when degradation is off."""
    if jf.error == "SimulationTimeoutError":
        return SimulationTimeoutError(
            jf.message,
            benchmark=jf.benchmark,
            target=jf.target.label,
            attempt=jf.attempts,
            **jf.context,
        )
    if jf.error in ("WorkerCrashError", "BrokenProcessPool"):
        return WorkerCrashError(
            jf.message,
            benchmark=jf.benchmark,
            target=jf.target.label,
            attempt=jf.attempts,
            **jf.context,
        )
    return ReproError(
        f"{jf.benchmark}/{jf.target.label} failed after "
        f"{jf.attempts} attempt(s): {jf.error}: {jf.message}"
    )


def _log_retry(
    job: ExperimentJob, attempt: int, error: str, delay: float
) -> None:
    _RETRIES.add()
    obs.log_event(
        "job_retry",
        level="warning",
        benchmark=job.benchmark,
        target=job.target.label,
        attempt=attempt,
        error=error,
        backoff_s=round(delay, 3),
    )


def _log_recovery(job: ExperimentJob, attempts: int) -> None:
    _RECOVERIES.add()
    obs.log_event(
        "job_recovered",
        level="info",
        benchmark=job.benchmark,
        target=job.target.label,
        attempts=attempts,
    )


# --------------------------------------------------------------------- #
# Pool lifecycle.
# --------------------------------------------------------------------- #


def _new_pool(workers: int, epoch: int) -> ProcessPoolExecutor:
    cache = simcache.get_cache()
    fail_start = faults.should_fault("worker.start", key=f"epoch:{epoch}")
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(
            cache.root if cache is not None else None,
            cache is not None,
            obs.current_level(),
            faults.encode_plan(),
            fail_start,
            utrace.encode(),
            sim_engine.backend(),
            obs.is_quiet(),
        ),
    )
    _POOLS_STARTED.add()
    return pool


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate and join every worker: used on rebuilds and interrupts
    so no orphan processes outlive the grid."""
    # Snapshot first: shutdown() drops the executor's reference to its
    # process table, and a hung worker never exits on its own.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        except Exception:
            pass


# --------------------------------------------------------------------- #
# The engine.
# --------------------------------------------------------------------- #


def run_experiments(
    jobs: Sequence[ExperimentJob],
    n_jobs: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[Journal] = None,
    degrade: Optional[bool] = None,
) -> List[GridResult]:
    """Run a grid of experiments, in parallel when ``n_jobs > 1``.

    Results come back in submission order and are bit-identical to the
    sequential path (the grid cells are independent deterministic
    simulations; retries re-run the same pure function).  Worker counter
    deltas are merged into this process's :data:`repro.obs.counters`
    registry.

    ``policy``/``journal``/``degrade`` default to the ambient
    :func:`engine_options`.  With ``degrade=True``, cells that exhaust
    their retries come back as :class:`JobFailure` entries instead of
    raising.  With a ``journal``, completed cells are checkpointed as
    they finish and previously journaled cells are skipped.
    """
    jobs = list(jobs)
    policy, journal, degrade = _resolve_options(policy, journal, degrade)
    results: List[Optional[GridResult]] = [None] * len(jobs)

    # Resume: serve journaled cells without re-running them.
    to_run: List[Tuple[int, ExperimentJob, str]] = []
    for index, job in enumerate(jobs):
        key = job.cell_key()
        if journal is not None:
            # Only successful cells are journaled, so any payload that
            # unpickles is a completed result.
            cached = journal.result_for(key)
            if cached is not None:
                results[index] = cached
                if utrace.enabled():
                    _adopt_trace_artifacts(cached)
                _CELLS_RESUMED.add()
                obs.log_event(
                    "cell_resumed",
                    benchmark=job.benchmark,
                    target=job.target.label,
                )
                continue
        to_run.append((index, job, key))

    if to_run:
        _JOBS_DISPATCHED.add(len(to_run))
        n = min(resolve_jobs(n_jobs), max(1, len(to_run)))
        if n <= 1 or len(to_run) <= 1:
            # Sequential path: advance shared-trace cells' baselines in
            # lock-step batches first (no-op whenever simulations must
            # run on the reference engine); each cell then hits the
            # baseline LRU.  The
            # pool path instead fans baselines out across workers below.
            from repro.harness import batchplan

            batchplan.maybe_prewarm([job for _, job, _ in to_run])
            _run_sequential(to_run, policy, journal, degrade, results)
        else:
            with obs.span("parallel_grid", jobs=len(to_run), workers=n):
                _run_pool(to_run, n, policy, journal, degrade, results)

    return list(results)  # type: ignore[arg-type]


def _run_sequential(
    to_run: Sequence[Tuple[int, ExperimentJob, str]],
    policy: RetryPolicy,
    journal: Optional[Journal],
    degrade: bool,
    results: List[Optional[GridResult]],
) -> None:
    """The in-process path: same retry semantics, no timeouts (a hung
    simulation in this process cannot be preempted)."""
    for index, job, key in to_run:
        started = time.monotonic()
        attempt = 1
        while True:
            try:
                result = _execute_job(job, key, attempt)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failure = _describe_failure(exc)
                if failure.retryable and attempt < policy.max_attempts:
                    delay = policy.delay_for(attempt, key)
                    _log_retry(job, attempt, failure.error, delay)
                    time.sleep(delay)
                    attempt += 1
                    continue
                elapsed = time.monotonic() - started
                jf = _make_failure(job, key, failure, attempt, elapsed)
                if not degrade:
                    raise  # in-process: the original exception is best
                results[index] = jf
                break
            else:
                if attempt > 1:
                    _log_recovery(job, attempt)
                _journal_record(
                    journal, key, job, result, attempt,
                    time.monotonic() - started,
                )
                results[index] = result
                break


def _run_pool(
    to_run: Sequence[Tuple[int, ExperimentJob, str]],
    n: int,
    policy: RetryPolicy,
    journal: Optional[Journal],
    degrade: bool,
    results: List[Optional[GridResult]],
) -> None:
    pool = _new_pool(n, epoch=0)
    epoch = 0

    #: FIFO of (index, job, key, attempt) ready to submit.
    pending: Deque[Tuple[int, ExperimentJob, str, int]] = deque(
        (index, job, key, 1) for index, job, key in to_run
    )
    #: Min-heap of (due_monotonic, seq, index, job, key, attempt).
    backoff: List[Tuple[float, int, int, ExperimentJob, str, int]] = []
    backoff_seq = 0
    inflight: Dict[Future, _Flight] = {}
    started_at: Dict[int, float] = {}

    def rebuild(reason: str) -> None:
        nonlocal pool, epoch
        _kill_pool(pool)
        epoch += 1
        if epoch > policy.max_pool_rebuilds:
            raise WorkerCrashError(
                f"process pool broke {epoch} times (last: {reason}); "
                f"giving up on the grid",
                cause=reason,
                rebuilds=epoch - 1,
            )
        _POOL_REBUILDS.add()
        obs.log_event(
            "pool_rebuilt", level="warning", reason=reason, epoch=epoch
        )
        pool = _new_pool(n, epoch)

    def settle(
        index: int,
        job: ExperimentJob,
        key: str,
        attempt: int,
        failure: _WorkerFailure,
    ) -> None:
        """Retry a failed attempt, or finalize it as a JobFailure."""
        nonlocal backoff_seq
        if failure.retryable and attempt < policy.max_attempts:
            delay = policy.delay_for(attempt, key)
            _log_retry(job, attempt, failure.error, delay)
            backoff_seq += 1
            heapq.heappush(
                backoff,
                (
                    time.monotonic() + delay,
                    backoff_seq,
                    index,
                    job,
                    key,
                    attempt + 1,
                ),
            )
            return
        elapsed = time.monotonic() - started_at.get(index, time.monotonic())
        jf = _make_failure(job, key, failure, attempt, elapsed)
        if not degrade:
            raise _failure_exception(jf)
        results[index] = jf

    def warm_shared() -> None:
        """Pre-warm deduplicated baselines; purely an optimization, so
        any failure here just logs and moves on (a broken pool is
        rebuilt, everything else is retried implicitly by the jobs
        themselves)."""
        # Under tracing there is nothing to share: the stats caches are
        # bypassed so each traced cell must simulate its own baseline.
        if simcache.get_cache() is None or utrace.enabled():
            return
        shared = _dedupe_baselines([job for _, job, _ in to_run])
        if not shared:
            return
        try:
            futures = [pool.submit(_worker_warm, key) for key in shared]
            for future in futures:
                try:
                    obs.counters.merge(future.result())
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    obs.log_event(
                        "baseline_warm_failed",
                        level="warning",
                        error=type(exc).__name__,
                        detail=str(exc),
                    )
        except BrokenProcessPool:
            rebuild("broken_pool_during_warm")

    try:
        # Phase 1: warm shared baselines once each.  Without a
        # persistent cache there is no medium to share them through,
        # so skip straight to dispatch.
        warm_shared()

        # Phase 2: fan out the experiments with retry/timeout/rebuild.
        while pending or backoff or inflight:
            now = time.monotonic()
            while backoff and backoff[0][0] <= now:
                _, _, index, job, key, attempt = heapq.heappop(backoff)
                pending.append((index, job, key, attempt))

            broken = False
            while pending and len(inflight) < n:
                index, job, key, attempt = pending.popleft()
                started_at.setdefault(index, time.monotonic())
                try:
                    future = pool.submit(
                        _worker_experiment, job, key, attempt
                    )
                except (BrokenProcessPool, RuntimeError):
                    pending.appendleft((index, job, key, attempt))
                    broken = True
                    break
                deadline = (
                    time.monotonic() + policy.timeout_s
                    if policy.timeout_s
                    else None
                )
                inflight[future] = _Flight(
                    index, job, key, attempt, time.monotonic(), deadline
                )

            if broken:
                for future, flight in list(inflight.items()):
                    del inflight[future]
                    pending.append(
                        (flight.index, flight.job, flight.key,
                         flight.attempt)
                    )
                rebuild("broken_pool_on_submit")
                continue

            if not inflight:
                if backoff:
                    time.sleep(
                        max(0.0, backoff[0][0] - time.monotonic())
                    )
                continue

            # Wait for completions, bounded by the nearest job deadline
            # and the nearest backoff expiry.
            wait_s = 1.0
            now = time.monotonic()
            deadlines = [
                f.deadline for f in inflight.values() if f.deadline
            ]
            if deadlines:
                wait_s = min(wait_s, max(0.0, min(deadlines) - now))
            if backoff:
                wait_s = min(wait_s, max(0.0, backoff[0][0] - now))
            done, _ = wait(
                set(inflight),
                timeout=max(wait_s, 0.01),
                return_when=FIRST_COMPLETED,
            )

            for future in done:
                flight = inflight.pop(future)
                try:
                    result, failure, delta = future.result()
                except BrokenProcessPool:
                    broken = True
                    crash = _WorkerFailure(
                        error="WorkerCrashError",
                        message="worker process pool broke mid-job",
                        context={"cause": "broken_pool"},
                        retryable=True,
                    )
                    settle(
                        flight.index, flight.job, flight.key,
                        flight.attempt, crash,
                    )
                    continue
                except Exception as exc:
                    # Harness-level failure (unpicklable result, ...):
                    # treat like a crashed attempt.
                    settle(
                        flight.index, flight.job, flight.key,
                        flight.attempt, _describe_failure(exc),
                    )
                    continue
                obs.counters.merge(delta)
                if failure is not None:
                    settle(
                        flight.index, flight.job, flight.key,
                        flight.attempt, failure,
                    )
                    continue
                if flight.attempt > 1:
                    _log_recovery(flight.job, flight.attempt)
                _journal_record(
                    journal, flight.key, flight.job, result,
                    flight.attempt,
                    time.monotonic() - started_at[flight.index],
                )
                # Worker-side trace files are registered here in the
                # parent: the worker's registry dies with the process.
                _adopt_trace_artifacts(result)
                results[flight.index] = result

            if broken:
                for future, flight in list(inflight.items()):
                    del inflight[future]
                    pending.append(
                        (flight.index, flight.job, flight.key,
                         flight.attempt)
                    )
                rebuild("broken_pool")
                continue

            # Deadline sweep: a hung worker cannot be cancelled, so the
            # pool is torn down; innocent in-flight jobs re-submit at
            # the same attempt, the timed-out ones retry or fail.
            now = time.monotonic()
            expired = [
                (future, flight)
                for future, flight in inflight.items()
                if flight.deadline is not None
                and now > flight.deadline
                and not future.done()
            ]
            if expired:
                _TIMEOUTS.add(len(expired))
                expired_futures = {future for future, _ in expired}
                survivors = [
                    flight
                    for future, flight in inflight.items()
                    if future not in expired_futures
                ]
                inflight.clear()
                for _, flight in expired:
                    obs.log_event(
                        "job_timeout",
                        level="error",
                        benchmark=flight.job.benchmark,
                        target=flight.job.target.label,
                        attempt=flight.attempt,
                        timeout_s=policy.timeout_s,
                    )
                    timeout = _WorkerFailure(
                        error="SimulationTimeoutError",
                        message=(
                            f"job exceeded {policy.timeout_s}s "
                            f"wall-clock timeout"
                        ),
                        context={"timeout_s": policy.timeout_s},
                        retryable=True,
                    )
                    settle(
                        flight.index, flight.job, flight.key,
                        flight.attempt, timeout,
                    )
                for flight in survivors:
                    pending.append(
                        (flight.index, flight.job, flight.key,
                         flight.attempt)
                    )
                rebuild("job_timeout")
    except BaseException as exc:
        if isinstance(exc, KeyboardInterrupt):
            _INTERRUPTS.add()
            obs.log_event(
                "grid_interrupted",
                level="warning",
                completed=sum(1 for r in results if r is not None),
                total=len(results),
            )
        # No orphans: terminate and join every worker before the
        # exception propagates.  The journal is flushed per record, so
        # nothing completed is lost.
        _kill_pool(pool)
        raise
    else:
        pool.shutdown(wait=True)
