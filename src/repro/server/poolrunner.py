"""A persistent process-pool runner for the experiment server.

The default queue runner executes jobs on the queue's worker *threads*
-- correct, but every phase shares the server process, so a hot loop
in one job stalls the GIL for all of them.  ``repro serve --pool N``
swaps in :class:`PoolRunner`: a long-lived
:class:`~concurrent.futures.ProcessPoolExecutor` built with the same
worker initializer as the parallel harness engine (same simcache,
fault plan, cycle backend, quiet flag), so a served job runs
in a genuinely separate process.

Telemetry crosses back exactly like the harness path: each job returns
its obs-counter delta and the runner merges it into the server
process.  A broken pool is rebuilt (bounded) and surfaces
as :class:`~repro.errors.WorkerCrashError`, which the queue's pool
breaker already understands.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional

from repro import errors as errors_mod
from repro import obs
from repro.errors import (
    ExecutionError,
    SimulationTimeoutError,
    StructuredError,
    WorkerCrashError,
)
from repro.harness import parallel, simcache

_POOL_JOBS = obs.counters.counter("server.pool.jobs")
_POOL_REBUILDS = obs.counters.counter("server.pool.rebuilds")


class RemoteExecutionError(StructuredError):
    """A pool-worker job failed with an error class this process cannot
    reconstruct; retryable (it is not in ``NON_RETRYABLE``) and --
    deliberately -- not a pool-health signal."""


def _rebuild_exception(failure: Any) -> BaseException:
    """Turn a :class:`~repro.harness.parallel._WorkerFailure` back into
    the closest exception, preserving the class name (breaker
    classification) and retryability (HTTP status mapping)."""
    cls = getattr(errors_mod, failure.error, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            if issubclass(cls, StructuredError):
                return cls(failure.message, **dict(failure.context))
            return cls(failure.message)
        except Exception:  # noqa: BLE001 - constructor mismatch
            pass
    message = f"{failure.error}: {failure.message}"
    if failure.retryable:
        return RemoteExecutionError(message, remote_error=failure.error)
    return ExecutionError(message)


class PoolRunner:
    """Queue ``Runner`` executing each job in a persistent process pool.

    Thread-safe: the queue's worker threads submit concurrently; the
    executor serializes dispatch internally and rebuilds are guarded.
    """

    def __init__(
        self,
        workers: int = 2,
        job_timeout_s: Optional[float] = None,
        max_rebuilds: int = 3,
    ) -> None:
        self.workers = max(1, workers)
        self.job_timeout_s = job_timeout_s
        self.max_rebuilds = max_rebuilds
        self._rebuilds = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------- #

    def _make_pool(self) -> ProcessPoolExecutor:
        cache = simcache.get_cache()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=parallel._worker_init,
            initargs=(
                cache.root if cache is not None else None,
                cache is not None,
                obs.current_level(),
                (),      # fault plans stay server-side; workers run clean
                False,   # no injected start failure
                None,    # utrace: servers do not micro-trace
                None,    # cycle backend: worker default
                obs.is_quiet(),
            ),
        )

    def start(self) -> None:
        with self._lock:
            if self._pool is None and not self._closed:
                self._pool = self._make_pool()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _get_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise WorkerCrashError(
                    "pool runner is closed", cause="closed"
                )
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def _replace_broken(self, broken: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is not broken:
                return  # another thread already rebuilt it
            self._pool = None
            if self._rebuilds >= self.max_rebuilds:
                self._closed = True
                return
            self._rebuilds += 1
            _POOL_REBUILDS.add()
        broken.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------- #

    def __call__(self, job: Any) -> Any:
        pool = self._get_pool()
        try:
            future = pool.submit(
                parallel._worker_experiment, job, job.cell_key(), 1
            )
            result, failure, delta = future.result(
                timeout=self.job_timeout_s
            )
        except BrokenProcessPool as exc:
            self._replace_broken(pool)
            raise WorkerCrashError(
                "server worker pool broke mid-job",
                cause="broken_pool",
            ) from exc
        except TimeoutError as exc:
            # A hung worker cannot be cancelled; rebuild the pool so
            # the next job gets healthy processes.
            self._replace_broken(pool)
            raise SimulationTimeoutError(
                f"served job exceeded {self.job_timeout_s}s in the pool",
                timeout_s=self.job_timeout_s,
            ) from exc
        _POOL_JOBS.add()
        obs.counters.merge(delta)
        if failure is not None:
            raise _rebuild_exception(failure)
        return result
