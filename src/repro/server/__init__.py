"""Resilient simulation-as-a-service: the ``repro serve`` stack.

The experiment engine (parallel, fault-tolerant, resumable,
content-addressed-cached) becomes a long-running HTTP/JSON service
whose headline feature is that it *stays up and stays correct under
abuse*:

- :mod:`repro.server.app`       -- the zero-dependency HTTP front end
  (submit/status/result/cancel, ``/v1/stats``, ``/healthz`` +
  ``/readyz``, graceful drain on SIGTERM);
- :mod:`repro.server.queue`     -- the async job queue feeding the
  engine, with in-flight dedup of identical cells;
- :mod:`repro.server.admission` -- bounded queue depth and load
  shedding (429 + ``Retry-After`` derived from observed p95);
- :mod:`repro.server.breaker`   -- circuit breakers around the worker
  pool and the simcache;
- :mod:`repro.server.state`     -- crash-safe accept/complete journals
  so ``repro serve --resume`` recovers every acknowledged job exactly
  once after a ``kill -9``;
- :mod:`repro.server.client`    -- the urllib client the load harness
  and chaos drill drive;
- :mod:`repro.server.loadtest`  -- open/closed-loop load generation
  emitting the mubench-style ``run_table.csv``
  (``throughput_rps`` / ``p95_latency_ms`` / ``failure_rate``);
- :mod:`repro.server.poolrunner` -- a persistent process-pool job
  runner (``repro serve --pool N``) so served jobs execute out of
  process.
"""

from repro.server.admission import AdmissionController
from repro.server.app import ExperimentServer
from repro.server.breaker import CircuitBreaker
from repro.server.client import ServerClient
from repro.server.poolrunner import PoolRunner
from repro.server.queue import JobQueue, JobState
from repro.server.state import ServerState

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "ExperimentServer",
    "JobQueue",
    "JobState",
    "PoolRunner",
    "ServerClient",
    "ServerState",
]
