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
- :mod:`repro.server.state`     -- crash-safe accept/complete journals,
  every record fsynced before its call returns, so ``repro serve
  --resume`` recovers every acknowledged job exactly once after a
  ``kill -9``;
- :mod:`repro.server.client`    -- the urllib client the load harness
  and chaos drill drive;
- :mod:`repro.server.loadtest`  -- open/closed-loop load generation
  emitting the mubench-style ``run_table.csv``
  (``throughput_rps`` / ``p95_latency_ms`` / ``failure_rate``).

Served jobs run on the queue's worker threads, in the server process.
Cache faults are the simcache's own business: a corrupt entry is an
evicted miss, an I/O failure degrades the cache to a no-op, and a
served job never turns the cache off.
"""

from repro.server.admission import AdmissionController
from repro.server.app import ExperimentServer
from repro.server.client import ServerClient
from repro.server.queue import JobQueue, JobState
from repro.server.state import ServerState

__all__ = [
    "AdmissionController",
    "ExperimentServer",
    "JobQueue",
    "JobState",
    "ServerClient",
    "ServerState",
]
