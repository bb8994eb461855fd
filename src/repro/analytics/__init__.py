"""Result analytics: a run store and cross-run queries.

Every evaluation command leaves per-run artifacts (``manifest.json``,
``results.jsonl``, ``run_table.csv``) in its own directory.  This
package collects them so longitudinal questions have an answer ("how
has gmean ED² moved over the last N commits?", "how often did the
simulation cache hit?"):

- :mod:`repro.analytics.store` -- an append-only run store: each
  ingested run directory becomes one JSON run file of row dicts,
  written with an atomic temp+fsync+rename.  Degraded runs ingest as
  flagged rows, never dropped; torn tails and damaged lines are
  tolerated and counted.
- :mod:`repro.analytics.query` -- group-by / filter / gmean
  aggregation over the store: gmean trends per objective, simcache
  hit rates, phase-wall trajectories.

The CLI front door is ``repro analytics ingest|query|stats``;
evaluation commands with ``--out`` also auto-ingest their run on
completion unless ``REPRO_ANALYTICS=0``.
"""

from repro.analytics.store import (
    IngestReport,
    RUN_FORMAT,
    RunStore,
    STORE_SCHEMA_VERSION,
    default_store_dir,
    ingest_enabled,
)
from repro.analytics.query import QueryResult, aggregate, gmean_trend

__all__ = [
    "IngestReport",
    "QueryResult",
    "RUN_FORMAT",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "aggregate",
    "default_store_dir",
    "gmean_trend",
    "ingest_enabled",
]
