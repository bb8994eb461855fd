"""Fleet-scale result analytics: columnar run store and cross-run
queries.

Every evaluation command leaves per-run artifacts (``manifest.json``,
``results.jsonl``, ``run_table.csv``); at fleet scale that becomes
millions of rows scattered across run directories with no way to ask
longitudinal questions ("how has gmean ED² drift moved over the last N
commits?", "which workload's stall mix regressed?").  This package is
the longitudinal layer:

- :mod:`repro.analytics.store` -- an append-friendly columnar run
  store: run directories ingest into sealed typed columns built on the
  general :mod:`repro.frontend.columns` array machinery, persisted as
  schema-versioned binary segments written with atomic temp+rename
  appends.  Degraded runs ingest as flagged
  rows, never dropped; torn tails and damaged lines are tolerated and
  counted.
- :mod:`repro.analytics.query` -- group-by / filter / gmean
  aggregation over the store: gmean trends per objective, stall-mix
  drift per workload, simcache hit rates, phase-wall trajectories.

The CLI front door is ``repro analytics ingest|query|stats``;
evaluation commands with ``--out`` also auto-ingest their run on
completion unless ``REPRO_ANALYTICS=0``.
"""

from repro.analytics.store import (
    IngestReport,
    RunStore,
    SEGMENT_FORMAT,
    STORE_SCHEMA_VERSION,
    default_store_dir,
    ingest_enabled,
)
from repro.analytics.query import Frame, QueryResult, aggregate, gmean_trend

__all__ = [
    "Frame",
    "IngestReport",
    "QueryResult",
    "RunStore",
    "SEGMENT_FORMAT",
    "STORE_SCHEMA_VERSION",
    "aggregate",
    "default_store_dir",
    "gmean_trend",
    "ingest_enabled",
]
