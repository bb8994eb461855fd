"""Fleet-scale result analytics: columnar run store, cross-run queries,
and a regression timeline.

Every evaluation command leaves per-run artifacts (``manifest.json``,
``results.jsonl``, ``run_table.csv``); at fleet scale that becomes
millions of rows scattered across run directories with no way to ask
longitudinal questions ("how has gmean ED² drift moved over the last N
commits?", "which workload's stall mix regressed?").  This package is
the longitudinal layer:

- :mod:`repro.analytics.store` -- an append-friendly columnar run
  store: run directories (and ``BENCH_*.json`` snapshots) ingest into
  sealed typed columns built on the general
  :mod:`repro.frontend.columns` array machinery, persisted as
  schema-versioned binary segments written
  with atomic temp+rename appends.  Degraded runs ingest as flagged
  rows, never dropped; torn tails and damaged lines are tolerated and
  counted.
- :mod:`repro.analytics.query` -- group-by / filter / gmean
  aggregation over the store: gmean trends per objective, stall-mix
  drift per workload, simcache hit rates, phase-wall trajectories.
- :mod:`repro.analytics.timeline` -- per-run/per-commit trajectory
  tracking with tolerance bands and first-regressing-commit
  attribution, rendered as no-JS SVG figures into the ``report.html``
  Timeline section.

The CLI front door is ``repro analytics ingest|query|timeline``;
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
from repro.analytics.timeline import (
    TimelineReport,
    build_timeline,
    timeline_section_html,
)

__all__ = [
    "Frame",
    "IngestReport",
    "QueryResult",
    "RunStore",
    "SEGMENT_FORMAT",
    "STORE_SCHEMA_VERSION",
    "TimelineReport",
    "aggregate",
    "build_timeline",
    "default_store_dir",
    "gmean_trend",
    "ingest_enabled",
    "timeline_section_html",
]
