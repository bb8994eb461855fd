"""Result analytics: cross-run queries over run directories.

Every evaluation command with ``--out`` leaves its rows in its own
directory (``manifest.json``, ``results.jsonl``, ``run_table.csv``).
Those directories are the only copy: queries read them directly through
:func:`repro.obs.manifest.read_runs`, so longitudinal questions ("how
has gmean ED² moved across these runs?", "how often did the simulation
cache hit?") are group-by reductions over the runs given.

- :mod:`repro.analytics.query` -- group-by / filter / gmean
  aggregation over those rows.

The CLI front door is ``repro analytics query RUN_DIR...``.
"""

from repro.analytics.query import QueryResult, aggregate

__all__ = ["QueryResult", "aggregate"]
