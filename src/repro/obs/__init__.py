"""Observability: structured logging, phase timing, metrics, manifests.

The subsystem the rest of the stack reports through:

- :mod:`repro.obs.log` -- JSON-lines event logger plus the hierarchical
  :func:`span` phase timer (off-by-default; spans still measure time);
- :mod:`repro.obs.metrics` -- the always-on :data:`counters` registry of
  counters and gauges;
- :mod:`repro.obs.manifest` -- :class:`RunWriter`, which turns result
  rows into ``manifest.json`` / ``results.jsonl`` / ``run_table.csv``
  artifacts with configuration fingerprints, and ``read_runs``, which
  reads run directories back;
- :mod:`repro.obs.jsonl` -- the fsynced append and torn-tail read every
  JSON-lines file shares.

Typical harness usage::

    from repro import obs

    obs.configure(level="info")
    with obs.span("simulate", benchmark="mcf") as sp:
        stats = simulate(trace, machine)
        sp.annotate(cycles=stats.cycles)
    obs.counters.counter("harness.runs").add()
"""

from repro.obs.log import (
    LEVEL_NAMES,
    LEVELS,
    Span,
    configure,
    current_level,
    current_span_path,
    is_enabled,
    is_quiet,
    log_event,
    reset,
    set_quiet,
    span,
)
from repro.obs.manifest import (
    RESULTS_SCHEMA_VERSION,
    RunWriter,
    config_fingerprint,
    stable_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyWindow,
    MetricsRegistry,
    counters,
    snapshot_delta,
)

__all__ = [
    "LEVELS",
    "LEVEL_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyWindow",
    "MetricsRegistry",
    "RESULTS_SCHEMA_VERSION",
    "RunWriter",
    "Span",
    "config_fingerprint",
    "configure",
    "counters",
    "current_level",
    "current_span_path",
    "is_enabled",
    "is_quiet",
    "log_event",
    "reset",
    "set_quiet",
    "snapshot_delta",
    "span",
    "stable_json",
]
