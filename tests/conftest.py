"""Suite-wide fixtures: keep tests hermetic w.r.t. persistent state.

The simulation cache defaults to ``~/.cache/repro-sim``; tests must
neither read stale entries from a developer's cache nor write into it,
so caching is disabled process-wide here.  Tests that exercise the
cache itself opt back in with ``simcache.configure(cache_dir=tmp)``
(an explicit directory re-enables caching) and restore the default
state afterwards.

The analytics run store gets the same treatment: auto-ingest is
disabled (``REPRO_ANALYTICS=0``) so CLI tests leave run artifacts
bit-identical to the pre-analytics layout, and the default store
location is pointed at a per-process scratch path so no test reads or
writes a developer's real store.  Analytics tests
opt in with explicit store directories (``RunStore(tmp)``).
"""

import os
import tempfile

os.environ.setdefault("REPRO_CACHE", "0")
os.environ.setdefault("REPRO_ANALYTICS", "0")
os.environ.setdefault(
    "REPRO_ANALYTICS_DIR",
    os.path.join(
        tempfile.gettempdir(), f"repro-analytics-tests-{os.getpid()}"
    ),
)
