"""Suite-wide fixtures: keep tests hermetic w.r.t. persistent state.

The simulation cache defaults to ``~/.cache/repro-sim``; tests must
neither read stale entries from a developer's cache nor write into it,
so caching is disabled process-wide here.  Tests that exercise the
cache itself opt back in with ``simcache.configure(cache_dir=tmp)``
(an explicit directory re-enables caching) and restore the default
state afterwards.
"""

import os

os.environ.setdefault("REPRO_CACHE", "0")
