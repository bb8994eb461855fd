"""Persistent, content-addressed simulation result cache.

Every cell of a paper figure is a deterministic function of (workload
content, machine/energy/selection/simulation configuration, simulator
code).  The cache stores those results on disk so sweeps and repeat CLI
invocations never re-simulate work they have already done:

- **Keys** are SHA-256 digests of a canonical JSON rendering of the
  caller's key material plus the cache schema version and a fingerprint
  of the simulator source files.  Editing the simulator or bumping the
  schema silently invalidates every old entry (their keys can no longer
  be produced), so stale results cannot leak across code versions.
- **Entries** are pickle envelopes carrying the versions and key digest
  they were written under; both are re-checked on load, so a reused
  cache directory never returns a payload written by different code.
- **Writes** go to a temporary file in the same directory followed by
  :func:`os.replace`, making concurrent writers (the process-pool
  workers of :mod:`repro.harness.parallel`) safe: readers only ever see
  complete entries, and the last writer of identical content wins.
- **Corruption tolerance**: a truncated or garbage entry is a miss (and
  is evicted), never an exception.
- **I/O degradation**: a full disk, a read-only cache directory, or any
  other persistent ``OSError`` degrades the cache to a no-op with a
  single ``simcache_degraded`` warning event -- a failing cache must
  never abort the grid whose results it was merely accelerating.
  (:func:`get_cache` returns ``None`` once degraded, so callers skip
  key hashing too.)

The ``simcache.read`` / ``simcache.write`` fault-injection sites
(:mod:`repro.faults`) raise ``OSError`` inside the normal I/O paths, so
chaos runs exercise exactly the handlers real ENOSPC/EACCES would hit.

The default location is ``~/.cache/repro-sim`` (override with
``REPRO_CACHE_DIR`` or the CLI ``--cache-dir``); ``REPRO_CACHE=0``
disables caching process-wide.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
from typing import Any, Dict, Iterator, Optional

from repro import faults, obs
from repro.obs.manifest import stable_json

#: Bump when the envelope layout or the meaning of cached payloads changes.
SCHEMA_VERSION = 1

_ENTRY_SUFFIX = ".pkl"

_HITS = obs.counters.counter("harness.simcache.hits")
_MISSES = obs.counters.counter("harness.simcache.misses")
_WRITES = obs.counters.counter("harness.simcache.writes")
_EVICTIONS = obs.counters.counter("harness.simcache.evictions")
_CORRUPT = obs.counters.counter("harness.simcache.corrupt_entries")
_DEGRADATIONS = obs.counters.counter("harness.simcache.degradations")

_code_version_cache: Optional[str] = None


def code_version(root: Optional[str] = None) -> str:
    """A short fingerprint of the simulator's source code.

    Hashes every ``*.py`` and ``*.c`` file under ``root`` (default: the
    installed ``repro`` package, memoized) in sorted relative-path
    order, each preceded by its path, plus the package version.  Cached
    results therefore survive only as long as the code that produced
    them -- the C kernels and every analysis module included.
    """
    global _code_version_cache
    if root is None and _code_version_cache is not None:
        return _code_version_cache
    import repro

    base = root or os.path.dirname(os.path.abspath(repro.__file__))
    sources = sorted(
        os.path.relpath(os.path.join(directory, name), base)
        for directory, _, names in os.walk(base)
        for name in names
        if name.endswith((".py", ".c"))
    )
    digest = hashlib.sha256(repro.__version__.encode())
    for rel in sources:
        digest.update(rel.replace(os.sep, "/").encode() + b"\0")
        with open(os.path.join(base, rel), "rb") as fh:
            digest.update(fh.read())
    version = digest.hexdigest()[:16]
    if root is None:
        _code_version_cache = version
    return version


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sim``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "repro-sim",
    )


def cache_enabled() -> bool:
    """Caching is on unless ``REPRO_CACHE`` is ``0``/``off``/``false``."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


class SimCache:
    """One on-disk cache rooted at ``root`` (created lazily on first put)."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        #: Set on the first persistent I/O error; a degraded cache
        #: misses on every get and drops every put.
        self.degraded = False

    def _degrade(self, op: str, exc: OSError) -> None:
        """Turn the cache off for this process after an I/O failure
        (ENOSPC, EACCES, read-only mount, ...), warning exactly once."""
        if self.degraded:
            return
        self.degraded = True
        _DEGRADATIONS.add()
        obs.log_event(
            "simcache_degraded",
            level="warning",
            dir=self.root,
            op=op,
            error=type(exc).__name__,
            detail=str(exc),
        )

    # ----------------------------------------------------------------- #

    def key(self, material: Any) -> str:
        """Content-addressed key: SHA-256 over canonical JSON of the key
        material, the schema version, and the simulator code version."""
        payload = stable_json(
            {
                "schema": SCHEMA_VERSION,
                "code": code_version(),
                "material": material,
            }
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + _ENTRY_SUFFIX)

    # ----------------------------------------------------------------- #

    def get(self, material: Any) -> Optional[Any]:
        """The cached payload for ``material``, or ``None`` on a miss.

        Any failure to read or validate the entry -- truncation, garbage,
        an envelope written under other versions -- counts as a miss; the
        bad entry is evicted so it cannot fail again.
        """
        if self.degraded:
            _MISSES.add()
            return None
        key = self.key(material)
        path = self._path(key)
        try:
            faults.raise_os_if("simcache.read", key=key)
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != SCHEMA_VERSION
                or envelope.get("code") != code_version()
                or envelope.get("key") != key
            ):
                raise ValueError("stale or foreign cache envelope")
            payload = envelope["payload"]
        except FileNotFoundError:
            _MISSES.add()
            return None
        except OSError as exc:
            # EACCES / EIO / injected read fault: stop using the cache.
            self._degrade("read", exc)
            _MISSES.add()
            return None
        except Exception as exc:
            # Corrupt, truncated, or version-skewed entry: drop it.
            _CORRUPT.add()
            obs.log_event(
                "simcache_corrupt_entry",
                level="warning",
                path=path,
                reason=str(exc),
            )
            self._evict(path)
            _MISSES.add()
            return None
        _HITS.add()
        return payload

    def contains(self, material: Any) -> bool:
        """Whether an entry for ``material`` exists on disk.

        A pure existence probe (no read, no validation, no counter
        traffic): the batch planner uses it to decide which members of
        a shared-trace group still need simulating, and a stale entry
        discovered later simply degrades to an ordinary ``get`` miss.
        """
        if self.degraded:
            return False
        try:
            return os.path.exists(self._path(self.key(material)))
        except OSError:
            return False

    def put(self, material: Any, payload: Any) -> str:
        """Store ``payload`` under ``material``'s key; returns the key.

        Written atomically (temp file + ``os.replace``) so concurrent
        writers and crashing processes can never publish a torn entry.
        A write that fails with ``OSError`` (full disk, read-only cache
        directory, injected fault) degrades the cache instead of
        raising: the computed payload is still returned to the caller's
        pipeline, it just is not persisted.
        """
        key = self.key(material)
        if self.degraded:
            return key
        path = self._path(key)
        directory = os.path.dirname(path)
        tmp_path: Optional[str] = None
        try:
            faults.raise_os_if("simcache.write", key=key)
            os.makedirs(directory, exist_ok=True)
            envelope = {
                "schema": SCHEMA_VERSION,
                "code": code_version(),
                "key": key,
                "payload": payload,
            }
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".tmp-", suffix=_ENTRY_SUFFIX
            )
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except OSError as exc:
            if tmp_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)
            self._degrade("write", exc)
            return key
        except BaseException:
            if tmp_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)
            raise
        _WRITES.add()
        return key

    # ----------------------------------------------------------------- #

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
            _EVICTIONS.add()
        except OSError:
            pass

    def _entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.root):
            return
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(_ENTRY_SUFFIX) and not name.startswith(
                    ".tmp-"
                ):
                    yield os.path.join(dirpath, name)

    def stats(self) -> Dict[str, object]:
        """Occupancy of the directory plus this process's hit/miss/evict
        counts."""
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "dir": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "schema_version": SCHEMA_VERSION,
            "code_version": code_version(),
            "degraded": self.degraded,
            "hits": _HITS.value,
            "misses": _MISSES.value,
            "writes": _WRITES.value,
            "evictions": _EVICTIONS.value,
            "corrupt_entries": _CORRUPT.value,
            "degradations": _DEGRADATIONS.value,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        _EVICTIONS.add(removed)
        return removed


# --------------------------------------------------------------------- #
# The process-wide cache the harness consults.  ``configure`` swaps the
# directory (CLI --cache-dir) or disables caching entirely; ``None``
# means "enabled at the default location" unless REPRO_CACHE says no.
# --------------------------------------------------------------------- #

_active: Optional[SimCache] = None
_enabled_override: Optional[bool] = None


def configure(
    cache_dir: Optional[str] = None, enabled: Optional[bool] = None
) -> None:
    """Set the process-wide cache directory and/or enabled state.

    An explicit ``cache_dir`` implies ``enabled=True`` unless overridden;
    an explicit ``enabled`` beats the ``REPRO_CACHE`` environment switch.
    """
    global _active, _enabled_override
    if cache_dir is not None:
        _active = SimCache(cache_dir)
        if enabled is None:
            enabled = True
    if enabled is not None:
        _enabled_override = enabled


def reset() -> None:
    """Back to defaults: environment-controlled, default directory."""
    global _active, _enabled_override
    _active = None
    _enabled_override = None


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Temporarily disable caching.

    The switch is process-wide: every thread sees the cache off until
    the block exits.  It is meant for single-threaded callers (the
    chaos drill's golden runs, tests), never for one job among several
    running concurrently."""
    global _enabled_override
    previous = _enabled_override
    _enabled_override = False
    try:
        yield
    finally:
        _enabled_override = previous


def get_cache() -> Optional[SimCache]:
    """The active cache, or ``None`` when caching is disabled or the
    active cache has degraded after an I/O failure."""
    global _active
    enabled = (
        _enabled_override
        if _enabled_override is not None
        else cache_enabled()
    )
    if not enabled:
        return None
    if _active is None:
        _active = SimCache()
    if _active.degraded:
        return None
    return _active
