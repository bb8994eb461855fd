"""Tests for the persistent, content-addressed simulation cache."""

import os
import pickle

import pytest

from repro.harness import simcache
from repro.harness.simcache import SimCache


@pytest.fixture
def cache(tmp_path):
    return SimCache(str(tmp_path / "cache"))


def _entry_files(cache):
    return list(cache._entry_paths())


def test_round_trip(cache):
    material = {"kind": "baseline_stats", "benchmark": "gcc", "x": 1}
    payload = {"cycles": 12345, "nested": [1, 2, {"a": True}]}
    assert cache.get(material) is None
    cache.put(material, payload)
    assert cache.get(material) == payload


def test_distinct_material_distinct_keys(cache):
    a = {"benchmark": "gcc", "machine": "m1"}
    b = {"benchmark": "twolf", "machine": "m1"}
    assert cache.key(a) != cache.key(b)
    cache.put(a, "A")
    cache.put(b, "B")
    assert cache.get(a) == "A"
    assert cache.get(b) == "B"


def test_key_is_stable_under_dict_ordering(cache):
    assert cache.key({"a": 1, "b": 2}) == cache.key({"b": 2, "a": 1})


def test_truncated_entry_is_miss_and_evicted(cache):
    material = {"benchmark": "mcf"}
    cache.put(material, {"cycles": 1})
    (path,) = _entry_files(cache)
    with open(path, "r+b") as fh:
        fh.truncate(10)
    assert cache.get(material) is None  # no exception
    assert _entry_files(cache) == []  # evicted
    # And a re-put heals it.
    cache.put(material, {"cycles": 2})
    assert cache.get(material) == {"cycles": 2}


def test_garbage_entry_is_miss_not_crash(cache):
    material = {"benchmark": "vpr"}
    cache.put(material, "ok")
    (path,) = _entry_files(cache)
    with open(path, "wb") as fh:
        fh.write(b"this is not a pickle")
    assert cache.get(material) is None


def test_foreign_envelope_is_rejected(cache):
    """An entry whose envelope key disagrees with its path is stale."""
    material = {"benchmark": "gap"}
    cache.put(material, "ok")
    (path,) = _entry_files(cache)
    with open(path, "rb") as fh:
        envelope = pickle.load(fh)
    envelope["key"] = "0" * 64
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)
    assert cache.get(material) is None


def test_code_version_invalidates(cache, monkeypatch):
    material = {"benchmark": "twolf"}
    cache.put(material, "old-code-result")
    monkeypatch.setattr(simcache, "_code_version_cache", "f" * 16)
    # New code version -> different key -> miss, never the stale payload.
    assert cache.get(material) is None
    cache.put(material, "new-code-result")
    assert cache.get(material) == "new-code-result"
    monkeypatch.setattr(simcache, "_code_version_cache", None)


def test_schema_version_invalidates(cache, monkeypatch):
    material = {"benchmark": "bzip2"}
    cache.put(material, "v1-result")
    monkeypatch.setattr(simcache, "SCHEMA_VERSION", 999)
    assert cache.get(material) is None


def test_stats_and_clear(cache):
    for i in range(3):
        cache.put({"i": i}, {"payload": i})
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["bytes"] > 0
    assert stats["dir"] == cache.root
    removed = cache.clear()
    assert removed == 3
    assert cache.stats()["entries"] == 0


def test_atomic_write_leaves_no_temp_files(cache):
    cache.put({"x": 1}, "payload")
    names = []
    for _, _, files in os.walk(cache.root):
        names.extend(files)
    assert all(not n.startswith(".tmp-") for n in names)


def test_get_cache_respects_env_and_configure(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    simcache.reset()
    try:
        assert simcache.get_cache() is None
        # An explicit directory opts back in even under REPRO_CACHE=0.
        simcache.configure(cache_dir=str(tmp_path / "c"))
        cache = simcache.get_cache()
        assert cache is not None
        assert cache.root == str(tmp_path / "c")
    finally:
        simcache.reset()


def test_disabled_context_manager(tmp_path):
    simcache.reset()
    try:
        simcache.configure(cache_dir=str(tmp_path / "c"))
        assert simcache.get_cache() is not None
        with simcache.disabled():
            assert simcache.get_cache() is None
        assert simcache.get_cache() is not None
    finally:
        simcache.reset()


# --------------------------------------------------------------------- #
# I/O degradation: a failing cache must never abort the run it was
# merely accelerating.
# --------------------------------------------------------------------- #


def test_write_fault_degrades_once(cache):
    from repro import faults, obs

    before = obs.counters.snapshot()
    with faults.active(["simcache.write:1.0"]):
        key = cache.put({"benchmark": "gcc"}, "payload")
        assert key  # the caller still gets its key back
        assert cache.degraded
        cache.put({"benchmark": "mcf"}, "other")  # silent no-op now
    delta = obs.counters.delta_since(before)
    assert delta.get("harness.simcache.degradations") == 1
    assert not delta.get("harness.simcache.writes", 0)


def test_read_fault_degrades_to_permanent_miss(cache):
    from repro import faults

    material = {"benchmark": "vpr"}
    cache.put(material, "stored")
    with faults.active(["simcache.read:1.0"]):
        assert cache.get(material) is None
    assert cache.degraded
    # Degraded even after the fault plan is gone: entry stays invisible.
    assert cache.get(material) is None


def test_enospc_on_put_degrades_instead_of_raising(cache, monkeypatch):
    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    cache.put({"benchmark": "gcc"}, "payload")  # must not raise
    assert cache.degraded
    monkeypatch.undo()
    # Payload was dropped, not torn: directory holds no temp litter.
    names = []
    for _, _, files in os.walk(cache.root):
        names.extend(files)
    assert all(not n.startswith(".tmp-") for n in names)


def test_permission_error_on_put_degrades(cache, monkeypatch):
    def denied(path, exist_ok=False):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "makedirs", denied)
    cache.put({"benchmark": "gcc"}, "payload")  # must not raise
    assert cache.degraded


@pytest.mark.skipif(
    os.geteuid() == 0, reason="root ignores directory permissions"
)
def test_readonly_cache_dir_degrades(tmp_path):
    root = tmp_path / "ro-cache"
    root.mkdir()
    os.chmod(root, 0o500)
    try:
        cache = SimCache(str(root))
        cache.put({"benchmark": "gcc"}, "payload")  # must not raise
        assert cache.degraded
    finally:
        os.chmod(root, 0o700)


def test_degraded_cache_leaves_get_cache_none(tmp_path, monkeypatch):
    simcache.reset()
    try:
        simcache.configure(cache_dir=str(tmp_path / "c"))
        cache = simcache.get_cache()
        assert cache is not None

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        cache.put({"benchmark": "gcc"}, "payload")
        assert simcache.get_cache() is None  # callers skip hashing too
    finally:
        simcache.reset()


def test_code_version_covers_every_source_file(tmp_path):
    import shutil

    import repro

    package = os.path.dirname(os.path.abspath(repro.__file__))
    root = tmp_path / "repro"
    shutil.copytree(package, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert simcache.code_version(str(root)) == simcache.code_version()
    seen = {simcache.code_version(str(root))}
    # The C cycle kernel and the latency model were missing from the
    # old hand-kept module list; a one-byte edit to either must change
    # the fingerprint (and so miss every stale cache entry).
    for rel in (("cpu", "_kernel.c"), ("pthsel", "latency_model.py")):
        path = root.joinpath(*rel)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        version = simcache.code_version(str(root))
        assert version not in seen
        seen.add(version)
