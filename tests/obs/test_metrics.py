"""Tests for the counters registry."""

from repro.obs.metrics import MetricsRegistry


def test_counter_get_or_create_identity():
    reg = MetricsRegistry()
    a = reg.counter("x.hits")
    b = reg.counter("x.hits")
    assert a is b
    a.add()
    a.add(4)
    assert b.value == 5


def test_snapshot_is_sorted_and_complete():
    reg = MetricsRegistry()
    reg.counter("b.count").add(2)
    reg.counter("a.count").add(1)
    snap = reg.snapshot()
    assert list(snap) == ["a.count", "b.count"]
    assert snap == {"a.count": 1, "b.count": 2}


def test_reset_zeroes_but_keeps_references():
    reg = MetricsRegistry()
    c = reg.counter("n")
    c.add(7)
    reg.reset()
    assert c.value == 0
    c.add()  # the cached reference still feeds the registry
    assert reg.snapshot() == {"n": 1}


def test_clear_drops_registrations():
    reg = MetricsRegistry()
    reg.counter("n").add()
    reg.clear()
    assert reg.snapshot() == {}


def test_delta_since_reports_only_the_change():
    reg = MetricsRegistry()
    reg.counter("sims").add(3)
    before = reg.snapshot()
    reg.counter("sims").add(2)
    reg.counter("fresh").add(1)  # new since the snapshot: counts from 0
    assert reg.delta_since(before) == {"fresh": 1, "sims": 2}


def test_delta_since_drops_unchanged():
    reg = MetricsRegistry()
    reg.counter("still").add(4)
    before = reg.snapshot()
    assert reg.delta_since(before) == {}


def test_merge_adds_counters():
    reg = MetricsRegistry()
    reg.counter("sims").add(1)
    reg.merge({"sims": 5, "fresh.counter": 2})
    snap = reg.snapshot()
    assert snap["sims"] == 6
    # Unknown names become counters (worker saw a code path the parent
    # has not touched yet) and merge additively thereafter.
    assert snap["fresh.counter"] == 2
    reg.merge({"fresh.counter": 3})
    assert reg.snapshot()["fresh.counter"] == 5


def test_delta_since_roundtrip_through_merge():
    worker = MetricsRegistry()
    before = worker.snapshot()
    worker.counter("a").add(7)
    worker.counter("b").add(0)  # never moved: dropped from the delta
    delta = worker.delta_since(before)
    assert delta == {"a": 7}

    parent = MetricsRegistry()
    parent.counter("a").add(1)
    parent.merge(delta)
    assert parent.snapshot()["a"] == 8
