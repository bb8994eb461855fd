"""Tests for the deterministic fault-injection registry."""

import pytest

from repro import faults, obs
from repro.errors import ConfigError, FaultInjectedError
from repro.faults import FaultPlan, FaultSpec, draw


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    """Each test starts with no plan and no REPRO_FAULTS leakage."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


# --------------------------------------------------------------------- #
# Spec parsing and validation
# --------------------------------------------------------------------- #


def test_parse_site_prob():
    spec = FaultSpec.parse("worker.run:0.3")
    assert spec.site == "worker.run"
    assert spec.probability == 0.3
    assert spec.seed == 0


def test_parse_with_seed():
    spec = FaultSpec.parse("simcache.read:1.0:42")
    assert spec.seed == 42


def test_parse_roundtrips_through_encode():
    spec = FaultSpec.parse("worker.run:0.25:7")
    assert FaultSpec.parse(spec.encode()) == spec


def test_unknown_site_rejected():
    with pytest.raises(ConfigError, match="unknown fault site"):
        FaultSpec.parse("worker.nap:0.5")


def test_probability_out_of_range_rejected():
    with pytest.raises(ConfigError, match="must be in \\[0, 1\\]"):
        FaultSpec.parse("worker.run:1.5")


def test_malformed_spec_rejected():
    with pytest.raises(ConfigError, match="expected SITE:prob"):
        FaultSpec.parse("worker.run")
    with pytest.raises(ConfigError, match="expected SITE:prob"):
        FaultSpec.parse("worker.run:lots")


def test_duplicate_site_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        FaultPlan([FaultSpec.parse("worker.run:0.1"),
                   FaultSpec.parse("worker.run:0.2")])


# --------------------------------------------------------------------- #
# Deterministic draws
# --------------------------------------------------------------------- #


def test_draw_is_deterministic():
    spec = FaultSpec("worker.run", 0.5, seed=3)
    assert all(
        draw(spec, f"cell:{i}") == draw(spec, f"cell:{i}")
        for i in range(64)
    )


def test_draw_depends_on_seed_site_and_key():
    keys = [f"k{i}" for i in range(256)]
    a = [draw(FaultSpec("worker.run", 0.5, 0), k) for k in keys]
    assert a != [draw(FaultSpec("worker.run", 0.5, 1), k) for k in keys]
    assert a != [draw(FaultSpec("worker.hang", 0.5, 0), k) for k in keys]


def test_draw_rate_tracks_probability():
    spec = FaultSpec("worker.run", 0.3, seed=0)
    fired = sum(draw(spec, i) for i in range(2000))
    assert 0.25 < fired / 2000 < 0.35


def test_probability_extremes():
    assert not any(
        draw(FaultSpec("worker.run", 0.0), i) for i in range(50)
    )
    assert all(draw(FaultSpec("worker.run", 1.0), i) for i in range(50))


# --------------------------------------------------------------------- #
# Plans, helpers, accounting
# --------------------------------------------------------------------- #


def test_no_plan_never_faults():
    assert not faults.should_fault("worker.run", key="x")
    assert not faults.site_active("worker.run")
    faults.raise_if("worker.run", key="x")  # no-op


def test_env_var_resolves_lazily(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "worker.run:1.0:5")
    faults.reset()
    assert faults.site_active("worker.run")
    assert faults.should_fault("worker.run", key="anything")


def test_configure_empty_overrides_env(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "worker.run:1.0")
    faults.configure([])
    assert not faults.should_fault("worker.run", key="x")


def test_injection_counts_and_events():
    faults.configure(["worker.run:1.0"])
    before = obs.counters.snapshot()
    assert faults.should_fault("worker.run", key="a")
    assert faults.should_fault("worker.run", key="b")
    delta = obs.counters.delta_since(before)
    assert delta.get("faults.injected.worker.run") == 2
    assert faults.injected_counts()["worker.run"] >= 2


def test_raise_if_raises_structured_error():
    faults.configure(["worker.run:1.0"])
    with pytest.raises(FaultInjectedError) as exc_info:
        faults.raise_if("worker.run", key="cell:1")
    assert exc_info.value.site == "worker.run"
    assert exc_info.value.context["key"] == "cell:1"


def test_raise_os_if_raises_oserror():
    faults.configure(["simcache.read:1.0"])
    with pytest.raises(OSError):
        faults.raise_os_if("simcache.read", key="k")


def test_active_context_restores_previous_plan():
    faults.configure(["worker.run:1.0"])
    with faults.active(["worker.hang:1.0"]):
        assert faults.site_active("worker.hang")
        assert not faults.site_active("worker.run")
    assert faults.site_active("worker.run")
    assert not faults.site_active("worker.hang")


def test_encode_plan_ships_specs():
    faults.configure(["worker.run:0.3:7", "simcache.write:0.1"])
    encoded = faults.encode_plan()
    rebuilt = faults.FaultPlan([FaultSpec.parse(s) for s in encoded])
    assert rebuilt.by_site.keys() == {"worker.run", "simcache.write"}
    assert rebuilt.by_site["worker.run"].seed == 7


def test_scope_changes_draws():
    """The ambient scope makes retried deterministic replays re-draw."""
    spec = FaultSpec("worker.run", 0.5, seed=0)
    faults.configure([spec])
    plan = faults.current_plan()

    def fire(scope):
        with faults.scoped(scope):
            return [
                plan.should_fault("worker.run", key=f"run:{c}")
                for c in range(0, 64)
            ]

    attempt1, attempt2 = fire("cell:1"), fire("cell:2")
    assert attempt1 != attempt2  # fresh samples per attempt
    assert attempt1 == fire("cell:1")  # but each attempt reproducible


def test_pristine_suppresses_any_ambient_plan():
    faults.configure(["worker.run:1"])
    assert faults.should_fault("worker.run", key="x")
    with faults.pristine():
        assert not faults.should_fault("worker.run", key="x")
        assert not faults.site_active("worker.run")
    # The ambient plan is restored afterwards.
    assert faults.should_fault("worker.run", key="x")


def test_unit_is_a_stable_pure_function():
    samples = [faults.unit(f"material-{i}") for i in range(64)]
    assert samples == [faults.unit(f"material-{i}") for i in range(64)]
    assert all(0.0 <= s < 1.0 for s in samples)
    assert len(set(samples)) == 64  # distinct materials, distinct draws
