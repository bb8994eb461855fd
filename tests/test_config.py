"""Validation tests for the configuration dataclasses."""

import pytest

from repro.config import (
    CacheConfig,
    EnergyConfig,
    MachineConfig,
    SelectionConfig,
    SimulationConfig,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_paper_geometries_valid(self):
        CacheConfig(32 * 1024, 2, 64, 1)
        CacheConfig(16 * 1024, 2, 64, 2)
        CacheConfig(256 * 1024, 4, 64, 12)

    def test_n_sets(self):
        assert CacheConfig(256 * 1024, 4, 64, 12).n_sets == 1024

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size_bytes=0, assoc=2, line_bytes=64, hit_latency=1),
            dict(size_bytes=1000, assoc=2, line_bytes=64, hit_latency=1),
            dict(size_bytes=1024, assoc=2, line_bytes=64, hit_latency=0),
            dict(size_bytes=64 * 3 * 2, assoc=2, line_bytes=64, hit_latency=1),
        ],
    )
    def test_bad_geometries_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)


class TestMachineConfig:
    def test_paper_defaults(self):
        m = MachineConfig()
        assert m.width == 6
        assert m.rob_entries == 128
        assert m.rs_entries == 80
        assert m.physical_registers == 384
        assert m.thread_contexts == 8
        assert m.memory_latency == 200
        assert m.mshr_entries == 16

    def test_frontend_depth_from_15_stages(self):
        assert MachineConfig().frontend_depth == 10

    def test_scaled_l2_copies(self):
        m = MachineConfig().scaled_l2(128 * 1024, 10)
        assert m.l2.size_bytes == 128 * 1024
        assert m.l2.hit_latency == 10
        assert m.dcache.size_bytes == MachineConfig().dcache.size_bytes

    def test_with_memory_latency(self):
        assert MachineConfig().with_memory_latency(300).memory_latency == 300

    def test_hashable_for_baseline_cache(self):
        assert hash(MachineConfig()) == hash(MachineConfig())

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            MachineConfig(width=0)
        with pytest.raises(ConfigError):
            MachineConfig(memory_latency=0)
        with pytest.raises(ConfigError):
            MachineConfig(rob_entries=2)


class TestEnergyConfig:
    def test_paper_shares_sum_to_one(self):
        assert sum(EnergyConfig().structure_shares.values()) == pytest.approx(
            1.0
        )

    def test_idle_factor_range(self):
        with pytest.raises(ConfigError):
            EnergyConfig(idle_factor=1.5)
        with pytest.raises(ConfigError):
            EnergyConfig(idle_factor=-0.1)

    def test_with_idle_factor(self):
        cfg = EnergyConfig().with_idle_factor(0.1)
        assert cfg.e_idle_per_cycle == 0.1

    def test_joules_conversion(self):
        cfg = EnergyConfig()
        assert cfg.joules(2.0) == pytest.approx(2.0 * cfg.e_max_per_cycle)

    def test_bad_shares_rejected(self):
        with pytest.raises(ConfigError):
            EnergyConfig(structure_shares={"bpred": 0.5})


class TestSelectionConfig:
    def test_paper_defaults(self):
        s = SelectionConfig()
        assert s.slicing_window == 2048
        assert s.max_pthread_insts == 64

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SelectionConfig(slicing_window=1)
        with pytest.raises(ConfigError):
            SelectionConfig(composition_weight=2.0)
        with pytest.raises(ConfigError):
            SelectionConfig(load_cost_model="magic")


class TestSimulationConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SimulationConfig(max_instructions=0)


class TestValidate:
    """``validate()`` names the offending field and its legal range,
    catching values that pass ``__post_init__``'s coarse checks."""

    def test_defaults_all_validate(self):
        assert MachineConfig().validate() is not None
        assert EnergyConfig().validate() is not None
        assert SelectionConfig().validate() is not None
        assert SimulationConfig().validate() is not None

    def test_validate_returns_self(self):
        machine = MachineConfig()
        assert machine.validate() is machine

    def test_error_names_field_and_range(self):
        with pytest.raises(
            ConfigError, match=r"MachineConfig\.pipeline_stages = 3"
        ):
            MachineConfig(pipeline_stages=3).validate()

    def test_machine_cross_field_constraints(self):
        with pytest.raises(ConfigError, match="pthread_rs_reserve"):
            MachineConfig(rs_entries=8, pthread_rs_reserve=8).validate()
        with pytest.raises(ConfigError, match="physical_registers"):
            MachineConfig(physical_registers=64).validate()

    def test_machine_power_of_two_fields(self):
        with pytest.raises(ConfigError, match="page_bytes"):
            MachineConfig(page_bytes=3000).validate()
        with pytest.raises(ConfigError, match="bpred_entries"):
            MachineConfig(bpred_entries=1000).validate()

    def test_machine_pthread_fetch_ipc_bounds(self):
        with pytest.raises(ConfigError, match="pthread_fetch_ipc"):
            MachineConfig(pthread_fetch_ipc=0.0).validate()
        with pytest.raises(ConfigError, match="pthread_fetch_ipc"):
            MachineConfig(pthread_fetch_ipc=7.5).validate()

    def test_machine_validates_cache_subconfigs(self):
        bad_l2 = CacheConfig(256 * 1024, 4, 64, 12)
        object.__setattr__(bad_l2, "hit_latency", 0)
        with pytest.raises(ConfigError, match=r"l2\.hit_latency"):
            MachineConfig(l2=bad_l2).validate()

    def test_energy_access_fraction_bounds(self):
        with pytest.raises(ConfigError, match="e_l2_access"):
            EnergyConfig(e_l2_access=1.5).validate()

    def test_energy_physical_parameters(self):
        with pytest.raises(ConfigError, match="frequency_ghz"):
            EnergyConfig(frequency_ghz=0.0).validate()
        with pytest.raises(ConfigError, match="vdd"):
            EnergyConfig(vdd=-1.0).validate()

    def test_selection_ranges(self):
        with pytest.raises(ConfigError, match="min_miss_share"):
            SelectionConfig(min_miss_share=1.5).validate()
        with pytest.raises(ConfigError, match="embedded_latency_factor"):
            SelectionConfig(embedded_latency_factor=0.5).validate()
        with pytest.raises(ConfigError, match="min_gain_cycles"):
            SelectionConfig(min_gain_cycles=-1).validate()

    def test_simulation_seed_non_negative(self):
        with pytest.raises(ConfigError, match="seed"):
            SimulationConfig(seed=-1).validate()
