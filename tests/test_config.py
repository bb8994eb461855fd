"""Validation tests for the configuration dataclasses."""

import ast
import dataclasses
import pathlib

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
        with pytest.raises(ConfigError, match=r"MachineConfig\.width ="):
            MachineConfig(width=0)
        with pytest.raises(ConfigError, match="memory_latency"):
            MachineConfig(memory_latency=0)
        with pytest.raises(ConfigError, match="rob_entries"):
            MachineConfig(rob_entries=2)


class TestEnergyConfig:
    def test_paper_shares_sum_to_one(self):
        assert sum(EnergyConfig().structure_shares.values()) == pytest.approx(
            1.0
        )

    def test_idle_factor_range(self):
        with pytest.raises(ConfigError, match="idle_factor"):
            EnergyConfig(idle_factor=1.5)
        with pytest.raises(ConfigError, match="idle_factor"):
            EnergyConfig(idle_factor=-0.1)

    def test_with_idle_factor(self):
        cfg = EnergyConfig().with_idle_factor(0.1)
        assert cfg.idle_factor == 0.1

    def test_bad_shares_rejected(self):
        with pytest.raises(ConfigError, match="structure_shares"):
            EnergyConfig(structure_shares={"bpred": 0.5})


class TestSelectionConfig:
    def test_paper_defaults(self):
        s = SelectionConfig()
        assert s.slicing_window == 2048
        assert s.max_pthread_insts == 64

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="slicing_window"):
            SelectionConfig(slicing_window=1)


class TestSimulationConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="max_instructions"):
            SimulationConfig(max_instructions=0)


class TestValidate:
    """Each config checks every field when it is built, naming the
    offending field and its legal range."""

    def test_defaults_all_validate(self):
        MachineConfig()
        EnergyConfig()
        SelectionConfig()
        SimulationConfig()

    def test_error_names_field_and_range(self):
        with pytest.raises(
            ConfigError, match=r"MachineConfig\.pipeline_stages = 3"
        ):
            MachineConfig(pipeline_stages=3)

    def test_invalid_config_fails_before_simulating(self):
        from repro.harness.experiment import run_experiment

        with pytest.raises(
            ConfigError, match=r"MachineConfig\.pipeline_stages"
        ):
            run_experiment("gap", machine=MachineConfig(pipeline_stages=3))

    @pytest.mark.parametrize(
        "kwargs, field_name",
        [
            (dict(width=65), "width"),
            (dict(commit_width=0), "commit_width"),
            (dict(thread_contexts=0), "thread_contexts"),
            (dict(tlb_miss_latency=-1), "tlb_miss_latency"),
            (dict(bus_bytes=12), "bus_bytes"),
        ],
    )
    def test_machine_field_ranges(self, kwargs, field_name):
        with pytest.raises(ConfigError, match=rf"MachineConfig\.{field_name} ="):
            MachineConfig(**kwargs)

    def test_machine_cross_field_constraints(self):
        with pytest.raises(ConfigError, match="pthread_rs_reserve"):
            MachineConfig(rs_entries=8, pthread_rs_reserve=8)
        with pytest.raises(ConfigError, match="physical_registers"):
            MachineConfig(physical_registers=64)

    def test_machine_power_of_two_fields(self):
        with pytest.raises(ConfigError, match="page_bytes"):
            MachineConfig(page_bytes=3000)
        with pytest.raises(ConfigError, match="bpred_entries"):
            MachineConfig(bpred_entries=1000)

    def test_machine_pthread_fetch_ipc_bounds(self):
        with pytest.raises(ConfigError, match="pthread_fetch_ipc"):
            MachineConfig(pthread_fetch_ipc=0.0)
        with pytest.raises(ConfigError, match="pthread_fetch_ipc"):
            MachineConfig(pthread_fetch_ipc=7.5)

    @pytest.mark.parametrize(
        "args, field_name",
        [
            ((0, 2, 64, 1), "size_bytes"),
            ((1024, 0, 64, 1), "assoc"),
            ((1024, 2, 48, 1), "line_bytes"),
            ((1024, 2, 64, 0), "hit_latency"),
            ((1000, 2, 64, 1), "size_bytes"),
            # 5 lines in 2 ways: not a whole number of sets.
            ((320, 2, 64, 1), "size_bytes"),
        ],
    )
    def test_cache_field_ranges(self, args, field_name):
        with pytest.raises(ConfigError, match=rf"CacheConfig\.{field_name} ="):
            CacheConfig(*args)

    def test_energy_physical_parameters(self):
        with pytest.raises(ConfigError, match="e_max_per_cycle"):
            EnergyConfig(e_max_per_cycle=0.0)
        with pytest.raises(ConfigError, match="e_max_per_cycle"):
            EnergyConfig(e_max_per_cycle=-1e-9)

    def test_selection_ranges(self):
        with pytest.raises(ConfigError, match="min_miss_share"):
            SelectionConfig(min_miss_share=1.5)
        with pytest.raises(ConfigError, match="embedded_latency_factor"):
            SelectionConfig(embedded_latency_factor=0.5)
        with pytest.raises(ConfigError, match="min_gain_cycles"):
            SelectionConfig(min_gain_cycles=-1)
        with pytest.raises(ConfigError, match="max_problem_loads"):
            SelectionConfig(max_problem_loads=0)
        with pytest.raises(ConfigError, match="max_pthread_insts"):
            SelectionConfig(max_pthread_insts=0)


_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _attribute_reads(tree):
    return {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_config_field_is_read():
    # A field nothing reads only changes the config's fingerprint (and so
    # the cell and cache keys), never a run.  A field counts as read if
    # some module other than config.py accesses it, directly or through
    # a config.py property or method that is itself accessed there (e.g.
    # pipeline_stages via MachineConfig.frontend_depth).
    config_py = _SRC / "config.py"
    read = set()
    for path in _SRC.rglob("*.py"):
        if path != config_py:
            read |= _attribute_reads(ast.parse(path.read_text()))
    for node in ast.walk(ast.parse(config_py.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name in read:
            read |= _attribute_reads(node)
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in (CacheConfig, MachineConfig, EnergyConfig,
                    SelectionConfig, SimulationConfig)
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []
