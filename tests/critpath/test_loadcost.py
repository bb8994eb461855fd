"""Tests for load cost functions (the Section 4.1 extension)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.critpath.classify import classify_trace
from repro.critpath.loadcost import (
    SAMPLE_POINTS,
    FlatLoadCost,
    LoadCostFunction,
    build_cost_functions,
)
from repro.errors import SelectionError
from repro.frontend import interpret
from repro.isa.opcodes import Op
from repro.slicer import identify_problem_loads
from repro.workloads import get_program


class TestFlatLoadCost:
    def test_identity(self):
        f = FlatLoadCost()
        assert f.gain(37.0) == 37.0

    def test_clamps_negative(self):
        assert FlatLoadCost().gain(-5.0) == 0.0


class TestLoadCostFunction:
    def _fn(self, samples=(10.0, 20.0, 30.0, 40.0)):
        return LoadCostFunction(pc=0, miss_latency=200.0, samples=samples)

    def test_zero_at_zero(self):
        assert self._fn().gain(0.0) == 0.0

    def test_linear_interpolation_between_samples(self):
        f = self._fn()
        # 12.5% of the miss latency = halfway to the 25% sample.
        assert f.gain(25.0) == pytest.approx(5.0)
        # Between 25% and 50%.
        assert f.gain(75.0) == pytest.approx(15.0)

    def test_saturates_beyond_full_latency(self):
        f = self._fn()
        assert f.gain(200.0) == 40.0
        assert f.gain(10_000.0) == 40.0
        assert f.saturation == 40.0

    def test_criticality_fraction(self):
        assert self._fn().criticality == pytest.approx(0.2)

    @given(t=st.floats(min_value=0, max_value=500, allow_nan=False))
    def test_monotone_nondecreasing(self, t):
        f = self._fn()
        assert f.gain(t) <= f.gain(t + 10.0) + 1e-9

    @given(t=st.floats(min_value=0, max_value=500, allow_nan=False))
    def test_bounded_by_saturation(self, t):
        f = self._fn()
        assert 0.0 <= f.gain(t) <= f.saturation + 1e-9


class TestBuildCostFunctions:
    @pytest.fixture(scope="class")
    def gap_profile(self):
        trace = interpret(get_program("gap"), max_instructions=2_000_000)
        cls = classify_trace(trace)
        pcs = identify_problem_loads(cls)
        return trace, cls, pcs

    def test_builds_for_every_problem_load(self, gap_profile):
        trace, cls, pcs = gap_profile
        fns = build_cost_functions(trace, cls, pcs)
        assert set(fns) == set(pcs)

    def test_samples_are_monotone(self, gap_profile):
        trace, cls, pcs = gap_profile
        fns = build_cost_functions(trace, cls, pcs)
        for fn in fns.values():
            assert list(fn.samples) == sorted(fn.samples)
            assert len(fn.samples) == len(SAMPLE_POINTS)

    def test_criticality_below_flat_model(self, gap_profile):
        """Averaged pessimistic/optimistic gains must not exceed the
        cycle-for-cycle assumption (gain per miss <= tolerated latency)."""
        trace, cls, pcs = gap_profile
        fns = build_cost_functions(trace, cls, pcs)
        for fn in fns.values():
            assert fn.saturation <= fn.miss_latency * 1.5

    def test_empty_problem_list(self, gap_profile):
        trace, cls, _ = gap_profile
        assert build_cost_functions(trace, cls, []) == {}

    def test_missing_misses_raises(self, gap_profile):
        trace, cls, _ = gap_profile
        store_pc = next(i.pc for i in trace.program if i.op is Op.ST)
        with pytest.raises(SelectionError):
            build_cost_functions(trace, cls, [store_pc])
