"""Tests for report formatting and aggregation."""

import pytest

from repro.harness.report import format_table, geometric_mean_pct


class TestGeometricMean:
    def test_identity_for_single_value(self):
        assert geometric_mean_pct([10.0]) == pytest.approx(10.0)

    def test_zero_gains(self):
        assert geometric_mean_pct([0.0, 0.0]) == pytest.approx(0.0)

    def test_mixed_signs(self):
        # +50% and -100% (ratio 0.5 * 2.0 = 1.0): net zero.
        assert geometric_mean_pct([50.0, -100.0]) == pytest.approx(0.0)

    def test_empty(self):
        assert geometric_mean_pct([]) == 0.0

    def test_full_gain_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean_pct([100.0])

    def test_matches_paper_style_average(self):
        gains = [20.0, 10.0, 5.0]
        value = geometric_mean_pct(gains)
        assert 5.0 < value < 20.0


class TestFormatTable:
    def test_alignment_and_header(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 100, "b": 0.125}]
        text = format_table(rows)
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert len({len(line) for line in lines if line}) == 1

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        assert "b" not in text.splitlines()[0]

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_float_digits(self):
        text = format_table([{"x": 1.23456}], float_digits=3)
        assert "1.235" in text
