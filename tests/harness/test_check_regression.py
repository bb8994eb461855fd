"""``benchmarks/check_regression.py``: a missing engine wall always
fails, and walls measured under a different ``native`` engine (the C
kernel versus the reference fallback) are skipped with a notice instead
of band-checked."""

import importlib.util
import os

_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _payload(kernel, native_wall=3.0, cycles_per_sec=1000.0):
    return {
        "sim_backend": "native",
        "native_kernel": kernel,
        "simulator": [
            {"benchmark": "gcc", "cycles": 10, "committed": 7,
             "cycles_per_sec": cycles_per_sec},
        ],
        "figure_grid": {
            "rows": 2,
            "cold_wall_s": 3.0,
            "backend_walls_s": {"native": native_wall, "reference": 9.0},
        },
    }


def _names(failures):
    return [name for name, _ in failures]


def test_same_kernel_is_band_checked():
    notices = []
    failures = check_regression.compare_named(
        _payload("c"), _payload("c", native_wall=30.0), 0.5, notices
    )
    assert _names(failures) == ["figure_grid.backend_walls_s.native"]
    assert notices == []


def test_other_kernel_skips_throughput_with_notice():
    notices = []
    slow = _payload("reference", native_wall=30.0, cycles_per_sec=10.0)
    failures = check_regression.compare_named(
        _payload("c"), slow, 0.5, notices
    )
    assert failures == []
    assert len(notices) == 1 and "native_kernel" in notices[0]


def test_other_kernel_still_checks_determinism():
    current = _payload("reference")
    current["simulator"][0]["cycles"] = 11
    failures = check_regression.compare_named(_payload("c"), current, 0.5)
    assert _names(failures) == ["simulator[gcc].cycles"]


def test_missing_native_wall_fails():
    current = _payload("c")
    del current["figure_grid"]["backend_walls_s"]["native"]
    failures = check_regression.compare_named(_payload("c"), current, 0.5)
    assert _names(failures) == ["figure_grid.backend_walls_s.native"]
