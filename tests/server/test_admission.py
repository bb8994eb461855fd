"""Admission control: bounded queue depth and the p95-derived
Retry-After estimate."""

from repro.server.admission import AdmissionController


def test_admits_below_depth_bound():
    admission = AdmissionController(max_queue_depth=4)
    decision = admission.admit(queue_depth=3)
    assert decision.admitted
    assert decision.reason == ""


def test_sheds_at_depth_bound():
    admission = AdmissionController(max_queue_depth=4)
    decision = admission.admit(queue_depth=4)
    assert not decision.admitted
    assert decision.reason == "queue_full"
    assert decision.retry_after_s >= 1
    assert decision.queue_depth == 4


def test_retry_after_uses_default_before_observations():
    admission = AdmissionController(
        max_queue_depth=8, workers=2, default_service_s=4.0
    )
    # No completions observed: estimate = default * (depth+1) / workers.
    assert admission.p95_service_s() == 4.0
    assert admission.retry_after_s(queue_depth=3) == round(4.0 * 4 / 2)


def test_retry_after_tracks_observed_p95():
    admission = AdmissionController(max_queue_depth=8, workers=1)
    for _ in range(20):
        admission.observe_service_time(2.0)
    assert admission.p95_service_s() == 2.0
    # retry_after = p95 * (depth + 1) / workers
    assert admission.retry_after_s(queue_depth=4) == 10


def test_retry_after_clamped_to_bounds():
    admission = AdmissionController(max_queue_depth=8, workers=1)
    admission.observe_service_time(0.001)
    assert admission.retry_after_s(queue_depth=0) == 1  # floor
    for _ in range(20):
        admission.observe_service_time(300.0)
    assert admission.retry_after_s(queue_depth=7) == 120  # ceiling


def test_snapshot_shape():
    admission = AdmissionController(max_queue_depth=16, workers=3)
    admission.observe_service_time(1.0)
    snap = admission.snapshot()
    assert snap["max_queue_depth"] == 16
    assert snap["workers"] == 3
    assert snap["observed_completions"] == 1
    assert snap["p95_service_s"] == 1.0
