"""Load-model harness against a stub-runner server: outcome
classification, the report row, and the latency-budget math."""

import threading

import pytest

from repro.errors import ConfigError
from repro.server.app import ExperimentServer
from repro.server.client import Response, ServerClient
from repro.server.loadtest import _classify, run_loadtest
from repro.server.queue import JobQueue
from repro.server.state import ServerState


def _row(job):
    return {"benchmark": job.benchmark, "target": job.target.label}


@pytest.fixture()
def stub_server(tmp_path):
    state = ServerState(str(tmp_path / "state"))
    queue = JobQueue(state, runner=_row, workers=2)
    server = ExperimentServer(queue, port=0)
    server.start(resume=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url
    server.shutdown_and_drain()
    thread.join(timeout=10.0)


def test_closed_loop_report_row(stub_server):
    report = run_loadtest(
        server_url=stub_server, mode="closed",
        benchmarks=("gcc", "mcf"), requests=8, concurrency=3,
        latency_budget_s=10.0,
    )
    row = report["row"]
    assert row["mode"] == "closed"
    assert row["requests"] == 8
    assert row["concurrency"] == 3
    assert row["ok"] == 8
    assert row["failed"] == 0
    assert row["failure_rate"] == 0.0
    assert row["shed_rate"] == 0.0
    assert row["throughput_rps"] > 0
    assert row["p95_latency_ms"] >= row["p50_latency_ms"] > 0
    # Latency-budget math: max_concurrent = budget / p95.
    assert row["latency_budget_s"] == 10.0
    expected = int(10.0 / (row["p95_latency_ms"] / 1000.0))
    assert row["max_concurrent_in_budget"] == expected
    assert len(report["samples"]) == 8
    assert all(s["benchmark"] in ("gcc", "mcf") for s in report["samples"])


def test_open_loop_report_row(stub_server):
    report = run_loadtest(
        server_url=stub_server, mode="open",
        benchmarks=("gcc",), requests=6, rate_rps=50.0,
    )
    row = report["row"]
    assert row["mode"] == "open"
    assert row["rate_rps"] == 50.0
    assert "concurrency" not in row
    assert row["ok"] == 6
    assert row["failure_rate"] == 0.0


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        run_loadtest(server_url="http://127.0.0.1:1", mode="sideways")


def test_classification_rules():
    ok = Response(status=200)
    accepted = Response(status=202)
    shed = Response(status=429, retry_after_s=3)
    dropped = Response(status=0)
    failed = Response(status=500)
    assert _classify(ok, accepted) == "ok"
    assert _classify(failed, shed) == "shed"  # shed at submit wins
    assert _classify(dropped, accepted) == "dropped"
    assert _classify(ok, dropped) == "dropped"
    assert _classify(failed, accepted) == "failed"
    # A request still pending at wait-timeout is not a success.
    assert _classify(accepted, accepted) == "failed"


class _DropFirstPolls(ServerClient):
    """A client whose first ``drops`` result polls lose the connection."""

    def __init__(self, drops):
        super().__init__("http://127.0.0.1:1")
        self.drops = drops
        self.polls = 0

    def result(self, job_id):
        self.polls += 1
        if self.polls <= self.drops:
            return Response(status=0, transport_error="reset")
        return Response(status=200, body={"job_id": job_id})


def test_wait_retries_a_dropped_poll():
    client = _DropFirstPolls(drops=2)
    final = client.wait("job-000001", timeout_s=10.0, poll_s=0.0)
    assert final.status == 200
    assert final.body["job_id"] == "job-000001"
    assert client.polls == 3


def test_wait_returns_the_drop_at_its_deadline():
    client = _DropFirstPolls(drops=10**9)
    final = client.wait("job-000001", timeout_s=0.0, poll_s=0.0)
    assert final.dropped


def test_loadtest_cli_fails_when_nothing_is_delivered(capsys):
    from repro.cli import main

    # Nothing listens on port 1: every submit is a transport drop, so
    # failure_rate is 0.0 but no request ended ok.
    assert main(["loadtest", "--server", "http://127.0.0.1:1",
                 "--requests", "2", "--concurrency", "1", "--json"]) == 1
    assert "none of 2 request(s)" in capsys.readouterr().err
