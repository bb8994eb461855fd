"""The pool runner drives real worker processes: its initializer
arguments must match ``parallel._worker_init`` or every worker dies on
start-up and the first submit ends in a broken pool."""

from repro.harness.parallel import ExperimentJob
from repro.server.poolrunner import PoolRunner


def test_pool_runner_runs_one_job():
    runner = PoolRunner(workers=1, job_timeout_s=120.0)
    try:
        runner.start()
        result = runner(ExperimentJob("gcc"))
    finally:
        runner.close()
    assert result.benchmark == "gcc"
    assert result.baseline.stats.committed > 0
    assert result.optimized.stats.committed == result.baseline.stats.committed
