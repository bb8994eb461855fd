"""One sealed trace through N machine configurations.

The pass behind :mod:`repro.harness.batchplan`: every member runs the
compiled C cycle kernel (:func:`repro.cpu.kerneldriver.simulate_kernel`,
which needs the ``kernel`` library -- the prewarm is skipped where it
does not load) on the same trace object.  The configs share only the
trace's sealed columns; each run derives its own kernel inputs and
accumulates its ``SimStats`` fully independently.
"""

from __future__ import annotations

from typing import List

from repro.config import MachineConfig
from repro.cpu import kerneldriver
from repro.cpu.stats import SimStats
from repro.frontend.trace import Trace


def simulate_batch(
    trace: Trace, configs: List[MachineConfig]
) -> List[SimStats]:
    """Simulate ``trace`` under each of ``configs`` on the cycle kernel.

    Results are positionally aligned with ``configs`` and bit-identical
    to one :func:`repro.cpu.pipeline.simulate` call per config.
    """
    return [kerneldriver.simulate_kernel(trace, config) for config in configs]
