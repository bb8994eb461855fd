"""One sealed trace through N machine configurations.

The pass behind :mod:`repro.harness.batchplan`: every member runs the
compiled C cycle kernel (:func:`repro.cpu.kerneldriver.simulate_kernel`,
which needs the ``kernel`` library -- the prewarm is skipped where it
does not load) on the same trace object, so the trace-pure kernel inputs -- opcode-derived
columns, branch-predictor outcome and BTB redirect columns, fetch line
ids and (geometry permitting) the warmed cache image -- are built once
and shared, while each config's ``SimStats`` is accumulated fully
independently.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import MachineConfig
from repro.cpu import kerneldriver
from repro.cpu.pthreads import PThreadProgram
from repro.cpu.stats import SimStats
from repro.frontend.trace import Trace


def simulate_batch(
    trace: Trace,
    configs: List[MachineConfig],
    pthreads: Optional[PThreadProgram] = None,
    warm: bool = True,
) -> List[SimStats]:
    """Simulate ``trace`` under each of ``configs`` on the cycle kernel.

    Results are positionally aligned with ``configs`` and bit-identical
    to one :func:`repro.cpu.pipeline.simulate` call per config.
    """
    return [
        kerneldriver.simulate_kernel(trace, config, pthreads, warm=warm)
        for config in configs
    ]
