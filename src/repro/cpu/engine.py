"""Cycle-engine backend selection.

Two engines run a timing simulation:

- ``reference`` -- the original :class:`repro.cpu.pipeline.Pipeline`
  per-cycle stage closures, retained verbatim as the oracle the kernel
  is gated against (and the only engine with microarchitectural tracing
  hooks and the ``pipeline.step`` fault site);
- ``native``    -- the compiled flat-array C cycle kernel
  (``cpu/_kernel.c``, built and loaded by :mod:`repro.cpu.nativebuild`)
  driven by :mod:`repro.cpu.kerneldriver`.  Always selectable: where
  the library does not load (no C toolchain, ``REPRO_NATIVE=0``),
  :func:`repro.cpu.pipeline.use_reference` runs ``native`` simulations
  on the reference engine, several times slower but bit-identical.

The backend is selected by the ``REPRO_SIM_BACKEND`` environment
variable or programmatically via :func:`set_sim_backend` (the
``--sim-backend`` CLI flag and the golden bit-identity tests), default
``native``.  Nothing numeric may depend on the backend: both must
produce bit-identical :class:`~repro.cpu.stats.SimStats`, selected
p-threads, and figure rows (``tests/cpu/test_golden_sim_backends.py``).
Naming any other backend raises :class:`~repro.errors.ConfigError`
listing the legal names.

This module intentionally imports no simulator code: the dispatch in
:func:`repro.cpu.pipeline.simulate` lazy-imports the kernel driver, so
backend *resolution* stays import-cycle-free.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigError

#: Every selectable engine, in documentation order.
SIM_BACKENDS = ("reference", "native")

_backend: Optional[str] = None


def _resolve_from_env() -> str:
    env = os.environ.get("REPRO_SIM_BACKEND", "").strip().lower()
    if not env:
        return "native"
    if env not in SIM_BACKENDS:
        raise ConfigError(
            f"REPRO_SIM_BACKEND={env!r} is not a simulation backend; "
            f"legal: {', '.join(SIM_BACKENDS)}"
        )
    return env


def backend() -> str:
    """The active cycle-engine backend name."""
    global _backend
    if _backend is None:
        _backend = _resolve_from_env()
    return _backend


def set_sim_backend(name: Optional[str]) -> None:
    """Force a backend, or ``None`` to re-resolve from the environment."""
    global _backend
    if name is None:
        _backend = None
        return
    if name not in SIM_BACKENDS:
        raise ConfigError(
            f"unknown simulation backend: {name!r}; "
            f"legal: {', '.join(SIM_BACKENDS)}"
        )
    _backend = name
