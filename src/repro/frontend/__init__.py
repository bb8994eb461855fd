"""Functional frontend: interprets programs into dynamic traces.

The timing simulator (:mod:`repro.cpu`) is trace-driven: the functional
interpreter resolves register dataflow, memory addresses and branch
outcomes once, and the timing model charges cycles.  Because p-threads
never modify architectural state, this split is exact for DDMT-style
pre-execution (Section 2.1 of the paper).
"""

from repro.frontend.interpreter import InterpreterState, interpret
from repro.frontend.trace import Trace

__all__ = ["InterpreterState", "Trace", "interpret"]
