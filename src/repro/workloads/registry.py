"""Benchmark registry: name -> program builder."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import WorkloadError
from repro.isa.instruction import Program
from repro.workloads import spec
from repro.workloads.inputs import WorkloadInput, input_set

Builder = Callable[[WorkloadInput], Program]

_BUILDERS: Dict[str, Builder] = {
    "bzip2": spec.build_bzip2,
    "gap": spec.build_gap,
    "gcc": spec.build_gcc,
    "mcf": spec.build_mcf,
    "parser": spec.build_parser,
    "twolf": spec.build_twolf,
    "vortex": spec.build_vortex,
    "vpr.place": spec.build_vpr_place,
    "vpr.route": spec.build_vpr_route,
}

#: The paper's benchmark order (its figures list vpr.place before vpr.route).
BENCHMARK_NAMES: Tuple[str, ...] = (
    "bzip2",
    "gap",
    "gcc",
    "mcf",
    "parser",
    "twolf",
    "vortex",
    "vpr.place",
    "vpr.route",
)


def benchmark_names() -> Tuple[str, ...]:
    """All benchmark names, in the paper's presentation order."""
    return BENCHMARK_NAMES


# Programs are deterministic functions of (builder, input) and immutable
# once built (isa.instruction docstring), but building one is not cheap:
# the generators synthesize code and seed data structures.  A figure grid
# asks for the same program dozens of times (baseline, augment, and every
# sweep cell), so the registry memoizes instances.  Keyed by the builder
# *function* and the resolved input parameters, not the benchmark name,
# so re-registering a name (tests swap builders to prove
# content-addressed caching) naturally misses.  Bounded by the
# builder x input cross product, so no eviction is needed.
_PROGRAM_MEMO: Dict[Tuple[object, object], Program] = {}


def get_program(name: str, input_name: str = "train") -> Program:
    """Build benchmark ``name`` with the given input set ("train"/"ref")."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    winput = input_set(input_name, benchmark=name)
    memo_key = (builder, winput)
    program = _PROGRAM_MEMO.get(memo_key)
    if program is not None:
        return program
    program = builder(winput)
    _PROGRAM_MEMO[memo_key] = program
    return program
