"""Columnar (structure-of-arrays) trace storage.

The dynamic trace is seven flat columns (pc, op code, producer sequence
numbers, effective address, branch direction, resolved next pc); no
layer builds a Python object per dynamic instruction.  Columns are
stdlib ``array('q')`` / ``array('b')`` buffers.  The C interpreter
writes into the preallocated buffers :func:`trace_buffers` makes and
seals them in place (:meth:`TraceColumns.seal`); the reference
interpreter appends to plain lists and converts them once at the end.
The cycle kernel's C build reads sealed trace columns zero-copy
through their buffer addresses.
"""

from __future__ import annotations

from array import array
from typing import List

#: int64 two's-complement -1, used to prefill sentinel columns.
_NEG1_WORD = b"\xff" * 8


def int64_buffer(n: int, fill: int = 0) -> array:
    """A writable int64 emission buffer of length ``n``.

    ``fill`` must be 0 or -1: the two sentinel prefill patterns the
    interpreter needs (zeros for always-written columns, -1 for
    ``NO_PRODUCER`` / "no address" defaults), both constructed as raw
    bytes rather than one Python int at a time.
    """
    if fill == 0:
        return array("q", bytes(8 * n))
    if fill == -1:
        return array("q", _NEG1_WORD * n)
    raise ValueError(f"unsupported prefill value: {fill}")


def int8_buffer(n: int) -> array:
    """A writable zero-filled int8 emission buffer of length ``n``."""
    return array("b", bytes(n))


def grow_int64(col: array, delta: int, fill: int = 0) -> None:
    """Extend an int64 emission buffer by ``delta`` prefilled slots."""
    col.frombytes(_NEG1_WORD * delta if fill == -1 else bytes(8 * delta))


def grow_int8(col: array, delta: int) -> None:
    """Extend an int8 emission buffer by ``delta`` zeroed slots."""
    col.frombytes(bytes(delta))


def trace_buffers(n: int) -> List[array]:
    """The seven trace emission buffers, in :class:`TraceColumns` order
    (``pc, op_code, src1, src2, addr, taken, next_pc``), of length ``n``."""
    return [
        int64_buffer(n), int8_buffer(n), int64_buffer(n, fill=-1),
        int64_buffer(n, fill=-1), int64_buffer(n, fill=-1), int8_buffer(n),
        int64_buffer(n),
    ]


def grow_trace_buffers(cols: List[array], delta: int) -> None:
    """Extend :func:`trace_buffers` by ``delta`` prefilled slots each."""
    pc, op_code, src1, src2, addr, taken, next_pc = cols
    grow_int64(pc, delta)
    grow_int8(op_code, delta)
    grow_int64(src1, delta, fill=-1)
    grow_int64(src2, delta, fill=-1)
    grow_int64(addr, delta, fill=-1)
    grow_int8(taken, delta)
    grow_int64(next_pc, delta)


class TraceColumns:
    """Sealed trace columns.

    ``taken`` and ``op_code`` are ``array('b')``; the rest are
    ``array('q')``.  Instances are treated as immutable once sealed --
    they are shared across grid cells and fork-inherited pool workers.
    """

    __slots__ = ("pc", "op_code", "src1", "src2", "addr", "taken",
                 "next_pc")

    def __init__(self, pc, op_code, src1, src2, addr, taken,
                 next_pc) -> None:
        self.pc = pc
        self.op_code = op_code
        self.src1 = src1
        self.src2 = src2
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc

    def __len__(self) -> int:
        return len(self.pc)

    @classmethod
    def seal(
        cls,
        pc: array,
        op_code: array,
        src1: array,
        src2: array,
        addr: array,
        taken: array,
        next_pc: array,
        length: int,
    ) -> "TraceColumns":
        """Truncate emission buffers to ``length`` and seal them."""
        for col in (pc, src1, src2, addr, next_pc, op_code, taken):
            del col[length:]
        return cls(pc, op_code, src1, src2, addr, taken, next_pc)
