"""Columnar (structure-of-arrays) storage machinery.

Originally built for the dynamic trace -- seven flat columns (pc, op
code, producer sequence numbers, effective address, branch direction,
resolved next pc) instead of one Python object per dynamic instruction
-- the buffer/seal machinery here is general and is also the array
layer under the :mod:`repro.analytics` columnar run store (int64,
int8, and float64 columns over millions of result rows).  Columns are
stdlib ``array('q')`` / ``array('b')`` / ``array('d')`` buffers:
emitted into preallocated arrays (CPython item assignment into
``array('q')`` is as fast as anything for a data-dependent sequential
loop) and sealed in place.  The cycle kernel's C build reads sealed
trace columns zero-copy through their buffer addresses.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import Iterable, List

from repro.errors import ConfigError

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


#: Native-order float64 NaN, the "value absent" sentinel for analytics
#: columns (result rows are an open set; most segments miss some keys).
_NAN_WORD = struct.pack("=d", math.nan)


def float64_buffer(n: int, fill: float = 0.0) -> array:
    """A writable float64 emission buffer of length ``n``.

    ``fill`` must be 0.0 or NaN -- the two bulk prefill patterns
    (zeros for dense columns, NaN for sparse "missing value" columns),
    both constructed as raw bytes rather than one float at a time.
    """
    if fill == 0.0:
        return array("d", bytes(8 * n))
    if math.isnan(fill):
        return array("d", _NAN_WORD * n)
    raise ValueError(f"unsupported prefill value: {fill}")


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


def grow_float64(col: array, delta: int) -> None:
    """Extend a float64 emission buffer by ``delta`` zeroed slots."""
    col.frombytes(bytes(8 * delta))


# --------------------------------------------------------------------- #
# Generic typed columns (beyond the fixed trace schema).
#
# The analytics run store holds an *open* column set -- whatever numeric
# and categorical keys its ingested result rows carry -- so it needs the
# buffer/seal machinery parameterized by column kind rather than the
# seven hard-wired trace columns above.
# --------------------------------------------------------------------- #

#: kind -> (array typecode, bytes per item)
COLUMN_KINDS = {
    "int64": ("q", 8),
    "int8": ("b", 1),
    "float64": ("d", 8),
}


def seal_column(col: array, kind: str) -> array:
    """Check an emission buffer against ``kind`` and return it sealed."""
    typecode, _ = COLUMN_KINDS[kind]
    if col.typecode != typecode:
        raise ConfigError(
            f"column buffer typecode {col.typecode!r} does not match "
            f"kind {kind!r} (expected {typecode!r})"
        )
    return col


def column_from_values(values: Iterable, kind: str) -> array:
    """Build a sealed column of ``kind`` from a Python iterable."""
    return array(COLUMN_KINDS[kind][0], values)


def column_from_bytes(raw: bytes, kind: str) -> array:
    """Rehydrate a sealed column from its on-disk native-order bytes."""
    col = array(COLUMN_KINDS[kind][0])
    col.frombytes(raw)
    return col


def column_to_bytes(col: array) -> bytes:
    """The on-disk byte payload of a sealed (or emission) column."""
    return col.tobytes()


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

    @classmethod
    def from_rows(cls, rows: Iterable) -> "TraceColumns":
        """Build sealed columns from ``DynInst``-like row objects (the
        legacy constructor path: tests, the sampling harness, and the
        object-path reference interpreter)."""
        pc: List[int] = []
        op_code: List[int] = []
        src1: List[int] = []
        src2: List[int] = []
        addr: List[int] = []
        taken: List[int] = []
        next_pc: List[int] = []
        from repro.isa.opcodes import CODE_BY_OP

        for row in rows:
            pc.append(row.pc)
            op_code.append(CODE_BY_OP[row.op])
            src1.append(row.src1_seq)
            src2.append(row.src2_seq)
            addr.append(row.addr)
            taken.append(1 if row.taken else 0)
            next_pc.append(row.next_pc)
        return cls(
            array("q", pc),
            array("b", op_code),
            array("q", src1),
            array("q", src2),
            array("q", addr),
            array("b", taken),
            array("q", next_pc),
        )
