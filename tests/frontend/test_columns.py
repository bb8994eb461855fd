"""Tests for the columnar trace storage."""

from array import array

import pytest

from repro.frontend.columns import (
    TraceColumns,
    grow_int64,
    grow_int8,
    int64_buffer,
    int8_buffer,
)

def test_int64_buffer_prefills():
    assert list(int64_buffer(4)) == [0, 0, 0, 0]
    assert list(int64_buffer(3, fill=-1)) == [-1, -1, -1]
    with pytest.raises(ValueError):
        int64_buffer(2, fill=7)


def test_int8_buffer_zeroed():
    assert list(int8_buffer(5)) == [0] * 5


def test_grow_helpers_extend_with_fill():
    col = int64_buffer(2, fill=-1)
    grow_int64(col, 3, fill=-1)
    assert list(col) == [-1] * 5
    grow_int64(col, 2)
    assert list(col)[-2:] == [0, 0]
    small = int8_buffer(1)
    grow_int8(small, 2)
    assert list(small) == [0, 0, 0]


def _sealed(length):
    pc = array("q", range(8))
    op = array("b", [1] * 8)
    s1 = array("q", [-1] * 8)
    s2 = array("q", [-1] * 8)
    addr = array("q", [-1] * 8)
    taken = array("b", [0] * 8)
    nxt = array("q", range(1, 9))
    return TraceColumns.seal(pc, op, s1, s2, addr, taken, nxt, length)


def test_seal_truncates():
    cols = _sealed(5)
    assert len(cols) == 5
    assert list(cols.pc) == [0, 1, 2, 3, 4]
    assert list(cols.addr) == [-1] * 5
    assert list(cols.next_pc) == [1, 2, 3, 4, 5]
