"""The two enumeration engines must count the same rows."""

import tracemalloc

import numpy as np
import pytest

from cpfq import _kernels
from cpfq.oracle import encode_cp_problem
from helpers import ring


def problems():
    cells = [(2, "t^2", "t^2"), (2, "t^2", "t^3+t"), (2, "t^3", "t^2"),
             (3, "t", "t^2"), (3, "t^2", "t"), (4, "t", "t^2+ut")]
    for (q, ftext, gtext) in cells:
        yield encode_cp_problem(ring(q, ftext), ring(q, gtext))


def _args(pr):
    D = len(pr.domain.elements())
    C = len(pr.codomain.elements())
    return D, C, pr.cons_ptr, pr.cons_src, pr.cons_div, pr.cod_class


@pytest.mark.parametrize("chunk", [_kernels._CHUNK, 16], ids=["full", "small"])
def test_engines_agree_with_each_other(monkeypatch, chunk):
    # a small chunk splits count_backtracking's depth-first walk into
    # many blocks per position
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    for pr in problems():
        assert (_kernels.count_backtracking(*_args(pr))
                == _kernels.count_exhaustive(*_args(pr)))


def test_enumerate_returns_exactly_the_rows():
    pr = encode_cp_problem(ring(2, "t^2"), ring(2, "t^2"))
    args = _args(pr)
    rows = _kernels.enumerate_backtracking(*args)
    assert len(rows) == 64
    for row in rows:
        assert pr.check_row(np.asarray(row, dtype=np.int64))


def test_count_backtracking_memory_is_bounded(monkeypatch):
    # 3^12 valid rows of 9 positions: about 38 MB as one int64 array, so a
    # count that materialized its rows would pass this bound many times over
    monkeypatch.setattr(_kernels, "_CHUNK", 1 << 12)
    pr = encode_cp_problem(ring(3, "t^2"), ring(3, "t^2"))
    tracemalloc.start()
    try:
        count = _kernels.count_backtracking(*_args(pr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 3 ** 12
    assert peak < 8 * 2 ** 20
