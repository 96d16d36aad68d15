"""The two enumeration engines must count the same rows."""

import tracemalloc

import numpy as np
import pytest

from cpfq import _kernels
from cpfq.counting import count_cpf
from cpfq.guards import EnumerationGuard
from cpfq.oracle import count_cpf_bruteforce, encode_cp_problem
from helpers import (GRID_CELLS, check_row, pol, ref_count_backtracking,
                     ref_count_exhaustive, ring)

CELLS = [(2, "t^2", "t^2"), (2, "t^2", "t^3+t"), (2, "t^3", "t^2"),
         (3, "t", "t^2"), (3, "t^2", "t"), (4, "t", "t^2+ut")]


def problems(cells=CELLS):
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


@pytest.mark.parametrize("chunk", [_kernels._CHUNK, 16], ids=["full", "small"])
def test_counts_equal_the_odometer_and_full_depth_references(monkeypatch, chunk):
    # the broadcast exhaustive count against the odometer over every row,
    # and the count split at the referenced prefix against the walk to
    # full depth, on these cells and the acceptance grid's
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    for pr in problems(CELLS + GRID_CELLS):
        args = _args(pr)
        assert _kernels.count_exhaustive(*args) == ref_count_exhaustive(*args)
        assert _kernels.count_backtracking(*args) == ref_count_backtracking(*args)


def test_count_backtracking_past_int64():
    # t^3 -> an irreducible octic over F_2: no divisor of g has degree < 3,
    # so all 256^8 = 2^64 tables preserve congruences; the count and each
    # prefix's product of 256^7 pass int64 (neither reference reaches it)
    f, g = pol(2, "t^3"), pol(2, "t^8+t^4+t^3+t+1")
    count = count_cpf_bruteforce(f, g, engine="backtracking",
                                 guard=EnumerationGuard(max_functions=2 ** 70))
    assert count == 2 ** 64
    assert count_cpf(f, g).equals_int(count)


def test_enumerate_returns_exactly_the_rows():
    pr = encode_cp_problem(ring(2, "t^2"), ring(2, "t^2"))
    args = _args(pr)
    rows = _kernels.enumerate_backtracking(*args)
    assert len(rows) == 64
    for row in rows:
        assert check_row(pr, np.asarray(row, dtype=np.int64))


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
