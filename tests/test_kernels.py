"""The two enumeration engines must count the same rows."""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpfq import _kernels
from cpfq.counting import count_cpf
from cpfq.guards import EnumerationGuard
from cpfq.oracle import count_cpf_bruteforce, encode_cp_problem
from helpers import (GRID_CELLS, check_row, pol, ref_count_backtracking,
                     ref_count_broadcast, ref_count_exhaustive, ring)

CELLS = [(2, "t^2", "t^2"), (2, "t^2", "t^3+t"), (2, "t^3", "t^2"),
         (3, "t", "t^2"), (3, "t^2", "t"), (4, "t", "t^2+ut")]
# the packed block of count_exhaustive, C^w bits in ceil(C^w / 64) words:
# 81 of 128 bits (C = 3), 125 of 128 (C = 5, no constraint), exactly one
# word (C = 4 and 8), two words for one position (C = 81 and 128), C = 2
# with D = 16, and C^D < 64, where every position is packed
PACKING_CELLS = [(3, "t^2", "t"), (5, "t", "t+1"), (2, "t^2", "t^2"),
                 (2, "t^2", "t^3"), (3, "t", "t^4"), (2, "t", "t^7"),
                 (2, "t^4", "t"), (2, "t", "t^2"), (2, "t^2", "t")]
# a chunk of 1024 tables gives count_exhaustive leading and mid axes on
# the cells past 2^10 tables, and 16 gives no mid axis at all
CHUNKS, CHUNK_IDS = [_kernels._CHUNK, 1024, 16], ["full", "mid", "small"]


def problems(cells=CELLS):
    for (q, ftext, gtext) in cells:
        yield encode_cp_problem(ring(q, ftext), ring(q, gtext))


def _args(pr):
    D = len(pr.domain.elements())
    C = len(pr.codomain.elements())
    return D, C, pr.cons_ptr, pr.cons_src, pr.cons_div, pr.cod_class


def synthetic_args(D, C, cons):
    """Kernel arguments that no pair of rings gives: D positions of C
    values, labelled mod 2 and mod 3 (as the classes mod two divisors
    would be), and the constraints cons, (i, j, label map) with i < j."""
    cons = sorted(cons, key=lambda c: c[1])
    ptr = np.cumsum([0] + [sum(j == k for _, j, _ in cons) for k in range(D)])
    return (D, C, ptr, np.array([i for i, _, _ in cons], dtype=np.int64),
            np.array([h for _, _, h in cons], dtype=np.int64),
            np.array([[v % k for v in range(C)] for k in (2, 3)]))


def random_constraints(D, seed):
    rng = random.Random(seed)
    return [(i, j, rng.randrange(2)) for j in range(D) for i in range(j)
            if rng.random() < 0.4]


@pytest.mark.parametrize("chunk", [_kernels._CHUNK, 16], ids=["full", "small"])
def test_engines_agree_with_each_other(monkeypatch, chunk):
    # a small chunk splits count_backtracking's depth-first walk into
    # many blocks per position
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    for pr in problems():
        assert (_kernels.count_backtracking(*_args(pr))
                == _kernels.count_exhaustive(*_args(pr)))


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_counts_equal_the_odometer_and_full_depth_references(monkeypatch, chunk):
    # the packed exhaustive count against the odometer over every row and
    # the boolean broadcast it replaced, and the count split at the
    # referenced prefix against the walk to full depth, on these cells and
    # the acceptance grid's
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    for pr in problems(CELLS + GRID_CELLS):
        args = _args(pr)
        assert _kernels.count_exhaustive(*args) == ref_count_exhaustive(*args)
        assert _kernels.count_exhaustive(*args) == ref_count_broadcast(*args)
        assert _kernels.count_backtracking(*args) == ref_count_backtracking(*args)


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_packed_counts_on_partial_exact_and_multi_word_blocks(monkeypatch, chunk):
    # the packed words against the boolean broadcast and the odometer; the
    # synthetic cells put constraints on C = 5, 6 and 7, which rings give
    # only with |A_f| >= 25
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    cells = [_args(pr) for pr in problems(PACKING_CELLS)]
    cells += [synthetic_args(D, C, random_constraints(D, seed))
              for C, D in [(5, 4), (6, 4), (7, 4), (3, 7)] for seed in range(3)]
    # two leading positions select the values of one mid axis (at 1024)
    cells.append(synthetic_args(12, 2, [(0, 4, 0), (1, 4, 0)]))
    for args in cells:
        count = _kernels.count_exhaustive(*args)
        assert count == ref_count_broadcast(*args) == ref_count_exhaustive(*args)
        assert count == _kernels.count_backtracking(*args) == ref_count_backtracking(*args)


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


def test_bench_kernels_script_runs_from_a_checkout():
    # as the README runs it, from the root of a checkout with no
    # PYTHONPATH; the script asserts every count against the closed forms
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "benchmarks/bench_kernels.py", "--repeats", "1"],
                         cwd=Path(__file__).resolve().parents[1], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("engine")
