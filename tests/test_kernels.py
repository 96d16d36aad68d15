"""The two enumeration engines must count the same rows."""

import itertools
import math
import random
import tracemalloc

import pytest

import helpers
from cpfq import _kernels
from cpfq.counting import count_cpf
from cpfq.guards import EnumerationGuard
from cpfq.oracle import count_cpf_bruteforce, encode_cp_problem
from cpfq.wagner import verify_basis
from helpers import (GRID_CELLS, check_row, pol, ref_count_backtracking,
                     ref_count_blocked, ref_count_broadcast, ref_count_exhaustive,
                     ref_count_packed, ring)

CELLS = [(2, "t^2", "t^2"), (2, "t^2", "t^3+t"), (2, "t^3", "t^2"),
         (3, "t", "t^2"), (3, "t^2", "t"), (4, "t", "t^2+ut")]
# blocks of C^w bits that are not powers of two (C = 3, 5, 81), exactly
# 64 bits (C = 4 and 8), one position past 64 bits (C = 128), C = 2 with
# D = 16, and C^D small enough that every position is packed (the
# reference packing of 64-bit words is partial, exact and multi-word here)
PACKING_CELLS = [(3, "t^2", "t"), (5, "t", "t+1"), (2, "t^2", "t^2"),
                 (2, "t^2", "t^3"), (3, "t", "t^4"), (2, "t", "t^7"),
                 (2, "t^4", "t"), (2, "t", "t^2"), (2, "t^2", "t")]
# blocks of 1024 bits give count_exhaustive leading positions on the cells
# past 2^10 tables, and 16 bits on nearly all (at least one position is
# packed); the reference chunk of the same size gives the packed-word
# reference mid axes, and none at 16
CHUNKS, CHUNK_IDS = [_kernels._BLOCK_BITS, 1024, 16], ["full", "mid", "small"]


def small_blocks(monkeypatch, bits):
    monkeypatch.setattr(_kernels, "_BLOCK_BITS", bits)
    monkeypatch.setattr(helpers, "REF_CHUNK", max(bits, 16))


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
    ptr = tuple(itertools.accumulate(
        (sum(j == k for _, j, _ in cons) for k in range(D)), initial=0))
    return (D, C, ptr, tuple(i for i, _, _ in cons), tuple(h for _, _, h in cons),
            tuple(tuple(v % k for v in range(C)) for k in (2, 3)))


def random_constraints(D, seed):
    rng = random.Random(seed)
    return [(i, j, rng.randrange(2)) for j in range(D) for i in range(j)
            if rng.random() < 0.4]


@pytest.mark.parametrize("chunk", [_kernels._BLOCK_BITS, 16], ids=["full", "small"])
def test_engines_agree_with_each_other(monkeypatch, chunk):
    # small blocks give count_exhaustive a deep walk of leading positions
    small_blocks(monkeypatch, chunk)
    for pr in problems():
        assert (_kernels.count_backtracking(*_args(pr))
                == _kernels.count_exhaustive(*_args(pr))
                == len(_kernels.enumerate_backtracking(*_args(pr))))


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_counts_equal_the_odometer_and_full_depth_references(monkeypatch, chunk):
    # the exhaustive count on int blocks against the odometer over every
    # row, the boolean broadcast and the packed words it replaced, and the
    # signature walk against the blocked walk it replaced and the walk to
    # full depth, on these cells and the acceptance grid's
    small_blocks(monkeypatch, chunk)
    for pr in problems(CELLS + GRID_CELLS):
        args = _args(pr)
        count = _kernels.count_exhaustive(*args)
        assert count == ref_count_exhaustive(*args) == ref_count_broadcast(*args)
        assert count == ref_count_packed(*args)
        assert _kernels.count_backtracking(*args) == ref_count_backtracking(*args)
        assert _kernels.count_backtracking(*args) == ref_count_blocked(*args) == count


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_packed_counts_on_partial_exact_and_multi_word_blocks(monkeypatch, chunk):
    # the int blocks against the packed words, the boolean broadcast and
    # the odometer; the synthetic cells put constraints on C = 5, 6 and 7,
    # which rings give only with |A_f| >= 25
    small_blocks(monkeypatch, chunk)
    cells = [_args(pr) for pr in problems(PACKING_CELLS)]
    cells += [synthetic_args(D, C, random_constraints(D, seed))
              for C, D in [(5, 4), (6, 4), (7, 4), (3, 7)] for seed in range(3)]
    # two leading positions select the values of one mid axis of the
    # packed-word reference (at 1024)
    cells.append(synthetic_args(12, 2, [(0, 4, 0), (1, 4, 0)]))
    for args in cells:
        count = _kernels.count_exhaustive(*args)
        assert count == ref_count_broadcast(*args) == ref_count_exhaustive(*args)
        assert count == ref_count_packed(*args)
        assert count == _kernels.count_backtracking(*args) == ref_count_backtracking(*args)
        assert count == ref_count_blocked(*args) == len(_kernels.enumerate_backtracking(*args))


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
        assert check_row(pr, row)
    every = list(itertools.product(range(4), repeat=4))
    assert rows == [row for row in every if check_row(pr, row)]


def test_count_backtracking_memory_is_bounded():
    # 3^12 valid rows of 9 positions: about 38 MB as one int64 array, so a
    # count that materialized its rows would pass this bound many times over
    pr = encode_cp_problem(ring(3, "t^2"), ring(3, "t^2"))
    tracemalloc.start()
    try:
        count = _kernels.count_backtracking(*_args(pr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 3 ** 12
    assert peak < 8 * 2 ** 20


# cells past the unit grid, each counted against the closed form:
# exhaustive checks all |A_g|^|A_f| rows, so it gets 2^24 tables, 2^16
# tables (the slowest exhaustive cell of cpfqbench's verify workload) and
# |A_g| = 128, where one block holds only two positions; backtracking walks
# the referenced prefixes by label signature, so it gets a deg-4 domain
# (2^22 valid prefixes at t^4 -> t^4), 3^21 tables at q = 3 and 2^64
# tables into an irreducible octic (no constraints); basis counts the 2^20
# congruence-preserving tables of the largest codomain that verify --what
# basis admits by the null space of their equations
@pytest.mark.parametrize("engine, q, f, g", [
    ("exhaustive", 2, "t^3", "t^3"),
    ("exhaustive", 2, "t^3", "t^2+t"),
    ("exhaustive", 2, "t^2", "t^4+t+1"),
    ("exhaustive", 2, "t^2", "t^7"),
    ("backtracking", 2, "t^3", "t^3"),
    ("backtracking", 2, "t^4", "t^3"),
    ("backtracking", 2, "t^4", "t^4+t^3"),
    ("backtracking", 2, "t^4", "t^4"),
    ("backtracking", 3, "t^2", "t^3"),
    ("backtracking", 2, "t^3", "t^8+t^4+t^3+t+1"),
    ("basis", 2, "t", "t^10"),
])
def test_larger_cells_count_as_the_closed_form(engine, q, f, g):
    f, g = pol(q, f), pol(q, g)
    if engine == "basis":
        out = verify_basis(f, g, random.Random(1), 200)
        assert out["match"]
        count = out["cp_tables"]
    else:
        count = count_cpf_bruteforce(f, g, engine=engine,
                                     guard=EnumerationGuard(max_functions=2 ** 70))
    assert count_cpf(f, g).equals_int(count)


def test_prefix_walk_is_bounded_by_the_signatures(monkeypatch):
    # q = 2, t^4 -> t^4: the prefix of the K = 8 referenced positions has
    # 16^8 = 2^32 value rows and 2^22 valid ones, which the blocked walk
    # visited one by one (5.5 s as a whole process).  The signature walk
    # visits a node per signature (8 per position: the labels mod t^3), so
    # its nodes stay under the sum over depths of the products of the
    # signature counts, and it counts each (depth, live labels) once, which
    # leaves a few hundred
    pr = encode_cp_problem(ring(2, "t^4"), ring(2, "t^4"))
    args = _args(pr)
    K, groups = _kernels._signature_plan(*args)[:2]
    walk, nodes = _kernels._walk, []

    def counted(plan, memo, chosen, j):
        nodes.append(j)
        return walk(plan, memo, chosen, j)

    monkeypatch.setattr(_kernels, "_walk", counted)
    assert _kernels.count_backtracking(*args) == 2 ** 30
    assert count_cpf(pol(2, "t^4"), pol(2, "t^4")).equals_int(2 ** 30)
    assert (K, [len(g) for g in groups]) == (8, [8] * 8)
    bound = sum(math.prod(map(len, groups[:d])) for d in range(K))
    assert len(nodes) <= bound < 2 ** 22 < 16 ** K
    assert len(nodes) < 1000
