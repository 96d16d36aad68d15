#!/usr/bin/env python3
"""Time the enumeration kernels.

Runs the exhaustive and backtracking engines over a few residue-ring
cells, and the basis check on a basis of the congruence-preserving
tables of one cell, and prints one line per (engine, cell) with the
best-of-N wall time.  The counts are asserted against the closed-form
exponents, so this doubles as a smoke test at sizes the unit suite does
not visit.  Run it from anywhere: the program comes from `src/` of this
checkout."""

import argparse
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cpfq.counting import count_cpf  # noqa: E402
from cpfq.field import field_make  # noqa: E402
from cpfq.guards import EnumerationGuard  # noqa: E402
from cpfq.oracle import count_cpf_bruteforce  # noqa: E402
from cpfq.polyring import parse  # noqa: E402
from cpfq.wagner import verify_basis  # noqa: E402

# (engine, q, f, g): exhaustive checks all |A_g|^|A_f| rows, so it gets
# the smaller cells: 2^24 tables, 2^16 tables as in the slowest exhaustive
# cell of cpfqbench's verify workload, and |A_g| = 128, where one block
# holds only two positions; backtracking walks the referenced prefixes by
# label signature and can afford a deg-4 domain (2^22 valid prefixes at
# t^4 -> t^4), 3^21 tables at q = 3, and 2^64 tables into an irreducible
# octic (no constraints); basis counts the 2^20 congruence-preserving
# tables of the largest codomain that verify --what basis admits by the
# null space of their equations and checks the criterion on its basis
CELLS = [
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
]

GUARD = EnumerationGuard(max_functions=2 ** 70)


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print(f"{'engine':<13} {'q':<2} {'f':<5} {'g':<16} {'count':<7} {'time (ms)':>10}")
    for engine, q, ftext, gtext in CELLS:
        F = field_make(q)
        f, g = parse(F, ftext), parse(F, gtext)
        expect = count_cpf(f, g)
        if engine == "basis":
            dt, out = best_of(args.repeats, lambda: verify_basis(f, g, random.Random(1), 200))
            assert out["match"], (engine, q, ftext, gtext, out)
            got = out["cp_tables"]
        else:
            dt, got = best_of(args.repeats, lambda: count_cpf_bruteforce(
                f, g, engine=engine, guard=GUARD))
        assert expect.equals_int(got), (engine, q, ftext, gtext, got)
        print(f"{engine:<13} {q:<2} {ftext:<5} {gtext:<16} {str(expect):<7} {dt * 1e3:>10.3f}")


if __name__ == "__main__":
    main()
