#!/usr/bin/env python3
"""Time the enumeration kernels.

Runs the exhaustive and backtracking engines over a few residue-ring
cells and prints one line per (engine, cell) with the best-of-N wall
time.  The counts are asserted against the closed-form exponents, so
this doubles as a smoke test at sizes the unit suite does not visit.
Run it from anywhere: the program comes from `src/` of this checkout."""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cpfq.counting import count_cpf  # noqa: E402
from cpfq.field import field_make  # noqa: E402
from cpfq.guards import EnumerationGuard  # noqa: E402
from cpfq.oracle import count_cpf_bruteforce  # noqa: E402
from cpfq.polyring import parse  # noqa: E402

# (engine, q, f, g): exhaustive checks all |A_g|^|A_f| rows, so it gets
# the smaller cells: 2^24 tables, 2^16 tables as in the slowest exhaustive
# cell of cpfqbench's verify workload, and |A_g| = 128 > 64, where one
# position fills two words; backtracking walks only the valid prefixes of
# the referenced positions and can afford a deg-4 domain, 3^21 tables at
# q = 3, and 2^64 tables into an irreducible octic (no constraints)
CELLS = [
    ("exhaustive", 2, "t^3", "t^3"),
    ("exhaustive", 2, "t^3", "t^2+t"),
    ("exhaustive", 2, "t^2", "t^4+t+1"),
    ("exhaustive", 2, "t^2", "t^7"),
    ("backtracking", 2, "t^3", "t^3"),
    ("backtracking", 2, "t^4", "t^3"),
    ("backtracking", 2, "t^4", "t^4+t^3"),
    ("backtracking", 3, "t^2", "t^3"),
    ("backtracking", 2, "t^3", "t^8+t^4+t^3+t+1"),
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
        dt, got = best_of(args.repeats, lambda: count_cpf_bruteforce(
            f, g, engine=engine, guard=GUARD))
        assert expect.equals_int(got), (engine, q, ftext, gtext, got)
        print(f"{engine:<13} {q:<2} {ftext:<5} {gtext:<16} {str(expect):<7} {dt * 1e3:>10.3f}")


if __name__ == "__main__":
    main()
