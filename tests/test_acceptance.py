"""Acceptance gate: every headline result checked against an independent path.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see
them on success) with its elapsed time next to the expected budget;
value tolerances are asserted exactly, wall clock is reported only."""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from cpfq.chen import (GAMMA_INF, chen_self_count, density_empirical, gamma,
                       is_chen_pair, is_self_chen)
from cpfq.counting import _polyfn_local_exponent, _w, count_cpf, count_polyfn
from cpfq.oracle import (census_self_chen, census_squarefree,
                         count_cpf_bruteforce, count_polyfn_literal,
                         deg_gcd_factorial, is_congruence_preserving,
                         polyfn_module)
from cpfq.polyring import Poly, factorize, parse, valuation
from cpfq.residue import FunctionTable, ResidueRing, crt_combine, crt_split
from cpfq.wagner import PSequence, decompose, eval_Qk, mu
from helpers import (decompose_rows, enumerate_cpf_tables, exponent_identity_check,
                     make_field, monic_upto, pol, random_table)


@contextmanager
def criterion(num, budget_s, label):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"acceptance {num}: FAIL  {label}")
        raise
    dt = time.perf_counter() - t0
    print(f"acceptance {num}: PASS  {label} ({dt:.1f}s, budget {budget_s}s)")


GRID_F = ["t", "t^2"]
GRID_G = ["t", "t+1", "t^2", "t^2+t", "t^2+t+1", "t^3", "t^3+t^2"]


def grid_cells():
    F2 = make_field(2)
    for ftext in GRID_F:
        for gtext in GRID_G:
            yield parse(F2, ftext), parse(F2, gtext)


def w_weight(k, q, d):
    total = 0
    power = q ** d
    while power <= k:
        total += k // power
        power *= q ** d
    return total


def test_criterion_1_cp_count_formula_matches_enumeration():
    with criterion(1, 60, "CP count formula == brute-force count on the grid"):
        cells = 0
        for f, g in grid_cells():
            assert ResidueRing(g).size ** ResidueRing(f).size <= 2 ** 20
            got = count_cpf_bruteforce(f, g)
            assert count_cpf(f, g).equals_int(got), (str(f), str(g))
            cells += 1
        assert cells == 14


def test_criterion_2_polyfn_count_matches_closure_and_literal_path():
    with criterion(2, 60, "polynomial count == closure size; literal == valuation path"):
        F2 = make_field(2)
        for f, g in grid_cells():
            n = count_polyfn(f, g)
            assert n.equals_int(polyfn_module(f, g).size), (str(f), str(g))
            assert count_polyfn_literal(f, g) == n
        # literal path exercised out to k = q^4 - 1 through a degree-4 domain
        f4 = parse(F2, "t^4")
        for gtext in GRID_G:
            g = parse(F2, gtext)
            assert count_polyfn_literal(f4, g) == count_polyfn(f4, g)
        # per-index agreement: deg gcd(g, k!) == sum_i d_i min(e_i, w_{d_i}(k))
        for gtext in GRID_G:
            g = parse(F2, gtext)
            fac = factorize(g)
            for k in range(2 ** 4 + 1):
                expect = sum(p.degree * min(e, w_weight(k, 2, p.degree))
                             for p, e in fac.factors)
                assert deg_gcd_factorial(g, k) == expect, (gtext, k)


def test_criterion_3_chen_verdict_equals_count_comparison():
    with criterion(3, 30, "Chen-pair verdict == (CP count == polynomial count), deg <= 4"):
        for q in (2, 3):
            F = make_field(q)
            t = parse(F, "t")
            for g in monic_upto(F, 4):
                # both counts depend on f only through its degree
                equal_by_deg = {n: count_cpf(t ** n, g) == count_polyfn(t ** n, g)
                                for n in range(1, 5)}
                for f in monic_upto(F, 4):
                    assert bool(is_chen_pair(f, g)) == equal_by_deg[f.degree], \
                        (q, str(f), str(g))


def test_criterion_4_self_chen_iff_gamma_infinite():
    with criterion(4, 10, "self-Chen verdict == (gamma == inf), monic deg <= 6"):
        for q in (2, 3):
            F = make_field(q)
            for g in monic_upto(F, 6):
                assert is_self_chen(g) == (gamma(g) == GAMMA_INF), (q, str(g))


def expected_components(n):
    """Closed forms for the four self-Chen classes at q=2, valid from n=4:

    plain square-free, t^2 exactly, (t+1)^2 exactly, both squares exactly."""
    u1 = 2 ** (n - 1)
    sign = (-1) ** (n - 1)
    assert (2 ** (n - 2) + sign) % 3 == 0
    u23 = (2 ** (n - 2) + sign) // 3
    assert (2 ** (n - 3) + sign * (3 * n - 19)) % 9 == 0
    u4 = (2 ** (n - 3) + sign * (3 * n - 19)) // 9
    return (u1, u23, u23, u4)


def expected_total(n):
    if n < 4:
        return (1, 2, 4, 6)[n]
    return sum(expected_components(n))


def test_criterion_5_censuses_and_density():
    with criterion(5, 60, "square-free and self-Chen censuses, density at m=12"):
        for q in (2, 3):
            F = make_field(q)
            for n in range(11):
                expect = 1 if n == 0 else q if n == 1 else q ** n - q ** (n - 1)
                assert census_squarefree(F, n) == expect, (q, n)
        F2 = make_field(2)
        for n in range(13):
            census = census_self_chen(F2, n)
            assert census.total == expected_total(n) == chen_self_count(n), n
            if n >= 4:
                assert census.components == expected_components(n), n
        rep = density_empirical(F2, 12)
        assert abs(rep.fraction - Fraction(49, 72)) < Fraction(1, 100)
        assert rep.fraction == Fraction(sum(expected_total(n)
                                            for n in range(1, 13)), 2 ** 13 - 2)
        assert rep.limit == Fraction(49, 72)
        assert rep.per_degree == tuple(expected_total(n) for n in range(1, 13))


def all_tables(dom, cod):
    for assign in itertools.product(range(cod.size), repeat=dom.size):
        yield FunctionTable.from_callable(
            dom, cod, lambda h, a=assign: cod.element(a[dom.index(h)]))


def test_criterion_6_basis_criterion_equals_definitional_check():
    with criterion(6, 120, "coordinate criterion == definitional CP check"):
        F2 = make_field(2)
        dom = ResidueRing(parse(F2, "t^2"))
        for ptext, e in [("t", 1), ("t", 2), ("t+1", 2), ("t^2+t+1", 1)]:
            cod = ResidueRing(parse(F2, ptext) ** e)
            assert cod.size ** dom.size <= 2 ** 20
            for tab in all_tables(dom, cod):
                assert decompose(tab).is_cpf() == \
                    bool(is_congruence_preserving(tab)), (ptext, e)
        f3, p2 = parse(F2, "t^3"), parse(F2, "t") ** 2
        dom3, cod3 = ResidueRing(f3), ResidueRing(p2)
        rng = random.Random(61)
        for _ in range(10 ** 4):
            tab = random_table(dom3, cod3, rng)
            assert decompose(tab).is_cpf() == bool(is_congruence_preserving(tab))
        cp_tables = enumerate_cpf_tables(f3, p2)
        assert count_cpf(f3, p2).equals_int(len(cp_tables))
        for tab in cp_tables:
            assert decompose(tab).is_cpf() and is_congruence_preserving(tab)


SEQ_PRIMES = [(2, "t"), (2, "t+1"), (2, "t^2+t+1"), (3, "t"), (3, "t^2+1")]


def rand_poly(field, max_degree, rng):
    coeffs = [rng.randrange(field.q) for _ in range(max_degree + 1)]
    return Poly(field, tuple(coeffs))


def test_criterion_7_sequence_and_valuation_laws():
    with criterion(7, 30, "homogeneous law, integrality, valuation bound, factorial identity"):
        for q, ptext in SEQ_PRIMES:
            P = pol(q, ptext)
            d = P.degree
            F = P.field
            seq = PSequence(P)
            hi = q ** (3 * d)
            bs = [seq.element(i) for i in range(hi)]
            idx = np.arange(hi)
            # homogeneous law over all pairs i, j < q^(3d), m <= 3, stated
            # through residue indices: b_i == b_j mod P^m iff q^(dm) | i - j,
            # and b_i == 0 mod P^m iff q^(dm) | i
            for m in (1, 2, 3):
                ring_m = ResidueRing(P ** m)
                r = np.array([ring_m.index(ring_m.reduce(b)) for b in bs])
                same = (idx[:, None] - idx[None, :]) % (q ** (d * m)) == 0
                assert np.array_equal(r[:, None] == r[None, :], same)
                assert np.array_equal(r == 0, idx % (q ** (d * m)) == 0)
            # integrality: sum_{i<k} v_P(h - b_i) >= w(k) for k <= q^(2d)
            rng = random.Random(17 * q + d)
            top = q ** (2 * d)
            for _ in range(3):
                h = rand_poly(F, 6, rng)
                acc = 0
                for k in range(1, top + 1):
                    v = valuation(P, h - bs[k - 1], check=False)
                    acc = acc + v if acc != math.inf else acc
                    assert acc >= w_weight(k, q, d), (ptext, k)
                eval_Qk(P, 2, rng.randrange(1, top + 1), h)
            # valuation bound on 10^3 random triples, products taken mod P^bound
            checked = 0
            while checked < 1000:
                k = rng.randrange(1, top + 1)
                h1 = rand_poly(F, 6, rng)
                h2 = h1 + (P ** rng.randrange(3)) * rand_poly(F, 4, rng)
                vdiff = valuation(P, h1 - h2, check=False)
                if vdiff == math.inf:
                    continue
                checked += 1
                bound = vdiff + w_weight(k, q, d) - mu(k, q, d)
                if bound <= 0:
                    continue
                mod = P ** bound
                p1 = p2 = pol(q, "1")
                for j in range(k):
                    p1 = (p1 * (h1 - bs[j])) % mod
                    p2 = (p2 * (h2 - bs[j])) % mod
                assert p1 == p2, (ptext, k)
            # factorial-valuation identity out to q^(3d)
            total = 0
            vmax = 0
            for k in range(1, hi):
                v = valuation(P, bs[k], check=False)
                total += v
                vmax = max(vmax, v)
                assert total == w_weight(k, q, d), (ptext, k)
                assert vmax == mu(k, q, d), (ptext, k)


def test_criterion_8_crt_roundtrip_and_local_global():
    with criterion(8, 60, "CRT split/combine roundtrip and local-global laws"):
        F2 = make_field(2)
        f = parse(F2, "t^2")
        dom = ResidueRing(f)
        for gtext in ["t^2+t", "t^3+t^2"]:
            g = parse(F2, gtext)
            cod = ResidueRing(g)
            module = polyfn_module(f, g)
            locals_ = [polyfn_module(f, p ** e)
                       for p, e in factorize(g).factors]
            for tab in all_tables(dom, cod):
                parts = crt_split(tab)
                assert crt_combine(parts) == tab
                assert bool(is_congruence_preserving(tab)) == \
                    all(bool(is_congruence_preserving(p)) for p in parts)
                assert module.contains(tab) == \
                    all(m.contains(p) for m, p in zip(locals_, parts))


def test_criterion_9_exponent_identity():
    with criterion(9, 1, "exponent identity, n <= 5, e <= 5, d <= 3, q in {2,3}"):
        for q in (2, 3):
            for n in range(1, 6):
                for e in range(1, 6):
                    for d in range(1, 4):
                        assert exponent_identity_check(n, e, d, q), (q, n, e, d)


def test_polynomiality_criterion_on_the_batch_coordinates():
    # sigma: A_f -> A_{P^e} is polynomial iff v_P(c_k) >= min(e, w(k)) for
    # every k >= 1, on every table of the grid's prime power cells; the
    # coordinate vectors that pass number q^(polynomial-function exponent)
    cells = strict = 0
    for f, g in grid_cells():
        cod = ResidueRing(g)
        if len(cod.factorization.factors) != 1:
            continue
        (p, e), = cod.factorization.factors
        q, n, d = f.field.q, f.degree, p.degree
        dom = ResidueRing(f)
        rows = np.array(list(itertools.product(range(cod.size), repeat=dom.size)))
        batch = decompose_rows(rows, cod, n)
        need = np.array([0] + [min(e, _w(k, q, d)) for k in range(1, dom.size)])
        polynomial = (batch.valuations >= need).all(axis=1)
        module = polyfn_module(f, g)
        elements = cod.elements()
        for row, verdict in zip(rows.tolist(), polynomial.tolist()):
            tab = FunctionTable(dom, cod, [elements[v] for v in row])
            assert module.contains(tab) == verdict, (str(f), str(g), row)
        assert int(polynomial.sum()) == q ** _polyfn_local_exponent(n, q, d, e)
        cells += 1
        strict += not polynomial.all()
    assert (cells, strict) == (10, 4)
