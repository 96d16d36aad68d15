"""Closed-form counts M and N: frozen values, the literal cross-check
path, multiplicativity over the factorization, and exponent identities."""

import random

import pytest

from cpfq.chen import GAMMA_INF, gamma
from cpfq.counting import QExponent, _polyfn_local_exponent, count_cpf, count_polyfn
from cpfq.guards import GuardExceeded
from cpfq.oracle import count_polyfn_literal, deg_gcd_factorial
from cpfq.polyring import Poly, _ModRing, factorize, gcd
from helpers import (all_units_lists, count_cpf_local, count_polyfn_local,
                     exponent_identity_check, make_field, monic_upto, pol,
                     ref_count_exponents, ref_gamma, relabeled_count_polyfn_literal)


# ------------------------------------------------------------- QExponent
def test_qexponent_basics():
    a = QExponent(2, 14)
    assert a.value() == 2 ** 14
    assert str(a) == "2^14"
    assert a.decimal() == 16384
    assert a.equals_int(16384)
    assert QExponent(2, 3) < QExponent(2, 5)
    assert QExponent(2, 3) * QExponent(2, 5) == QExponent(2, 8)


def test_qexponent_guards():
    assert QExponent(2, 10 ** 25).decimal() is None  # never expanded
    assert QExponent(3, 64).decimal() is None  # 3^64 needs more than 64 bits
    assert QExponent(2, 63).decimal() == 2 ** 63
    with pytest.raises(ValueError):
        QExponent(2, 1) < QExponent(3, 1)  # mixed bases never compare
    with pytest.raises(ValueError):
        QExponent(2, -1)
    with pytest.raises(ValueError):
        QExponent(1, 3)


# ---------------------------------------------------------- frozen values
def test_frozen_counts():
    t, t2, t3 = pol(2, "t"), pol(2, "t^2"), pol(2, "t^3")
    assert count_cpf(t3, t3) == QExponent(2, 14)
    assert count_polyfn(t3, t3) == QExponent(2, 10)
    assert count_cpf(t2, t) == QExponent(2, 2)
    assert count_polyfn(t2, t) == QExponent(2, 2)
    assert count_cpf(t2, t2) == QExponent(2, 6)
    assert count_polyfn(t2, t2) == QExponent(2, 6)
    # deg f = 1: every function is congruence preserving and polynomial
    assert count_cpf(t, t3) == QExponent(2, 6)
    assert count_polyfn(t, pol(2, "t^2+t")) == QExponent(2, 4)


def test_local_frozen_values():
    F2 = make_field(2)
    t = pol(2, "t")
    assert count_cpf_local(pol(2, "t^2"), t, 2) == QExponent(2, 6)
    assert count_polyfn_local(pol(2, "t^2"), t, 2) == QExponent(2, 6)
    assert count_polyfn_local(pol(2, "t^2"), t, 1) == QExponent(2, 2)
    # degree-1 domain: |P|^(e q)
    for e in range(1, 5):
        assert count_cpf_local(t, pol(2, "t^2+t+1"), e) == QExponent(2, 2 * e * 2)


def test_full_function_space_cases():
    # e = 1 with deg P >= deg f leaves no constraints at all
    P = pol(3, "t^3+2t+1")
    for ftext in ("t", "t^2", "t^3"):
        f = pol(3, ftext)
        n = f.degree
        assert count_cpf_local(f, P, 1) == QExponent(3, 3 * 3 ** n)
        assert count_polyfn_local(f, P, 1) == QExponent(3, 3 * 3 ** n)


@pytest.mark.parametrize("q", [2, 3])
def test_multiplicativity(q):
    F = make_field(q)
    fs = [pol(q, "t"), pol(q, "t^2"), pol(q, "t^3")]
    for g in monic_upto(F, 5, min_degree=1):
        fz = factorize(g)
        for f in fs:
            assert count_cpf(f, g).exponent == sum(
                count_cpf_local(f, p, e).exponent for p, e in fz.factors)
            assert count_polyfn(f, g).exponent == sum(
                count_polyfn_local(f, p, e).exponent for p, e in fz.factors)


@pytest.mark.parametrize("q", [2, 3])
def test_poly_at_most_cpf(q):
    F = make_field(q)
    for f in monic_upto(F, 4 if q == 2 else 3):
        for g in monic_upto(F, 4 if q == 2 else 3):
            assert count_polyfn(f, g).exponent <= count_cpf(f, g).exponent


def test_polyfn_exponent_matches_the_sum_over_k():
    # the defining sum over every k < q^n, against the closed form that
    # visits at most e values of floor(k / q^d)
    for q in (2, 3, 4, 5, 7):
        for n in range(1, 8):
            if q ** n > 5000:
                continue
            for d in range(1, n + 3):
                w = [0] * q ** n
                for k in range(1, q ** n):
                    power = q ** d
                    while power <= k:
                        w[k] += k // power
                        power *= q ** d
                for e in range(1, 8):
                    expect = d * (e * q ** n - sum(min(e, x) for x in w))
                    got = _polyfn_local_exponent(n, q, d, e)
                    assert got == expect, (q, n, d, e)


# ------------------------------------------------------------ literal path
def test_literal_matches_valuation_path_q2():
    F2 = make_field(2)
    for f in (pol(2, "t"), pol(2, "t^2")):
        for g in monic_upto(F2, 4):
            assert count_polyfn_literal(f, g) == count_polyfn(f, g)


def test_literal_matches_valuation_path_q3():
    F3 = make_field(3)
    f = pol(3, "t")
    for g in monic_upto(F3, 3):
        assert count_polyfn_literal(f, g) == count_polyfn(f, g)


def test_literal_guard():
    # deg f is bounded only through q^deg f: 2^5 residues pass, 2^10 do not
    assert count_polyfn_literal(pol(2, "t^5"), pol(2, "t")) == count_polyfn(
        pol(2, "t^5"), pol(2, "t"))
    with pytest.raises(GuardExceeded):
        count_polyfn_literal(pol(2, "t^10"), pol(2, "t"))


@pytest.mark.parametrize("q,ftext,gtext,message", [
    (11, "t^3", "t^2+1", "q^(deg f) <= 2^9, got 11^3 = 2^10.38"),
    (16, "t^4", "t", "q^(deg f) <= 2^9, got 16^4 = 2^16.00"),
    (7, "t^3", "t^72+t+1", "q^(2 deg f) * deg g <= 2^23, got 7^6 * 72 = 2^23.01"),
])
def test_literal_size_guards_report_log2(q, ftext, gtext, message):
    with pytest.raises(ValueError) as exc:
        count_polyfn_literal(pol(q, ftext), pol(q, gtext))
    assert str(exc.value) == "literal path guarded to " + message


def test_literal_accepts_the_largest_prime_field_cube():
    # 7^3 = 343 residues, under both guards
    f, g = pol(7, "t^3"), pol(7, "t^2+1")
    assert count_polyfn_literal(f, g) == count_polyfn(f, g)


def test_order_independence():
    # relabeling the nonzero digits never changes N
    g3 = pol(3, "t^3+2t+1")
    f3 = pol(3, "t^2")
    base = count_polyfn_literal(f3, g3)
    assert base == relabeled_count_polyfn_literal(f3, g3, (0, 2, 1)) == count_polyfn(f3, g3)

    g4 = pol(4, "t^2+ut+1")
    f4 = pol(4, "t^2")
    base4 = count_polyfn_literal(f4, g4)
    for order in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
        assert relabeled_count_polyfn_literal(f4, g4, order) == base4
    assert base4 == count_polyfn(f4, g4)


def test_deg_gcd_factorial_golden():
    # gcd degrees 0, 1, 1 for k = 1, 2, 3 against g = t
    g = pol(2, "t")
    assert [deg_gcd_factorial(g, k) for k in (1, 2, 3)] == [0, 1, 1]


# --------------------------------------- the routes against the whole shape
@pytest.mark.parametrize("q, max_degree", [(2, 8), (3, 6), (4, 4), (5, 4)])
def test_gamma_and_counts_match_the_whole_factor_shape(q, max_degree):
    """gamma and both counts walk only part of the distinct-degree
    factorization; the whole factor shape gives the same values on every g
    of degree <= max_degree (all leading units), at every deg f from 1 to
    deg g + 1."""
    F = make_field(q)
    for m in range(1, max_degree + 1):
        fs = [Poly(F, [0] * n + [1]) for n in range(1, m + 2)]
        for cs in all_units_lists(F, m):
            g = Poly(F, cs)
            assert gamma(g) == ref_gamma(g), g
            got = [(count_cpf(f, g).exponent, count_polyfn(f, g).exponent)
                   for f in fs]
            assert got == ref_count_exponents(g, m + 1), g


@pytest.fixture
def frob_rings(monkeypatch):
    """The degree of the ring of every _ModRing.frob call, in call order."""
    calls = []
    frob = _ModRing.frob

    def counted(ring, a):
        calls.append(ring.n)
        return frob(ring, a)

    monkeypatch.setattr(_ModRing, "frob", counted)
    return calls


def test_gamma_and_counts_factor_only_what_they_read(frob_rings):
    F = make_field(3)
    rng = random.Random(3)
    p = pol(3, "t^3+2t+1")  # irreducible: no root in F_3
    while True:
        s = Poly(F, [rng.randrange(3) for _ in range(40)] + [1])
        if gcd(s, s.derivative()).degree == 0 and gcd(s, p).degree == 0:
            break
    t, g = pol(3, "t"), s * p ** 2
    # a square-free g has no repeated part to read
    assert gamma(s) == GAMMA_INF
    assert frob_rings == []
    # at deg f = 1 every factor counts by its total degree alone
    assert count_cpf(t, g).exponent == 3 * (40 + 3 * 2)
    assert count_polyfn(t, g).exponent == 3 * (40 + 3 * 2)
    assert frob_rings == []
    # gamma walks the repeated part p only, as on p^2 alone
    assert gamma(p ** 2) == 4
    alone = list(frob_rings)
    frob_rings.clear()
    assert gamma(g) == 4
    assert frob_rings == alone == [3]
    # at deg f = n each part walks at most n - 1 degrees
    frob_rings.clear()
    count_cpf(pol(3, "t^3"), g)
    assert len(frob_rings) <= 2 * 2


# ------------------------------------------------------- exponent identity
def test_exponent_identity_sweep():
    for q in (2, 3):
        for n in range(1, 6):
            for e in range(1, 6):
                for d in range(1, 4):
                    assert exponent_identity_check(n, e, d, q)


def test_exponent_identity_golden():
    # n=3, e=3, d=1, q=2: both sides are 10
    lhs = (2 - 1) * sum(2 ** k * min(3, k // 1) for k in range(1, 3))
    assert lhs == 10
    assert exponent_identity_check(3, 3, 1, 2)


def test_constant_moduli_rejected():
    with pytest.raises(ValueError):
        count_cpf(pol(2, "1"), pol(2, "t"))
    with pytest.raises(ValueError):
        count_polyfn(pol(2, "t"), pol(2, "0"))
    with pytest.raises(ValueError):
        count_cpf_local(pol(2, "t"), pol(2, "t^2+1"), 1)  # reducible P
    with pytest.raises(ValueError):
        count_cpf_local(pol(2, "t"), pol(2, "t"), 0)  # e < 1
