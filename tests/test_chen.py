"""The Chen-pair threshold gamma, self-Chen classification, and the
density of self-Chen moduli, cross-checked against literal censuses."""

from fractions import Fraction

import pytest

from cpfq.chen import (
    GAMMA_INF,
    _gamma_local,
    chen_self_count,
    density_empirical,
    density_exact,
    gamma,
    gamma_prime_power,
    is_chen_pair,
    is_self_chen,
    squarefree_count,
)
from cpfq.counting import count_cpf, count_polyfn
from cpfq.oracle import census_self_chen, census_squarefree
from cpfq.polyring import Poly, gcd, poly_to_index
from helpers import (_packed_polys, _squarefree_test, all_units_lists, is_squarefree_gcd,
                     make_field, monic_upto, pol, ref_chen_self_count_q2, ref_density,
                     ref_is_self_chen)

PRIME_POWERS_TO_16 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


# ----------------------------------------------------------------- gamma
def test_gamma_prime_power_cases():
    t, t1, Pq = pol(2, "t"), pol(2, "t+1"), pol(2, "t^2+t+1")
    assert gamma_prime_power(t, 1) == GAMMA_INF
    assert gamma_prime_power(Pq, 1) == GAMMA_INF
    # q = 2 is special: square of a linear prime stays unbounded
    assert gamma_prime_power(t, 2) == GAMMA_INF
    assert gamma_prime_power(t1, 2) == GAMMA_INF
    assert gamma_prime_power(t, 3) == 3      # d + 2
    assert gamma_prime_power(Pq, 2) == 4     # deg 2, e = 2
    t3, P3 = pol(3, "t"), pol(3, "t^2+1")
    assert gamma_prime_power(t3, 1) == GAMMA_INF
    assert gamma_prime_power(t3, 2) == 2     # d + 1 for q > 2
    assert gamma_prime_power(P3, 2) == 3


def test_gamma_is_min_over_factors():
    assert gamma(pol(2, "t^2+t")) == GAMMA_INF
    # t^2 (t+1)^3: parts give inf and 1+2
    g = pol(2, "t^2") * pol(2, "t+1") ** 3
    assert gamma(g) == 3
    assert gamma(pol(3, "t^2")) == 2
    assert GAMMA_INF == float("inf")
    with pytest.raises(ValueError):
        gamma(pol(2, "1"))


# ------------------------------------------------------------- Chen pairs
@pytest.mark.parametrize("q", [2, 3])
def test_chen_pair_iff_equal_counts(q):
    F = make_field(q)
    gs = monic_upto(F, 4)
    fs = monic_upto(F, 4)
    cache = {}
    for g in gs:
        for n in range(1, 5):
            f0 = pol(q, "t") ** n
            cache[(n, g)] = count_cpf(f0, g) == count_polyfn(f0, g)
    for f in fs:
        for g in gs:
            v = is_chen_pair(f, g)
            assert v.chen_pair == cache[(f.degree, g)]
            assert v.chen_pair == (v.deg_f < v.gamma_g)


def test_counts_depend_on_f_only_through_degree():
    for f in (pol(2, "t^3"), pol(2, "t^3+1"), pol(2, "t^3+t^2+t")):
        assert count_cpf(f, pol(2, "t^3")) == count_cpf(pol(2, "t^3"), pol(2, "t^3"))
        assert count_polyfn(f, pol(2, "t^3")) == count_polyfn(pol(2, "t^3"), pol(2, "t^3"))


@pytest.mark.parametrize("q", [2, 3])
def test_self_chen_iff_gamma_infinite(q):
    F = make_field(q)
    for g in monic_upto(F, 6):
        assert is_self_chen(g) == (gamma(g) == GAMMA_INF)
        assert is_self_chen(g) == is_chen_pair(g, g).chen_pair


def test_self_chen_q2_examples():
    assert is_self_chen(pol(2, "t^2"))
    assert is_self_chen(pol(2, "t^2+1"))          # (t+1)^2
    assert not is_self_chen(pol(2, "t^3"))
    assert not is_self_chen(pol(2, "t^4+t^2+1"))  # (t^2+t+1)^2
    assert not is_self_chen(pol(3, "t^2"))        # squares fail for q > 2


# --------------------------------------------------------------- censuses
def test_squarefree_census_matches_closed_form():
    for q in (2, 3):
        F = make_field(q)
        for n in range(0, 11 if q == 2 else 8):
            assert census_squarefree(F, n) == squarefree_count(n, q)


@pytest.mark.parametrize("q, max_degree", [(2, 10), (3, 5), (4, 3), (5, 4)])
def test_per_candidate_tests_on_the_packed_census_inputs(q, max_degree):
    """The census's square-free test, fed packed candidates of every
    leading coefficient (the census walks the monic ones), against the Poly
    gcd, and is_self_chen on each candidate against the reference
    factorization.  Only q = 2 is packed as an int: F_4 (p = 2) stays on
    coefficient lists."""
    F = make_field(q)
    squarefree = _squarefree_test(F)
    for n in range(1, max_degree + 1):
        polys = [Poly(F, cs) for cs in all_units_lists(F, n)]
        packed = list(_packed_polys(F, n) if q == 2 else all_units_lists(F, n))
        if q == 2:
            assert packed == [poly_to_index(g) for g in polys]
        else:
            assert list(_packed_polys(F, n)) == [cs for cs in packed if cs[-1] == 1]
        for g, c in zip(polys, packed):
            want_sf = gcd(g, g.derivative()).degree == 0
            assert is_self_chen(g) == ref_is_self_chen(g), g
            assert is_squarefree_gcd(g) == want_sf, g
            # the list route consumes its candidate
            assert squarefree(c) == want_sf, g


@pytest.mark.parametrize("q", [3, 4, 5])
def test_self_chen_and_gamma_ignore_the_leading_unit(q):
    """What the census rests on: u g and g generate one ideal, so for every
    unit u they are both self-Chen or neither, with one gamma."""
    F = make_field(q)
    for g in monic_upto(F, 3):
        for u in range(1, q):
            ug = Poly(F, [u]) * g
            assert is_self_chen(ug) == is_self_chen(g), (u, g)
            assert gamma(ug) == gamma(g), (u, g)


@pytest.mark.parametrize("q, n, total, components", [
    (2, 0, 1, (1, 0, 0, 0)), (2, 1, 2, (2, 0, 0, 0)),
    (3, 0, 2, None), (3, 1, 6, None)])
def test_self_chen_census_of_constants_and_linears(q, n, total, components):
    # over F_2 the constant g = 1 is the packed candidate 1: square-free,
    # with both valuations 0
    c = census_self_chen(make_field(q), n)
    assert (c.total, c.components) == (total, components)


def test_squarefree_closed_form_values():
    assert [squarefree_count(n, 2) for n in range(5)] == [1, 2, 2, 4, 8]
    assert squarefree_count(2, 3) == 6  # q^2 - q


def test_self_chen_census_matches_closed_form():
    F2 = make_field(2)
    for n in range(0, 13):
        c = census_self_chen(F2, n)
        assert c.total == chen_self_count(n)
        u1, u2, u3, u4 = c.components
        assert u1 + u2 + u3 + u4 == c.total
        if n >= 4:
            assert u1 == 2 ** (n - 1)
            assert u2 == u3 == (2 ** (n - 2) + (-1) ** (n - 1)) // 3
            assert u4 == (2 ** (n - 3) + (-1) ** (n - 1) * (3 * n - 19)) // 9


def test_self_chen_census_components_golden():
    F2 = make_field(2)
    assert census_self_chen(F2, 4).components == (8, 1, 1, 1)
    assert census_self_chen(F2, 5).components == (16, 3, 3, 0)


def test_chen_self_count_closed_form_is_integral():
    for n in range(4, 41):
        v = chen_self_count(n)
        assert v > 0
        assert (2 ** (n - 3) * 49 + (-1) ** (n - 1) * (3 * n - 13)) % 9 == 0


def test_chen_self_count_matches_reference_q2():
    assert [chen_self_count(n) for n in range(301)] == \
        [ref_chen_self_count_q2(n) for n in range(301)]


def test_chen_self_count_matches_censuses():
    # every (q, n) with q^n <= 2^12, a test budget inside the 2^16 census
    # guard; test_oracle walks the F_2 census up to the guard
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = make_field(q)
        top = max(n for n in range(1, 13) if q ** n <= 2 ** 12)
        per_degree = density_empirical(F, top).per_degree
        for n in range(top + 1):
            count = chen_self_count(n, q)
            assert census_self_chen(F, n).total == count, (q, n)
            assert n == 0 or per_degree[n - 1] == count, (q, n)


def test_only_linear_squares_keep_gamma_infinite():
    # what confines the Euler product of chen_self_count to linear factors
    for q in PRIME_POWERS_TO_16:
        assert _gamma_local(q, 1, 3) != GAMMA_INF
        for d in range(2, 65):
            assert _gamma_local(q, d, 2) != GAMMA_INF, (q, d)


# ---------------------------------------------------------------- density
def test_density_exact():
    assert density_exact(2) == Fraction(49, 72)
    assert density_exact(3) == Fraction(2, 3)
    assert density_exact(5) == Fraction(4, 5)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_density_exact_matches_reference(q):
    assert density_exact(q) == ref_density(q)


def test_density_partial_sum_is_exact_rational():
    F2 = make_field(2)
    for m in (5, 8):
        rep = density_empirical(F2, m)
        hits = sum(chen_self_count(n) for n in range(1, m + 1))
        assert rep.fraction == Fraction(hits, 2 ** (m + 1) - 2)
        assert rep.per_degree == tuple(chen_self_count(n) for n in range(1, m + 1))
        assert rep.per_degree_total == tuple(2 ** n for n in range(1, m + 1))


def test_density_error_shrinks():
    F2 = make_field(2)
    errors = {m: abs(density_empirical(F2, m).error) for m in (4, 6, 8, 10, 12)}
    for m in (4, 6, 8, 10):
        assert errors[m + 2] < errors[m]
    assert errors[12] < Fraction(1, 100)


def test_density_monic_only_q2_identical():
    F2 = make_field(2)
    assert density_empirical(F2, 6, monic_only=True).fraction == \
        density_empirical(F2, 6).fraction


def test_density_q3():
    F3 = make_field(3)
    rep = density_empirical(F3, 6)
    assert rep.limit == Fraction(2, 3)
    assert abs(rep.error) < Fraction(1, 100)
