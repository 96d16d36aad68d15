"""Polynomial ring laws, parsing round trips, factorization, and the
index bijection a_k.  Everything here is exact; hypothesis supplies the
random ring elements."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfq.chen import is_self_chen
from cpfq.field import field_make
from cpfq.guards import power_exceeds
from cpfq.oracle import factorial
from cpfq.polyring import (
    NEG_INF,
    ParseError,
    Poly,
    _derivative_f2,
    _gcd_lists,
    _pth_root,
    degree_n_polys,
    enumerate_residues,
    factorize,
    gcd,
    index_to_poly,
    is_irreducible,
    monic_irreducibles,
    parse,
    poly_to_index,
    squarefree_decomposition,
    to_text,
    valuation,
    xgcd,
)
from helpers import (_divmod_f2, _gcd_f2, all_units_lists, factor_shape, make_field,
                     monic_polys, monic_upto, pol, ref_add, ref_divmod, ref_factor_pairs,
                     ref_gcd_lists, ref_is_self_chen,
                     ref_monic_irreducibles, ref_mul, ref_neg, ref_sub,
                     reconstruct, relabeled_index_to_poly)

FIELDS = {q: make_field(q) for q in (2, 3, 4, 5)}


def polys(q, max_degree=7):
    F = FIELDS[q]
    return st.lists(
        st.integers(min_value=0, max_value=q - 1), max_size=max_degree + 1
    ).map(lambda cs: Poly(F, cs))


any_poly = st.sampled_from(sorted(FIELDS)).flatmap(polys)


# --------------------------------------------------------------- parsing
def test_parse_golden():
    F3 = FIELDS[3]
    assert parse(F3, "2t^2+1").coeffs == (1, 0, 2)
    assert parse(F3, "t^3+t+1").coeffs == (1, 1, 0, 1)
    assert parse(F3, "t-1").coeffs == (2, 1)
    assert parse(F3, "0").coeffs == ()
    assert parse(F3, " t^2 + 2 ") == parse(F3, "t^2+2")


def test_parse_extension_field():
    F4 = FIELDS[4]
    g = parse(F4, "(u+1)t^2+ut+1")
    assert g.degree == 2
    assert to_text(g) == "(u+1)t^2+ut+1"
    assert parse(F4, "ut") == parse(F4, "(u)t")


@pytest.mark.parametrize("bad", ["", "t^", "t^^2", "t*t", "(u+1", "x+1", "t^-1", "++",
                                 "--t", "+-t", "-+t", "++t"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(FIELDS[4], bad)


@given(any_poly)
def test_text_round_trip(a):
    assert parse(a.field, to_text(a)) == a


# ------------------------------------------------------------- ring laws
@given(st.sampled_from(sorted(FIELDS)).flatmap(lambda q: st.tuples(polys(q), polys(q), polys(q))))
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Poly(a.field, [])


@given(st.sampled_from(sorted(FIELDS)).flatmap(lambda q: st.tuples(polys(q), polys(q))))
def test_divmod_invariant(ab):
    a, b = ab
    if b.degree is NEG_INF:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree is NEG_INF or rem.degree < b.degree


@given(st.sampled_from(sorted(FIELDS)).flatmap(lambda q: st.tuples(polys(q, 4), polys(q, 4))))
def test_degree_of_product(ab):
    a, b = ab
    if a.degree is NEG_INF or b.degree is NEG_INF:
        assert (a * b).degree is NEG_INF
    else:
        assert (a * b).degree == a.degree + b.degree


# ------------------------------------ table-row ops against the reference
DIFF_FIELDS = {q: make_field(q) for q in (2, 3, 4, 5, 9)}


def diff_polys(q, max_degree=8):
    F = DIFF_FIELDS[q]
    return st.lists(
        st.integers(min_value=0, max_value=q - 1), max_size=max_degree + 1
    ).map(lambda cs: Poly(F, cs))


def assert_valid(r, field):
    assert r.field is field
    assert Poly(field, r.coeffs) == r
    assert not r.coeffs or r.coeffs[-1] != 0
    assert all(type(c) is int and 0 <= c < field.q for c in r.coeffs)


@given(st.sampled_from(sorted(DIFF_FIELDS)).flatmap(
    lambda q: st.tuples(diff_polys(q), diff_polys(q),
                        st.integers(min_value=0, max_value=q - 1))))
@settings(max_examples=300)
def test_ring_ops_match_reference(abs_):
    a, b, s = abs_
    F = a.field
    pairs = [(a + b, ref_add(a, b)), (a - b, ref_sub(a, b)),
             (-a, ref_neg(a)), (a * b, ref_mul(a, b))]
    if b:
        pairs += list(zip(divmod(a, b), ref_divmod(a, b)))
    for lean, ref in pairs:
        assert lean == ref and lean.coeffs == ref.coeffs
        assert_valid(lean, F)
    for r in (a * Poly(F, [s]), a ** 3, a.shift(2), a.derivative(), a.monic()):
        assert_valid(r, F)
    other = DIFF_FIELDS[2 if F.q != 2 else 3]
    for op in ("__add__", "__sub__", "__mul__", "__divmod__"):
        with pytest.raises(ValueError):
            getattr(a, op)(Poly(other, [1, 1]))
        with pytest.raises(TypeError):
            getattr(a, op)([1, 1])


@pytest.mark.parametrize("q", [4, 9])
def test_field_element_scalar_is_the_element(q):
    # a scalar is the constant polynomial of its index, also for an index
    # >= p: over F_4, (ut+1) * (u+1) = (u^2+u)t + u+1 = t+u+1
    F = DIFF_FIELDS[q]
    rng = random.Random(q)
    for _ in range(20):
        a = Poly(F, [rng.randrange(q) for _ in range(6)])
        for s in range(q):
            c = Poly(F, [s])
            assert a * c == c * a == ref_mul(a, c)
    F4 = DIFF_FIELDS[4]
    assert parse(F4, "ut+1") * Poly(F4, [3]) == parse(F4, "t+u+1")


@pytest.mark.parametrize("q", [4, 9])
def test_xgcd_and_inv_unit_over_extension_fields(q):
    from cpfq.residue import ResidueRing
    F = DIFF_FIELDS[q]
    g, x, y = xgcd(parse(F, "ut"), parse(F, "t+1"))
    assert g == parse(F, "1")
    assert x * parse(F, "ut") + y * parse(F, "t+1") == g
    rng = random.Random(q)
    ring = ResidueRing(parse(F, "t^3+u"))
    for _ in range(30):
        a, b = (Poly(F, [rng.randrange(q) for _ in range(5)]) for _ in "ab")
        d, x, y = xgcd(a, b)
        if d:
            assert d.is_monic()
        assert d == gcd(a, b) and x * a + y * b == d
        if a and gcd(a, ring.modulus).degree == 0:
            assert ring.mul(a, ring.inv_unit(a)) == parse(F, "1")


def test_equal_fields_built_apart_mix():
    from cpfq.field import FieldSpec, field_make
    F, G = field_make(3), FieldSpec(3)
    assert F is not G and F == G
    a, b = parse(F, "t^2+2"), parse(G, "2t+1")
    assert a + b == parse(F, "t^2+2t") == parse(G, "t^2+2t")
    assert divmod(a, b) == divmod(parse(G, "t^2+2"), b)


def test_degree_sentinel():
    F2 = FIELDS[2]
    zero = Poly(F2, [])
    assert zero.degree == NEG_INF == -math.inf
    assert not isinstance(zero.degree, int)
    assert Poly(F2, [1]).degree == 0
    assert zero.degree < 0


def test_pow_and_shift():
    f = pol(2, "t+1")
    assert f ** 3 == f * f * f
    assert f ** 0 == pol(2, "1")
    assert pol(3, "t").shift(2) == pol(3, "t^3")


def test_derivative_product_rule():
    a, b = pol(3, "t^4+2t+1"), pol(3, "2t^3+t^2+2")
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    # characteristic kills p-th powers
    assert pol(2, "t^2").derivative() == pol(2, "0")


# --------------------------------------------------------------- gcd/xgcd
@given(st.sampled_from([2, 3]).flatmap(lambda q: st.tuples(polys(q, 5), polys(q, 5))))
def test_gcd_divides_and_xgcd(ab):
    a, b = ab
    g = gcd(a, b)
    if a.degree is NEG_INF and b.degree is NEG_INF:
        assert g.degree is NEG_INF
        return
    assert (a % g).degree is NEG_INF
    assert (b % g).degree is NEG_INF
    assert g.monic() == g
    d, s, t = xgcd(a, b)
    assert d == g
    assert s * a + t * b == d


# ------------------------------------------- Euclid on coefficient lists
def _gcd_lists_cases(F, rng):
    """Pairs of trimmed coefficient lists over F: zero, constants, equal
    degrees, y longer than x, a shared factor, and random lengths."""
    q = F.q

    def poly(n):  # degree n, or zero for n < 0
        if n < 0:
            return []
        return [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]

    yield [], []
    yield poly(3), []
    yield [], poly(3)
    yield [rng.randrange(1, q)], poly(4)
    yield poly(4), [rng.randrange(1, q)]
    yield [rng.randrange(1, q)], [rng.randrange(1, q)]
    for _ in range(300):
        n = rng.randint(0, 9)
        yield poly(n), poly(n)
        yield poly(rng.randint(-1, 8)), poly(rng.randint(-1, 8))
        yield poly(rng.randint(0, 4)), poly(rng.randint(5, 9))
        shared = Poly(F, poly(rng.randint(1, 3)))
        a, b = (shared * Poly(F, poly(rng.randint(0, 5))) for _ in range(2))
        yield list(a.coeffs), list(b.coeffs)


@pytest.mark.parametrize("q", [3, 5, 4, 9])
def test_gcd_lists_keeps_the_remainders_of_the_divmod_route(q):
    """The remainder-only Euclid returns the very list (not made monic)
    that Euclid through _divmod_lists does."""
    F = make_field(q)
    rng = random.Random(q)
    for x, y in _gcd_lists_cases(F, rng):
        assert _gcd_lists(F, x[:], y[:]) == ref_gcd_lists(F, x[:], y[:]), (x, y)


# ------------------------------------- F_2 packed kernel against the lists
def _f2(k):
    return index_to_poly(FIELDS[2], k)


def test_f2_packed_unary_kernels_exhaustively():
    """Every a of degree <= 10: the derivative of the int against the Poly
    route, and the Poly square root of a^2."""
    for k in range(1 << 11):
        a = _f2(k)
        assert _derivative_f2(k) == poly_to_index(a.derivative()), a
        assert _pth_root(a * a) == a, a


def _assert_f2_pair(i, j):
    a, b = _f2(i), _f2(j)
    quo, rem = _divmod_f2(i, j)
    assert (_f2(quo), _f2(rem)) == divmod(a, b), (a, b)
    assert _f2(_gcd_f2(i, j)) == gcd(a, b), (a, b)


def test_f2_packed_divmod_and_gcd_exhaustively():
    # every pair of degree <= 7, the divisor nonzero
    for i in range(1 << 8):
        for j in range(1, 1 << 8):
            _assert_f2_pair(i, j)
    assert _gcd_f2(0, 0) == 0


def test_f2_packed_kernels_at_degree_200():
    rng = random.Random(2)
    for _ in range(2000):
        i = rng.getrandbits(rng.randint(1, 201))
        j = rng.getrandbits(rng.randint(1, 201)) or 1
        _assert_f2_pair(i, j)


# ----------------------------------------------------------- factorization
@pytest.mark.parametrize("q", [2, 3])
def test_factorize_reconstructs_exhaustively(q):
    # every nonconstant polynomial of degree <= 8, all leading units
    F = FIELDS[q]
    units = [Poly(F, [k]) for k in range(1, q)]
    for n in range(1, 9):
        for m in monic_polys(F, n):
            for u in units:
                g = m * u
                fz = factorize(g)
                assert reconstruct(fz) == g
                degs = [(p.degree, poly_to_index(p)) for p, _ in fz.factors]
                assert degs == sorted(degs)
                for p, e in fz.factors:
                    assert e >= 1 and is_irreducible(p) and p.monic() == p


def test_factorize_rejects_constants():
    with pytest.raises(ValueError):
        factorize(pol(2, "1"))
    with pytest.raises(ValueError):
        factorize(pol(2, "0"))


def test_factorization_str_and_json():
    fz = factorize(pol(2, "t^3+t^2"))
    assert str(fz) == "1 * (t)^2 * (t+1)^1"
    assert fz.to_json() == {"unit": "1", "factors": [["t", 2], ["t+1", 1]]}


def test_irreducible_counts():
    # necklace counts: (1/n) sum_{d|n} mu(d) q^(n/d)
    assert [len(monic_irreducibles(FIELDS[2], n)) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert [len(monic_irreducibles(FIELDS[3], n)) for n in range(1, 5)] == [3, 3, 8, 18]
    assert [len(monic_irreducibles(FIELDS[4], n)) for n in range(1, 4)] == [4, 6, 20]


def test_monic_divisors():
    g = pol(2, "t^3+t^2")  # t^2 (t+1)
    divs = {to_text(d) for d in factorize(g).monic_divisors()}
    assert divs == {"t", "t+1", "t^2", "t^2+t", "t^3+t^2"}
    # count: prod (e_i + 1) - 1, constants excluded
    assert len(factorize(pol(3, "t^4+2t^3+t^2")).monic_divisors()) == 3 * 3 - 1


def _shape(pairs):
    return tuple(sorted((p.degree, e) for p, e in pairs))


def assert_factors_like_trial_division(g):
    """factorize, factor_shape, is_irreducible and is_self_chen on g
    against trial division by the sieved irreducibles."""
    ref = ref_factor_pairs(g)
    fz = factorize(g)
    assert list(fz.factors) == ref, g
    assert fz.unit == Poly(g.field, [g.leading])
    assert factor_shape(g) == _shape(fz.factors) == _shape(ref), g
    assert is_irreducible(g) == (ref == [(g.monic(), 1)]), g
    assert is_self_chen(g) == ref_is_self_chen(g), g


@pytest.mark.parametrize("q, max_degree", [(2, 10), (3, 6), (4, 5), (9, 3)])
def test_factorization_matches_trial_division_exhaustively(q, max_degree):
    # every polynomial of degree 1..max_degree, all leading units
    F = make_field(q)
    for n in range(1, max_degree + 1):
        for cs in all_units_lists(F, n):
            assert_factors_like_trial_division(Poly(F, cs))


@pytest.mark.parametrize("q, piece_degree", [(2, 12), (3, 8), (4, 6), (5, 5), (9, 4)])
def test_factorization_matches_trial_division_at_degree_16_to_24(q, piece_degree):
    """Seeded products of random monic pieces of degree <= piece_degree,
    some squared or cubed, with total degree 16..24, so that trial division
    needs irreducibles only up to piece_degree; over F_2 also fully random
    polynomials of those degrees."""
    F = make_field(q)
    rng = random.Random(q)

    def monic(n):
        return Poly(F, [rng.randrange(q) for _ in range(n)] + [1])

    for _ in range(30):
        target = rng.randint(16, 24)
        g = Poly(F, [rng.randrange(1, q)])
        while g.degree < target:
            n = rng.randint(1, min(piece_degree, target - g.degree))
            e = rng.choice([1, 1, 1, 2, 3])
            if g.degree + n * e <= 24:
                g = g * monic(n) ** e
        assert 16 <= g.degree <= 24
        assert_factors_like_trial_division(g)
    if q == 2:
        for _ in range(30):
            assert_factors_like_trial_division(monic(rng.randint(16, 24)))


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_factorize_reconstructs_at_degree_200(p, m):
    F = field_make(p, m)
    rng = random.Random(200)

    def monic(n):
        return Poly(F, [rng.randrange(F.q) for _ in range(n)] + [1])

    a, b = monic(80), monic(20)
    unit = monic(200) * Poly(F, [F.q - 1])
    assert unit.leading == F.q - 1
    for g in (unit, a * b ** 2 * monic(80)):
        assert g.degree == 200
        fz = factorize(g)
        assert reconstruct(fz) == g
        assert all(e >= 1 and P.is_monic() for P, e in fz.factors)
        assert factor_shape(g) == _shape(fz.factors)


def test_squarefree_decomposition_in_characteristic_p():
    # t^3 (t+1)^2 over F_3: the cube is a p-th power, found via its root
    g = pol(3, "t^3") * pol(3, "t+1") ** 2
    assert squarefree_decomposition(g) == [(pol(3, "t+1"), 2), (pol(3, "t"), 3)]
    # over F_4 the p-th root raises coefficients to q/p: (t+u)^2 = t^2+u+1
    F4 = FIELDS[4]
    s = parse(F4, "t+u")
    assert squarefree_decomposition(s ** 2 * parse(F4, "t")) == [
        (parse(F4, "t"), 1), (s, 2)]
    assert squarefree_decomposition(pol(2, "t^4+t^2") * pol(2, "t^2+t+1")) == [
        (pol(2, "t^2+t+1"), 1), (pol(2, "t^2+t"), 2)]


def test_monic_irreducibles_match_the_sieve():
    for q, top in ((2, 8), (3, 5), (4, 4), (9, 2)):
        F = make_field(q)
        for d in range(1, top + 1):
            assert list(monic_irreducibles(F, d)) == ref_monic_irreducibles(F, d)


def test_degree_n_polys_are_the_monic_ones_in_index_order():
    for q, F in FIELDS.items():
        for n in range(4):
            assert list(degree_n_polys(F, n)) == monic_polys(F, n)


@pytest.mark.parametrize("q", [4, 9])
def test_int_scalar_is_refused(q):
    # an int is neither an integer mod p nor an index here: a scalar is a
    # constant polynomial, and an int on either side is a TypeError
    F = make_field(q)
    g = parse(F, "t+1")
    for n in (0, 1, 2, F.p, q - 1):
        with pytest.raises(TypeError):
            g * n
        with pytest.raises(TypeError):
            n * g


# ------------------------------------------------------- index bijection
@pytest.mark.parametrize("q", [2, 3])
def test_index_bijection(q):
    F = FIELDS[q]
    for k in range(q ** 7):
        assert poly_to_index(index_to_poly(F, k)) == k


def test_index_bijection_with_order():
    F3 = FIELDS[3]
    order = (0, 2, 1)
    where = {e: i for i, e in enumerate(order)}
    seen = set()
    for k in range(3 ** 4):
        p = relabeled_index_to_poly(F3, k, order)
        # undo the relabeling digit by digit, then read the index back
        assert poly_to_index(Poly(F3, [where[c] for c in p.coeffs])) == k
        seen.add(p)
    assert len(seen) == 81


def test_order_validation():
    F3 = FIELDS[3]
    for bad in [(1, 0, 2), (0, 1), (0, 1, 1), (0, 1, 3)]:
        with pytest.raises(ValueError):
            relabeled_index_to_poly(F3, 5, bad)


def test_enumerate_residues_golden():
    reps = [to_text(r) for r in enumerate_residues(pol(2, "t^2"))]
    assert reps == ["0", "1", "t", "t+1"]
    assert len(enumerate_residues(pol(3, "t^3"))) == 27


# ------------------------------------------------- factorial and valuation
def _w(k, q, d):
    total, power = 0, q ** d
    while power <= k:
        total += k // power
        power *= q ** d
    return total


@pytest.mark.parametrize("ptext", ["t", "t+1", "t^2+t+1"])
def test_gcd_with_factorial_matches_valuation(ptext):
    # gcd(P^e, k!) = P^min(e, sum_j floor(k/q^(dj))) for k < q^6, q=2
    F2 = FIELDS[2]
    P = parse(F2, ptext)
    d = P.degree
    for e in range(1, 5):
        Pe = P ** e
        for k in range(64):
            fact = factorial(F2, k, mod=Pe * pol(2, "t^4+t+1"))
            expect = P ** min(e, _w(k, 2, d))
            assert gcd(Pe, fact) == expect


def test_factorial_modulus_is_transparent():
    F3 = FIELDS[3]
    g = pol(3, "t^3+2t+2")
    for k in range(20):
        assert gcd(g, factorial(F3, k)) == gcd(g, factorial(F3, k, mod=g))


@given(st.sampled_from([2, 3]).flatmap(lambda q: st.tuples(polys(q, 5), polys(q, 5))),
       st.sampled_from(["t", "t+1"]))
@settings(max_examples=60)
def test_valuation_additive(ab, ptext):
    a, b = ab
    P = parse(a.field, ptext)
    va, vb = valuation(P, a), valuation(P, b)
    assert valuation(P, a * b) == va + vb  # inf propagates through zero


def test_valuation_basics():
    P = pol(2, "t+1")
    assert valuation(P, pol(2, "0")) == math.inf
    assert valuation(P, pol(2, "t^2+1")) == 2
    assert valuation(P, pol(2, "t")) == 0
    with pytest.raises(ValueError):
        valuation(pol(2, "t^2+1"), pol(2, "t"))  # reducible P rejected


def test_power_exceeds_matches_the_exact_power():
    for base in (1, 2, 3, 4, 7, 8, 9, 16):
        for exponent in range(0, 40):
            for bound in (0, 1, 100, 2 ** 20, 2 ** 20 - 1, 3 ** 13, 10 ** 9):
                assert (power_exceeds(base, exponent, bound)
                        == (base ** exponent > bound)), (base, exponent, bound)
