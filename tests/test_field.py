"""Exhaustive field axiom checks; these rings are small enough to test in full."""

import hashlib

import pytest

from cpfq.field import FieldSpec, field_make
from cpfq.guards import GuardExceeded
from cpfq.polyring import Poly, parse
from helpers import coeffs_of, make_field

# F_4, F_8, F_9, F_16 with their default moduli, and F_9 over u^2+2u+2
EXTENSIONS = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 2, (2, 2, 1))]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_axioms_exhaustive(q):
    # an element is its index: 0 is zero and 1 is one
    F = make_field(q)
    assert F.q == q
    add, sub, mul, neg = F.add, F.sub, F.mul, F.neg
    els = range(q)
    for a in els:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert mul(a, 0) == 0
        assert add(a, neg(a)) == 0
        if a:
            assert mul(a, F.inv(a)) == 1
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert sub(a, b) == add(a, neg(b))
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_frobenius_and_unit_group(q):
    F = make_field(q)
    for a in range(q):
        assert F.pow(a, 0) == 1
        assert F.pow(a, q) == a
        if a:
            assert F.pow(a, q - 1) == 1
        power = 1
        for n in range(2 * q):
            assert F.pow(a, n) == power
            power = F.mul(power, a)


def test_f4_multiplication():
    # default modulus for GF(4) is u^2+u+1, so u*u = u+1
    F4 = field_make(2, 2)
    assert F4.element_str(2) == "u"
    assert F4.mul(2, 2) == 3
    assert F4.element_str(3) == "u+1"


def test_f8_default_modulus():
    # first monic irreducible cubic over F_2 in index order
    F8 = field_make(2, 3)
    assert F8.modulus == (1, 1, 0, 1)  # u^3 + u + 1, low degree first


def test_f9_element_strings():
    F9 = field_make(3, 2)
    seen = {F9.element_str(k) for k in range(9)}
    assert "0" in seen and "1" in seen and "u" in seen
    assert len(seen) == 9
    # element k prints as a_k in u, whatever the modulus
    f8 = ["0", "1", "u", "u+1", "u^2", "u^2+1", "u^2+u", "u^2+u+1"]
    expected = {
        4: f8[:4], 8: f8,
        16: f8 + ["u^3", "u^3+1", "u^3+u", "u^3+u+1", "u^3+u^2", "u^3+u^2+1",
                  "u^3+u^2+u", "u^3+u^2+u+1"],
        9: ["0", "1", "2", "u", "u+1", "u+2", "2u", "2u+1", "2u+2"]}
    for args in EXTENSIONS:
        F = field_make(*args)
        texts = [F.element_str(k) for k in range(F.q)]
        assert texts == expected[F.q]
        for k, text in enumerate(texts):
            # every text reads back as the constant polynomial a_k
            assert parse(F, text) == Poly(F, [k])
            assert parse(F, f"({text})t") == Poly(F, [0, k])


def _tables_digest(F):
    ks = range(F.q)
    data = ([[F.add(i, j) for j in ks] for i in ks],
            [[F.mul(i, j) for j in ks] for i in ks],
            [F.neg(i) for i in ks], [F.inv(i) for i in ks if i],
            [F.element_str(k) for k in ks], [coeffs_of(F, k) for k in ks])
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def test_coeff_round_trip():
    for q in (3, 4, 8, 9):
        F = make_field(q)
        for k in range(q):
            assert F.from_coeffs(coeffs_of(F, k)) == k
    # tables, texts and coordinates as the hand-written base-p digit codec
    # built them before the fields moved onto the polyring codec
    digests = ["32de0679c86d4c00", "78c66a6f8f68225a", "5c959940424c377f",
               "f2741f6bce16fb9b", "f816be4f4bb951b2"]
    for args, digest in zip(EXTENSIONS, digests):
        F = field_make(*args)
        for k in range(F.q):
            assert F.from_coeffs(coeffs_of(F, k)) == k
            assert len(coeffs_of(F, k)) == F.m
        assert _tables_digest(F) == digest


def test_size_guard():
    with pytest.raises(GuardExceeded):
        field_make(17)
    with pytest.raises(GuardExceeded):
        field_make(2, 5)
    assert field_make(13).q == 13
    assert field_make(2, 4).q == 16


def test_field_cache_is_bounded():
    # every field under the size guard, by its default modulus and by every
    # irreducible one, given reduced and unreduced: one entry per key
    from cpfq import field
    from cpfq.polyring import monic_irreducibles

    expected = 0
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 5):
            if p ** m > 16:
                continue
            field_make(p, m)
            expected += 1
            if m == 1:
                continue
            for mod in monic_irreducibles(field_make(p), m):
                c = mod.coeffs
                spec = field_make(p, m, c)
                assert field_make(p, m, [x + p * (i + 1) for i, x in enumerate(c)]) is spec
                assert field_make(p, m, [x - p for x in c]) is spec
                expected += 1
    assert expected == 19
    assert len(field._SPEC_CACHE) == expected


def test_bad_characteristic():
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            field_make(p)


def test_reducible_modulus_rejected():
    # u^2+1 = (u+1)^2 over F_2
    with pytest.raises(ValueError):
        field_make(2, 2, modulus=(1, 0, 1))
    with pytest.raises(ValueError):
        field_make(2, modulus=(1, 1))  # modulus meaningless at m=1


def test_field_identity_is_structural():
    assert field_make(2, 2) == field_make(2, 2)
    assert field_make(2) != field_make(3)
    a = FieldSpec(3, 2)
    b = field_make(3, 2)
    assert a == b and hash(a) == hash(b)


def test_cross_field_operations_rejected():
    # a scalar is a constant polynomial, so Poly._check sees its field
    a = Poly(field_make(2), [1])
    b = Poly(field_make(3), [1])
    for op in ("__add__", "__sub__", "__mul__", "__divmod__"):
        with pytest.raises(ValueError):
            getattr(a, op)(b)


def test_int_coercion_maps_values():
    # integer literals in polynomial text are values (mod p), not indices
    F9 = make_field(9)
    assert parse(F9, "1+2") == Poly(F9, [])
    assert parse(F9, "2t") == parse(F9, "t") + parse(F9, "t")
    F4 = make_field(4)
    assert parse(F4, "2") == Poly(F4, []) and parse(F4, "3") == Poly(F4, [1])
    # Poly takes indices: index 2 is u, not 1 + 1
    assert Poly(F4, [2]) == parse(F4, "u")
    with pytest.raises(ValueError):
        Poly(F4, [4])
