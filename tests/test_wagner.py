"""The P-sequence basis machinery: sequence laws, P-integral binomial
evaluation, triangular decomposition, and the coefficient criterion,
always cross-checked against the definitional congruence checker."""

import math
import random

import pytest

from cpfq.counting import count_cpf_local
from cpfq.oracle import enumerate_cpf_tables, is_congruence_preserving
from cpfq.polyring import index_to_poly, parse, to_text, valuation
from cpfq.residue import FunctionTable, ResidueRing
from cpfq.wagner import (
    PSequence,
    crt_characterize,
    decompose,
    eval_Qk,
    floor_log,
    is_cpf_via_basis,
    mu,
)
from helpers import make_field, pol, ring, table

# the sweep set: three primes over F_2, two over F_3
PRIMES = [(2, "t"), (2, "t+1"), (2, "t^2+t+1"), (3, "t"), (3, "t^2+1")]


def rand_poly(field, max_degree, rng):
    return index_to_poly(field, rng.randrange(field.q ** (max_degree + 1)))


# ------------------------------------------------------------------ mu
def test_mu_golden():
    assert mu(1, 2, 1) == 0
    assert mu(3, 2, 1) == 1
    assert mu(4, 2, 2) == 1
    assert mu(8, 2, 2) == 1
    assert mu(16, 2, 2) == 2
    assert mu(80, 3, 2) == 1
    assert mu(81, 3, 2) == 2
    with pytest.raises(ValueError):
        mu(0, 2, 1)


def test_floor_log_exact_at_powers():
    for q in (2, 3):
        for j in range(1, 8):
            assert floor_log(q, q ** j) == j
            assert floor_log(q, q ** j - 1) == j - 1


# ------------------------------------------------------------ b-sequence
def test_bseq_golden():
    s2 = PSequence(pol(2, "t"))
    assert s2.element(0).is_zero()
    assert s2.element(1) == pol(2, "1")
    assert s2.element(2) == pol(2, "t")
    sP = PSequence(pol(2, "t^2+t+1"))
    assert sP.element(4) == pol(2, "t^2+t+1")
    assert sP.element(5) == pol(2, "t^2+t")  # P + 1


def test_base_validation():
    P = pol(2, "t^2+t+1")
    F2 = make_field(2)
    zero, one, t, t1 = pol(2, "0"), pol(2, "1"), pol(2, "t"), pol(2, "t+1")
    PSequence(P, base=[zero, one, t1, t])  # admissible alternative
    with pytest.raises(ValueError):
        PSequence(P, base=[one, zero, t, t1])  # must start 0, 1
    with pytest.raises(ValueError):
        PSequence(P, base=[zero, t, one, t1])  # degree must not decrease
    with pytest.raises(ValueError):
        PSequence(P, base=[zero, one, t, t])  # not a bijection
    with pytest.raises(ValueError):
        PSequence(P, base=[zero, one, t])  # wrong size
    with pytest.raises(ValueError):
        PSequence(pol(2, "t^2+1"))  # reducible


def test_domain_is_bijection_even_when_d_does_not_divide_n():
    seq = PSequence(pol(2, "t^2+t+1"))
    dom = seq.domain(3)  # 8 representatives, d = 2 does not divide 3
    assert len(dom) == 8
    assert {to_text(h) for h in dom} == {
        to_text(index_to_poly(make_field(2), k)) for k in range(8)}


@pytest.mark.parametrize("q,ptext", PRIMES)
def test_homogeneous_law(q, ptext):
    # v_P(b_i - b_j) >= m iff q^(dm) | i - j, for i, j < q^(3d), m <= 3
    P = pol(q, ptext)
    d = P.degree
    seq = PSequence(P)
    hi = q ** (3 * d)
    bs = [seq.element(k) for k in range(hi)]
    for i in range(hi):
        for j in range(i):
            v = valuation(P, bs[i] - bs[j], check=False)
            step = i - j
            for m in (1, 2, 3):
                assert (v >= m) == (step % (q ** (d * m)) == 0)


@pytest.mark.parametrize("q,ptext", PRIMES)
def test_factorial_valuation_identity(q, ptext):
    # sum_{i<=k} v_P(b_i) = sum_j floor(k / q^(dj)) for k <= q^(3d),
    # and mu(k) is the largest valuation seen so far
    P = pol(q, ptext)
    d = P.degree
    seq = PSequence(P)
    total = 0
    vmax = 0
    for k in range(1, q ** (3 * d) + 1):
        v = valuation(P, seq.element(k), check=False)
        total += v
        vmax = max(vmax, v)
        expect = 0
        power = q ** d
        while power <= k:
            expect += k // power
            power *= q ** d
        assert total == expect
        assert vmax == mu(k, q, d)


# -------------------------------------------------------------- Q_k, B_k
def test_qk_golden():
    P, e = pol(2, "t"), 2
    assert eval_Qk(P, e, 0, pol(2, "t^5+t")) == pol(2, "1")
    h = pol(2, "t^3+t^2+1")
    assert eval_Qk(P, e, 1, h) == h % (P ** e)
    assert eval_Qk(P, 2, 2, pol(2, "t^2")) == pol(2, "t")


@pytest.mark.parametrize("q,ptext", PRIMES)
def test_qk_is_p_integral(q, ptext):
    # the valuation inequality behind Wagner integrality, k <= q^(2d)
    P = pol(q, ptext)
    d = P.degree
    seq = PSequence(P)
    rng = random.Random(17 * q + d)
    F = make_field(q)
    for k in range(1, q ** (2 * d) + 1):
        bs = [seq.element(j) for j in range(k)]
        den = sum(valuation(P, seq.element(k) - b, check=False) for b in bs)
        for h in [rand_poly(F, 6, rng) for _ in range(3)] + [seq.element(k + 1)]:
            num = sum(valuation(P, h - b, check=False) for b in bs)
            assert num >= den
    # and the evaluator itself never trips its internal assertion
    for k in range(0, min(q ** (2 * d), 20) + 1):
        eval_Qk(P, 2, k, rand_poly(F, 6, rng))


@pytest.mark.parametrize("q,ptext", PRIMES)
def test_valuation_bound_lemma(q, ptext):
    # v_P(prod(h1 - b_j) - prod(h2 - b_j)) >=
    #     v_P(h1 - h2) + sum_j floor(k/q^(dj)) - mu(k)
    # checked via products mod P^bound on 10^3 random triples
    P = pol(q, ptext)
    d = P.degree
    seq = PSequence(P)
    F = make_field(q)
    rng = random.Random(29 * q + d)
    checked = 0
    while checked < 1000:
        k = rng.randrange(1, q ** (2 * d) + 1)
        h1 = rand_poly(F, 6, rng)
        # bias toward pairs that agree to some P-adic depth
        h2 = h1 + (P ** rng.randrange(3)) * rand_poly(F, 4, rng)
        vdiff = valuation(P, h1 - h2, check=False)
        if vdiff == math.inf:
            continue
        fact = 0
        power = q ** d
        while power <= k:
            fact += k // power
            power *= q ** d
        bound = vdiff + fact - mu(k, q, d)
        checked += 1
        if bound <= 0:
            continue
        mod = P ** bound
        p1 = pol(q, "1")
        p2 = pol(q, "1")
        for j in range(k):
            b = seq.element(j)
            p1 = (p1 * (h1 - b)) % mod
            p2 = (p2 * (h2 - b)) % mod
        assert p1 == p2


def test_bk_triangular():
    for (q, ptext, e, n) in [(2, "t", 2, 2), (2, "t", 3, 2), (2, "t+1", 2, 2),
                             (2, "t^2+t+1", 1, 2), (3, "t", 2, 1)]:
        P = pol(q, ptext)
        seq = PSequence(P)
        dom = seq.domain(n)
        one = pol(q, "1")
        for k in range(len(dom)):
            assert eval_Qk(P, e, k, dom[k], seq=seq) == one
            for i in range(k):
                assert eval_Qk(P, e, k, dom[i], seq=seq).is_zero()
        # B_0 is constant one
        for h in dom:
            assert eval_Qk(P, e, 0, h, seq=seq) == one


# ------------------------------------------------------------- decompose
def all_tables(dom_ring, cod_ring):
    import itertools
    reps = cod_ring.elements()
    for combo in itertools.product(reps, repeat=dom_ring.size):
        yield FunctionTable(dom_ring, cod_ring, list(combo))


def test_decompose_golden():
    dom = ring(2, "t^2")
    cod = ring(2, "t")
    sig = table(dom, cod, lambda h: h % pol(2, "t"))
    c = decompose(sig)
    assert [to_text(x) for x in c.coefficients] == ["0", "1", "0", "0"]
    assert c.mus == (None, 0, 1, 1)
    assert c.is_cpf()


def test_decompose_constant_and_basis_functions():
    dom = ring(2, "t^2")
    cod = ring(2, "t^2")
    P = pol(2, "t")
    const = table(dom, cod, lambda h: pol(2, "t+1"))
    c = decompose(const)
    assert to_text(c.coefficients[0]) == "t+1"
    assert all(x.is_zero() for x in c.coefficients[1:])
    seq = PSequence(P)
    b1 = table(dom, cod, lambda h: eval_Qk(P, 2, 1, h, seq=seq))
    assert [to_text(x) for x in decompose(b1).coefficients] == ["0", "1", "0", "0"]


def test_decompose_roundtrip_exhaustive():
    dom, cod = ring(2, "t^2"), ring(2, "t^2")
    for sig in all_tables(dom, cod):
        c = decompose(sig)
        assert c.recompose(dom) == sig


def test_coefficient_space_roundtrip_exhaustive():
    # uniqueness: every coefficient tuple is hit by exactly its own table
    import itertools
    dom, cod = ring(2, "t^2"), ring(2, "t^2")
    seq = PSequence(pol(2, "t"))
    reps = cod.elements()
    seen = set()
    for combo in itertools.product(reps, repeat=4):
        sig = FunctionTable(dom, cod, [
            sum(((eval_Qk(pol(2, "t"), 2, k, h, seq=seq) * combo[k]) for k in range(4)),
                pol(2, "0")) % pol(2, "t^2")
            for h in dom.elements()])
        c = decompose(sig)
        assert tuple(c.coefficients) == combo
        seen.add(sig)
    assert len(seen) == 256  # onto, hence a bijection


def test_decompose_roundtrip_random():
    rng = random.Random(4)
    cases = [(2, "t^3", "t^2+t+1", 2), (3, "t", "t", 2), (3, "t^2", "t", 2),
             (2, "t^2", "t+1", 3)]
    for (q, ftext, ptext, e) in cases:
        dom = ring(q, ftext)
        cod = ResidueRing(pol(q, ptext) ** e)
        for _ in range(40):
            vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
            sig = FunctionTable(dom, cod, vals)
            assert decompose(sig).recompose(dom) == sig


def test_decompose_roundtrip_extension_field():
    rng = random.Random(9)
    dom = ring(4, "t")
    cod = ResidueRing(pol(4, "t") ** 2)
    for _ in range(20):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        sig = FunctionTable(dom, cod, vals)
        assert decompose(sig).recompose(dom) == sig


def test_decompose_proves_p_irreducible_once(monkeypatch):
    import cpfq.wagner as wagner

    calls = []
    real = wagner.is_irreducible
    monkeypatch.setattr(wagner, "is_irreducible",
                        lambda p: calls.append(p) or real(p))
    rng = random.Random(50)
    dom = ring(3, "t")
    cod = ResidueRing(pol(3, "t^2+1") ** 2)
    for _ in range(50):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        decompose(FunctionTable(dom, cod, vals))
    assert len(calls) <= 1


def test_decompose_requires_prime_power_codomain():
    dom = ring(2, "t^2")
    sig = table(dom, ring(2, "t^2+t"), lambda h: pol(2, "0"))
    with pytest.raises(ValueError):
        decompose(sig)


# ------------------------------------------------- coefficient criterion
@pytest.mark.parametrize("ptext,e", [("t", 1), ("t", 2), ("t+1", 2), ("t^2+t+1", 1)])
def test_criterion_matches_checker_exhaustively(ptext, e):
    dom = ring(2, "t^2")
    cod = ResidueRing(pol(2, ptext) ** e)
    agree = 0
    for sig in all_tables(dom, cod):
        rep = is_cpf_via_basis(sig)
        assert rep.cpf == bool(is_congruence_preserving(sig))
        agree += 1
    assert agree == cod.size ** 4


def test_criterion_matches_checker_q3():
    dom = ring(3, "t")
    cod = ResidueRing(pol(3, "t") ** 2)
    for sig in all_tables(dom, cod):
        assert is_cpf_via_basis(sig).cpf == bool(is_congruence_preserving(sig))


def test_criterion_matches_checker_random_larger():
    rng = random.Random(31)
    dom = ring(2, "t^3")
    cod = ResidueRing(pol(2, "t") ** 2)
    for _ in range(2000):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        sig = FunctionTable(dom, cod, vals)
        assert is_cpf_via_basis(sig).cpf == bool(is_congruence_preserving(sig))
    # and every actually-CP table passes
    for sig in enumerate_cpf_tables(pol(2, "t^3"), pol(2, "t^2")):
        assert is_cpf_via_basis(sig).cpf


def test_criterion_failure_reports_position():
    # c_2 a unit forces a violation of sigma(0) = sigma(t) mod t
    dom = ring(2, "t^2")
    P = pol(2, "t")
    cod = ResidueRing(P ** 2)
    seq = PSequence(P)
    vals = [eval_Qk(P, 2, 2, h, seq=seq) for h in dom.elements()]
    sig = FunctionTable(dom, cod, vals)
    rep = is_cpf_via_basis(sig)
    assert not rep.cpf
    bad = [k for (k, mk, vk, ok) in rep.rows() if not ok]
    assert bad == [2]
    chk = is_congruence_preserving(sig)
    assert not chk.ok and to_text(chk.divisor) == "t"


def test_coefficient_counts_per_position():
    # over all CP tables, position k takes |P|^(e - min(e, mu(k))) values
    P = pol(2, "t")
    tables = enumerate_cpf_tables(pol(2, "t^2"), P ** 2)
    assert len(tables) == 64
    per_k = [set() for _ in range(4)]
    for sig in tables:
        c = decompose(sig)
        for k, ck in enumerate(c.coefficients):
            per_k[k].add(ck)
    assert [len(s) for s in per_k] == [4, 4, 2, 2]
    # the small sets are exactly the ideal generated by P^mu(k)
    assert per_k[2] == {pol(2, "0"), pol(2, "t")}
    assert per_k[3] == {pol(2, "0"), pol(2, "t")}


def test_counting_consistency_symbolic():
    # prod_k |P|^(e - min(e, mu(k))) equals the closed-form M(f, P^e)
    for (q, ptext, e, n) in [(2, "t", 2, 3), (2, "t^2+t+1", 2, 3), (3, "t", 3, 2),
                             (3, "t^2+1", 2, 3), (2, "t+1", 4, 4)]:
        P = pol(q, ptext)
        d = P.degree
        total = d * e  # k = 0 term: c_0 unconstrained
        for k in range(1, q ** n):
            total += d * (e - min(e, mu(k, q, d)))
        f = pol(q, "t") ** n
        assert count_cpf_local(f, P, e).exponent == total


def test_verdict_under_alternative_ordering():
    # same verdicts from a different admissible base ordering, d = 2
    zero, one, t, t1 = pol(2, "0"), pol(2, "1"), pol(2, "t"), pol(2, "t+1")
    P = pol(2, "t^2+t+1")
    alt = PSequence(P, base=[zero, one, t1, t])
    dom = ring(2, "t^3")
    cod = ResidueRing(P ** 2)
    rng = random.Random(41)
    seen_true = 0
    for _ in range(150):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        sig = FunctionTable(dom, cod, vals)
        v1 = is_cpf_via_basis(sig).cpf
        v2 = is_cpf_via_basis(sig, seq=alt).cpf
        assert v1 == v2 == bool(is_congruence_preserving(sig))
    # CP tables built from admissible coefficients keep verdict True
    default = PSequence(P)
    for _ in range(60):
        coeffs = []
        for k in range(dom.size):
            need = 0 if k == 0 else min(2, mu(k, 2, 2))
            c = (P ** need * rand_poly(make_field(2), 3, rng)) % (P ** 2)
            coeffs.append(c)
        vals = [pol(2, "0")] * dom.size
        sig = FunctionTable(dom, cod, [
            sum(((eval_Qk(P, 2, k, h, seq=default) * coeffs[k]) for k in range(dom.size)),
                pol(2, "0")) % (P ** 2)
            for h in dom.elements()])
        assert is_cpf_via_basis(sig).cpf
        assert is_cpf_via_basis(sig, seq=alt).cpf
        seen_true += 1
    assert seen_true == 60


def test_verdict_alternative_ordering_q3():
    F3 = make_field(3)
    P = pol(3, "t^2+1")
    base = PSequence(P).base
    alt_base = list(base[:3]) + list(reversed(base[3:]))
    alt = PSequence(P, base=alt_base)
    dom = ring(3, "t")
    cod = ResidueRing(P ** 2)
    rng = random.Random(43)
    for _ in range(100):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        sig = FunctionTable(dom, cod, vals)
        assert is_cpf_via_basis(sig).cpf == is_cpf_via_basis(sig, seq=alt).cpf


# ---------------------------------------------------------------- CRT form
def test_crt_characterize_matches_naive():
    rng = random.Random(47)
    dom = ring(2, "t^2")
    for gtext in ("t^2+t", "t^3+t^2"):
        cod = ring(2, gtext)
        for _ in range(300):
            vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
            sig = FunctionTable(dom, cod, vals)
            rep = crt_characterize(sig)
            assert rep.cpf == bool(is_congruence_preserving(sig))
            assert rep.cpf == all(sub.cpf for (_, _, sub) in rep.parts)


def test_crt_characterize_reduction_table():
    dom = ring(2, "t^2")
    cod = ring(2, "t^2+t")
    sig = table(dom, cod, lambda h: h % pol(2, "t^2+t"))
    rep = crt_characterize(sig)
    assert rep.cpf and len(rep.parts) == 2
