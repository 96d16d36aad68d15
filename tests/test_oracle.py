"""Brute-force oracles against closed forms: the definitional checker,
both counting engines, monomial-closure membership, and the guards."""

import hashlib
import inspect
import itertools
import random

import numpy as np
import pytest

from cpfq.chen import density_empirical
from cpfq.counting import count_cpf, count_polyfn
from cpfq.guards import (CENSUS_LOG2, DEFAULT_GUARD, EnumerationGuard, GuardExceeded,
                         check_census)
from cpfq import _kernels
from cpfq.oracle import (
    CpCheck,
    _cp_basis,
    _irreducibles_f2,
    _RowSpace,
    census_self_chen,
    census_squarefree,
    congruence_failures,
    count_cpf_bruteforce,
    encode_cp_problem,
    is_congruence_preserving,
    polyfn_module,
    random_values,
)
from cpfq.polyring import _derivative_lists, index_to_poly, poly_to_index, to_text
from cpfq.residue import FunctionTable, ResidueRing
from helpers import (GRID_CELLS, RefPolyFnModule, _packed_polys, _squarefree_test,
                     apply_coeff_poly, check_row, enumerate_cpf_rows,
                     enumerate_cpf_tables, make_field, monic_polys, monic_upto, pol,
                     polyfn_members, random_polynomial_function, random_table,
                     ref_census_all_units, ref_census_self_chen_f2, ref_classes,
                     ref_encode_cp_problem, ref_is_congruence_preserving,
                     ref_monic_irreducibles, ref_random_values, ring, span_rows, table,
                     value_at)


# ----------------------------------------------------------- the checker
def test_checker_witness():
    dom, cod = ring(2, "t^2"), ring(2, "t")
    bad = FunctionTable(dom, cod, [pol(2, "0"), pol(2, "0"), pol(2, "1"), pol(2, "0")])
    chk = is_congruence_preserving(bad)
    assert not chk.ok and not bad is None
    # the witness is a real counterexample
    h, h1, h2 = chk.divisor, chk.h1, chk.h2
    assert ((h1 - h2) % h).is_zero()
    assert not ((value_at(bad, h1) - value_at(bad, h2)) % h).is_zero()


def test_checker_accepts_constants_and_reduction():
    dom, cod = ring(2, "t^2"), ring(2, "t^2")
    assert is_congruence_preserving(table(dom, cod, lambda h: pol(2, "t"))).ok
    assert is_congruence_preserving(table(dom, cod, lambda h: h)).ok


@pytest.mark.parametrize("q, ftext, gtext", GRID_CELLS)
def test_label_check_matches_the_poly_check_on_the_grid(q, ftext, gtext):
    # every table of the acceptance grid's enumeration cells: the same
    # verdict and witness as the check by Poly ops, on the same classes
    dom, cod = ring(q, ftext), ring(q, gtext)
    for h in cod.divisors:
        assert dom.classes(h) == ref_classes(dom, h)
        assert cod.classes(h) == ref_classes(cod, h)
    for row in itertools.product(range(cod.size), repeat=dom.size):
        sig = FunctionTable._new(dom, cod, row)
        assert is_congruence_preserving(sig) == ref_is_congruence_preserving(sig), row


def test_label_check_matches_the_poly_check_on_74_divisors():
    # random tables, polynomial functions, and polynomial functions with one
    # value moved by a multiple of a divisor h, which can fail only mod a
    # divisor that does not divide h: witnesses past the first divisor
    g = pol(2, "t") ** 4 * pol(2, "t+1") ** 4 * pol(2, "t^2+t+1") ** 2
    dom, cod = ring(2, "t^4"), ResidueRing(g)
    assert len(cod.divisors) == 74
    rng = random.Random(74)
    for h in cod.divisors:
        assert dom.classes(h) == ref_classes(dom, h)
        label = cod.label(h)
        for k in rng.sample(range(cod.size), 50):
            assert label(k) == poly_to_index(cod.element(k) % h)
    tables = [random_table(dom, cod, rng) for _ in range(40)]
    for _ in range(40):
        sig = random_polynomial_function(dom, cod, rng)
        tables.append(sig)
        moved = list(sig.indices)
        i, h = rng.randrange(dom.size), rng.choice(cod.divisors)
        moved[i] = poly_to_index(cod.reduce(
            sig.values[i] + h * cod.element(rng.randrange(cod.size))))
        tables.append(FunctionTable._new(dom, cod, moved))
    checks = [is_congruence_preserving(sig) for sig in tables]
    assert checks == [ref_is_congruence_preserving(sig) for sig in tables]
    assert 40 <= sum(map(bool, checks)) < len(tables)
    assert len({chk.divisor for chk in checks if not chk.ok}) >= 5


@pytest.mark.parametrize("gtext", ["t^3", "t^11"])
def test_the_check_builds_no_values(gtext):
    # the labels of the indices decide, with no codomain value built, on
    # a small codomain and on one past the basis-table bound (|A_g|^2 = 2^22)
    dom, cod = ring(2, "t^2"), ring(2, gtext)
    bad = FunctionTable._new(dom, cod, [0, 0, 1, 0])
    good = FunctionTable._new(dom, cod, [5, 5, 5, 5])
    assert is_congruence_preserving(bad) == CpCheck(False, pol(2, "t"), pol(2, "0"),
                                                    pol(2, "t"))
    assert is_congruence_preserving(good).ok
    assert bad._values is None and good._values is None


def _failure_check(domain, failure):
    """The CpCheck of one table's entry of congruence_failures."""
    if failure is None:
        return CpCheck(True)
    h, i, j = failure
    return CpCheck(False, h, domain.element(i), domain.element(j))


@pytest.mark.parametrize("q, ftext, gtext", GRID_CELLS)
def test_batch_check_matches_the_poly_check_on_the_grid(q, ftext, gtext):
    # every table of the acceptance grid's enumeration cells in one batch:
    # the same verdict and witness as the check by Poly ops
    dom, cod = ring(q, ftext), ring(q, gtext)
    rows = list(itertools.product(range(cod.size), repeat=dom.size))
    failures = congruence_failures(dom, cod, [k for row in rows for k in row])
    assert len(failures) == len(rows)
    for row, failure in zip(rows, failures):
        sig = FunctionTable._new(dom, cod, row)
        assert _failure_check(dom, failure) == ref_is_congruence_preserving(sig), row


def _mixed_rows(dom, cod, rng, count):
    """In turn: a CP row; the row with one value changed by 1 (a near
    miss that fails mod every divisor); the row with one value moved by a
    multiple of a divisor h (which fails only mod a divisor that does not
    divide the move, if at all); a random row."""
    rows = []
    while len(rows) < count:
        sig = random_polynomial_function(dom, cod, rng)
        changed, moved = list(sig.indices), list(sig.indices)
        i = rng.randrange(dom.size)
        changed[i] = poly_to_index(cod.reduce(sig.values[i] + pol(2, "1")))
        i, h = rng.randrange(dom.size), rng.choice(cod.divisors)
        moved[i] = poly_to_index(cod.reduce(
            sig.values[i] + h * cod.element(rng.randrange(cod.size))))
        rows += [list(sig.indices), changed, moved, random_values(dom, cod, rng, 1)]
    return rows[:count]


@pytest.mark.parametrize("samples", [0, 1, 2, 60])
def test_batch_check_matches_the_poly_check_on_74_divisors(samples):
    # seeded random, CP and near-miss rows into t^4 (t+1)^4 (t^2+t+1)^2
    g = pol(2, "t") ** 4 * pol(2, "t+1") ** 4 * pol(2, "t^2+t+1") ** 2
    dom, cod = ring(2, "t^4"), ResidueRing(g)
    rows = _mixed_rows(dom, cod, random.Random(samples), samples)
    failures = congruence_failures(dom, cod, [k for row in rows for k in row])
    assert len(failures) == samples
    checks = [_failure_check(dom, failure) for failure in failures]
    sigs = [FunctionTable._new(dom, cod, row) for row in rows]
    assert checks == [ref_is_congruence_preserving(sig) for sig in sigs]
    assert checks == [is_congruence_preserving(sig) for sig in sigs]
    if samples >= 2:  # both verdicts occur
        assert {chk.ok for chk in checks} == {True, False}
    if samples == 60:
        assert len({chk.divisor for chk in checks if not chk.ok}) >= 5


def test_batch_check_drops_each_table_at_its_first_failure(monkeypatch):
    # 256 random tables A_{t^10} -> A_g with 74 divisors: about three
    # labels per table, as many as the walk of one table at a time reads
    # (labeling every value mod every divisor reads 74 * 2^18)
    g = pol(2, "t^12+t^10+t^6+t^4")
    dom, cod = ring(2, "t^10"), ResidueRing(g)
    assert len(cod.divisors) == 74
    values = random_values(dom, cod, random.Random(3), 256)
    read = []
    label = ResidueRing.label

    def counted(self, h):
        fn = label(self, h)
        return lambda k: read.append(k) or fn(k)

    monkeypatch.setattr(ResidueRing, "label", counted)
    failures = congruence_failures(dom, cod, values)
    assert all(failures) and len(failures) == 256
    assert len(read) < 10 * 256
    one_at_a_time = len(read)
    read.clear()
    for s in range(0, len(values), dom.size):
        congruence_failures(dom, cod, values[s:s + dom.size])
    assert len(read) == one_at_a_time


def test_batch_check_labels_by_the_current_route(monkeypatch):
    # a label map's index table is built by the CRT split or by
    # ResidueRing.labels, never by the check: the divisors of t (t+1)^9
    # over F_3 keep the digit route (3^10-entry tables at odd p)
    from cpfq import residue

    monkeypatch.setattr(residue, "_LABEL_MAPS", residue._LabelMaps(256, 2 ** 24))
    dom, cod = ring(3, "t^6"), ring(3, "t^10+t")
    rng = random.Random(1)
    # CP tables, which the walk follows through every divisor
    values = [k for _ in range(3)
              for k in random_polynomial_function(dom, cod, rng, 4).indices]
    cod.labels(pol(3, "t"), values)  # the split's label map mod t
    assert not any(congruence_failures(dom, cod, values))
    maps = {h: cmap for (n, h), (cmap, _) in residue._LABEL_MAPS._maps.items()
            if n == cod.modulus.degree}
    assert len(maps) == 10  # the divisors of degree < 6
    assert {h for h, cmap in maps.items() if cmap._table is not None} == {pol(3, "t")}


def test_flat_draws_are_successive_random_tables():
    # samples * |A_f| draws in one run: table s is the (s + 1)-th table of
    # successive random_table calls, and the values and the generator
    # state after them are those of one randrange per value.  |A_g| runs
    # from 2 to 2^20: 16 = 2^4 draws 5-bit words and rejects about half,
    # 15625 and 59049 few; 2^32 is drawn by randrange itself, and 5 * 2^10
    # values take two calls of getrandbits
    cells = [(2, "t^2", "t^3+t"), (3, "t", "t^2"), (4, "t", "t^2+ut"),
             (2, "t", "t"), (3, "t^2", "t"), (2, "t", "t^4"), (8, "t", "t^4"),
             (5, "t", "t^6"), (3, "t", "t^10"), (2, "t", "t^20"),
             (2, "t", "t^32"), (2, "t^10", "t^4")]
    for q, ftext, gtext in cells:
        dom, cod = ring(q, ftext), ring(q, gtext)
        for samples in (0, 1, 5):
            rng, again, ref = (random.Random(samples) for _ in range(3))
            want = [k for _ in range(samples)
                    for k in random_table(dom, cod, rng).indices]
            assert random_values(dom, cod, again, samples) == want
            assert ref_random_values(dom, cod, ref, samples) == want
            assert again.getstate() == ref.getstate() == rng.getstate()


@pytest.mark.parametrize("q", [2, 3])
def test_polynomial_functions_are_cp(q):
    # 200 random representing polynomials per cell; q=3 samples cells to
    # keep the sweep affordable, q=2 takes every monic pair
    F = make_field(q)
    rng = random.Random(59 + q)
    if q == 2:
        cells = [(f, g) for f in monic_upto(F, 3) for g in monic_upto(F, 3)]
    else:
        cells = []
        for nf in (1, 2, 3):
            for ng in (1, 2, 3):
                fs = [pol(3, "t") ** nf,
                      index_to_poly(F, rng.randrange(3 ** nf, 2 * 3 ** nf))]
                gs = [pol(3, "t") ** ng,
                      index_to_poly(F, rng.randrange(3 ** ng, 2 * 3 ** ng)),
                      index_to_poly(F, rng.randrange(3 ** ng, 2 * 3 ** ng))]
                cells.extend((f, g) for f in fs for g in gs)
    for f, g in cells:
        dom, cod = ResidueRing(f), ResidueRing(g)
        problem = encode_cp_problem(dom, cod)
        for _ in range(200):
            sig = random_polynomial_function(dom, cod, rng, n_coeffs=rng.randrange(1, 8))
            row = np.array([cod.index(v) for v in sig.values], dtype=np.int64)
            assert check_row(problem, row)


def _digest(prob):
    h = hashlib.sha256()
    for a in (prob.cons_ptr, prob.cons_src, prob.cons_div, prob.cod_class):
        a = np.asarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


# (q, f, g) of the pinned all-pairs encodings, with their digests
ENCODED_CELLS = {(2, "t^2", "t^3+t"): "3a907c98d77be054",
                 (2, "t^3", "t^2"): "80723bb2a8a81f57",
                 (3, "t^2", "t^2+2t"): "cf74c624e22d894f",
                 (3, "t", "t^3+t"): "892d4452135a5d3e",
                 (5, "t", "t^2+t"): "84f9d8174e152be7",
                 (4, "t", "t^2+ut"): "169ad7a6fe3905f8",
                 (4, "t^2", "t^2+u"): "707c0e48dd35059a",
                 (8, "t", "t^2+t"): "7900e1ffe74bff18",
                 (9, "t", "t^2"): "536e96551f4f9ada"}


def test_encoded_checker_matches_naive():
    rng = random.Random(61)
    for (q, ftext, gtext) in [(2, "t^2", "t^3+t"), (3, "t", "t^2"),
                              (3, "t^2", "t^2+2t"), (4, "t", "t^2+ut")]:
        dom, cod = ring(q, ftext), ring(q, gtext)
        problem = encode_cp_problem(dom, cod)
        for _ in range(120):
            sig = random_table(dom, cod, rng)
            row = np.array([cod.index(v) for v in sig.values], dtype=np.int64)
            assert check_row(problem, row) == is_congruence_preserving(sig).ok
    # the all-pairs reference arrays, as the numpy long division (prime q)
    # and the per-residue reduction (extension q) built them before one
    # a_k mod h label table served both rings
    for (q, ftext, gtext), digest in ENCODED_CELLS.items():
        assert _digest(ref_encode_cp_problem(ring(q, ftext), ring(q, gtext))) == digest


def test_random_table_draws_like_the_listed_elements():
    # one randrange per value, read as a residue index: the same tables as
    # indexing the listed elements of A_g
    for q, ftext, gtext in [(2, "t^2", "t^3+t"), (3, "t", "t^2"), (4, "t", "t^2+ut")]:
        dom, cod = ring(q, ftext), ring(q, gtext)
        for seed in range(10):
            rng = random.Random(seed)
            want = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
            assert random_table(dom, cod, random.Random(seed)).values == tuple(want)


def _triples(prob):
    """(j, i, divisor index) of every constraint, in CSR order."""
    return [(j, int(prob.cons_src[c]), int(prob.cons_div[c]))
            for j in range(prob.domain.size)
            for c in range(prob.cons_ptr[j], prob.cons_ptr[j + 1])]


@pytest.mark.parametrize("q, ftext, gtext", list(ENCODED_CELLS) + GRID_CELLS)
def test_star_encoding_is_the_all_pairs_one_from_first_members(q, ftext, gtext):
    # the src constraints are the reference constraints whose source is the
    # first member of its class, one per later member: sum (|class| - 1)
    dom, cod = ring(q, ftext), ring(q, gtext)
    prob, ref = encode_cp_problem(dom, cod), ref_encode_cp_problem(dom, cod)
    firsts = [{members[0] for members in dom.classes(h)} for h in cod.divisors]
    assert _triples(prob) == [(j, i, hi) for j, i, hi in _triples(ref)
                              if i in firsts[hi]]
    assert len(prob.cons_src) == sum(len(members) - 1 for h in cod.divisors
                                     for members in dom.classes(h))
    assert prob.cod_class == ref.cod_class
    assert all(type(x) is int for row in prob.cod_class for x in row)


@pytest.mark.parametrize("q, ftext, gtext", GRID_CELLS)
def test_star_and_all_pairs_encodings_agree_on_the_grid(q, ftext, gtext):
    # every table of the acceptance grid's enumeration cells gets the same
    # check_row verdict, and all three kernels the same result, under both
    dom, cod = ring(q, ftext), ring(q, gtext)
    prob, ref = encode_cp_problem(dom, cod), ref_encode_cp_problem(dom, cod)
    rows = np.array(list(itertools.product(range(cod.size), repeat=dom.size)),
                    dtype=np.int64)
    verdicts = [check_row(prob, row) for row in rows]
    assert verdicts == [check_row(ref, row) for row in rows]
    args = [(dom.size, cod.size, p.cons_ptr, p.cons_src, p.cons_div, p.cod_class)
            for p in (prob, ref)]
    for kernel in (_kernels.count_exhaustive, _kernels.count_backtracking):
        assert kernel(*args[0]) == kernel(*args[1]) == sum(verdicts)
    star, pairs = (_kernels.enumerate_backtracking(*a) for a in args)
    assert star == pairs
    assert star == [tuple(row) for row in rows[verdicts].tolist()]


# ------------------------------------------ the CP tables by elimination
@pytest.mark.parametrize("q,ftext,gtext", GRID_CELLS + [
    (3, "t^2", "t"), (3, "t", "t^2+1"), (3, "t^2", "t^3"), (3, "t^3", "t^2"),
    (4, "t", "t^2+u"), (4, "t^2", "t^2"), (4, "t^2", "t+u"),
    (9, "t", "t^2"), (9, "t^2", "t^2"), (9, "t^2", "t+u")])
def test_cp_basis_spans_the_congruence_preserving_tables(q, ftext, gtext):
    # the null space of the definition's equations has dimension log_p M,
    # M by enumeration, and its tables are independent and each preserves
    # congruences
    dom, cod = ring(q, ftext), ring(q, gtext)
    p, block = dom.field.p, cod.modulus.degree * dom.field.m
    basis = _cp_basis(dom, cod)
    big = EnumerationGuard(max_functions=2 ** 600)
    assert p ** len(basis) == count_cpf_bruteforce(dom.modulus, cod.modulus,
                                                   "backtracking", big)
    assert congruence_failures(dom, cod, sum(basis, [])) == [None] * len(basis)
    space = _RowSpace(p, dom.size * block)
    for values in basis:
        lanes = bytes(v // p ** i % p for v in values for i in range(block))
        assert space.add_row(int.from_bytes(lanes, "little"))


# --------------------------------------------------- counts vs closed form
def test_formula_vs_oracle_wide_deg_f_1():
    # every monic g with deg g <= 8 at deg f = 1, exhaustive count and
    # closure size against both closed forms
    F2 = make_field(2)
    f = pol(2, "t")
    for g in monic_upto(F2, 8):
        brute = count_cpf_bruteforce(f, g)
        assert count_cpf(f, g).equals_int(brute)
        mod = polyfn_module(f, g)
        assert count_polyfn(f, g).equals_int(mod.size)
        # deg f = 1 leaves no congruence constraints at all
        assert brute == (2 ** g.degree) ** 2


def test_formula_vs_oracle_boundary_cells():
    # degree 9 and 10 cells sit at the 2^20 guard boundary
    f = pol(2, "t")
    for gtext in ("t^9+t^4+1", "t^10", "t^10+t^3+t"):
        g = pol(2, gtext)
        assert count_cpf(f, g).equals_int(count_cpf_bruteforce(f, g))


def test_formula_vs_oracle_deg_f_2():
    F2 = make_field(2)
    f = pol(2, "t^2")
    for g in monic_upto(F2, 5):
        ex = count_cpf_bruteforce(f, g, engine="exhaustive")
        bt = count_cpf_bruteforce(f, g, engine="backtracking")
        assert ex == bt
        assert count_cpf(f, g).equals_int(ex)
        assert count_polyfn(f, g).equals_int(polyfn_module(f, g).size)


@pytest.mark.parametrize("q,ftext,max_deg", [(3, "t", 4), (3, "t^2", 1)])
def test_formula_vs_oracle_q3(q, ftext, max_deg):
    F = make_field(q)
    f = pol(q, ftext)
    for g in monic_upto(F, max_deg):
        ex = count_cpf_bruteforce(f, g)
        assert count_cpf(f, g).equals_int(ex)
        assert count_cpf_bruteforce(f, g, engine="backtracking") == ex
        assert count_polyfn(f, g).equals_int(polyfn_module(f, g).size)


def test_formula_vs_oracle_extension_field():
    f = pol(4, "t")
    for gtext in ("t", "t^2+ut", "t^2+u"):
        g = pol(4, gtext)
        assert count_cpf(f, g).equals_int(count_cpf_bruteforce(f, g))
        assert count_polyfn(f, g).equals_int(polyfn_module(f, g).size)


def assert_span_matches_the_reference(dom, cod, seed):
    """The packed-row span against the Poly-op generators and numpy
    elimination of RefPolyFnModule: rank, monomials, the reduced echelon
    rows decoded to F_p lists, and membership of random polynomial
    functions and random tables."""
    mod = polyfn_module(dom.modulus, cod.modulus)
    ref = RefPolyFnModule(dom, cod)
    assert count_polyfn(dom.modulus, cod.modulus).equals_int(mod.size)
    assert (mod.rank, mod.n_monomials) == (ref.rank, ref.n_monomials)
    assert span_rows(mod) == {piv: row.tolist() for piv, row in ref._pivots.items()}
    rng = random.Random(seed)
    for _ in range(10):
        member = random_polynomial_function(dom, cod, rng)
        assert mod.contains(member) and ref.contains(member)
        sig = random_table(dom, cod, rng)
        assert mod.contains(sig) == ref.contains(sig)


@pytest.mark.parametrize("q,ftext,gtext", [
    (2, "t^3", "t^3+t^2"),   # t^2 (t+1)
    (2, "t^3", "t^2+t"),     # deg g < deg f
    (3, "t^2", "2t^3+2t"),   # 2 t (t^2+1), not monic
    (3, "t^3", "t^2"),       # deg g < deg f
    (4, "t^2", "t^2+ut"),    # t (t+u)
    (4, "t^2", "t^3+t"),     # t (t+1)^2
    (9, "t^2", "t^2+t"),     # t (t+1)
    (9, "t^2", "t^3+t^2"),   # t^2 (t+1)
])
def test_span_over_extension_fields_matches_the_poly_reference(q, ftext, gtext):
    # the u-scaled generators exist only for m > 1, the prime fields check
    # the products by t and by the residues alone
    assert_span_matches_the_reference(ring(q, ftext), ring(q, gtext), q)


@pytest.mark.parametrize("q,ftext,gtext", GRID_CELLS + [
    (3, "t", "t^2+1"), (3, "t^2", "t^2+t"), (5, "t", "t^3+t^2"),
    (5, "t^2", "t^2+2"), (5, "t^2", "t^3"), (7, "t", "t^3+t+3"),
    (7, "t^2", "t^2+t"), (13, "t", "t^2+2"),
])
def test_span_matches_the_reference_on_the_grid(q, ftext, gtext):
    # the acceptance grid's cells over F_2, and cells over F_3, F_5, F_7
    # and F_13, where a row op is an add and a reduction by translate
    assert_span_matches_the_reference(ring(q, ftext), ring(q, gtext), q)


@pytest.mark.parametrize("q,ftext,gtext", [
    (2, "t^6", "t^6+t+1"),   # 384 lanes
    (3, "t^4", "t^4+t+2"),   # 324 lanes
    (13, "t^2", "t^2+2"),    # 338 lanes, each reduced after one multiple
])
def test_full_rank_spans_over_many_words(q, ftext, gtext):
    # g irreducible of degree >= deg f: every difference of residues of
    # A_f is a unit mod g, so every function interpolates and the span is
    # the whole function space, its rows many machine words long
    dom, cod = ring(q, ftext), ring(q, gtext)
    mod = polyfn_module(dom.modulus, cod.modulus)
    assert mod.rank == mod.length == dom.size * cod.modulus.degree
    assert count_polyfn(dom.modulus, cod.modulus).equals_int(mod.size)
    assert span_rows(mod) == {piv: [int(i == piv) for i in range(mod.length)]
                              for piv in range(mod.length)}
    rng = random.Random(q)
    assert all(mod.contains(random_table(dom, cod, rng)) for _ in range(5))


def test_frozen_oracle_counts():
    assert count_cpf_bruteforce(pol(2, "t^2"), pol(2, "t")) == 4
    assert count_cpf_bruteforce(pol(2, "t"), pol(2, "t^2")) == 16
    assert count_cpf_bruteforce(pol(2, "t^2"), pol(2, "t^2")) == 64
    big = count_cpf_bruteforce(pol(2, "t^3"), pol(2, "t^3"),
                               engine="backtracking",
                               guard=EnumerationGuard(max_functions=2 ** 26))
    assert big == 2 ** 14


# ----------------------------------------------------------- enumeration
def test_enumerate_cpf_tables():
    f, g = pol(2, "t^2"), pol(2, "t^2")
    tables = enumerate_cpf_tables(f, g)
    assert len(tables) == 64
    assert len(set(tables)) == 64
    for sig in tables:
        assert is_congruence_preserving(sig).ok
    # and nothing outside the list is congruence preserving
    dom = ResidueRing(f)
    cod = ResidueRing(g)
    found = set(tables)
    others = 0
    for combo in itertools.product(cod.elements(), repeat=4):
        sig = FunctionTable(dom, cod, list(combo))
        if sig not in found:
            assert not is_congruence_preserving(sig).ok
            others += 1
    assert others == 256 - 64


# --------------------------------------------------------------- closure
def test_closure_members_are_exactly_polynomial_functions():
    f, g = pol(2, "t^2"), pol(2, "t^2")
    mod = polyfn_module(f, g)
    members = polyfn_members(mod)
    assert len(members) == mod.size == 64
    member_set = set(members)
    assert len(member_set) == 64
    dom, cod = ResidueRing(f), ResidueRing(g)
    for combo in itertools.product(cod.elements(), repeat=4):
        sig = FunctionTable(dom, cod, list(combo))
        assert mod.contains(sig) == (sig in member_set)
    for sig in members:
        assert is_congruence_preserving(sig).ok


def test_random_polynomial_function_membership():
    rng = random.Random(67)
    dom, cod = ring(3, "t^2"), ring(3, "t^2+1")
    mod = polyfn_module(dom.modulus, cod.modulus)
    for _ in range(30):
        sig = random_polynomial_function(dom, cod, rng)
        assert mod.contains(sig)
        assert is_congruence_preserving(sig).ok


def test_apply_coeff_poly_is_horner():
    g = pol(2, "t^3+t+1")
    h = pol(2, "t^2+t")
    coeffs = [pol(2, "t"), pol(2, "1"), pol(2, "t^2"), pol(2, "t+1")]
    direct = pol(2, "0")
    for k, c in enumerate(coeffs):
        direct = (direct + c * h ** k) % g
    assert apply_coeff_poly(coeffs, h, g) == direct


# ----------------------------------------------------------------- census
@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_census_matches_the_all_units_walk(q):
    """The censuses test one monic generator per ideal and scale by the
    q - 1 units; the reference tests every leading coefficient, at each
    degree n with (q - 1) q^n <= 2^12."""
    F = make_field(q)
    degrees = [n for n in range(13) if (q - 1) * q ** n <= 2 ** 12]
    want = [ref_census_all_units(F, n) for n in degrees]
    assert [census_squarefree(F, n, monic_only=False) for n in degrees] == want
    assert [census_self_chen(F, n).total for n in degrees] == want
    assert list(density_empirical(F, degrees[-1]).per_degree) == want[1:]


def test_f2_census_sieve_matches_the_per_candidate_walk():
    """Over F_2 the censuses mark the multiples of t^e, (t+1)^e and P^2;
    the references test each packed candidate by its valuations at t and
    t+1 and the gcd with its derivative, at every degree the census guard
    admits."""
    F2 = make_field(2)
    for n in range(CENSUS_LOG2 + 1):
        c = census_self_chen(F2, n)
        assert c.components == ref_census_self_chen_f2(n), n
        assert c.total == sum(c.components), n
        want = sum(map(_squarefree_test(F2), _packed_polys(F2, n)))
        assert census_squarefree(F2, n) == want, n
        assert census_squarefree(F2, n, monic_only=False) == want, n


def test_f2_irreducibles_by_the_product_sieve():
    F2 = make_field(2)
    want = [poly_to_index(p) for d in range(1, 9) for p in ref_monic_irreducibles(F2, d)]
    assert _irreducibles_f2(8) == want
    assert _irreducibles_f2(0) == []


def _derivative_shapes(F, n):
    """Which g' the degree-n monic candidates have: zero (g a p-th power),
    a unit, degree below n - 1 (p | n), or degree n - 1."""
    shapes = set()
    for cs in _packed_polys(F, n):
        d = len(_derivative_lists(F, cs)) - 1
        shapes.add("zero" if d < 0 else "unit" if d == 0 else "short" if d < n - 1
                   else "full")
    return shapes


# (q, the largest n that a census test walks at q)
@pytest.mark.parametrize("q, top", [(3, 10), (4, 7), (5, 5), (7, 4), (9, 4)])
def test_prefix_census_matches_the_per_candidate_test(q, top):
    """census_squarefree takes g' and the first remainder once per prefix
    t^n + ... + a_1 t, the reference the gcd test on each packed candidate:
    equal at n = 0 and 1 and on every n up to top over the monic
    candidates, and up to q^n = 2^12 over every leading coefficient."""
    F = make_field(q)
    for n in range(top + 1):
        want = sum(map(_squarefree_test(F), _packed_polys(F, n)))
        assert census_squarefree(F, n) == want, n
        if q ** n <= 2 ** 12:
            assert census_squarefree(F, n, monic_only=False) == (q - 1) * want, n


def test_prefix_census_degrees_reach_every_shape_of_the_derivative():
    # p | n leaves deg g' < n - 1 and holds the p-th powers, g' = 0, which
    # the prefix census answers without a division
    F3, F5 = make_field(3), make_field(5)
    assert _derivative_shapes(F3, 1) == {"unit"}
    for F, n in ((F3, 3), (F3, 6), (F5, 5)):
        assert {"zero", "short"} <= _derivative_shapes(F, n), (F.q, n)
    assert _derivative_shapes(F3, 4) == {"full"}


# ----------------------------------------------------------------- guards
@pytest.mark.parametrize("census", [census_self_chen, census_squarefree])
@pytest.mark.parametrize("q, n, got", [
    (2, 23, "2^23 = 2^23.00"),
    (13, 12, "13^12 = 2^44.41"),
    (3, 10 ** 12, "3^1000000000000 = 2^1584962500721.16"),
])
def test_census_guard_reports_log2(census, q, n, got):
    with pytest.raises(GuardExceeded) as exc:
        census(make_field(q), n)
    assert str(exc.value) == f"census guarded to q^n <= 2^16, got {got}"


def test_census_guard_admits_the_acceptance_sizes():
    # criterion 5 runs the square-free census at q = 3, n = 10: 2^15.85
    check_census(3, 10)
    check_census(2, 16)
    with pytest.raises(GuardExceeded):
        check_census(5, 7)


def test_exhaustive_guard():
    with pytest.raises(GuardExceeded):
        count_cpf_bruteforce(pol(2, "t^3"), pol(2, "t^3"))  # 8^8 > 2^20


def test_degree_guard():
    f = pol(2, "t")
    g = pol(2, "t^13")
    with pytest.raises(GuardExceeded):
        count_cpf_bruteforce(f, g)
    with pytest.raises(GuardExceeded):
        polyfn_module(f, g)


def test_closure_guard():
    # the span is sized by its rank, within the |A_f|^2 guard only:
    # |A_f|^2 = 16 passes max_functions = 32, the 64 functions need not
    tight = EnumerationGuard(max_functions=32)
    mod = polyfn_module(pol(2, "t^2"), pol(2, "t^2"), guard=tight)
    assert mod.size == 64


def test_enumeration_guard():
    tight = EnumerationGuard(max_functions=100)
    with pytest.raises(GuardExceeded):
        enumerate_cpf_rows(ring(2, "t^2"), ring(2, "t^2"), guard=tight)


def test_default_guard_values():
    assert DEFAULT_GUARD == EnumerationGuard(max_functions=2 ** 20, max_degree=12)
    assert list(inspect.signature(EnumerationGuard).parameters) == [
        "max_functions", "max_degree"]
