"""Residue ring reduction, function tables with their JSON form, and the
CRT split/combine pair."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfq import residue
from cpfq.field import field_make
from cpfq.guards import GuardExceeded
from cpfq.oracle import random_values
from cpfq.polyring import NEG_INF, Poly, parse, poly_to_index, to_text, xgcd
from cpfq.residue import (
    ColumnMap,
    FunctionTable,
    ResidueRing,
    combine_indices,
    crt_combine,
    crt_split,
    split_indices,
)
from helpers import (GRID_CELLS, apply_column_map, digit_tables, make_field, pol,
                     random_table, reduce_mod, ref_crt_combine, ref_crt_split,
                     ref_ring_tables, ring, table, value_at)


def test_reduce_canonical():
    R = ring(3, "t^2+1")
    rng = random.Random(11)
    for _ in range(100):
        h = (pol(3, "t^5") * Poly(R.field, [rng.randrange(3)])
             + pol(3, "t^3+2t+1") * Poly(R.field, [rng.randrange(3)]))
        r = R.reduce(h)
        assert r.degree is NEG_INF or r.degree < 2
        assert R.reduce(r) == r
        assert ((h - r) % R.modulus).is_zero()


def test_ring_ops_match_poly_ops():
    R = ring(2, "t^3+t+1")
    els = R.elements()
    for a in els:
        for b in els:
            assert R.add(a, b) == R.reduce(a + b)
            assert R.mul(a, b) == R.reduce(a * b)
            assert R.sub(a, b) == R.reduce(a - b)


def test_inv_unit():
    R = ring(2, "t^3+t^2")
    one = pol(2, "1")
    for a in R.elements():
        gcd_deg = 0 if a.is_zero() else None
        try:
            inv = R.inv_unit(a)
        except ValueError:
            continue
        assert R.mul(a, inv) == one
    with pytest.raises(ValueError):
        R.inv_unit(pol(2, "t"))  # shares the factor t with the modulus


def test_element_index_round_trip():
    R = ring(3, "t^3")
    for i, rep in enumerate(R.elements()):
        assert R.element(i) == rep
        assert R.index(rep) == i


# ----------------------------------------------------------- FunctionTable
def test_table_json_golden():
    sig = table(ring(2, "t^2"), ring(2, "t"), lambda h: h)
    expected = ('{"q": 2, "f": "t^2", "g": "t", '
                '"values": {"0": "0", "1": "1", "t": "0", "t+1": "1"}}')
    assert json.dumps(sig.to_json_obj()) == expected


def test_table_json_golden_extension():
    d4 = ring(4, "t")
    sig = table(d4, d4, lambda h: h * h)
    expected = ('{"q": 4, "p": 2, "m": 2, "field_modulus": "u^2+u+1", '
                '"f": "t", "g": "t", '
                '"values": {"0": "0", "1": "1", "u": "u+1", "u+1": "u"}}')
    assert json.dumps(sig.to_json_obj()) == expected
    assert FunctionTable.from_json(expected) == sig
    # F_9 over the modulus u^2+2u+2 rather than the default u^2+1
    F9 = field_make(3, 2, (2, 2, 1))
    d9 = ResidueRing(parse(F9, "t"))
    sig = table(d9, d9, lambda h: h * h)
    expected = ('{"q": 9, "p": 3, "m": 2, "field_modulus": "u^2+2u+2", '
                '"f": "t", "g": "t", '
                '"values": {"0": "0", "1": "1", "2": "1", "u": "u+1", '
                '"u+1": "2", "u+2": "2u+2", "2u": "u+1", "2u+1": "2u+2", '
                '"2u+2": "2"}}')
    assert json.dumps(sig.to_json_obj()) == expected
    back = FunctionTable.from_json(expected)
    assert back == sig and back.domain.field.modulus == (2, 2, 1)


@pytest.mark.parametrize("q,f,g", [(2, "t^2", "t^3+t"), (3, "t", "t^2+2"), (4, "t", "t^2+ut")])
def test_table_json_round_trip(q, f, g):
    rng = random.Random(5)
    dom, cod = ring(q, f), ring(q, g)
    for _ in range(10):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        sig = FunctionTable(dom, cod, vals)
        back = FunctionTable.from_json_obj(sig.to_json_obj())
        assert back == sig
        assert back.domain.modulus == dom.modulus


def test_table_json_rejects_malformed():
    sig = table(ring(2, "t^2"), ring(2, "t"), lambda h: h)
    good = sig.to_json_obj()
    missing = dict(good)
    del missing["g"]
    with pytest.raises(ValueError):
        FunctionTable.from_json_obj(missing)
    extra = dict(good)
    extra["spurious"] = 1
    with pytest.raises(ValueError):
        FunctionTable.from_json_obj(extra)
    short = dict(good)
    short["values"] = {"0": "0"}
    with pytest.raises(ValueError):
        FunctionTable.from_json_obj(short)
    bad_val = dict(good)
    bad_val["values"] = dict(good["values"], **{"0": "t^9"})
    with pytest.raises(ValueError):
        FunctionTable.from_json_obj(bad_val)


def test_table_values_follow_index_order():
    dom = ring(2, "t^2")
    sig = table(dom, dom, lambda h: h)
    keys = list(sig.to_json_obj()["values"])
    assert keys == [to_text(r) for r in dom.elements()]


def test_table_validates_codomain_reps():
    dom, cod = ring(2, "t"), ring(2, "t")
    with pytest.raises(ValueError):
        FunctionTable(dom, cod, [pol(2, "t^2"), pol(2, "0")])  # not canonical


def test_value_at_and_equality():
    dom = ring(2, "t^2")
    ident = table(dom, dom, lambda h: h)
    assert value_at(ident, pol(2, "t")) == pol(2, "t")
    assert ident == table(dom, dom, lambda h: h)
    assert ident != table(dom, dom, lambda h: h + pol(2, "1"))


# ------------------------------------------------------------------- CRT
def test_crt_round_trip_exhaustive():
    # all 256 functions A_{t^2} -> A_{t(t+1)}
    dom, cod = ring(2, "t^2"), ring(2, "t^2+t")
    reps = cod.elements()
    import itertools
    for combo in itertools.product(range(4), repeat=4):
        sig = FunctionTable(dom, cod, [reps[i] for i in combo])
        parts = crt_split(sig)
        assert [to_text(p.codomain.modulus) for p in parts] == ["t", "t+1"]
        assert crt_combine(parts) == sig


def test_crt_round_trip_random_prime_powers():
    rng = random.Random(23)
    dom, cod = ring(2, "t^2"), ring(2, "t^4+t^3")  # t^3 (t+1)
    for _ in range(25):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        sig = FunctionTable(dom, cod, vals)
        assert crt_combine(crt_split(sig)) == sig


def test_crt_combine_non_monic_modulus():
    rng = random.Random(7)
    dom = ring(3, "t")
    g = pol(3, "2t^3+2t")  # 2 t (t^2+1)
    cod = ResidueRing(g)
    vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
    sig = FunctionTable(dom, cod, vals)
    parts = crt_split(sig)
    back = crt_combine(parts, modulus=g)
    assert back == sig
    # default combine yields the monic product
    assert to_text(crt_combine(parts).codomain.modulus) == "t^3+t"


def test_crt_combine_keeps_the_idempotents_per_modulus(monkeypatch):
    from cpfq import residue

    calls = []

    def counted_xgcd(a, b):
        calls.append((a, b))
        return xgcd(a, b)

    monkeypatch.setattr(residue, "xgcd", counted_xgcd)
    residue._combine_map.cache_clear()
    rng = random.Random(5)
    dom, cod = ring(3, "t"), ring(3, "t^3+2t^2+t")  # t (t+1)^2
    for _ in range(3):
        vals = [cod.elements()[rng.randrange(cod.size)] for _ in range(dom.size)]
        sig = FunctionTable(dom, cod, vals)
        assert crt_combine(crt_split(sig), modulus=cod.modulus) == sig
        assert len(calls) == 2  # one per prime power, on the first combine


# the column maps of crt_split and crt_combine against the Poly-op routes
def _check_crt_against_references(sig):
    parts = crt_split(sig)
    assert parts == ref_crt_split(sig)
    g = sig.codomain.modulus
    assert crt_combine(parts, modulus=g) == ref_crt_combine(parts, g) == sig


@pytest.mark.parametrize("q,ftext,gtext", [
    cell for cell in GRID_CELLS if cell[2] in ("t^2+t", "t^3+t^2")])
def test_crt_maps_match_poly_references_on_every_grid_table(q, ftext, gtext):
    dom, cod = ring(q, ftext), ring(q, gtext)
    for combo in itertools.product(cod.elements(), repeat=dom.size):
        _check_crt_against_references(FunctionTable(dom, cod, combo))


def test_crt_maps_match_poly_references_non_monic_modulus():
    # 1000 of the 27^3 tables A_t -> A_g over F_3, g = 2 t (t^2+1) given
    # as the modulus
    rng = random.Random(41)
    dom, cod = ring(3, "t"), ResidueRing(pol(3, "2t^3+2t"))
    for _ in range(1000):
        vals = [cod.element(rng.randrange(cod.size)) for _ in range(dom.size)]
        _check_crt_against_references(FunctionTable(dom, cod, vals))


@pytest.mark.parametrize("q,ftext,gtext", [
    (4, "t", "t^3+t"),       # t (t+1)^2
    (4, "t^2", "t^2+ut"),    # t (t+u)
    (9, "t", "t^3+t"),       # t (t-i) (t+i), i^2 = -1
    (9, "t", "t^3+t^2"),     # t^2 (t+1)
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_crt_maps_match_poly_references_over_extension_fields(q, ftext, gtext, data):
    dom, cod = ring(q, ftext), ring(q, gtext)
    idx = data.draw(st.lists(st.integers(0, cod.size - 1),
                             min_size=dom.size, max_size=dom.size))
    _check_crt_against_references(FunctionTable(dom, cod, map(cod.element, idx)))


@pytest.mark.parametrize("q,ftext,gtext", [
    (2, "t^3", "t^4+t^3+t^2"),  # t^2 (t^2+t+1)
    (2, "t^2", "t^4"),          # a prime power: the identity
    (3, "t", "2t^3+2t"),        # 2 t (t^2+1), non-monic
    (4, "t", "t^3+t"),          # t (t+1)^2
    (9, "t", "t^3+t^2"),        # t^2 (t+1)
])
@pytest.mark.parametrize("samples", [0, 1, 30])
def test_batched_split_and_combine_match_poly_references(q, ftext, gtext, samples):
    # the values of many tables side by side split and combine as each
    # table does by Poly ops
    dom, cod = ring(q, ftext), ring(q, gtext)
    g, n = cod.modulus, dom.size
    values = random_values(dom, cod, random.Random(samples), samples)
    parts = split_indices(cod, values)
    moduli = tuple(r.modulus for r in cod.prime_powers)
    assert len(parts) == len(moduli)
    for s in range(0, len(values), n):
        sig = FunctionTable._new(dom, cod, values[s:s + n])
        want = ref_crt_split(sig)
        assert [list(part[s:s + n]) for part in parts] == [list(w.indices) for w in want]
        assert ref_crt_combine(want, g) == sig
    assert list(combine_indices(g, moduli, parts)) == values


@pytest.mark.parametrize("q,gtext,htext", [
    (2, "t^4+t^3", "t^3+t+1"), (3, "2t^3+2t", "t^2+2"), (9, "ut^2+1", "t^3+ut")])
def test_column_map_applies_a_product_mod_g(q, gtext, htext):
    # v -> v h mod g on every residue of degree < 3, by digits and by Poly
    # ops; steps[j][c] is the index of c h t^j mod g
    g, h = pol(q, gtext), pol(q, htext)
    times_h = ColumnMap(g, [h.shift(j) for j in range(3)])
    F = g.field
    assert times_h.steps == tuple(
        tuple(poly_to_index(Poly(F, [c]) * h.shift(j) % g) for c in range(q))
        for j in range(3))
    reps = ring(q, "t^3").elements()
    for v in reps:
        assert apply_column_map(times_h, v) == v * h % g
    assert times_h.image(range(len(reps))) == [poly_to_index(v * h % g) for v in reps]


def test_crt_combine_errors():
    dom = ring(2, "t^2")
    a = table(dom, ring(2, "t"), lambda h: h)
    b = table(ring(2, "t"), ring(2, "t+1"), lambda h: h)
    with pytest.raises(ValueError):
        crt_combine([a, b])  # domains differ
    c = table(dom, ring(2, "t^2+t"), lambda h: h)
    with pytest.raises(ValueError):
        crt_combine([a, c])  # t(t+1) is not a prime power
    with pytest.raises(ValueError):
        crt_combine([a, table(dom, ring(2, "t^2"), lambda h: h)])  # repeated prime
    with pytest.raises(ValueError):
        crt_combine([a], modulus=pol(2, "t+1"))  # modulus mismatch


def test_reduce_mod_helper():
    assert reduce_mod(pol(2, "t^3+t"), pol(2, "t^2")) == pol(2, "t")


# ------------------------------------------------- index maps and tables
# small rings over F_2, F_3, F_4 and F_9; 2t^3+2t and ut^2+1 are not monic
INDEXED_RINGS = [(2, "t^4+t^3"), (2, "t^3+t+1"), (3, "2t^3+2t"), (3, "t^2"),
                 (4, "t^3+t"), (4, "t^2+ut"), (9, "ut^2+1"), (9, "t^2+t")]


@pytest.mark.parametrize("q,gtext", INDEXED_RINGS)
def test_ring_tables_match_poly_ops(q, gtext):
    # the digit-built numpy tables of the batched basis reference
    R = ring(q, gtext)
    tables = digit_tables(R)
    assert all(t.shape == (R.size, R.size) for t in tables)
    assert tuple(t.tolist() for t in tables) == ref_ring_tables(R)
    assert digit_tables(R)[2] is tables[2]  # built once per ring


@pytest.mark.parametrize("q,gtext", INDEXED_RINGS)
def test_index_tables_of_column_maps_match_poly_ops(q, gtext):
    # the label maps that crt_split reads, the combine sum_i v_i e_i of
    # crt_combine on every key of the direct sum, the shift of the mul
    # table and a product, each on every source index
    from cpfq.residue import _LABEL_MAPS, _combine_map, _crt_keys

    g = pol(q, gtext)
    moduli = tuple(p ** e for p, e in ResidueRing(g).factorization.factors)
    reps = ResidueRing(g).elements()
    for pe in moduli:
        reduce = _LABEL_MAPS.get(g.degree, pe, table=True)
        assert reduce.tabled
        assert reduce.image(range(len(reps))) == [poly_to_index(h % pe) for h in reps]
    idempotents = []
    for pe in moduli:
        m_i = g.monic() // pe
        idempotents.append(m_i * xgcd(m_i, pe)[1] % g)
    parts = [ResidueRing(pe).elements() for pe in moduli]
    combos = list(itertools.product(*(range(len(els)) for els in parts)))
    want = []
    for ks in combos:
        acc = Poly(g.field)
        for els, k, e_i in zip(parts, ks, idempotents):
            acc = acc + els[k] * e_i
        want.append(poly_to_index(acc % g))
    _, combine = _combine_map(g, moduli)
    assert combine.image(_crt_keys(list(zip(*combos)), moduli)) == want
    one, h = Poly(g.field, [1]), pol(q, "t^2+t+1")
    for image in (lambda v: v.shift(1), lambda v: v * h):
        cmap = ColumnMap(g, [image(one.shift(j)) for j in range(g.degree)])
        assert cmap.image(range(len(reps))) == [poly_to_index(image(v) % g)
                                                for v in reps]


@pytest.mark.parametrize("q,gtext", INDEXED_RINGS)
def test_digit_route_matches_the_index_table(q, gtext):
    # one map by both routes of ColumnMap.image, on every source index
    g, h = pol(q, gtext), pol(q, "t^2+t+1")
    tabled, digits = (ColumnMap(g, [h.shift(j) for j in range(g.degree + 1)])
                      for _ in range(2))
    digits.tabled = False
    every = range(q ** (g.degree + 1))
    assert tabled.image(every) == digits.image(every)
    assert tabled._table is not None and digits._table is None


@pytest.mark.parametrize("q,gtext", [(2, "t^4+t^3"), (3, "2t^3+2t"), (4, "t^3+t"),
                                     (9, "t^3+t^2")])
def test_crt_inverse_undoes_the_split_on_every_residue(q, gtext):
    # the combine map's index table is the inverse of the split
    from cpfq.residue import _combine_map, _crt_keys

    g = pol(q, gtext)
    moduli = tuple(p ** e for p, e in ResidueRing(g).factorization.factors)
    ring_g, combine = _combine_map(g, moduli)
    every = range(ring_g.size)
    splits = [ring_g.labels(pe) for pe in moduli]
    assert combine.image(_crt_keys(splits, moduli)) == list(every)
    assert sorted(combine.image(every)) == list(every)


def test_library_tables_skip_the_validating_constructor(monkeypatch):
    # random_table, crt_split and crt_combine build canonical values
    dom, cod = ring(3, "t^2"), ring(3, "t^3+2t^2+t")
    sig = random_table(dom, cod, random.Random(8))
    vals = list(sig.values)

    def refuse(*args):
        raise AssertionError("validating constructor called")

    monkeypatch.setattr(FunctionTable, "__init__", refuse)
    assert crt_combine(crt_split(random_table(dom, cod, random.Random(8)))).values \
        == tuple(vals)
    monkeypatch.undo()
    assert FunctionTable(dom, cod, vals) == sig
    assert sig.indices == tuple(poly_to_index(v) for v in vals)


@pytest.mark.parametrize("q,ftext,gtext", [
    (2, "t", "t^17+t^16"),     # t^16 (t+1): |A_g| = 2^17
    (3, "t", "2t^11+2t"),      # 2 t (t^10+1): |A_g| = 3^11
])
def test_rings_past_the_bound_keep_the_column_route(q, ftext, gtext):
    # past 2^16 source indices the split and the combine sum steps over
    # each index's digits, with no index table
    from cpfq.residue import _LABEL_MAPS, _combine_map

    dom, cod = ring(q, ftext), ring(q, gtext)
    with pytest.raises(GuardExceeded):
        digit_tables(cod)
    assert cod.element(7) == Poly(cod.field, [7 % q, 7 // q % q, 7 // q ** 2])
    rng = random.Random(19)
    for _ in range(20):
        _check_crt_against_references(random_table(dom, cod, rng))
    g = cod.modulus
    moduli = tuple(part.modulus for part in cod.prime_powers)
    maps = ([_LABEL_MAPS.get(g.degree, pe, table=True) for pe in moduli]
            + [_combine_map(g, moduli)[1]])
    assert not any(m.tabled or m._table is not None for m in maps)


def test_label_maps_are_bounded_in_entries_and_bytes():
    # the process-wide label maps are one LRU bounded in maps and in bytes,
    # index tables included; the check's lookups build no table
    from cpfq.residue import _LABEL_MAPS, _LabelMaps

    assert (_LABEL_MAPS.entries, _LABEL_MAPS.nbytes) == (256, 2 ** 24)
    divisors = [pol(2, f"t^{j}") for j in range(1, 12)]
    few = _LabelMaps(entries=3, nbytes=2 ** 30)
    for h in divisors:
        few.get(12, h, table=True)
    assert [h for _, h in few._maps] == divisors[-3:]
    small = _LabelMaps(entries=256, nbytes=30_000)
    for h in divisors + divisors[-1:]:  # the last one twice
        assert small.get(12, h, table=True)._table is not None  # 2^12 entries
        assert small.held == sum(size for _, size in small._maps.values()) <= 30_000
    assert 1 < len(small._maps) < len(divisors)
    assert small.get(12, pol(2, "t^5+t+1"), table=False)._table is None


def test_crt_split_builds_the_tables_the_check_reads(monkeypatch):
    # the split's maps are the label maps: after a split, the label mod
    # each prime power reads the index table the split built
    monkeypatch.setattr(residue, "_LABEL_MAPS", residue._LabelMaps(256, 2 ** 24))
    dom, cod = ring(3, "t^2"), ring(3, "2t^5+t^3")  # 2 t^3 (t+1) (t+2)
    sig = random_table(dom, cod, random.Random(5))
    parts = crt_split(sig)
    assert parts == ref_crt_split(sig)
    assert len(residue._LABEL_MAPS._maps) == len(parts) == 3
    for part in parts:
        pe = part.codomain.modulus
        cmap, _ = residue._LABEL_MAPS._maps[(cod.modulus.degree, pe)]
        assert cmap._table is not None
        assert cod.label(pe).__self__ is cmap._table


@pytest.mark.parametrize("q,gtext", [(2, "t^4"), (3, "2t^2+2")])  # 2 (t^2+1)
def test_a_prime_power_codomain_splits_as_the_identity(monkeypatch, q, gtext):
    monkeypatch.setattr(residue, "_LABEL_MAPS", residue._LabelMaps(256, 2 ** 24))
    dom, cod = ring(q, "t^2"), ring(q, gtext)
    sig = random_table(dom, cod, random.Random(q))
    [part] = crt_split(sig)
    assert part.indices == sig.indices
    assert part.codomain.modulus == cod.modulus.monic()
    assert not residue._LABEL_MAPS._maps and residue._LABEL_MAPS.held == 0


def test_split_maps_count_toward_the_byte_bound(monkeypatch):
    # three 2^11-entry index tables, of which the bound holds one
    small = residue._LabelMaps(entries=256, nbytes=5_000)
    monkeypatch.setattr(residue, "_LABEL_MAPS", small)
    g = pol(2, "t") ** 4 * pol(2, "t+1") ** 3 * pol(2, "t^2+t+1") ** 2
    dom, cod = ring(2, "t^2"), ResidueRing(g)
    assert len(cod.prime_powers) == 3
    rng = random.Random(6)
    for _ in range(3):
        sig = random_table(dom, cod, rng)
        assert crt_split(sig) == ref_crt_split(sig)
        assert small.held == sum(size for _, size in small._maps.values()) <= small.nbytes
        assert 0 < len(small._maps) < 3
