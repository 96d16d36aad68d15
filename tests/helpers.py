"""Shared shorthand for the test suite: field construction by size q,
polynomial parsing, monic enumeration, reduction mod g, the accessors
that only the tests read (a table's value at a residue, a field
element's coordinates, the product of a factorization, a ColumnMap
applied to a residue), the per-coefficient reference ring ops that the
table-row arithmetic of `Poly` is checked against, the trial-division
factorization that `factorize` is checked against, the full factor shape
that `chen.gamma` and the counts are checked against, the Poly route of the
basis decomposition that `decompose` is checked against and the Poly-op
basis tables of its batched solve, the hand-derived self-Chen closed
forms that the Euler-product counts and density are checked against, the
Poly-op ring tables, CRT split and combine that the digit-built tables
and the `residue.ColumnMap` routes are checked against, the span with
Poly-op generators and numpy row ops that the packed rows of
`PolyFnModule` are checked against (and the decoding of those rows), and
the oracle references that only the tests use: the
Poly-op classes and definitional check that the label maps are checked
against, the all-units census walk, the all-pairs constraint encoding,
the row check of an encoding, the odometer, boolean-broadcast and
full-depth counts that the `_kernels` counts are checked against, the
randrange draws that `random_values` is checked against, decoded table
lists, random polynomial functions, the members of the
polynomial-function span, the digit-relabeled literal route and the
exponent identity."""

from fractions import Fraction
from itertools import product

import numpy as np

from cpfq import _kernels
from cpfq.chen import _gamma_local
from cpfq.counting import QExponent, _cpf_local_exponent, _polyfn_local_exponent
from cpfq.field import field_make
from cpfq.guards import DEFAULT_GUARD
from cpfq.oracle import (CpCheck, CpProblem, _squarefree_test,
                         enumerate_cpf_rows)
from cpfq.polyring import (Poly, _distinct_degree, gcd, index_to_poly, parse,
                           poly_to_index, squarefree_decomposition, valuation,
                           xgcd)
from cpfq.residue import FunctionTable, ResidueRing
from cpfq.wagner import _context, eval_Qk, floor_log, mu

PRIME_POWERS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}


def make_field(q):
    if q in PRIME_POWERS:
        p, m = PRIME_POWERS[q]
        return field_make(p, m)
    return field_make(q)


def pol(q, text):
    return parse(make_field(q), text)


def monic_polys(field, degree):
    """All monic polynomials of exactly the given degree, in index order."""
    q = field.q
    lo = q ** degree
    return [index_to_poly(field, lo + k) for k in range(q ** degree)]


def all_units_lists(field, degree):
    """The coefficient lists of every polynomial of exact degree `degree`,
    by index of the lower coefficients and then by leading coefficient,
    each list new: the walk over every unit that the censuses replace by
    one monic generator per ideal."""
    for low in product(range(field.q), repeat=degree):
        for lead in range(1, field.q):
            yield [*low[::-1], lead]


def monic_upto(field, max_degree, min_degree=1):
    out = []
    for n in range(min_degree, max_degree + 1):
        out.extend(monic_polys(field, n))
    return out


def ring(q, text):
    return ResidueRing(pol(q, text))


def reduce_mod(h, g):
    """Canonical representative of h mod g (deg g >= 1)."""
    return ResidueRing(g).reduce(h)


def table(domain, codomain, fn):
    return FunctionTable.from_callable(domain, codomain, fn)


def value_at(sigma, rep):
    """sigma's value at the domain residue rep."""
    return sigma.values[sigma.domain.index(rep)]


def coeffs_of(field, k):
    """The F_p coordinates of field element k."""
    return field._coords[k]


def reconstruct(fact):
    """The product unit * prod P^e of a Factorization."""
    out = fact.unit
    for p, e in fact.factors:
        out = out * p ** e
    return out


def apply_column_map(cmap, v):
    """The image of the residue v under a ColumnMap, by the digit route."""
    return index_to_poly(cmap.field, cmap.digit_image(poly_to_index(v)))


# ------------------------------------------- reference polynomial ring ops
# One field call per coefficient, each result built by the validating
# constructor Poly(field, coeffs).  Operands share one field.
def ref_add(x, y):
    f = x.field
    a, b = x.coeffs, y.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    return Poly(f, out)


def ref_sub(x, y):
    f = x.field
    n = max(len(x.coeffs), len(y.coeffs))
    out = [0] * n
    for i in range(n):
        a = x.coeffs[i] if i < len(x.coeffs) else 0
        b = y.coeffs[i] if i < len(y.coeffs) else 0
        out[i] = f.sub(a, b)
    return Poly(f, out)


def ref_neg(x):
    f = x.field
    return Poly(f, [f.neg(c) for c in x.coeffs])


def ref_mul(x, y):
    f = x.field
    if not x.coeffs or not y.coeffs:
        return Poly(f)
    out = [0] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(a, b))
    return Poly(f, out)


def ref_divmod(x, y):
    if not y.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    f = x.field
    num = list(x.coeffs)
    den = y.coeffs
    dd = len(den) - 1
    if len(num) < len(den):
        return Poly(f), x
    inv_lead = f.inv(den[-1])
    quo = [0] * (len(num) - dd)
    for shift in range(len(num) - dd - 1, -1, -1):
        c = f.mul(num[shift + dd], inv_lead)
        if c:
            quo[shift] = c
            for i in range(dd + 1):
                num[shift + i] = f.sub(num[shift + i], f.mul(c, den[i]))
    return Poly(f, quo), Poly(f, num[:dd])


# ------------------------------------------- reference factorization
# Trial division by every monic irreducible up to half the degree, in
# (degree, index) order, with the irreducibles sieved the same way.
_REF_IRRED: dict = {}


def ref_monic_irreducibles(field, degree):
    key = (field, degree)
    if key not in _REF_IRRED:
        _REF_IRRED[key] = [
            p for p in monic_polys(field, degree)
            if not any((p % r).is_zero()
                       for d in range(1, degree // 2 + 1)
                       for r in ref_monic_irreducibles(field, d))]
    return _REF_IRRED[key]


def ref_factor_pairs(g):
    """[(P, e), ...] of the monic irreducible factors of g, sorted by
    (degree, index)."""
    field = g.field
    rem = g.monic()
    factors = []
    d = 1
    while 2 * d <= rem.degree:
        for p in ref_monic_irreducibles(field, d):
            e = 0
            while True:
                quo, r = divmod(rem, p)
                if not r.is_zero():
                    break
                rem, e = quo, e + 1
            if e:
                factors.append((p, e))
        d += 1
    if rem.degree >= 1:
        factors.append((rem, 1))
    factors.sort(key=lambda pe: (pe[0].degree, poly_to_index(pe[0])))
    return factors


def ref_is_self_chen(g):
    """The self-Chen condition read off the reference factorization."""
    for p, e in ref_factor_pairs(g):
        if g.field.q == 2 and (e >= 3 or (p.degree >= 2 and e >= 2)):
            return False
        if g.field.q != 2 and e >= 2:
            return False
    return True


def factor_shape(g):
    """The sorted (degree, exponent) pairs of the irreducible factors of g,
    with repeats, by the whole square-free and distinct-degree walk."""
    shape = []
    for s, k in squarefree_decomposition(g):
        for d, u in _distinct_degree(s):
            shape += [(d, k)] * (u.degree // d)
    return tuple(sorted(shape))


def ref_gamma(g):
    """gamma(g) as the minimum of the local thresholds over the whole shape."""
    return min(_gamma_local(g.field.q, d, e) for d, e in factor_shape(g))


def ref_count_exponents(g, max_n):
    """[(exponent of count_cpf, of count_polyfn) for deg f = n = 1..max_n],
    summed over the whole shape of g."""
    q, shape = g.field.q, factor_shape(g)
    return [(sum(_cpf_local_exponent(n, q, d, e) for d, e in shape),
             sum(_polyfn_local_exponent(n, q, d, e) for d, e in shape))
            for n in range(1, max_n + 1)]


# ------------------------------------------- reference self-Chen closed forms
def ref_chen_self_count_q2(n):
    """Self-Chen polynomials of degree n over F_2: a table up to n = 3, then
    (49 * 2^(n-3) + (-1)^(n-1) (3n - 13)) / 9."""
    if n <= 3:
        return (1, 2, 4, 6)[n]
    num = 49 * 2 ** (n - 3) + (-1) ** (n - 1) * (3 * n - 13)
    assert num % 9 == 0, n
    return num // 9


def ref_density(q):
    """Limit density of self-Chen moduli: 49/72 at q = 2, (q - 1)/q otherwise."""
    return Fraction(49, 72) if q == 2 else Fraction(q - 1, q)


# ------------------------------------------- reference basis decomposition
# Every B_i(b_k) from eval_Qk's exact products, then triangular
# substitution along the b-sequence with Poly sub/mul/reduce.
def ref_basis_table(seq, e, n):
    """T[i][k] = B_i(b_k) for i, k < q^n (zero for i > k)."""
    dom = seq.domain(n)
    zero = Poly(seq.field)
    return [[eval_Qk(seq.p, e, i, dom[k], seq) if i <= k else zero
             for k in range(len(dom))] for i in range(len(dom))]


def ref_decompose(sigma, seq, table):
    """(coefficients, valuations, cpf failures) of sigma: A_f -> A_{P^e}
    in the basis of `seq`, with table = ref_basis_table(seq, e, deg f)."""
    p, e = sigma.codomain.factorization.factors[0]
    cod = ResidueRing(p ** e)
    dom = seq.domain(sigma.domain.modulus.degree)
    coeffs = []
    for k in range(len(dom)):
        acc = cod.reduce(sigma.values[poly_to_index(dom[k])])
        for i in range(k):
            acc = cod.sub(acc, cod.mul(coeffs[i], table[i][k]))
        coeffs.append(acc)
    vals = [valuation(p, c, check=False) for c in coeffs]
    failures = [k for k in range(1, len(coeffs))
                if vals[k] < mu(k, p.field.q, p.degree)]
    return coeffs, vals, failures


def recompose(coeffs, domain):
    """The table of sum_k c_k B_k (the inverse of decompose), by Poly ring
    ops of A_{P^e} over the basis context's columns."""
    ctx = _context(coeffs.seq, coeffs.e, coeffs.deg_f)
    ring = ctx.ring
    values = [None] * len(ctx.positions)
    for pos, col in zip(ctx.positions, ctx.columns):
        acc = Poly(ring.field)
        for c, t in zip(coeffs.coefficients, col):
            acc = ring.add(acc, ring.mul(c, index_to_poly(ring.field, t)))
        values[pos] = acc
    return FunctionTable(domain, ring, values)


def ref_basis_tables(ctx):
    """(mul, sub, val) of `_BasisContext.tables()` by one Poly ring op of

    A_{P^e} per entry, with val[a] = v_P(a_a) (inf at 0)."""
    ring = ctx.ring
    polys = ring.elements()

    def table(fn):
        return np.array([[poly_to_index(fn(a, b)) for b in polys] for a in polys],
                        dtype=np.int16)

    val = np.array([ctx.residue(a)[1] for a in range(ring.size)])
    return table(ring.mul), table(ring.sub), val


# ------------------------------------------- oracle references
# the enumeration cells of the acceptance grid
GRID_CELLS = [(2, ftext, gtext) for ftext in ("t", "t^2")
              for gtext in ("t", "t+1", "t^2", "t^2+t", "t^2+t+1", "t^3", "t^3+t^2")]


# ------------------------------------------- residue map references
def ref_ring_tables(ring):
    """(add, sub, mul) of `ResidueRing.tables()` as nested lists, by one
    Poly ring op per entry."""
    els = ring.elements()
    return tuple([[poly_to_index(op(a, b)) for b in els] for a in els]
                 for op in (ring.add, ring.sub, ring.mul))


def ref_crt_split(sigma):
    """crt_split by one Poly reduction per value."""
    return [FunctionTable(sigma.domain, ring, [ring.reduce(v) for v in sigma.values])
            for ring in sigma.codomain.prime_powers]


def ref_crt_combine(tables, modulus):
    """crt_combine into A_modulus by Poly ring ops: sum_i v_i e_i mod g,

    each e_i = 1 mod its prime power and 0 mod the others by one xgcd."""
    ring = ResidueRing(modulus)
    acc = [Poly(ring.field)] * tables[0].domain.size
    for tb in tables:
        pe = tb.codomain.modulus
        m_i = modulus.monic() // pe
        _, x, _ = xgcd(m_i, pe)
        e_i = ring.reduce(m_i * x)
        acc = [ring.add(a, ring.mul(v, e_i)) for a, v in zip(acc, tb.values)]
    return FunctionTable(tables[0].domain, ring, acc)


class RefPolyFnModule:
    """The polynomial-function span by a second route: the generators by
    Poly ring ops (each monomial table, its multiples by t and by u, every
    value reduced mod g), each an int64 numpy vector of F_p coordinates in
    the lane order of `PolyFnModule`'s rows, and the elimination by numpy
    row ops.  A row space has one reduced echelon basis, so both builds
    must end with the same pivot rows."""

    def __init__(self, domain, codomain):
        field = domain.field
        self.domain, self.codomain = domain, codomain
        self.p, self._m = field.p, field.m
        self._degg = codomain.modulus.degree
        self.length = domain.size * self._degg * self._m
        self._pivots = {}
        g = codomain.modulus
        reps = domain.elements()
        t = Poly(field, [0, 1])
        u = Poly(field, [field.from_coeffs([0, 1])]) if field.m > 1 else None
        monomial = [Poly(field, [1]) % g for _ in reps]
        seen = set()
        self.n_monomials = 0
        while len(self._pivots) < self.length:
            key = tuple(poly_to_index(v) for v in monomial)
            if key in seen:
                break
            seen.add(key)
            self.n_monomials += 1
            scaled_a = list(monomial)
            for _ in range(self._degg):
                scaled_b = list(scaled_a)
                for _ in range(self._m):
                    self._add_row(self._encode_values(list(map(poly_to_index, scaled_b))))
                    if u is not None:
                        scaled_b = [(v * u) % g for v in scaled_b]
                scaled_a = [(v * t) % g for v in scaled_a]
            monomial = [(v * r) % g for v, r in zip(monomial, reps)]

    def _encode_values(self, indices):
        """The F_p vector of a table given by its values' A_g indices (one
        per row, for a list of tables): the F_p coordinates of each value's
        deg g base-q digits, lowest first."""
        field = self.domain.field
        indices = np.asarray(indices, dtype=np.int64)
        digits = indices[..., None] // field.q ** np.arange(self._degg) % field.q
        coords = np.asarray(field._coords, dtype=np.int64)[digits]
        return coords.reshape(indices.shape[:-1] + (-1,))

    def _reduce(self, vec):
        """vec less its pivot coordinates times the pivot rows, mod p; the
        rows are in reduced echelon form, so each coordinate is read once."""
        vec = vec % self.p
        pivots = list(self._pivots)
        for piv, c in zip(pivots, vec[pivots].tolist()):
            if c:
                vec -= c * self._pivots[piv]
        vec %= self.p
        return vec

    def _add_row(self, vec):
        vec = self._reduce(vec)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(vec[piv]), self.p - 2, self.p) if self.p > 2 else 1
        vec = (vec * inv) % self.p
        for other_piv, row in list(self._pivots.items()):
            c = int(row[piv])
            if c:
                self._pivots[other_piv] = (row - c * vec) % self.p
        self._pivots[piv] = vec
        return True

    @property
    def rank(self):
        return len(self._pivots)

    def contains(self, sigma):
        return not self._reduce(self._encode_values(sigma.indices)).any()


def span_rows(module):
    """The pivot rows of a PolyFnModule, by pivot coordinate, each decoded
    from its packed int to the list of its F_p coordinates."""
    return {piv: list(row.to_bytes(module.length, "little"))
            for piv, row in module._pivots.items()}


def ref_classes(ring, h):
    """ResidueRing.classes by one Poly reduction per residue: the residue
    indices grouped by their residue mod h, each group in index order, the
    groups by their first member."""
    groups: dict = {}
    for i, r in enumerate(ring.elements()):
        groups.setdefault(r % h, []).append(i)
    return tuple(map(tuple, groups.values()))


def ref_is_congruence_preserving(sigma):
    """is_congruence_preserving as the definition reads, by one Poly
    subtraction and divmod per pair of a class of A_f mod each divisor;
    returns the first counterexample triple when the check fails."""
    reps = sigma.domain.elements()
    for h in sigma.codomain.divisors:
        for members in ref_classes(sigma.domain, h):
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    i, j = members[a], members[b]
                    diff = sigma.values[i] - sigma.values[j]
                    if not (diff % h).is_zero():
                        return CpCheck(False, h, reps[i], reps[j])
    return CpCheck(True)


def ref_encode_cp_problem(domain, codomain):
    """The all-pairs encoding: every pair i < j of a class of A_f mod each
    divisor h, with one table of labels index(a_k mod h) over the larger
    ring serving the domain classes and cod_class."""
    divisors = codomain.divisors
    reps = max(domain, codomain, key=lambda ring: ring.size).elements()
    labels = np.array([[poly_to_index(r % h) for r in reps] for h in divisors],
                      dtype=np.int64)
    dom_class = labels[:, :domain.size]
    by_pos = [[] for _ in range(domain.size)]
    for hi in range(len(divisors)):
        classes = {}
        for i in range(domain.size):
            classes.setdefault(int(dom_class[hi, i]), []).append(i)
        for members in classes.values():
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    by_pos[members[b]].append((members[a], hi))
    ptr = [0]
    src = []
    div = []
    for j in range(domain.size):
        for i, hi in by_pos[j]:
            src.append(i)
            div.append(hi)
        ptr.append(len(src))
    return CpProblem(domain, codomain, divisors,
                     np.asarray(ptr, dtype=np.int64),
                     np.asarray(src, dtype=np.int64),
                     np.asarray(div, dtype=np.int64),
                     labels[:, :codomain.size])


def check_row(prob, row):
    """Whether one table row of A_g residue indices meets every constraint

    of the encoding prob, checked one constraint at a time."""
    for j in range(len(row)):
        for c in range(prob.cons_ptr[j], prob.cons_ptr[j + 1]):
            h = prob.cons_div[c]
            if prob.cod_class[h, row[j]] != prob.cod_class[h, row[prob.cons_src[c]]]:
                return False
    return True


def ref_count_exhaustive(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """The odometer count: every one of the C^D rows, in chunks of
    _kernels._CHUNK, as D digit arrays checked constraint by constraint."""
    total = C ** D
    count = 0
    flat = [(j, cons_src[c], cons_div[c])
            for j in range(D) for c in range(cons_ptr[j], cons_ptr[j + 1])]
    for start in range(0, total, _kernels._CHUNK):
        idx = np.arange(start, min(start + _kernels._CHUNK, total), dtype=np.int64)
        digits = [(idx // C ** j) % C for j in range(D)]
        valid = np.ones(idx.shape[0], dtype=bool)
        for j, i, h in flat:
            valid &= cod_class[h][digits[j]] == cod_class[h][digits[i]]
        count += int(valid.sum())
    return count


def ref_count_broadcast(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """The boolean-broadcast count that the packed words of
    `_kernels.count_exhaustive` replaced: one boolean tensor of shape
    (C,)*rest with C^rest <= _kernels._CHUNK per value of the leading
    positions; each constraint ANDs in the C x C matrix "agree mod h" on
    the axes of its two positions, or the row or entry that the values of
    its leading positions pick."""
    rest = 1
    while rest < D and C ** (rest + 1) <= _kernels._CHUNK:
        rest += 1
    lead = D - rest
    eq = [cls[:, None] == cls[None, :] for cls in cod_class]
    flat = [(i, j, eq[h], [C if lead + a in (i, j) else 1 for a in range(rest)])
            for j in range(D)
            for i, h in zip(cons_src[cons_ptr[j]:cons_ptr[j + 1]],
                            cons_div[cons_ptr[j]:cons_ptr[j + 1]])]
    count = 0
    for head in product(range(C), repeat=lead):
        at = head + (slice(None),) * rest
        valid = np.ones((C,) * rest, dtype=bool)
        for i, j, m, shape in flat:
            valid &= m[at[i], at[j]].reshape(shape)
        count += int(np.count_nonzero(valid))
    return count


def ref_count_backtracking(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """The full-depth count: every valid prefix is walked depth-first in
    blocks of about _kernels._CHUNK // C and the last position counted.
    A block grows by every value at the next position, and the grown rows
    that break one of its constraints are dropped."""
    block = max(1, _kernels._CHUNK // C)
    count = 0
    stack = [(0, np.zeros((1, 0), dtype=np.int64))]
    while stack:
        j, rows = stack.pop()
        grown = np.column_stack([np.repeat(rows, C, axis=0),
                                 np.tile(np.arange(C), len(rows))])
        keep = np.ones(len(grown), dtype=bool)
        for c in range(cons_ptr[j], cons_ptr[j + 1]):
            cls = cod_class[cons_div[c]]
            keep &= cls[grown[:, j]] == cls[grown[:, cons_src[c]]]
        if j == D - 1:
            count += int(keep.sum())
            continue
        grown = grown[keep]
        for start in range(0, len(grown), block):
            stack.append((j + 1, grown[start:start + block]))
    return count


def enumerate_cpf_tables(f, g, guard=DEFAULT_GUARD):
    """All congruence-preserving tables, decoded from enumerate_cpf_rows."""
    dom, cod = ResidueRing(f), ResidueRing(g)
    values = cod.elements()
    return [FunctionTable(dom, cod, [values[v] for v in row])
            for row in enumerate_cpf_rows(dom, cod, guard).tolist()]


def apply_coeff_poly(coeffs, h, g):
    """Evaluate F(h) mod g for F given by A-coefficients (low degree first)."""
    acc = Poly(h.field)
    for c in reversed(list(coeffs)):
        acc = (acc * h + c) % g
    return acc


def ref_random_values(domain, codomain, rng, samples):
    """samples * |A_f| A_g indices, one rng.randrange(|A_g|) per value."""
    return [rng.randrange(codomain.size) for _ in range(samples * domain.size)]


def random_polynomial_function(domain, codomain, rng, n_coeffs=None):
    """sigma(hbar) = F(h) mod g for F with random A_g coefficients."""
    if n_coeffs is None:
        n_coeffs = domain.size + 1
    coeffs = [codomain.element(rng.randrange(codomain.size))
              for _ in range(n_coeffs)]
    g = codomain.modulus
    return FunctionTable(domain, codomain,
                         [apply_coeff_poly(coeffs, h, g) for h in domain.elements()])


def polyfn_members(module):
    """Every function of a PolyFnModule: each F_p combination of its
    reduced basis, decoded block by block (deg g coefficients of m
    coordinates per domain representative)."""
    field, p = module.domain.field, module.p
    vectors = [np.zeros(module.length, dtype=np.int64)]
    for row in span_rows(module).values():
        vectors = [(v + c * np.asarray(row)) % p for v in vectors for c in range(p)]
    m, block = field.m, module.codomain.modulus.degree * field.m
    tables = []
    for vec in vectors:
        values = []
        for start in range(0, module.length, block):
            chunk = [int(c) for c in vec[start:start + block]]
            values.append(Poly(field, [field.from_coeffs(chunk[a:a + m])
                                       for a in range(0, block, m)]))
        tables.append(FunctionTable(module.domain, module.codomain, values))
    return tables


def is_squarefree_gcd(g):
    """The census's gcd square-freeness test on g, packed as the census
    packs its candidates (over F_2 the index, otherwise the coefficients)."""
    packed = poly_to_index(g) if g.field.q == 2 else list(g.coeffs)
    return _squarefree_test(g.field)(packed)


def ref_census_all_units(field, n):
    """The gcd square-freeness test on every degree-n polynomial over F_q
    (q > 2), every leading coefficient walked: the count that the census's
    one monic generator per ideal, times the q - 1 units, is checked against."""
    return sum(map(_squarefree_test(field), all_units_lists(field, n)))


def relabeled_index_to_poly(field, k, order):
    """a_k with each base-q digit c of k read as the field index order[c];
    order is a permutation of 0..q-1 fixing 0, so a_0 = 0 stays first."""
    if (len(order) != field.q or set(order) != set(range(field.q))
            or order[0] != 0):
        raise ValueError("order must be a permutation of 0..q-1 starting at 0")
    return Poly(field, [order[c] for c in index_to_poly(field, k).coeffs])


def relabeled_count_polyfn_literal(f, g, order):
    """count_polyfn_literal with the generalized factorials k! taken over
    the relabeled a_k; N does not depend on the labeling (Bhargava's
    P-orderings, J. reine angew. Math. 490, 1997)."""
    field, qn = f.field, f.field.q ** f.degree
    gm = g.monic()
    total = 0
    for k in range(1, qn):
        ak = relabeled_index_to_poly(field, k, order)
        fact = Poly(field, [1])
        for i in range(k):
            fact = fact * (ak - relabeled_index_to_poly(field, i, order)) % gm
        total += gcd(gm, fact).degree
    return QExponent(field.q, qn * g.degree - total)


def exponent_identity_check(n, e, d, q):
    """(q-1) * sum_{k=1}^{n-1} q^k min(e, floor(k/d))
       == sum_{k=1}^{q^n - 1} min(e, floor(floor(log_q k) / d))."""
    lhs = (q - 1) * sum(q ** k * min(e, k // d) for k in range(1, n))
    rhs = sum(min(e, floor_log(q, k) // d) for k in range(1, q ** n))
    return lhs == rhs
