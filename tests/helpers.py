"""Shared shorthand for the test suite: field construction by size q,
polynomial parsing, monic enumeration, reduction mod g, the accessors
that only the tests read (a table's value at a residue, a field
element's coordinates, the product of a factorization, a ColumnMap
applied to a residue), the per-coefficient reference ring ops that the
table-row arithmetic of `Poly` is checked against, the Euclid through
`_divmod_lists` that the remainder-only `_gcd_lists` is checked against,
the shift-XOR divmod and gcd of packed F_2 polynomials, the trial-division
factorization that `factorize` is checked against, the full factor shape
that `chen.gamma` and the counts are checked against, the Poly route of the
basis decomposition that `decompose` is checked against, the batched
numpy solve on digit-built ring tables that `verify_basis` is checked
against (with the Poly-op tables it is checked against in turn), the
hand-derived self-Chen closed forms that the Euler-product counts and
density are checked against, the Poly-op CRT split and combine that the
`residue.ColumnMap` routes are checked against, the span with Poly-op
generators and numpy row ops that the packed rows of `PolyFnModule` are
checked against (and the decoding of those rows), and the oracle
references that only the tests use: the Poly-op classes and definitional
check that the label maps are checked against, the all-units census
walk, the per-candidate gcd census and the F_2 census by valuations that
the sieve and the prefix census are checked against, the all-pairs
constraint encoding, the row check of an encoding, the odometer,
boolean-broadcast, packed-word, blocked and full-depth numpy counts that
the `_kernels` counts are checked against, the
congruence-preserving tables as rows of the enumeration kernel, decoded
or not, one random table, the randrange draws that `random_values` is
checked against, random polynomial functions, the members of the
polynomial-function span, the digit-relabeled literal route, the
exponent identity and the counts into one prime power A_{P^e}."""

import functools
from fractions import Fraction
from itertools import product

import numpy as np

from cpfq import _kernels
from cpfq._record import FrozenRecord, setfield
from cpfq.chen import _gamma_local
from cpfq.counting import (QExponent, _cpf_local_exponent, _polyfn_local_exponent,
                           _require_modulus_degree)
from cpfq.field import field_make
from cpfq.guards import DEFAULT_GUARD, check_basis_tables, check_samples
from cpfq.oracle import CpCheck, CpProblem, _cp_verdicts, _kernel_args, random_values
from cpfq.polyring import (Poly, _degree_n_lists, _derivative_f2, _derivative_lists,
                           _distinct_degree, _divmod_lists, _gcd_lists, gcd, index_to_poly,
                           is_irreducible, parse, poly_to_index,
                           squarefree_decomposition, valuation, xgcd)
from cpfq.residue import ColumnMap, FunctionTable, ResidueRing
from cpfq.wagner import _context, _prime_power_context, eval_Qk, floor_log, mu

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


def ref_gcd_lists(f, x, y):
    """Euclid on coefficient lists through _divmod_lists, each step taking
    a quotient it throws away: the route that polyring._gcd_lists, which
    keeps only the remainders, is checked against; both lists are
    consumed."""
    while y:
        _divmod_lists(f, x, y)
        x, y = y, x
    return x


# F_2[t] packed as in the censuses: a polynomial is the int whose bit k is
# its t^k coefficient.  Addition is XOR and multiplication by t^s a shift.
def _divmod_f2(a, b):
    """(quotient, remainder) of a by a nonzero b, by shift-XOR."""
    db = b.bit_length()
    quo = 0
    while True:
        s = a.bit_length() - db
        if s < 0:
            return quo, a
        quo |= 1 << s
        a ^= b << s


def _gcd_f2(a, b):
    """gcd by Euclid on _divmod_f2 (monic: F_2 has one unit)."""
    while b:
        a, b = b, _divmod_f2(a, b)[1]
    return a


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


def _local_count(exponent, f, p, e):
    n = _require_modulus_degree(f, "f")
    d = _require_modulus_degree(p, "P")
    if not is_irreducible(p):
        raise ValueError("P must be irreducible")
    if e < 1:
        raise ValueError("exponent must be >= 1")
    return QExponent(f.field.q, exponent(n, f.field.q, d, e))


def count_cpf_local(f, p, e):
    """count_cpf for the prime power codomain modulus p^e, without
    expanding the power."""
    return _local_count(_cpf_local_exponent, f, p, e)


def count_polyfn_local(f, p, e):
    """count_polyfn for the prime power codomain modulus p^e."""
    return _local_count(_polyfn_local_exponent, f, p, e)


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
    """(mul, sub, val) of `context_tables(ctx)` by one Poly ring op of

    A_{P^e} per entry, with val[a] = v_P(a_a) (inf at 0)."""
    ring = ctx.ring
    polys = ring.elements()

    def table(fn):
        return np.array([[poly_to_index(fn(a, b)) for b in polys] for a in polys],
                        dtype=np.int16)

    val = np.array([ctx.residue(a)[1] for a in range(ring.size)])
    return table(ring.mul), table(ring.sub), val


# ------------------------------------------- batched basis solve
# The numpy route that `wagner.verify_basis` ran before its walk: dense
# digit-built operation tables of A_{P^e}, one triangular substitution on
# a (B, N) array of tables, and the mu-verdict of every row.
@functools.lru_cache(maxsize=32)
def digit_tables(ring):
    """(add, sub, mul): read-only numpy tables of the ring operations of A
    on residue indices, refused past |A|^2 = 2^20 (guards.check_basis_tables)
    and built once per ring by base-q digits with no Poly op per entry: add
    and sub digit by digit in F_q; row a of mul is the index table of the
    F_q-linear map b -> a b, whose column j is a t^j mod g, the index map
    of `times t` applied j times to a."""
    field, n = ring.field, ring.modulus.degree
    check_basis_tables(field.q, n)
    add = _digitwise(field._add, n)
    sub = _digitwise([[row[y] for y in field._neg] for row in field._add], n)
    scale = [_digitwise(row, n) for row in field._mul]  # c * x
    one = Poly(field, [1])
    times_t = np.array(ColumnMap(ring.modulus, [one.shift(j + 1) for j in range(n)])
                       .image(range(ring.size)))
    mul = np.zeros((ring.size, 1), dtype=np.int16)
    shifted = np.arange(ring.size)  # a t^j mod g, for j = 0 .. n-1
    for _ in range(n):
        mul = np.concatenate(
            [mul] + [add[mul, scale[c][shifted][:, None]]
                     for c in range(1, field.q)], axis=1)
        shifted = times_t[shifted]
    for table in (add, sub, mul):
        table.flags.writeable = False  # shared by every caller
    return add, sub, mul


def _digitwise(base, n):
    """The numpy table, with one axis of q^n residue indices per operand,

    of an F_q operation applied digit by digit, from its table `base` on
    F_q (one axis of q entries per operand): each step appends a lowest
    digit on every axis, out[q x + a, ...] = q out[x, ...] + base[a, ...]."""
    base = np.array(base, dtype=np.int16)
    q, k = base.shape[0], base.ndim
    out = base
    for _ in range(n - 1):
        m = out.shape[0]
        out = (q * out.reshape((m, 1) * k) + base.reshape((1, q) * k)
               ).reshape((m * q,) * k)
    return out


def context_tables(ctx):
    """(mul, sub, val) of A_{P^e} on indices for the batched solve: the
    ring's digit tables and val[a] = v_P(a_a) (inf at 0)."""
    _, sub, mul = digit_tables(ctx.ring)
    val = np.array([ctx.residue(a)[1] for a in range(ctx.ring.size)])
    return mul, sub, val


def solve(ctx, values):
    """`coordinates` of B tables at once: values is a (B, N) int array of

    A_{P^e} indices, each row listed like A_f; row b of the (B, N) result
    is `ctx.coordinates(values[b])`."""
    mul, sub, _ = context_tables(ctx)
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 2 or values.shape[1] != len(ctx.positions):
        raise ValueError(f"expected (B, {len(ctx.positions)}) values, "
                         f"got shape {values.shape}")
    if values.size and not 0 <= values.min() <= values.max() < ctx.ring.size:
        raise ValueError("values are not residue indices of A_{P^e}")
    out = np.empty(values.shape, dtype=np.int64)
    for k, (pos, col) in enumerate(zip(ctx.positions, ctx.columns)):
        acc = values[:, pos]
        for i, t in enumerate(col[:k]):
            if t:
                acc = sub[acc, mul[out[:, i], t]]
        out[:, k] = acc
    return out


class BasisBatch(FrozenRecord):
    """Coordinates of B functions A_f -> A_{P^e}: row b of the (B, N) int
    array `coefficients` lists the residue indices of c_0 .. c_{N-1} of
    table b in b-sequence order, with v_P(c_k) in the (B, N) float array
    `valuations` (inf for c_k = 0) and mu(k) in the (N,) int array `mus` (0
    at k = 0, which asks nothing).  Equal only to itself."""

    _fields = ("coefficients", "valuations", "mus")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, coefficients, valuations, mus):
        setfield(self, "coefficients", coefficients)
        setfield(self, "valuations", valuations)
        setfield(self, "mus", mus)

    def is_cpf(self):
        """Per table, v_P(c_k) >= mu(k) for every k >= 1."""
        return (self.valuations >= self.mus).all(axis=1)


def decompose_rows(values, codomain, n, seq=None):
    """`decompose` of B tables A_f -> A_g (deg f = n, g = P^e up to a unit)

    in one batched triangular substitution: values is a (B, q^n) int array
    of A_g residue indices, each row listed like A_f, as the rows of
    `enumerate_cpf_rows`."""
    ctx = _prime_power_context(codomain, n, seq)
    coords = solve(ctx, values)
    return BasisBatch(coords, context_tables(ctx)[2][coords],
                      np.array((0,) + ctx.mus[1:], dtype=np.int64))


def ref_verify_basis(f, g, rng, samples, guard=DEFAULT_GUARD):
    """`wagner.verify_basis` by the batched solve: the enumerated CP rows
    and the random samples judged in one `decompose_rows`."""
    dom, cod = ResidueRing(f), ResidueRing(g)
    guard.check_degrees(f, g)
    guard.check_total_functions(dom.size, cod.size)
    check_samples(f.field.q, f.degree, samples)
    rows = np.array(enumerate_cpf_rows(dom, cod, guard=guard),
                    dtype=np.int64).reshape(-1, dom.size)
    values = random_values(dom, cod, rng, samples)
    tables = np.array(values, dtype=np.int64).reshape(samples, dom.size)
    by_basis = decompose_rows(np.concatenate([rows, tables]), cod, f.degree).is_cpf()
    all_cp_pass = bool(by_basis[:len(rows)].all())
    agree = int((by_basis[len(rows):] == _cp_verdicts(dom, cod, values)).sum())
    return {"cp_tables": len(rows), "all_cp_pass": all_cp_pass, "samples": samples,
            "agreements": agree, "match": all_cp_pass and agree == samples}


# ------------------------------------------- oracle references
# the enumeration cells of the acceptance grid
GRID_CELLS = [(2, ftext, gtext) for ftext in ("t", "t^2")
              for gtext in ("t", "t+1", "t^2", "t^2+t", "t^2+t+1", "t^3", "t^3+t^2")]


# ------------------------------------------- residue map references
def ref_ring_tables(ring):
    """(add, sub, mul) of `digit_tables(ring)` as nested lists, by one
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
            for piv, row in module._space.pivots.items()}


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
    return CpProblem(domain, codomain, divisors, tuple(ptr), tuple(src), tuple(div),
                     tuple(tuple(map(int, row[:codomain.size])) for row in labels))


def check_row(prob, row):
    """Whether one table row of A_g residue indices meets every constraint

    of the encoding prob, checked one constraint at a time."""
    for j in range(len(row)):
        for c in range(prob.cons_ptr[j], prob.cons_ptr[j + 1]):
            labels = prob.cod_class[prob.cons_div[c]]
            if labels[row[j]] != labels[row[prob.cons_src[c]]]:
                return False
    return True


# the rows that the numpy references hold at once: tables per chunk of
# the odometer and the broadcast, and about that many per block of the
# blocked walks
REF_CHUNK = 1 << 18


def numpy_args(D, C, cons_ptr, cons_src, cons_div, cod_class):
    """The kernel arguments as the int64 arrays of the numpy references."""
    return (D, C) + tuple(np.asarray(a, dtype=np.int64).reshape(-1) for a in
                          (cons_ptr, cons_src, cons_div)) + (
        np.asarray(cod_class, dtype=np.int64),)


def ref_count_exhaustive(*args):
    """The odometer count: every one of the C^D rows, in chunks of
    REF_CHUNK, as D digit arrays checked constraint by constraint."""
    D, C, cons_ptr, cons_src, cons_div, cod_class = numpy_args(*args)
    total = C ** D
    count = 0
    flat = [(j, cons_src[c], cons_div[c])
            for j in range(D) for c in range(cons_ptr[j], cons_ptr[j + 1])]
    for start in range(0, total, REF_CHUNK):
        idx = np.arange(start, min(start + REF_CHUNK, total), dtype=np.int64)
        digits = [(idx // C ** j) % C for j in range(D)]
        valid = np.ones(idx.shape[0], dtype=bool)
        for j, i, h in flat:
            valid &= cod_class[h][digits[j]] == cod_class[h][digits[i]]
        count += int(valid.sum())
    return count


def ref_count_broadcast(*args):
    """The boolean-broadcast count that the packed words of
    `ref_count_packed` replaced: one boolean tensor of shape (C,)*rest with
    C^rest <= REF_CHUNK per value of the leading positions; each constraint
    ANDs in the C x C matrix "agree mod h" on the axes of its two
    positions, or the row or entry that the values of its leading
    positions pick."""
    D, C, cons_ptr, cons_src, cons_div, cod_class = numpy_args(*args)
    rest = 1
    while rest < D and C ** (rest + 1) <= REF_CHUNK:
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


def ref_count_packed(*args):
    """The packed-word count that the int blocks of
    `_kernels.count_exhaustive` replaced: 64 tables to a uint64 word.  The
    last w positions (the fewest with C^w >= 64, or all D) are packed: bit
    b of a block of ceil(C^w / 64) words is the row whose packed position k
    holds b // C^k % C.  A chunk is a word tensor of shape (C,)*mid +
    (words,) holding C^(mid + w) <= REF_CHUNK rows, one per value of the
    leading positions before it.  A constraint between two packed positions
    is one constant mask of the block; one from an unpacked position into
    the block is a mask per value of that position; one between two
    unpacked positions is the C x C matrix "agree mod h", as all-ones or
    zero words on the axes of its positions.  What no leading position
    enters is ANDed once; in each chunk a leading position picks its mask,
    or the row of its matrix, which selects the values of a mid axis."""
    D, C, cons_ptr, cons_src, cons_div, cod_class = numpy_args(*args)
    w = 1
    while w < D and C ** w < 64:
        w += 1
    mid = 0
    while mid + w < D and C ** (mid + w + 1) <= REF_CHUNK:
        mid += 1
    base, lead = D - w, D - w - mid
    onehot = []
    for k in range(w):
        run = (1 << C ** k) - 1
        repeat = sum(1 << m * C ** (k + 1) for m in range(C ** (w - k - 1)))
        onehot.append([(run << v * C ** k) * repeat for v in range(C)])
    nwords = -(-C ** w // 64)
    full = (1 << C ** w) - 1
    labels = cod_class.tolist()
    src, div, ptr = cons_src.tolist(), cons_div.tolist(), cons_ptr.tolist()

    def words(masks):
        return np.frombuffer(b"".join(m.to_bytes(8 * nwords, "little") for m in masks),
                             dtype="<u8")

    classes = {}

    def by_label(k, h):
        if (k, h) not in classes:
            out = classes[k, h] = {}
            for v, lab in enumerate(labels[h]):
                out[lab] = out.get(lab, 0) | onehot[k][v]
        return classes[k, h]

    const, rows, pairs = full, {}, {}
    for j in range(D):
        for i, h in zip(src[ptr[j]:ptr[j + 1]], div[ptr[j]:ptr[j + 1]]):
            if j < base:
                eq = np.equal.outer(cod_class[h], cod_class[h])
                pairs[i, j] = pairs[i, j] & eq if (i, j) in pairs else eq
            elif i >= base:
                a, b = by_label(i - base, h), by_label(j - base, h)
                const &= sum(a[lab] & b[lab] for lab in a)
            else:
                b = by_label(j - base, h)
                rows[i] = [r & b[lab] for r, lab in
                           zip(rows.get(i, [full] * C), labels[h])]

    def axes(*pos):
        return [C if lead + a in pos else 1 for a in range(mid)]

    fixed = np.empty((C,) * mid + (nwords,), dtype=np.uint64)
    fixed[...] = words([const])
    checks, selects, masks = [], {}, []
    for (i, j), m in pairs.items():
        if i >= lead:
            fixed &= np.where(m, ~np.uint64(0), np.uint64(0)).reshape(axes(i, j) + [1])
        elif j < lead:
            checks.append((i, j, m))
        else:
            selects.setdefault(j - lead, []).append((i, m))
    for i, row in rows.items():
        if i >= lead:
            fixed &= words(row).reshape(axes(i) + [-1])
        else:
            masks.append((i, words(row).reshape(C, nwords)))

    def set_bits(chunk):
        return int(np.count_nonzero(np.unpackbits(chunk.view(np.uint8))))

    if not (checks or selects or masks):   # every chunk is fixed
        return C ** lead * set_bits(fixed)
    count = 0
    for head in product(range(C), repeat=lead):
        if not all(m[head[i], head[j]] for i, j, m in checks):
            continue
        chunk = fixed
        for a, terms in selects.items():
            chunk = chunk.compress(functools.reduce(
                np.logical_and, (m[head[i]] for i, m in terms)), axis=a)
        for i, m in masks:
            chunk = chunk & m[head[i]]
        count += set_bits(chunk)
    return count


def _extend(rows, j, C, cons_ptr, cons_src, cons_div, cod_class):
    """(n, C) mask of the values position j may take after each of the n
    prefixes in rows (shape (n, k), k past every position j refers to)."""
    mask = np.ones((rows.shape[0], C), dtype=bool)
    for c in range(cons_ptr[j], cons_ptr[j + 1]):
        cls = cod_class[cons_div[c]]
        mask &= cls[rows[:, cons_src[c]], None] == cls
    return mask


def _grow(rows, mask):
    """The extended prefixes that mask allows, in (prefix, value) order."""
    parent, val = np.nonzero(mask)
    return np.concatenate([rows[parent], val[:, None]], axis=1)


def ref_count_blocked(*args):
    """The blocked count that the signature walk of
    `_kernels.count_backtracking` replaced: the valid prefixes [0, K) are
    walked depth-first in blocks of about REF_CHUNK // C rows, and each
    stands for the product over j in [K, D) of the values position j
    allows after it."""
    D, C, cons_ptr, cons_src, cons_div, cod_class = numpy_args(*args)
    args = (C, cons_ptr, cons_src, cons_div, cod_class)
    K = int(cons_src.max()) + 1 if len(cons_src) else 1
    block = max(1, REF_CHUNK // C)
    # a block's sum of products is below block * C^(D-K); past int64 the
    # products are Python ints
    dtype = np.int64 if block * C ** (D - K) < 1 << 63 else object
    count = 0
    stack = [(0, np.zeros((1, 0), dtype=np.int64))]
    while stack:
        j, rows = stack.pop()
        if j == K:
            prod = np.ones(rows.shape[0], dtype=dtype)
            for k in range(K, D):
                prod *= _extend(rows, k, *args).sum(axis=1)
            count += int(prod.sum())
            continue
        grown = _grow(rows, _extend(rows, j, *args))
        for start in range(0, grown.shape[0], block):
            stack.append((j + 1, grown[start:start + block]))
    return count


def ref_count_backtracking(*args):
    """The full-depth count: every valid prefix is walked depth-first in
    blocks of about REF_CHUNK // C and the last position counted.  A block
    grows by every value at the next position, and the grown rows that
    break one of its constraints are dropped."""
    D, C, cons_ptr, cons_src, cons_div, cod_class = numpy_args(*args)
    block = max(1, REF_CHUNK // C)
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


def enumerate_cpf_rows(domain, codomain, guard=DEFAULT_GUARD):
    """All congruence-preserving tables A_f -> A_g as the backtracking

    kernel's rows: a list of tuples of A_g residue indices, each row listed
    like A_f, in lexicographic order."""
    return _kernels.enumerate_backtracking(*_kernel_args(domain, codomain, guard))


def enumerate_cpf_tables(f, g, guard=DEFAULT_GUARD):
    """All congruence-preserving tables, decoded from enumerate_cpf_rows."""
    dom, cod = ResidueRing(f), ResidueRing(g)
    values = cod.elements()
    return [FunctionTable(dom, cod, [values[v] for v in row])
            for row in enumerate_cpf_rows(dom, cod, guard)]


def apply_coeff_poly(coeffs, h, g):
    """Evaluate F(h) mod g for F given by A-coefficients (low degree first)."""
    acc = Poly(h.field)
    for c in reversed(list(coeffs)):
        acc = (acc * h + c) % g
    return acc


def random_table(domain, codomain, rng):
    """|A_f| values drawn uniformly from A_g by their residue indices: the
    one-table case of `random_values`."""
    return FunctionTable._new(domain, codomain, random_values(domain, codomain, rng, 1))


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


def _packed_polys(field, n):
    """One generator of each degree-n ideal (g) of F_q[t], packed as the
    censuses pack them and in index order: the monic one.  Over F_2 a
    polynomial is its index, so they are range(2^n, 2^(n+1)); otherwise
    they are the q^n monic coefficient lists."""
    if field.q == 2:
        return range(1 << n, 2 << n)
    return _degree_n_lists(field, n)


def _squarefree_test(field):
    """The gcd square-freeness test on one packed candidate of _packed_polys:
    the per-candidate test that the censuses are checked against."""
    if field.q == 2:
        return lambda a: _gcd_f2(a, _derivative_f2(a)) == 1
    return lambda cs: len(_gcd_lists(field, cs, _derivative_lists(field, cs))) == 1


def ref_census_self_chen_f2(n):
    """The components of oracle.census_self_chen over F_2 at degree n, by
    the valuations at t and t+1 of each packed candidate and the gcd test
    on what is left: the per-candidate walk that the sieve replaced."""
    comps = [0, 0, 0, 0]
    for g in range(1 << n, 2 << n):
        v0 = (g & -g).bit_length() - 1  # at t: the trailing zero bits
        if v0 > 2:
            continue
        rest, v1 = g >> v0, 0
        while v1 <= 2:  # at t+1 = 0b11, by division, stopping past 2
            quo, r = _divmod_f2(rest, 0b11)
            if r:
                break
            rest, v1 = quo, v1 + 1
        if v1 <= 2 and _gcd_f2(rest, _derivative_f2(rest)) == 1:
            comps[(v0 == 2) + 2 * (v1 == 2)] += 1
    return tuple(comps)


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
