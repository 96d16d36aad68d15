"""Binomial-style basis for functions into a prime power residue ring A_{P^e}.

Fix a monic irreducible P of degree d.  The b-sequence enumerates A by
q^d-adic expansion: b_k = sum_i b_{l_i} P^i where k = sum_i l_i q^(d i)
and the base block b_0 .. b_{q^d - 1} lists the polynomials of degree < d
with b_0 = 0, b_1 = 1 and nondecreasing degrees.  The functions

    B_k(hbar) = [prod_{j<k} (h - b_j) / prod_{j<k} (b_k - b_j)]  mod P^e

are well defined (the quotient is P-integral), triangular on the
b-sequence (B_k(b_i) = 0 for i < k, B_k(b_k) = 1), and every function
sigma: A_f -> A_{P^e} has unique coordinates sigma = sum_k c_k B_k.
sigma preserves congruences exactly when v_P(c_k) >= mu(k) for all k >= 1,
with mu(k) = floor(floor(log_q k) / d).
"""

from __future__ import annotations

import functools
import operator
import threading

from ._record import FrozenRecord, setfield
from .guards import (BASIS_TABLE_LOG2, DEFAULT_GUARD, EnumerationGuard,
                     check_basis_tables, check_samples, power_exceeds)
from .oracle import _cp_basis, _cp_verdicts, random_values
from .polyring import (Poly, enumerate_residues, index_to_poly, is_irreducible,
                       poly_to_index, to_text, valuation)
from .residue import ColumnMap, FunctionTable, ResidueRing, _index_adder


def floor_log(q: int, k: int) -> int:
    """Largest j with q^j <= k (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    j = 0
    power = q
    while power <= k:
        j += 1
        power *= q
    return j


def mu(k: int, q: int, d: int) -> int:
    """Required valuation of the k-th coordinate, k >= 1."""
    return floor_log(q, k) // d


class PSequence:
    """The b-sequence attached to P, with an optional admissible base block.

    Any base ordering of the degree < d polynomials with b_0 = 0, b_1 = 1
    and nondecreasing degrees is admissible; the default is index order.
    P is proved irreducible here, unless `_proven` says that a
    factorization has proved it already.
    """

    def __init__(self, p: Poly, base: list | None = None, *, _proven: bool = False):
        if not (p.is_monic() and (_proven or is_irreducible(p))):
            raise ValueError("P must be monic irreducible")
        self.p = p
        self.field = p.field
        self.d = p.degree
        # the default base (index order) is not listed: a domain of degree
        # n < d reads only its first q^n entries, each by index_to_poly
        order = None
        if base is not None:
            base = tuple(base)
            order = tuple(poly_to_index(b) for b in base)
            if sorted(order) != list(range(self.field.q ** self.d)):
                raise ValueError("base must enumerate all polynomials of degree < d")
            if order[:2] != (0, 1):
                raise ValueError("base must start with 0, 1")
            degs = [len(b.coeffs) for b in base]
            if degs != sorted(degs):
                raise ValueError("base degrees must be nondecreasing")
            if order == tuple(sorted(order)):
                base = order = None
        self._base = base
        self.key = (p, order)
        self._powers = [Poly(self.field, [1])]
        self._domains: dict = {}
        self._lock = threading.Lock()

    # sequences with one key enumerate A alike, so they share basis contexts
    def __eq__(self, other):
        return isinstance(other, PSequence) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def _digit(self, r: int) -> Poly:
        """b_r for r < q^d."""
        return index_to_poly(self.field, r) if self._base is None else self._base[r]

    @property
    def base(self) -> tuple:
        """The base block b_0 .. b_{q^d - 1}."""
        return tuple(self._digit(r) for r in range(self.field.q ** self.d))

    def _power(self, i: int) -> Poly:
        with self._lock:
            while len(self._powers) <= i:
                self._powers.append(self._powers[-1] * self.p)
            return self._powers[i]

    def element(self, k: int) -> Poly:
        """b_k via the q^d-adic expansion of k."""
        if k < 0:
            raise ValueError("index must be >= 0")
        step = self.field.q ** self.d
        out = Poly(self.field)
        i = 0
        while k:
            out = out + self._digit(k % step) * self._power(i)
            k //= step
            i += 1
        return out

    def domain(self, n: int) -> tuple:
        """b_0 .. b_{q^n - 1}: a bijective enumeration of the canonical

        residues mod any degree-n modulus (asserted once per n)."""
        got = self._domains.get(n)
        if got is not None:
            return got
        out = tuple(self.element(k) for k in range(self.field.q ** n))
        expect = set(enumerate_residues(index_to_poly(self.field, self.field.q ** n)))
        if set(out) != expect or len(set(out)) != len(out):
            raise AssertionError("b-sequence does not enumerate the residues")
        return self._domains.setdefault(n, out)


# PSequence(p) proves P irreducible, so the default sequence is built once
# per P; a factor of a Factorization is built with _proven=True
_default_sequence = functools.lru_cache(maxsize=64)(PSequence)


def eval_Qk(p: Poly, e: int, k: int, h: Poly, seq: PSequence | None = None) -> Poly:
    """Q_k(h) mod P^e for h in A, as a canonical representative: the value

    of the basis function B_k at the residue of h.

    Computes numerator prod_{j<k}(h - b_j) and denominator
    prod_{j<k}(b_k - b_j) exactly in A, checks P-integrality
    (v_P(num) >= v_P(den)), cancels P^v and inverts the remaining unit
    denominator mod P^e.  The basis table of `decompose` is built without
    it, in O(q^(2n)) ring operations; this is that table's reference."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    if seq is None:
        seq = _default_sequence(p)
    elif seq.p != p:
        raise ValueError("sequence attached to a different P")
    ring = ResidueRing(p ** e)
    bk = seq.element(k)
    num = Poly(p.field, [1])
    den = Poly(p.field, [1])
    for j in range(k):
        bj = seq.element(j)
        num = num * (h - bj)
        den = den * (bk - bj)
    if num.is_zero():
        return Poly(p.field)
    v = valuation(p, den, check=False)
    vn = valuation(p, num, check=False)
    if vn < v:
        raise ArithmeticError(
            f"Q_{k} is not P-integral at {to_text(h)}: v_P(num)={vn} < v_P(den)={v}")
    pv = p ** v
    return ring.mul(ring.reduce(num // pv), ring.inv_unit(ring.reduce(den // pv)))


class _BasisContext:
    """The basis table of one (P-sequence, e, n), on residue indices.

    An element of A_{P^e} is the index k of its canonical representative
    a_k.  `columns[k][i]` = B_i(b_k) for i <= k (B_i(b_k) = 0 for i > k) and
    `positions[k]` = the index of b_k in A_f.  A product by a fixed a_t is
    F_q-linear, one ColumnMap per t (`times`), and a - b is a + (-1) b, an
    xor in characteristic 2: no product or difference goes through Poly.
    The valuation of each index is kept (`residue`), and the cosets of each
    P^m A as label tables (`level`)."""

    def __init__(self, seq: PSequence, e: int, n: int):
        self.seq = seq
        self.e = e
        self.ring = ResidueRing(seq.p ** e)
        dom = seq.domain(n)
        self.positions = tuple(poly_to_index(b) for b in dom)
        field, d = seq.field, seq.d
        self.mus = (None,) + tuple(mu(k, field.q, d) for k in range(1, len(dom)))
        self._elements: dict = {}
        self._levels: dict = {}
        self._maps = ({}, {})  # the readers of `times`, by digits and by table
        # the |A_{P^e}| maps hold |A_{P^e}|^2 table entries; a build or a
        # substitution reads a map about |A_f| times, so tables pay from
        # |A_f| >= |A_{P^e}|
        fits = not power_exceeds(field.q, 2 * self.ring.modulus.degree,
                                 2 ** BASIS_TABLE_LOG2)
        self._tabled = fits and len(dom) >= self.ring.size
        if field.p == 2:
            # the F_2 coordinates of the digits subtract bit by bit
            self.sub = operator.xor
        else:
            add, minus = _index_adder(field), self.times(field._neg[1], fits)
            self.sub = lambda a, b: add(a, minus(b))
        self.columns = self._build(dom, e)

    def times(self, t: int, table: bool = False):
        """c -> the index of a_c a_t: the ColumnMap of A_{P^e} whose column j
        is a_t t^j, built once per t and read through its index table if
        `table` or the context tables its maps, else by digits."""
        table = table or self._tabled
        maps = self._maps[table]
        got = maps.get(t)
        if got is None:
            g, a = self.ring.modulus, index_to_poly(self.ring.field, t)
            cmap = ColumnMap(g, [a.shift(j) for j in range(g.degree)])
            got = maps[t] = cmap.table().__getitem__ if table else cmap.digit_image
        return got

    def residue(self, a: int) -> tuple:
        """(the representative a_a, its P-valuation), once per index."""
        got = self._elements.get(a)
        if got is None:
            h = index_to_poly(self.ring.field, a)
            got = self._elements[a] = (h, valuation(self.seq.p, h, check=False))
        return got

    def _build(self, dom: tuple, e: int) -> tuple:
        """Column k, from the running pair (v_P, unit mod P^e) of
        prod_{j<i}(b_k - b_j), i = 0 .. k: B_i(b_k) = P^(v - v_i) * unit *
        unit_i^-1, or 0 once v - v_i >= e, where (v_i, unit_i) is the pair
        of row i's denominator prod_{j<i}(b_i - b_j), which is column i's
        pair at i.  O(q^(2n)) ring operations in all.  With w the lowest
        base-q^d digit where k and j differ, b_k - b_j is P^w times b_{k //
        q^(dw)} - b_{j // q^(dw)}, a unit: its lowest P-adic digit is not 0."""
        times, sub, field = self.times, self.sub, self.ring.field
        s = field.q ** self.seq.d
        # the maps of P^w for w < e, P^0 read as the identity
        ppow = [int] + [times(poly_to_index(self.seq.p ** w)) for w in range(1, e)]
        red = [poly_to_index(self.ring.reduce(b)) for b in dom]  # b_x mod P^e
        rows = []  # (v_i, the map of unit_i^-1) per row i
        columns = []
        for k in range(len(dom)):
            v, u = 0, 1
            col = []
            for i in range(k + 1):
                if i == k:
                    inv = self.ring.inv_unit(index_to_poly(field, u))
                    rows.append((v, times(poly_to_index(inv))))
                vd, by_inv = rows[i]
                if v < vd:
                    raise ArithmeticError(
                        f"B_{i} is not P-integral at b_{k}: v_P(num)={v} < v_P(den)={vd}")
                col.append(0 if v - vd >= e else ppow[v - vd](by_inv(u)))
                if i < k:
                    a, b = k, i
                    while a % s == b % s:
                        a, b = a // s, b // s
                        v += 1
                    u = times(sub(red[a], red[b]))(u)
            columns.append(tuple(col))
        return tuple(columns)

    def coordinates(self, values) -> list:
        """c with values[positions[k]] = sum_{i<=k} c_i B_i(b_k) for every k,
        by triangular substitution along the b-sequence, each product c_i
        B_i(b_k) by the map of c_i: at most q^n maps per table."""
        times, sub = self.times, self.sub
        out = []
        for pos, col in zip(self.positions, self.columns):
            acc = values[pos]
            for c, t in zip(out, col):
                if c and t:
                    acc = sub(acc, times(c)(t))
            out.append(acc)
        return out

    def passes(self, values) -> bool:
        """Whether v_P(c_k) >= mu(k) for every k >= 1, c the coordinates of
        values, by the substitution of `coordinates` with each product by
        the map of the basis entry, read through its index table, as every
        table checked reads the same maps (`verify_basis` refuses past
        |A_{P^e}|^2 = 2^BASIS_TABLE_LOG2), stopping at the first c_k that
        fails: c_k lies in P^mu A iff its label mod P^mu is 0."""
        times, sub = self.times, self.sub
        out = []
        for pos, col, m in zip(self.positions, self.columns, self.mus):
            acc = values[pos]
            for c, t in zip(out, col):
                if c and t:
                    acc = sub(acc, times(t, True)(c))
            if m and self.level(m)[acc]:
                return False
            out.append(acc)
        return True

    def level(self, m: int) -> tuple:
        """The labels of the cosets of P^m A, m >= 1: a lies in P^m A iff
        labels[a] is 0.  Built once per m from the labels mod P^m."""
        got = self._levels.get(m)
        if got is None:
            got = self._levels.setdefault(m, tuple(self.ring.labels(self.seq.p ** m)))
        return got


# a context holds about q^(2n) / 2 basis table entries, and its product
# maps at most |A_{P^e}|^2 <= 2^BASIS_TABLE_LOG2 index table entries
BASIS_CACHE_SIZE = 32
_context = functools.lru_cache(maxsize=BASIS_CACHE_SIZE)(_BasisContext)


class BasisCoefficients(FrozenRecord):
    """Coordinates of a function A_f -> A_{P^e} in the B_k basis, listed in

    b-sequence order as canonical representatives in A_{P^e}, with v_P(c_k)
    and mu(k) (mu(0) is None)."""

    _fields = ("p", "e", "deg_f", "coefficients", "seq", "valuations", "mus")

    def __init__(self, p: Poly, e: int, deg_f: int, coefficients: tuple,
                 seq: PSequence, valuations: tuple, mus: tuple):
        setfield(self, "p", p)
        setfield(self, "e", e)
        setfield(self, "deg_f", deg_f)
        setfield(self, "coefficients", coefficients)
        setfield(self, "seq", seq)
        setfield(self, "valuations", valuations)
        setfield(self, "mus", mus)

    def cpf_failures(self) -> list:
        """Indices k >= 1 whose coordinate is not deep enough in the P-adic

        filtration (v_P(c_k) < mu(k))."""
        vals, mus = self.valuations, self.mus
        return [k for k in range(1, len(vals)) if vals[k] < mus[k]]

    def is_cpf(self) -> bool:
        return not self.cpf_failures()


def _prime_power_context(codomain: ResidueRing, n: int,
                         seq: PSequence | None) -> _BasisContext:
    """The basis context of deg f = n into A_g, g = P^e up to a unit.  A

    canonical residue mod c * P^e is canonical mod P^e (both have degree
    de), so the residue indices of A_g are those of A_{P^e}."""
    fact = codomain.factorization
    if len(fact.factors) != 1:
        raise ValueError("codomain modulus must be a prime power")
    p, e = fact.factors[0]
    if seq is None:
        seq = _default_sequence(p, _proven=True)
    elif seq.p != p:
        raise ValueError("sequence attached to a different P")
    return _context(seq, e, n)


def decompose(sigma: FunctionTable, seq: PSequence | None = None) -> BasisCoefficients:
    """Unique coordinates c_k with sigma = sum_k c_k B_k, by triangular

    substitution along the b-sequence on residue indices."""
    n = sigma.domain.modulus.degree
    ctx = _prime_power_context(sigma.codomain, n, seq)
    coords = ctx.coordinates(sigma.indices)
    reps, vals = zip(*map(ctx.residue, coords))
    return BasisCoefficients(ctx.seq.p, ctx.e, n, reps, ctx.seq, vals, ctx.mus)


def verify_basis(f: Poly, g: Poly, rng, samples: int,
                 guard: EnumerationGuard = DEFAULT_GUARD) -> dict:
    """The basis criterion on A_f -> A_g, g a prime power: it passes every

    congruence-preserving table, and on `samples` random tables it agrees
    with the definition, each table judged by the substitution of
    `passes`.  The congruence-preserving tables are an F_p-space, and so
    are the tables that meet the criterion (the c_k are F_q-linear in the
    table, and P^mu A is an additive group): so the criterion passes them
    all iff it passes each table of the basis from `oracle._cp_basis`, and
    there are p^dim of them."""
    # one pair of rings, so g is factored once for every step below
    dom, cod = ResidueRing(f), ResidueRing(g)
    if len(cod.factorization.factors) != 1:
        raise ValueError("g must be a prime power P^e")
    # the enumeration's own guards first, so that the samples are refused
    # before any work and every earlier refusal keeps its message
    guard.check_degrees(f, g)
    guard.check_total_functions(dom.size, cod.size)
    check_samples(f.field.q, f.degree, samples)
    check_basis_tables(f.field.q, g.degree)
    ctx = _prime_power_context(cod, f.degree, None)
    basis = _cp_basis(dom, cod)
    cp_tables, all_cp_pass = f.field.p ** len(basis), all(map(ctx.passes, basis))
    values = random_values(dom, cod, rng, samples)
    n = dom.size
    by_basis = [ctx.passes(values[s:s + n]) for s in range(0, len(values), n)]
    agree = sum(map(operator.eq, by_basis, _cp_verdicts(dom, cod, values)))
    return {"cp_tables": cp_tables, "all_cp_pass": all_cp_pass, "samples": samples,
            "agreements": agree, "match": all_cp_pass and agree == samples}
