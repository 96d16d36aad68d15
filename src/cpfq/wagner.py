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
import threading
from dataclasses import dataclass

from .polyring import (Poly, enumerate_residues, index_to_poly, is_irreducible,
                       poly_to_index, to_text, valuation)
from .residue import FunctionTable, ResidueRing, crt_split


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
    """

    def __init__(self, p: Poly, base: list | None = None):
        if not (is_irreducible(p) and p.is_monic()):
            raise ValueError("P must be monic irreducible")
        self.p = p
        self.field = p.field
        self.d = p.degree
        q = self.field.q
        default = [index_to_poly(self.field, k) for k in range(q ** self.d)]
        if base is None:
            base = default
        else:
            base = list(base)
            if sorted(poly_to_index(b) for b in base) != list(range(q ** self.d)):
                raise ValueError("base must enumerate all polynomials of degree < d")
            if base[0] != default[0] or base[1] != default[1]:
                raise ValueError("base must start with 0, 1")
            degs = [len(b.coeffs) for b in base]
            if degs != sorted(degs):
                raise ValueError("base degrees must be nondecreasing")
        self.base = tuple(base)
        self.key = (p, tuple(poly_to_index(b) for b in self.base))
        self._powers = [Poly(self.field, [1])]
        self._domains: dict = {}
        self._lock = threading.Lock()

    # sequences with one key enumerate A alike, so they share basis contexts
    def __eq__(self, other):
        return isinstance(other, PSequence) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

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
            out = out + self.base[k % step] * self._power(i)
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


# PSequence(p) proves P irreducible, so the default sequence is built once per P
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
    num_red = num
    den_red = den
    for _ in range(v):
        num_red = num_red // p
        den_red = den_red // p
    return ring.mul(ring.reduce(num_red), ring.inv_unit(ring.reduce(den_red)))


class _BasisContext:
    """The basis table of one (P-sequence, e, n), on residue indices.

    An element of A_{P^e} is the index k of its canonical representative
    a_k.  `columns[k][i]` = B_i(b_k) for i <= k (B_i(b_k) = 0 for i > k) and
    `positions[k]` = the index of b_k in A_f.  Products, differences, sums
    and valuations in A_{P^e} go through Poly once per pair of indices and
    are looked up after that."""

    def __init__(self, seq: PSequence, e: int, n: int):
        self.seq = seq
        self.ring = ResidueRing(seq.p ** e)
        dom = seq.domain(n)
        self.positions = tuple(poly_to_index(b) for b in dom)
        q, d = seq.field.q, seq.d
        self.mus = (None,) + tuple(mu(k, q, d) for k in range(1, len(dom)))
        self._mul: dict = {}
        self._sub: dict = {}
        self._add: dict = {}
        self._elements: dict = {}
        self.columns = self._build(dom, e)

    def _op(self, memo: dict, fn, a: int, b: int) -> int:
        key = a * self.ring.size + b
        got = memo.get(key)
        if got is None:
            field = self.ring.field
            got = memo[key] = poly_to_index(
                fn(index_to_poly(field, a), index_to_poly(field, b)))
        return got

    def mul(self, a: int, b: int) -> int:
        return self._op(self._mul, self.ring.mul, a, b)

    def sub(self, a: int, b: int) -> int:
        return self._op(self._sub, self.ring.sub, a, b)

    def add(self, a: int, b: int) -> int:
        return self._op(self._add, self.ring.add, a, b)

    def residue(self, a: int) -> tuple:
        """(the representative a_a, its P-valuation), once per index."""
        got = self._elements.get(a)
        if got is None:
            h = index_to_poly(self.ring.field, a)
            got = self._elements[a] = (h, valuation(self.seq.p, h, check=False))
        return got

    def _split(self, h: Poly) -> tuple:
        """(v_P(h), index of h / P^v_P(h) mod P^e) for h != 0."""
        v = 0
        while True:
            quo, r = divmod(h, self.seq.p)
            if r:
                return v, poly_to_index(self.ring.reduce(h))
            h = quo
            v += 1

    def _build(self, dom: tuple, e: int) -> tuple:
        """Column k, from the running pair (v_P, unit mod P^e) of
        prod_{j<i}(b_k - b_j), i = 0 .. k: B_i(b_k) = P^(v - v_i) * unit *
        unit_i^-1, or 0 once v - v_i >= e, where (v_i, unit_i) is the pair
        of row i's denominator prod_{j<i}(b_i - b_j), which is column i's
        pair at i.  O(q^(2n)) ring operations in all."""
        mul, field = self.mul, self.ring.field
        ppow = [poly_to_index(self.seq.p ** s) for s in range(e)]
        rows = []  # (v_i, unit_i^-1) per row i
        columns = []
        for k, bk in enumerate(dom):
            v, u = 0, 1
            col = []
            for i in range(k + 1):
                if i == k:
                    inv = self.ring.inv_unit(index_to_poly(field, u))
                    rows.append((v, poly_to_index(inv)))
                vd, ud_inv = rows[i]
                if v < vd:
                    raise ArithmeticError(
                        f"B_{i} is not P-integral at b_{k}: v_P(num)={v} < v_P(den)={vd}")
                col.append(0 if v - vd >= e else mul(ppow[v - vd], mul(u, ud_inv)))
                if i < k:
                    w, unit = self._split(bk - dom[i])
                    v += w
                    u = mul(u, unit)
            columns.append(tuple(col))
        return tuple(columns)

    def coordinates(self, values) -> list:
        """c with values[positions[k]] = sum_{i<=k} c_i B_i(b_k) for every k,
        by triangular substitution along the b-sequence."""
        mul, sub = self.mul, self.sub
        out = []
        for pos, col in zip(self.positions, self.columns):
            acc = values[pos]
            for c, t in zip(out, col):
                if c and t:
                    acc = sub(acc, mul(c, t))
            out.append(acc)
        return out

    def values(self, coeffs) -> list:
        """The table of sum_k c_k B_k, listed like A_f."""
        mul, add = self.mul, self.add
        out = [0] * len(self.positions)
        for pos, col in zip(self.positions, self.columns):
            acc = 0
            for c, t in zip(coeffs, col):
                if c and t:
                    acc = add(acc, mul(c, t))
            out[pos] = acc
        return out


# a context holds about q^(2n) / 2 table entries and its lookups
BASIS_CACHE_SIZE = 32
_context = functools.lru_cache(maxsize=BASIS_CACHE_SIZE)(_BasisContext)


@dataclass(frozen=True)
class BasisCoefficients:
    """Coordinates of a function A_f -> A_{P^e} in the B_k basis, listed in

    b-sequence order, with v_P(c_k) and mu(k) (mu(0) is None)."""

    p: Poly
    e: int
    deg_f: int
    coefficients: tuple  # canonical representatives in A_{P^e}
    seq: PSequence
    valuations: tuple
    mus: tuple

    def cpf_failures(self) -> list:
        """Indices k >= 1 whose coordinate is not deep enough in the P-adic

        filtration (v_P(c_k) < mu(k))."""
        vals, mus = self.valuations, self.mus
        return [k for k in range(1, len(vals)) if vals[k] < mus[k]]

    def is_cpf(self) -> bool:
        return not self.cpf_failures()

    def recompose(self, domain: ResidueRing) -> FunctionTable:
        """Rebuild the function table (inverse of decompose)."""
        ctx = _context(self.seq, self.e, self.deg_f)
        ring = ctx.ring
        values = ctx.values([poly_to_index(ring.reduce(c)) for c in self.coefficients])
        return FunctionTable(domain, ring, [index_to_poly(ring.field, v) for v in values])


def decompose(sigma: FunctionTable, seq: PSequence | None = None) -> BasisCoefficients:
    """Unique coordinates c_k with sigma = sum_k c_k B_k, by triangular

    substitution along the b-sequence on residue indices."""
    fact = sigma.codomain.factorization
    if len(fact.factors) != 1:
        raise ValueError("codomain modulus must be a prime power")
    p, e = fact.factors[0]
    if seq is None:
        seq = _default_sequence(p)
    elif seq.p != p:
        raise ValueError("sequence attached to a different P")
    n = sigma.domain.modulus.degree
    ctx = _context(seq, e, n)
    # canonical mod c * P^e is canonical mod P^e: both have degree de
    coords = ctx.coordinates([poly_to_index(v) for v in sigma.values])
    reps, vals = zip(*map(ctx.residue, coords))
    return BasisCoefficients(p, e, n, reps, seq, vals, ctx.mus)


@dataclass(frozen=True)
class BasisReport:
    cpf: bool
    coefficients: BasisCoefficients

    def rows(self) -> list:
        """(k, mu(k), v_P(c_k), ok) per coordinate; mu(0) is undefined."""
        co = self.coefficients
        out = []
        for k in range(len(co.coefficients)):
            m = co.mus[k]
            v = co.valuations[k]
            ok = True if k == 0 else v >= m
            out.append((k, m, v, ok))
        return out

    def __bool__(self):
        return self.cpf


def is_cpf_via_basis(sigma: FunctionTable, seq: PSequence | None = None) -> BasisReport:
    """Congruence preservation decided through the coordinate criterion

    v_P(c_k) >= mu(k), k >= 1."""
    co = decompose(sigma, seq)
    return BasisReport(co.is_cpf(), co)


@dataclass(frozen=True)
class CrtReport:
    cpf: bool
    parts: tuple  # ((P, e, BasisReport), ...) per prime power of g

    def __bool__(self):
        return self.cpf


def crt_characterize(sigma: FunctionTable) -> CrtReport:
    """Split along the codomain factorization and apply the coordinate

    criterion on each prime power; the verdict is the conjunction."""
    parts = []
    verdict = True
    for part in crt_split(sigma):
        p, e = part.codomain.factorization.factors[0]
        rep = is_cpf_via_basis(part)
        verdict = verdict and rep.cpf
        parts.append((p, e, rep))
    return CrtReport(verdict, tuple(parts))
