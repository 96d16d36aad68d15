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
from math import inf

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
        self._lock = threading.Lock()

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

    def domain(self, n: int) -> list:
        """b_0 .. b_{q^n - 1}: a bijective enumeration of the canonical

        residues mod any degree-n modulus (asserted)."""
        out = [self.element(k) for k in range(self.field.q ** n)]
        expect = set(enumerate_residues(index_to_poly(self.field, self.field.q ** n)))
        if set(out) != expect or len(set(out)) != len(out):
            raise AssertionError("b-sequence does not enumerate the residues")
        return out


# PSequence(p) proves P irreducible, so the default sequence is built once per P
_default_sequence = functools.lru_cache(maxsize=64)(PSequence)


def eval_Qk(p: Poly, e: int, k: int, h: Poly, seq: PSequence | None = None) -> Poly:
    """Q_k(h) mod P^e for h in A, as a canonical representative: the value

    of the basis function B_k at the residue of h.

    Computes numerator prod_{j<k}(h - b_j) and denominator
    prod_{j<k}(b_k - b_j) exactly in A, checks P-integrality
    (v_P(num) >= v_P(den)), cancels P^v and inverts the remaining unit
    denominator mod P^e."""
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


_BASIS_CACHE: dict = {}
_BASIS_LOCK = threading.Lock()


def _basis_table(seq: PSequence, e: int, n: int) -> tuple:
    """T[i][k] = B_i(b_k) for i <= k < q^n; zero below the diagonal.

    Built once per (P, base, e, n) and shared read-only."""
    key = (seq.key, e, n)
    got = _BASIS_CACHE.get(key)
    if got is not None:
        return got
    size = seq.field.q ** n
    dom = seq.domain(n)
    rows = []
    zero = Poly(seq.field)
    for i in range(size):
        row = [zero] * size
        for k in range(i, size):
            row[k] = eval_Qk(seq.p, e, i, dom[k], seq)
        rows.append(tuple(row))
    out = tuple(rows)
    with _BASIS_LOCK:
        _BASIS_CACHE.setdefault(key, out)
    return _BASIS_CACHE[key]


@dataclass(frozen=True)
class BasisCoefficients:
    """Coordinates of a function A_f -> A_{P^e} in the B_k basis, listed in

    b-sequence order."""

    p: Poly
    e: int
    deg_f: int
    coefficients: tuple  # canonical representatives in A_{P^e}
    seq: PSequence

    @property
    def mus(self) -> tuple:
        q, d = self.p.field.q, self.p.degree
        return (None,) + tuple(mu(k, q, d) for k in range(1, len(self.coefficients)))

    @property
    def valuations(self) -> tuple:
        return tuple(valuation(self.p, c, check=False) for c in self.coefficients)

    def cpf_failures(self) -> list:
        """Indices k >= 1 whose coordinate is not deep enough in the P-adic

        filtration (v_P(c_k) < mu(k))."""
        out = []
        for k in range(1, len(self.coefficients)):
            if self.valuations[k] < self.mus[k]:
                out.append(k)
        return out

    def is_cpf(self) -> bool:
        return not self.cpf_failures()

    def recompose(self, domain: ResidueRing) -> FunctionTable:
        """Rebuild the function table (inverse of decompose)."""
        ring = ResidueRing(self.p ** self.e)
        table = _basis_table(self.seq, self.e, self.deg_f)
        size = len(self.coefficients)
        dom = self.seq.domain(self.deg_f)
        values = [None] * size
        for k in range(size):
            acc = Poly(self.p.field)
            for i in range(k + 1):
                acc = ring.add(acc, ring.mul(self.coefficients[i], table[i][k]))
            values[poly_to_index(dom[k])] = acc
        return FunctionTable(domain, ring, values)


def decompose(sigma: FunctionTable, seq: PSequence | None = None) -> BasisCoefficients:
    """Unique coordinates c_k with sigma = sum_k c_k B_k, by triangular

    substitution along the b-sequence."""
    fact = sigma.codomain.factorization
    if len(fact.factors) != 1:
        raise ValueError("codomain modulus must be a prime power")
    p, e = fact.factors[0]
    if seq is None:
        seq = _default_sequence(p)
    elif seq.p != p:
        raise ValueError("sequence attached to a different P")
    n = sigma.domain.modulus.degree
    table = _basis_table(seq, e, n)
    dom = seq.domain(n)
    ring = ResidueRing(p ** e)
    coeffs = []
    for k in range(sigma.domain.size):
        acc = ring.reduce(sigma.values[poly_to_index(dom[k])])
        for i in range(k):
            acc = ring.sub(acc, ring.mul(coeffs[i], table[i][k]))
        coeffs.append(acc)
    return BasisCoefficients(p, e, n, tuple(coeffs), seq)


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
