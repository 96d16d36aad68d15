"""Independent brute-force routes: definitional checks and exhaustive counts.

Everything here recomputes properties from first principles, bypassing the
closed-form counting and classification modules, so that those can be
validated against it.  Every enumeration, census and the literal route
is bounded by a check of `guards`, which raises GuardExceeded instead of
attempting a large run.

The literal route to N takes every deg gcd(g, k!) by Euclid.  Its `order`
relabels the digits of the a_k; N does not depend on it (Bhargava's
P-orderings, J. reine angew. Math. 490, 1997).
"""

from __future__ import annotations

from dataclasses import dataclass

# numpy is imported by the functions that use it, as in _kernels
from . import _kernels
from .counting import QExponent, _require_pair
from .field import FieldSpec
from .guards import DEFAULT_GUARD, EnumerationGuard, check_census, check_literal
from .polyring import (Poly, _degree_n_lists, _derivative_f2, _derivative_lists,
                       _divmod_f2, _gcd_f2, _gcd_lists, gcd, index_to_poly,
                       poly_to_index)
from .residue import FunctionTable, ResidueRing
from .wagner import floor_log


# ---------------------------------------------------- definitional check
@dataclass(frozen=True)
class CpCheck:
    ok: bool
    divisor: Poly | None = None
    h1: Poly | None = None
    h2: Poly | None = None

    def __bool__(self):
        return self.ok


def is_congruence_preserving(sigma: FunctionTable) -> CpCheck:
    """The definition, verbatim: for every monic divisor h of g and every

    domain pair with h | h1 - h2, check h | sigma(h1) - sigma(h2).

    Returns the first counterexample triple when the check fails."""
    reps = sigma.domain.elements()
    for h in sigma.codomain.divisors:
        for members in sigma.domain.classes(h):
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    i, j = members[a], members[b]
                    diff = sigma.values[i] - sigma.values[j]
                    if not (diff % h).is_zero():
                        return CpCheck(False, h, reps[i], reps[j])
    return CpCheck(True)


# ------------------------------------------------------ integer encoding
@dataclass
class CpProblem:
    """Integer encoding of the congruence constraints for one pair (f, g)."""

    domain: ResidueRing
    codomain: ResidueRing
    divisors: list
    cons_ptr: np.ndarray   # CSR offsets by later position j
    cons_src: np.ndarray   # earlier position i of each constraint
    cons_div: np.ndarray   # divisor index of each constraint
    cod_class: np.ndarray  # residue label of codomain rep c mod divisor h

    def check_row(self, row) -> bool:
        for j in range(len(row)):
            for c in range(self.cons_ptr[j], self.cons_ptr[j + 1]):
                h = self.cons_div[c]
                if self.cod_class[h, row[j]] != self.cod_class[h, row[self.cons_src[c]]]:
                    return False
        return True


def encode_cp_problem(domain: ResidueRing, codomain: ResidueRing) -> CpProblem:
    import numpy as np

    divisors = codomain.divisors
    # both rings list their residues as a_0, a_1, ..., so one table of
    # labels index(a_k mod h) serves the domain and the codomain
    reps = max(domain, codomain, key=lambda ring: ring.size).elements()
    labels = np.array([[poly_to_index(r % h) for r in reps] for h in divisors],
                      dtype=np.int64)
    dom_class = labels[:, :domain.size]
    by_pos: list = [[] for _ in range(domain.size)]
    for hi in range(len(divisors)):
        classes: dict = {}
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


def _guarded_problem(domain: ResidueRing, codomain: ResidueRing,
                     guard: EnumerationGuard) -> tuple:
    """The encoding of A_f -> A_g within the guard, with the kernel arguments."""
    guard.check_degrees(domain.modulus, codomain.modulus)
    guard.check_total_functions(domain.size, codomain.size)
    prob = encode_cp_problem(domain, codomain)
    return (prob, domain.size, codomain.size, prob.cons_ptr, prob.cons_src,
            prob.cons_div, prob.cod_class)


def count_cpf_bruteforce(f: Poly, g: Poly, engine: str = "exhaustive",
                         guard: EnumerationGuard = DEFAULT_GUARD) -> int:
    """Count congruence-preserving tables A_f -> A_g by enumeration.

    engine "exhaustive" visits all |A_g|^|A_f| tables and checks each;
    engine "backtracking" extends tables one position at a time, pruning
    on the first violated congruence."""
    _, *args = _guarded_problem(ResidueRing(f), ResidueRing(g), guard)
    if engine == "exhaustive":
        return _kernels.count_exhaustive(*args)
    if engine == "backtracking":
        return _kernels.count_backtracking(*args)
    raise ValueError(f"unknown engine {engine!r}")


def enumerate_cpf_rows(domain: ResidueRing, codomain: ResidueRing,
                       guard: EnumerationGuard = DEFAULT_GUARD) -> np.ndarray:
    """All congruence-preserving tables A_f -> A_g as the backtracking

    kernel's rows: an (M, |A_f|) int array of A_g residue indices, each row
    listed like A_f."""
    _, *args = _guarded_problem(domain, codomain, guard)
    return _kernels.enumerate_backtracking(*args)


def enumerate_cpf_tables(f: Poly, g: Poly,
                         guard: EnumerationGuard = DEFAULT_GUARD) -> list:
    """All congruence-preserving tables, decoded from enumerate_cpf_rows."""
    dom, cod = ResidueRing(f), ResidueRing(g)
    values = cod.elements()
    return [FunctionTable(dom, cod, [values[v] for v in row])
            for row in enumerate_cpf_rows(dom, cod, guard).tolist()]


# ------------------------------------------- literal generalized factorials
def _check_order(field: FieldSpec, order) -> tuple:
    """The digit map of `order`: index order when None, else a permutation
    of 0..q-1 fixing 0, so that a_0 = 0 stays first."""
    digits = tuple(range(field.q)) if order is None else tuple(order)
    if (len(digits) != field.q or set(digits) != set(range(field.q))
            or digits[0] != 0):
        raise ValueError("order must be a permutation of 0..q-1 starting at 0")
    return digits


def relabeled_index_to_poly(field: FieldSpec, k: int, order=None) -> Poly:
    """a_k with each base-q digit c of k read as the field index order[c]."""
    digits = _check_order(field, order)
    return Poly._new(field, [digits[c] for c in index_to_poly(field, k).coeffs])


def factorial(field: FieldSpec, k: int, order=None, mod: Poly | None = None) -> Poly:
    """prod_{i<k} (a_k - a_i) over the relabeled a_i; with mod given, the

    product is reduced mod `mod` at every step (gcd(mod, .) is unchanged
    by that reduction)."""
    ak = relabeled_index_to_poly(field, k, order)
    out = Poly(field, [1])
    for i in range(k):
        out = out * (ak - relabeled_index_to_poly(field, i, order))
        if mod is not None:
            out = out % mod
    return out


def deg_gcd_factorial(g: Poly, k: int, order=None) -> int:
    """deg gcd(g, prod_{i<k}(a_k - a_i)) by literal gcd computation."""
    gm = g.monic()
    return gcd(gm, factorial(g.field, k, order=order, mod=gm)).degree


def count_polyfn_literal(f: Poly, g: Poly, order=None) -> QExponent:
    """N = q^(q^n deg g - sum_{0<k<q^n} deg gcd(g, k!)) with every gcd

    computed, within the size and work bounds of `guards.check_literal`;
    `order` relabels the digits of the a_k."""
    n = _require_pair(f, g)
    q = f.field.q
    check_literal(q, n, g.degree)
    qn = q ** n
    return QExponent(q, qn * g.degree - sum(
        deg_gcd_factorial(g, k, order=order) for k in range(1, qn)))


def exponent_identity_check(n: int, e: int, d: int, q: int) -> bool:
    """(q-1) * sum_{k=1}^{n-1} q^k min(e, floor(k/d))
       == sum_{k=1}^{q^n - 1} min(e, floor(floor(log_q k) / d))."""
    lhs = (q - 1) * sum(q ** k * min(e, k // d) for k in range(1, n))
    rhs = sum(min(e, floor_log(q, k) // d) for k in range(1, q ** n))
    return lhs == rhs


# ---------------------------------------------- polynomial-function span
def apply_coeff_poly(coeffs, h: Poly, g: Poly) -> Poly:
    """Evaluate F(h) mod g for F given by A-coefficients (low degree first)."""
    acc = Poly(h.field)
    for c in reversed(list(coeffs)):
        acc = (acc * h + c) % g
    return acc


class PolyFnModule:
    """The set of polynomial functions A_f -> A_g, as the F_p row space of

    the monomial functions x^k scaled by a module basis of A_g.

    Monomial tables m_{k+1} = m_k * m_1 (pointwise) repeat eventually;
    the builder adds generators until it sees an explicit repeat, which
    is the stopping proof that all monomials are covered (or until the
    span is already the full function space, which is stronger).
    Functions are encoded as F_p vectors of length |A_f| * deg g * m,
    and membership is reduction against a reduced-row-echelon basis."""

    def __init__(self, domain: ResidueRing, codomain: ResidueRing,
                 guard: EnumerationGuard = DEFAULT_GUARD):
        guard.check_degrees(domain.modulus, codomain.modulus)
        guard.check_domain_pairs(domain.modulus)
        self.domain = domain
        self.codomain = codomain
        self.guard = guard
        field = domain.field
        self.p = field.p
        self._m = field.m
        self._degg = codomain.modulus.degree
        self.length = domain.size * self._degg * self._m
        self._pivots: dict = {}
        g = codomain.modulus
        reps = domain.elements()
        t = Poly(field, [0, 1])
        u = Poly(field, [field.from_coeffs([0, 1])]) if field.m > 1 else None
        monomial = [Poly(field, [1]) % g for _ in reps]
        seen = set()
        self.n_monomials = 0
        while True:
            if len(self._pivots) == self.length:
                break
            key = tuple(poly_to_index(v) for v in monomial)
            if key in seen:
                break
            seen.add(key)
            self.n_monomials += 1
            # all A_g-scalar multiples of this monomial, via an F_p basis of A_g
            scaled_a = list(monomial)
            for _ in range(self._degg):
                scaled_b = list(scaled_a)
                for _ in range(self._m):
                    self._add_row(self._encode_values(scaled_b))
                    if field.m > 1:
                        scaled_b = [(v * u) % g for v in scaled_b]
                scaled_a = [(v * t) % g for v in scaled_a]
            monomial = [(v * r) % g for v, r in zip(monomial, reps)]

    def _encode_values(self, values) -> np.ndarray:
        import numpy as np

        field = self.domain.field
        out = np.zeros(self.length, dtype=np.int64)
        pos = 0
        for v in values:
            cs = v.coeffs
            for a in range(self._degg):
                idx = cs[a] if a < len(cs) else 0
                for coord in field.coeffs_of(idx):
                    out[pos] = coord
                    pos += 1
        return out

    def _decode_vector(self, vec) -> FunctionTable:
        field = self.domain.field
        values = []
        pos = 0
        block = self._degg * self._m
        for _ in range(self.domain.size):
            chunk = vec[pos:pos + block]
            pos += block
            coeffs = []
            for a in range(self._degg):
                coords = chunk[a * self._m:(a + 1) * self._m]
                coeffs.append(field.from_coeffs(list(int(c) for c in coords)))
            values.append(Poly(field, coeffs))
        return FunctionTable(self.domain, self.codomain, values)

    def _reduce(self, vec: np.ndarray) -> np.ndarray:
        vec = vec % self.p
        for piv in sorted(self._pivots):
            c = int(vec[piv])
            if c:
                vec = (vec - c * self._pivots[piv]) % self.p
        return vec

    def _add_row(self, vec: np.ndarray) -> bool:
        import numpy as np

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
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def size(self) -> int:
        return self.p ** self.rank

    def contains(self, sigma: FunctionTable) -> bool:
        if sigma.domain != self.domain or sigma.codomain != self.codomain:
            raise ValueError("table over different rings")
        vec = self._reduce(self._encode_values(list(sigma.values)))
        return not vec.any()

    def members(self) -> list:
        """Every polynomial function, when within the guard."""
        self.guard.check_closure(self.p, self.rank)
        import numpy as np

        vectors = [np.zeros(self.length, dtype=np.int64)]
        for piv in sorted(self._pivots):
            row = self._pivots[piv]
            vectors = [(v + c * row) % self.p
                       for v in vectors for c in range(self.p)]
        return [self._decode_vector(v) for v in vectors]


def polyfn_module(f: Poly, g: Poly,
                  guard: EnumerationGuard = DEFAULT_GUARD) -> PolyFnModule:
    return PolyFnModule(ResidueRing(f), ResidueRing(g), guard)


def polyfn_submodule(f: Poly, g: Poly,
                     guard: EnumerationGuard = DEFAULT_GUARD) -> list:
    """All polynomial functions A_f -> A_g (guarded enumeration)."""
    return polyfn_module(f, g, guard).members()


def is_polynomial_function(sigma: FunctionTable,
                           module: PolyFnModule | None = None,
                           guard: EnumerationGuard = DEFAULT_GUARD) -> bool:
    if module is None:
        module = PolyFnModule(sigma.domain, sigma.codomain, guard)
    return module.contains(sigma)


# --------------------------------------------------------- random tables
def random_table(domain: ResidueRing, codomain: ResidueRing, rng) -> FunctionTable:
    cod = codomain.elements()
    return FunctionTable(domain, codomain,
                         [cod[rng.randrange(codomain.size)]
                          for _ in range(domain.size)])


def random_polynomial_function(domain: ResidueRing, codomain: ResidueRing,
                               rng, n_coeffs: int | None = None) -> FunctionTable:
    """sigma(hbar) = F(h) mod g for F with random A_g coefficients."""
    if n_coeffs is None:
        n_coeffs = domain.size + 1
    coeffs = [codomain.element(rng.randrange(codomain.size))
              for _ in range(n_coeffs)]
    g = codomain.modulus
    return FunctionTable(domain, codomain,
                         [apply_coeff_poly(coeffs, h, g) for h in domain.elements()])


# --------------------------------------------------------------- censuses
def _packed_polys(field: FieldSpec, n: int, monic_only: bool):
    """degree_n_polys in the packed form of the censuses, in its order:
    over F_2 a polynomial is its index, so they are range(2^n, 2^(n+1))
    (every one monic); otherwise they are coefficient lists."""
    if field.q == 2:
        return range(1 << n, 2 << n)
    return _degree_n_lists(field, n, monic_only)


def _packed(g: Poly):
    """g in the packed form of _packed_polys (a new list for q != 2)."""
    return poly_to_index(g) if g.field.q == 2 else list(g.coeffs)


def _squarefree_test(field: FieldSpec):
    """The gcd square-freeness test on one packed candidate of _packed_polys."""
    if field.q == 2:
        return lambda a: _gcd_f2(a, _derivative_f2(a)) == 1
    return lambda cs: len(_gcd_lists(field, cs, _derivative_lists(field, cs))) == 1


def is_squarefree_gcd(g: Poly) -> bool:
    """Square-freeness by gcd with the formal derivative (no factorization)."""
    return _squarefree_test(g.field)(_packed(g))


@dataclass(frozen=True)
class SelfChenCensus:
    degree: int
    total: int
    components: tuple | None  # (U1, U2, U3, U4) for q = 2, else None


def census_self_chen(field: FieldSpec, n: int,
                     monic_only: bool = False) -> SelfChenCensus:
    """Count degree-n moduli g with every congruence-preserving function
    A_g -> A_g polynomial, testing each g directly by valuations and the
    gcd square-freeness test (no factorization, no closed forms).

    For q != 2 these g are the square-free ones, counted by
    census_squarefree.  For q = 2 the count is split by the valuations at
    t and t+1: both <= 1 / exactly the first = 2 / exactly the second = 2 /
    both = 2."""
    if field.q != 2:
        return SelfChenCensus(n, census_squarefree(field, n, monic_only), None)
    check_census(field.q, n)
    comps = [0, 0, 0, 0]
    for g in _packed_polys(field, n, monic_only):
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
    return SelfChenCensus(n, sum(comps), tuple(comps))


def census_squarefree(field: FieldSpec, n: int, monic_only: bool = True) -> int:
    """Count square-free degree-n polynomials by the gcd test."""
    check_census(field.q, n)
    return sum(map(_squarefree_test(field), _packed_polys(field, n, monic_only)))
