"""Independent brute-force routes: definitional checks and exhaustive counts.

Everything here recomputes properties from first principles, bypassing the
closed-form counting and classification modules; the verify_* checks here,
in `chen` and in `wagner` hold those against it.  The definitional check
and the random draws take many tables side by side, as one batch.
Every enumeration, census and the literal route is bounded by a check of
`guards`, which raises GuardExceeded instead of attempting a large run.

The literal route to N takes every deg gcd(g, k!) by Euclid, with the
generalized factorials k! over the a_k in index order.
"""

from __future__ import annotations

import struct
from itertools import compress

from . import _kernels
from ._record import FrozenRecord, Record, setfield
from .counting import QExponent, _require_pair, count_cpf, count_polyfn
from .field import FieldSpec
from .guards import (DEFAULT_GUARD, EnumerationGuard, check_census, check_literal,
                     check_samples)
from .polyring import (Poly, _degree_n_lists, _derivative_f2, _derivative_lists,
                       _divmod_lists, _gcd_lists, gcd, index_to_poly)
from .residue import (_LABEL_MAPS, FunctionTable, ResidueRing, combine_indices,
                      split_indices)


# ---------------------------------------------------- definitional check
class CpCheck(FrozenRecord):
    _fields = ("ok", "divisor", "h1", "h2")

    def __init__(self, ok: bool, divisor: Poly | None = None, h1: Poly | None = None,
                 h2: Poly | None = None):
        setfield(self, "ok", ok)
        setfield(self, "divisor", divisor)
        setfield(self, "h1", h1)
        setfield(self, "h2", h2)

    def __bool__(self):
        return self.ok


def is_congruence_preserving(sigma: FunctionTable) -> CpCheck:
    """The definition for one table, by `congruence_failures`.

    Returns the first counterexample triple of the all-pairs order when
    the check fails: the first member of the first failing class, and its
    first member whose value differs mod h."""
    [failure] = congruence_failures(sigma.domain, sigma.codomain, sigma.indices)
    if failure is None:
        return CpCheck(True)
    h, i, j = failure
    return CpCheck(False, h, sigma.domain.element(i), sigma.domain.element(j))


def congruence_failures(domain: ResidueRing, codomain: ResidueRing, values) -> list:
    """The definition, for the tables A_f -> A_g side by side in `values`

    (table s is values[s N:(s + 1) N], N = |A_f|, as A_g indices): for
    every monic divisor h of g and every domain pair with h | h1 - h2,
    check h | sigma(h1) - sigma(h2).  h | a - b iff a and b have one label
    mod h (`ResidueRing.label`, by the label map's current route), so each
    class of A_f mod h is checked against its first member.  One walk over
    the divisors and classes serves every table, and a table leaves it at
    its first failing class: a value is labeled only when the walk reaches it.

    Per table None, or the first failure of the all-pairs order as A_f
    indices (h, i, j): i the first member of the failing class, j its first
    member whose value differs mod h.  No Poly value is built."""
    n = domain.size
    out = [None] * (len(values) // n)
    left = range(0, len(values), n)  # the offsets of the tables still walked
    for h in codomain.divisors:
        if not left:
            break
        if h.degree >= domain.modulus.degree:
            continue  # every class mod h is one residue
        label = codomain.label(h)
        for first, *rest in domain.classes(h):
            kept = []
            for s in left:
                want = label(values[s + first])
                for j in rest:
                    if label(values[s + j]) != want:
                        out[s // n] = (h, first, j)
                        break
                else:
                    kept.append(s)
            left = kept
            if not left:
                break
    return out


def _cp_verdicts(domain: ResidueRing, codomain: ResidueRing, values) -> list:
    """Whether each table side by side in `values` preserves congruences."""
    return [failure is None for failure in congruence_failures(domain, codomain, values)]


# verify_crt checks its samples in batches of about this many values, each
# split, combined and walked once: the lists stay small, so a run at the
# samples bound (2^18 values) peaks near 18 MB instead of 52 MB
CRT_BATCH = 2 ** 12


# ------------------------------------------------------ integer encoding
class CpProblem(Record):
    """Integer encoding of the congruence constraints for one pair (f, g):
    cons_ptr, the CSR offsets by later position j; cons_src, the first
    member i of the class of j mod the divisor; cons_div, the divisor index
    of each constraint; cod_class, the residue label of codomain rep c mod
    divisor h (tuples of ints)."""

    _fields = ("domain", "codomain", "divisors", "cons_ptr", "cons_src",
               "cons_div", "cod_class")

    def __init__(self, domain: ResidueRing, codomain: ResidueRing, divisors: list,
                 cons_ptr, cons_src, cons_div, cod_class):
        self.domain = domain
        self.codomain = codomain
        self.divisors = divisors
        self.cons_ptr = cons_ptr
        self.cons_src = cons_src
        self.cons_div = cons_div
        self.cod_class = cod_class


def encode_cp_problem(domain: ResidueRing, codomain: ResidueRing) -> CpProblem:
    """The constraints of A_f -> A_g from the classes of A_f mod each monic

    divisor h of g: each later member of a class against its first member
    (equality is transitive, so these |class| - 1 imply every pair), and
    cod_class[h][c] the label of c mod h (`ResidueRing.labels`): the index
    of a_c mod h, which is the first member of c's class in A_g."""
    divisors = codomain.divisors
    by_pos: list = [[] for _ in range(domain.size)]
    for hi, h in enumerate(divisors):
        for first, *rest in domain.classes(h):
            for j in rest:
                by_pos[j].append((first, hi))
    ptr, src, div = [0], [], []
    for row in by_pos:
        for i, hi in row:
            src.append(i)
            div.append(hi)
        ptr.append(len(src))
    return CpProblem(domain, codomain, divisors, tuple(ptr), tuple(src), tuple(div),
                     tuple(tuple(codomain.labels(h)) for h in divisors))


def _kernel_args(domain: ResidueRing, codomain: ResidueRing,
                 guard: EnumerationGuard) -> tuple:
    """The kernel arguments of the encoding of A_f -> A_g, within the guard."""
    guard.check_degrees(domain.modulus, codomain.modulus)
    guard.check_total_functions(domain.size, codomain.size)
    prob = encode_cp_problem(domain, codomain)
    return (domain.size, codomain.size, prob.cons_ptr, prob.cons_src,
            prob.cons_div, prob.cod_class)


def count_cpf_bruteforce(f: Poly, g: Poly, engine: str = "exhaustive",
                         guard: EnumerationGuard = DEFAULT_GUARD) -> int:
    """Count congruence-preserving tables A_f -> A_g by enumeration.

    engine "exhaustive" visits all |A_g|^|A_f| tables and checks each;
    engine "backtracking" extends tables one position at a time, pruning
    on the first violated congruence."""
    args = _kernel_args(ResidueRing(f), ResidueRing(g), guard)
    if engine == "exhaustive":
        return _kernels.count_exhaustive(*args)
    if engine == "backtracking":
        return _kernels.count_backtracking(*args)
    raise ValueError(f"unknown engine {engine!r}")


# ------------------------------------------- literal generalized factorials
def factorial(field: FieldSpec, k: int, mod: Poly | None = None) -> Poly:
    """prod_{i<k} (a_k - a_i); with mod given, the product is reduced mod

    `mod` at every step (gcd(mod, .) is unchanged by that reduction)."""
    ak = index_to_poly(field, k)
    out = Poly(field, [1])
    for i in range(k):
        out = out * (ak - index_to_poly(field, i))
        if mod is not None:
            out = out % mod
    return out


def deg_gcd_factorial(g: Poly, k: int) -> int:
    """deg gcd(g, prod_{i<k}(a_k - a_i)) by literal gcd computation."""
    gm = g.monic()
    return gcd(gm, factorial(g.field, k, mod=gm)).degree


def count_polyfn_literal(f: Poly, g: Poly) -> QExponent:
    """N = q^(q^n deg g - sum_{0<k<q^n} deg gcd(g, k!)) with every gcd

    computed, within the size and work bounds of `guards.check_literal`."""
    n = _require_pair(f, g)
    q = f.field.q
    check_literal(q, n, g.degree)
    qn = q ** n
    return QExponent(q, qn * g.degree - sum(
        deg_gcd_factorial(g, k) for k in range(1, qn)))


# ------------------------------------------------------ packed F_p rows
class _RowSpace:
    """A subspace of F_p^length, as its pivot rows in reduced echelon form

    keyed by their pivot, the lowest nonzero lane.  A vector is one int
    with one byte lane per F_p coordinate, lowest first.  Rows add lane by
    lane as ints and reduce mod p by one bytes.translate: p <= 13
    (guards.FIELD_LOG2), so a lane below p plus one product of two lanes
    below p stays below 256.  At p = 2 they add by xor."""

    def __init__(self, p: int, length: int):
        self.p = p
        self.length = length
        self._lanes_mod_p = bytes(x % p for x in range(256))
        self.pivots: dict = {}

    def mod_p(self, x: int) -> int:
        """x with every lane reduced mod p (each lane below 256)."""
        return int.from_bytes(x.to_bytes(self.length, "little")
                              .translate(self._lanes_mod_p), "little")

    def combination(self, terms) -> int:
        """The sum of c x mod p over the (c, x) in terms, each c in 1..p-1
        and x with every lane below p: added as ints, reduced before a lane
        could pass 255; at p = 2, one xor per term."""
        p, out = self.p, 0
        if p == 2:
            for _, x in terms:
                out ^= x
            return out
        bound = 0
        for c, x in terms:
            bound += c * (p - 1)
            if bound > 255:
                out, bound = self.mod_p(out), (c + 1) * (p - 1)
            out += c * x
        return self.mod_p(out)

    def reduce(self, vec: int) -> int:
        """vec less its pivot coordinates times the pivot rows, mod p; the
        rows are in reduced echelon form, so each coordinate is read once,
        from vec itself."""
        p, lanes = self.p, vec.to_bytes(self.length, "little")
        return self.combination([(1, vec)] + [
            (p - lanes[piv], row) for piv, row in self.pivots.items() if lanes[piv]])

    def add_row(self, vec: int) -> bool:
        """Whether vec was outside the space, which then takes it in."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = ((vec & -vec).bit_length() - 1) >> 3  # the lowest nonzero lane
        p, shift = self.p, 8 * piv
        c = (vec >> shift) & 0xFF
        if c != 1:
            vec = self.mod_p(vec * pow(c, -1, p))
        # a row is zero below its own pivot, so only the rows of lower
        # pivots can hold piv
        for other, row in list(self.pivots.items()):
            if other < piv:
                c = (row >> shift) & 0xFF
                if c:
                    self.pivots[other] = (row ^ vec if p == 2
                                          else self.mod_p(row + (p - c) * vec))
        self.pivots[piv] = vec
        return True

    def null_space(self) -> list:
        """A basis of the vectors x with row . x = 0 for every row: per
        free lane f, 1 at f and -row[f] at the pivot of each row."""
        p, rows = self.p, [(8 * piv, row.to_bytes(self.length, "little"))
                           for piv, row in self.pivots.items()]
        return [sum((-lanes[f] % p) << shift for shift, lanes in rows) + (1 << 8 * f)
                for f in range(self.length) if f not in self.pivots]


def _cp_basis(domain: ResidueRing, codomain: ResidueRing) -> list:
    """An F_p basis of the congruence-preserving tables A_f -> A_g, each

    as the A_g indices of its values, listed like A_f: the null space of
    the definition's equations on the lanes of a `PolyFnModule` row.  For
    each monic divisor h of g with deg h < deg f, each class of A_f mod h
    and each later member j against its first member i, every base-p
    digit of the label of (sigma(j) - sigma(i)) mod h is 0; lane (l, b) of
    a value, its coordinate at u^b t^l, adds the digits of steps[l][p^b]
    of the label map of A_g mod h."""
    field = domain.field
    p, n, dg = field.p, domain.modulus.degree, codomain.modulus.degree
    block = dg * field.m  # the lanes of one value
    space = _RowSpace(p, domain.size * block)
    for h in codomain.divisors:
        if h.degree >= n:
            continue  # every class mod h is one residue
        steps = _LABEL_MAPS.get(dg, h, table=False).steps
        images = [step[p ** b] for step in steps for b in range(field.m)]
        # per digit r of a label: the lanes of sigma(j) and of -sigma(i)
        rows = [[x // p ** r % p for x in images] for r in range(h.degree * field.m)]
        rows = [(int.from_bytes(bytes(row), "little"),
                 int.from_bytes(bytes(-x % p for x in row), "little")) for row in rows]
        for first, *rest in domain.classes(h):
            for j in rest:
                for up, down in rows:
                    space.add_row((up << 8 * block * j) + (down << 8 * block * first))
    # a value's index is the base-p number of its lanes
    lanes = [vec.to_bytes(space.length, "little") for vec in space.null_space()]
    return [[sum(c * p ** i for i, c in enumerate(x[s:s + block]))
             for s in range(0, space.length, block)] for x in lanes]


# ---------------------------------------------- polynomial-function span
class PolyFnModule:
    """The set of polynomial functions A_f -> A_g, as the F_p row space of

    the monomial functions x^k scaled by a module basis of A_g.

    Monomial tables m_{k+1} = m_k * m_1 (pointwise) repeat eventually;
    the builder adds generators until it sees an explicit repeat, which
    is the stopping proof that all monomials are covered (or until the
    span is already the full function space, which is stronger).
    A function is a row of a `_RowSpace`: |A_f| * deg g * m lanes, the
    base-p digits of each value's A_g index, lowest first, value after
    value in index order.  These are the F_p coordinates of its deg g
    base-q digits.  Membership is reduction against the pivot rows.
    Multiplying by t, by u and by the residues of A_f acts on every value
    of a row at once, by shifts, masks and small multiples: no Poly op and
    no loop per value."""

    def __init__(self, domain: ResidueRing, codomain: ResidueRing,
                 guard: EnumerationGuard = DEFAULT_GUARD):
        guard.check_degrees(domain.modulus, codomain.modulus)
        guard.check_domain_pairs(domain.modulus)
        self.domain = domain
        self.codomain = codomain
        field = domain.field
        p, q, m = field.p, field.q, field.m
        self.p = p
        dg = codomain.modulus.degree
        block = dg * m  # the lanes of one value
        self.length = domain.size * block
        self._space = space = _RowSpace(p, self.length)
        coords = field._coords

        def repeat(pattern: bytes) -> int:
            return int.from_bytes(pattern * (self.length // len(pattern)), "little")

        def times(unit: int, by: int, wraps):
            """The product of each run of `unit` lanes (a value by t, a
            digit by u): its lanes move up `by` lanes, and each lane k in
            wraps, moved out of the run, comes back as its value times the
            run of lanes wraps[k]."""
            low = repeat(b"\xff" + bytes(unit - 1))
            keep = repeat(bytes(by) + b"\xff" * (unit - by))

            def image(x: int) -> int:
                out = (x << 8 * by) & keep
                for lane, wrap in wraps.items():
                    out += ((x >> 8 * lane) & low) * wrap
                return space.mod_p(out)
            return image

        # t^dg = -(g_0 + ... + g_{dg-1} t^(dg-1)) (g monic), so coordinate b
        # of the top digit wraps to the lanes of -u^b g_j; u^m = -(mu_0 + ...
        # + mu_{m-1} u^(m-1)) by the field modulus.  A lane stays below
        # p + m (p - 1)^2 <= 157 (m = 1 at p = 13).
        gm = codomain.modulus.monic().coeffs
        times_t = times(block, m, {(dg - 1) * m + b: int.from_bytes(bytes(
            x for gj in gm[:dg] for x in coords[field._neg[field._mul[p ** b][gj]]]),
            "little") for b in range(m)})
        if m > 1:
            times_u = times(m, 1, {m - 1: int.from_bytes(
                bytes(-c % p for c in field.modulus[:m]), "little")})

        # residue i is sum_j c_j t^j, c_j = sum_b e_b u^b its base-q digits,
        # so m(i) r_i sums e times the row of u^b t^j m masked to the values
        # whose e_b is e: one step per (j, b, e) with some such value
        nf = domain.modulus.degree
        whole, empty = b"\xff" * block, bytes(block)
        digit_masks = []
        for j in range(nf):
            digit = [coords[i // q ** j % q] for i in range(domain.size)]
            for b in range(m):
                for e in range(1, p):
                    mask = int.from_bytes(b"".join(
                        whole if c[b] == e else empty for c in digit), "little")
                    if mask:
                        digit_masks.append((j * m + b, e, mask))

        monomial = repeat(b"\x01" + bytes(block - 1))  # x^0 = 1 at every residue
        seen = set()
        self.n_monomials = 0
        while len(space.pivots) < self.length:
            if monomial in seen:
                break
            seen.add(monomial)
            self.n_monomials += 1
            # u^b t^j m for j < max(deg g, deg f) and b < m, b fastest: the
            # first deg g * m are all A_g-scalar multiples of m, via an F_p
            # basis of A_g, and the step to the next monomial reads the rest
            scaled, row = [], monomial
            for j in range(max(dg, nf)):
                if j:
                    row = times_t(row)
                col = row
                for b in range(m):
                    if b:
                        col = times_u(col)
                    scaled.append(col)
            for row in scaled[:block]:
                space.add_row(row)
            monomial = space.combination(
                (e, scaled[k] & mask) for k, e, mask in digit_masks)

    def _encode(self, indices) -> int:
        """The row of a table given by its values' A_g indices."""
        p, block, out = self.p, self.length // self.domain.size, bytearray()
        for v in indices:
            for _ in range(block):
                v, d = divmod(v, p)
                out.append(d)
        return int.from_bytes(out, "little")

    @property
    def rank(self) -> int:
        return len(self._space.pivots)

    @property
    def size(self) -> int:
        return self.p ** self.rank

    def contains(self, sigma: FunctionTable) -> bool:
        if sigma.domain != self.domain or sigma.codomain != self.codomain:
            raise ValueError("table over different rings")
        return not self._space.reduce(self._encode(sigma.indices))


def polyfn_module(f: Poly, g: Poly,
                  guard: EnumerationGuard = DEFAULT_GUARD) -> PolyFnModule:
    return PolyFnModule(ResidueRing(f), ResidueRing(g), guard)


# --------------------------------------------------------- random tables
# random_values draws this many 32-bit words at most at a time
_DRAW_WORDS = 1 << 12


def random_values(domain: ResidueRing, codomain: ResidueRing, rng, samples: int) -> list:
    """samples * |A_f| A_g indices drawn uniformly: `samples` tables A_f ->

    A_g side by side, each listed like A_f.  They are the
    draws of rng.randrange(|A_g|), taken 32 bits at a time below 2^32: a
    word w gives w >> (32 - k), k the bit length of |A_g|, kept when below
    |A_g| and drawn again otherwise, so the values and the state of rng
    after them are those of one randrange per value.  getrandbits gives
    up to _DRAW_WORDS words in one call."""
    size, need = codomain.size, samples * domain.size
    if size >= 1 << 32:
        return [rng.randrange(size) for _ in range(need)]
    shift = 32 - size.bit_length()
    out: list = []
    while len(out) < need:
        n = min(need - len(out), _DRAW_WORDS)
        words = struct.unpack(f"<{n}I", rng.getrandbits(32 * n).to_bytes(4 * n, "little"))
        out += [v for v in (w >> shift for w in words) if v < size]
    return out


# ----------------------------------------------------------------- checks
# each returns the fields that `cpfq verify --what ...` prints after f and g
def verify_cpf_count(f: Poly, g: Poly, engine: str = "exhaustive",
                     guard: EnumerationGuard = DEFAULT_GUARD) -> dict:
    """counting.count_cpf against count_cpf_bruteforce."""
    formula = count_cpf(f, g)
    got = count_cpf_bruteforce(f, g, engine=engine, guard=guard)
    return {"engine": engine, "formula": str(formula), "oracle": got,
            "match": formula.equals_int(got)}


def verify_poly_count(f: Poly, g: Poly, guard: EnumerationGuard = DEFAULT_GUARD) -> dict:
    """counting.count_polyfn against the size of the PolyFnModule span."""
    formula = count_polyfn(f, g)
    got = polyfn_module(f, g, guard).size
    return {"formula": str(formula), "oracle": got, "match": formula.equals_int(got)}


def verify_crt(f: Poly, g: Poly, rng, samples: int,
               guard: EnumerationGuard = DEFAULT_GUARD) -> dict:
    """On `samples` random tables A_f -> A_g: the CRT split combines back,
    and a table preserves congruences iff each prime power part does."""
    guard.check_degrees(f, g)
    guard.check_domain_pairs(f)
    check_samples(f.field.q, f.degree, samples)
    dom, cod = ResidueRing(f), ResidueRing(g)
    moduli = tuple(ring.modulus for ring in cod.prime_powers)
    roundtrip_ok = local_global_ok = True
    per_batch = max(1, CRT_BATCH // dom.size)
    for done in range(0, samples, per_batch):
        values = random_values(dom, cod, rng, min(per_batch, samples - done))
        parts = split_indices(cod, values)
        roundtrip_ok &= combine_indices(g, moduli, parts) == values
        locals_ok = map(all, zip(*(_cp_verdicts(dom, ring, part)
                                   for ring, part in zip(cod.prime_powers, parts))))
        local_global_ok &= _cp_verdicts(dom, cod, values) == list(locals_ok)
    return {"samples": samples, "roundtrip_ok": roundtrip_ok,
            "local_global_ok": local_global_ok, "match": roundtrip_ok and local_global_ok}


# --------------------------------------------------------------- censuses
# Over F_2 the censuses pack a polynomial as its index: the int whose bit k
# is its t^k coefficient.  The monic g of degree n are range(2^n, 2^(n+1)).
def _sieve_f2(n: int, moduli) -> bytearray:
    """One flag per monic g of degree n over F_2, at g - 2^n: 0 when some
    m of `moduli` (packed) divides g, 1 otherwise.

    The multiples g = m h of one m are walked with h in Gray-code order
    from t^k, k = n - deg m: consecutive h differ in one bit b, so
    consecutive g differ by m << b, one XOR per mark."""
    top = 1 << n
    flags = bytearray(b"\1") * top
    steps = b""  # the bit flipped at each step of the Gray code on n bits
    for b in range(n):
        steps += bytes((b,)) + steps
    for m in moduli:
        k = n + 1 - m.bit_length()
        if k < 0:
            continue
        shifts = [m << b for b in range(k)]
        g = (m << k) ^ top
        flags[g] = 0
        for b in steps[:(1 << k) - 1]:
            g ^= shifts[b]
            flags[g] = 0
    return flags


def _irreducibles_f2(top: int) -> list:
    """The monic irreducibles of F_2[t] of degree 1 to top, packed, in
    index order: at each degree d, what _sieve_f2 leaves after the
    irreducibles of degree at most d / 2."""
    irreducibles: list = []
    for d in range(1, top + 1):
        low = [p for p in irreducibles if 2 * (p.bit_length() - 1) <= d]
        irreducibles += compress(range(1 << d, 2 << d), _sieve_f2(d, low))
    return irreducibles


def _square_multiples_f2(n: int, e: int) -> bytearray:
    """_sieve_f2 of the degree-n g on t^e, (t+1)^e and P^2 for each monic
    irreducible P with 2 <= deg P <= n / 2: 1 is left at the g with
    v_t(g) < e, v_{t+1}(g) < e and v_P(g) <= 1 at every other P.  P^2 is
    P with bit i moved to bit 2i (the Frobenius of F_2[t])."""
    t1 = 1  # (t + 1)^e
    for _ in range(e):
        t1 ^= t1 << 1
    squares = [int("0".join(format(p, "b")), 2)
               for p in _irreducibles_f2(n // 2) if p > 0b11]
    return _sieve_f2(n, [1 << e, t1, *squares])


class SelfChenCensus(FrozenRecord):
    _fields = ("degree", "total", "components")

    def __init__(self, degree: int, total: int, components: tuple | None):
        # components: (U1, U2, U3, U4) for q = 2, else None
        setfield(self, "degree", degree)
        setfield(self, "total", total)
        setfield(self, "components", components)


def census_self_chen(field: FieldSpec, n: int,
                     monic_only: bool = False) -> SelfChenCensus:
    """Count degree-n moduli g with every congruence-preserving function
    A_g -> A_g polynomial, testing each g directly (no factorization, no
    closed forms).

    For q != 2 these g are the square-free ones, counted by
    census_squarefree on one monic generator per ideal.  For q = 2 they are
    the g with v_t(g) <= 2, v_{t+1}(g) <= 2 and no other square factor,
    the ones that _square_multiples_f2(n, 3) leaves.  The count is split
    by the valuations at t and t+1: both <= 1 / exactly the first = 2 /
    exactly the second = 2 / both = 2.  v_t(g) is the number of trailing
    zero bits.  t + 1 divides g iff g has an even number of terms, and
    (t+1)^2 divides g iff t + 1 divides both g and g'."""
    if field.q != 2:
        return SelfChenCensus(n, census_squarefree(field, n, monic_only), None)
    check_census(field.q, n)
    comps = [0, 0, 0, 0]
    for g in compress(range(1 << n, 2 << n), _square_multiples_f2(n, 3)):
        v1_is_2 = not (g.bit_count() & 1 or _derivative_f2(g).bit_count() & 1)
        comps[(g & 7 == 4) + 2 * v1_is_2] += 1
    return SelfChenCensus(n, sum(comps), tuple(comps))


def census_squarefree(field: FieldSpec, n: int, monic_only: bool = True) -> int:
    """Count square-free degree-n polynomials, testing each one.

    u g is square-free iff g is, for every unit u, so the test runs on the
    q^n monic generators of the degree-n ideals only, and the count of all
    leading coefficients is q - 1 times theirs.  Over F_2 the square-free
    g are those that _square_multiples_f2(n, 2) leaves, no P^2 dividing
    them; otherwise _squarefree_monic takes gcd(g, g') on each, sharing
    the part of the test that does not read the constant term."""
    check_census(field.q, n)
    if field.q == 2:
        return _square_multiples_f2(n, 2).count(1)
    units = 1 if monic_only else field.q - 1
    return units * _squarefree_monic(field, n)


def _squarefree_monic(field: FieldSpec, n: int) -> int:
    """The number of monic square-free g of degree n over F_q, q != 2, by

    gcd(g, g') on each, walked as g = t h + a_0 over the q^(n-1) monic h of
    degree n - 1.  g' does not read a_0, so each h takes one derivative:
    - g' = 0 (g a p-th power): gcd(g, g') = g, and none of the q is
      square-free;
    - g' a unit: all q are;
    - deg g' >= 1: g mod g' = r + a_0 for r = t h mod g', one division per
      h, and gcd(g, g') = gcd(g', r + a_0).  As a_0 runs over F_q so does
      the constant term of r + a_0, so the q candidates run the rest of
      Euclid on g' and r with each constant term in turn.  When r is a
      constant, one of them is 0 (gcd g') and the q - 1 others are units.
    g = 1 (n = 0) and g = t + a_0 (n = 1, g' = 1) are all square-free."""
    q = field.q
    if n < 2:
        return q ** n
    count = 0
    for h in _degree_n_lists(field, n - 1):
        r = [0, *h]
        dg = _derivative_lists(field, r)
        if len(dg) < 2:
            count += q if dg else 0
            continue
        _divmod_lists(field, r, dg)
        if len(r) < 2:
            count += q - 1
            continue
        for c in range(q):
            r[0] = c
            count += len(_gcd_lists(field, dg[:], r[:])) == 1
    return count
