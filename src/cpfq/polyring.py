"""Exact univariate polynomial arithmetic over F_q: the ring A = F_q[t].

Polynomials are immutable dense coefficient tuples of canonical field
indices, low degree first, with no trailing zeros: a field element is its
index, and a scalar is a constant polynomial.  The zero polynomial has an
empty tuple and degree -infinity (a float sentinel, never -1).
`Poly(field, coeffs)` takes ints and checks their range; ring ops build
their results with the trusted constructor `Poly._new`, which only trims
zeros.

The module also fixes the canonical enumeration a_0, a_1, a_2, ... of A:
a_k is the polynomial whose coefficient vector is the base-q digit string
of k (so a_k for k < q are the field constants in index order, a_0 = 0,
a_1 = 1).
"""

from __future__ import annotations

import random
from itertools import product
from math import inf

from ._record import FrozenRecord, setfield
from .field import FieldSpec

NEG_INF = float("-inf")


class ParseError(ValueError):
    pass


# parse builds a dense coefficient list, so it refuses larger exponents
MAX_PARSE_DEGREE = 10_000


def _divmod_lists(f: FieldSpec, num: list, den) -> list:
    """Divide the coefficient list num in place by den (nonzero, no
    trailing zeros): num becomes the trimmed remainder; returns the
    quotient list."""
    dd = len(den) - 1
    if len(num) <= dd:
        return []
    add, mul, neg = f._add, f._mul, f._neg
    inv_row = mul[f._inv[den[-1]]]
    # (offset, mul row of -den[i]) for each nonzero lower term
    terms = [(i, mul[neg[c]]) for i, c in enumerate(den[:dd]) if c]
    quo = [0] * (len(num) - dd)
    for shift in range(len(num) - dd - 1, -1, -1):
        c = inv_row[num[shift + dd]]
        if c:
            quo[shift] = c
            for i, row in terms:
                k = shift + i
                num[k] = add[num[k]][row[c]]
    del num[dd:]
    while num and num[-1] == 0:
        num.pop()
    return quo


def _gcd_lists(f: FieldSpec, x: list, y: list) -> list:
    """A gcd of the coefficient lists x and y (not made monic): the last
    nonzero remainder of Euclid.  Each step reduces x mod y in place and
    keeps no quotient; both lists are consumed."""
    add, mul, neg, inv = f._add, f._mul, f._neg, f._inv
    while y:
        dd = len(y) - 1
        inv_row = mul[inv[y[-1]]]
        for top in range(len(x) - 1, dd - 1, -1):
            c = inv_row[x[top]]
            if c:  # x -= c t^(top - dd) y; x[top] turns 0 and is dropped
                row = mul[neg[c]]
                for k, b in zip(range(top - dd, top), y):
                    x[k] = add[x[k]][row[b]]
        del x[dd:]
        while x and x[-1] == 0:
            x.pop()
        x, y = y, x
    return x


def _derivative_lists(f: FieldSpec, cs) -> list:
    """The formal derivative of a coefficient list, trimmed."""
    mul, p = f._mul, f.p
    out = [mul[c][i % p] for i, c in enumerate(cs) if i]
    while out and out[-1] == 0:
        out.pop()
    return out


# F_2[t] packed: a polynomial is the int whose bit k is its t^k
# coefficient, which is also its index k of a_k.
def _derivative_f2(a: int) -> int:
    """Only the odd powers survive: bit 2j + 1 goes to bit 2j."""
    k = (a.bit_length() + 1) >> 1
    return (a >> 1) & (((1 << 2 * k) - 1) // 3)


class Poly:
    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: FieldSpec, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient index {c} out of range")
        self.field = field
        self.coeffs = tuple(cs)
        self._hash = None

    @classmethod
    def _new(cls, field: FieldSpec, cs: list) -> "Poly":
        """Trusted constructor: cs is a list of valid indices of `field`

        (a ring-op result or digits valid by construction); only its
        trailing zeros are trimmed."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(cs)
        p._hash = None
        return p

    # ------------------------------------------------------------- basics
    @property
    def degree(self):
        """Degree as an int; -infinity for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        f = self.field
        row = f._mul[f.inv(self.coeffs[-1])]
        return Poly._new(f, [row[c] for c in self.coeffs])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return False
        f, g = self.field, other.field
        return (f is g or f == g) and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.coeffs))
        return self._hash

    # --------------------------------------------------------- arithmetic
    # Each op indexes rows of the field's add/mul/neg tables held in
    # locals and builds its result with the trusted constructor.
    def _check(self, other) -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise ValueError("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = f._add
        out = [add[x][y] for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return Poly._new(f, out)

    def __sub__(self, other):
        other = self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        add, neg = f._add, f._neg
        out = [add[x][neg[y]] for x, y in zip(a, b)]
        if len(a) >= len(b):
            out.extend(a[len(b):])
        else:
            out.extend([neg[y] for y in b[len(a):]])
        return Poly._new(f, out)

    def __neg__(self):
        f = self.field
        neg = f._neg
        return Poly._new(f, [neg[c] for c in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._new(f, [])
        add, mul = f._add, f._mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                mrow = mul[x]
                for j, y in enumerate(b, i):
                    if y:
                        out[j] = add[out[j]][mrow[y]]
        return Poly._new(f, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly._new(self.field, [1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if len(self.coeffs) < len(other.coeffs):
            return Poly._new(f, []), self
        num = list(self.coeffs)
        quo = _divmod_lists(f, num, other.coeffs)
        return Poly._new(f, quo), Poly._new(f, num)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return Poly._new(self.field, [0] * k + list(self.coeffs))

    def derivative(self) -> "Poly":
        return Poly._new(self.field, _derivative_lists(self.field, self.coeffs))

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"Poly({to_text(self)!r})"


# ------------------------------------------------------------------ parse
def _split_terms(text: str):
    """Split at top-level + and -, keeping signs; depth tracks parentheses."""
    terms = []
    sign, buf, depth = 1, [], 0
    for ch in text:
        if ch == "(":
            depth += 1
            buf.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
            buf.append(ch)
        elif ch in "+-" and depth == 0:
            if buf:
                terms.append((sign, "".join(buf)))
                buf = []
            elif terms:
                raise ParseError(f"dangling operator in {text!r}")
            sign = 1 if ch == "+" else -1
        else:
            buf.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    if not buf:
        raise ParseError(f"empty term in {text!r}")
    terms.append((sign, "".join(buf)))
    return terms


def _parse_monomial(term: str, var: str):
    """Split one term into (coefficient text, exponent) for the variable."""
    depth = 0
    pos = None
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == var and depth == 0:
            if pos is not None:
                raise ParseError(f"repeated variable in term {term!r}")
            pos = i
    if pos is None:
        return term, 0
    coef = term[:pos]
    if coef.endswith("*"):
        coef = coef[:-1]
    rest = term[pos + 1:]
    if rest == "":
        exp = 1
    elif rest.startswith("^") and rest[1:].isdigit():
        exp = int(rest[1:])
        if exp > MAX_PARSE_DEGREE:
            raise ParseError(f"degree {exp} in term {term!r} exceeds the "
                             f"parse bound {MAX_PARSE_DEGREE}")
    else:
        raise ParseError(f"malformed exponent in term {term!r}")
    return coef, exp


def _parse_coefficient(text: str, field: FieldSpec) -> int:
    """Coefficient token -> canonical element index."""
    if text == "":
        return 1
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
        if not text:
            raise ParseError("empty parenthesized coefficient")
    if text.isdigit():
        return int(text) % field.p
    if field.m == 1:
        raise ParseError(f"malformed coefficient {text!r}")
    mod = field.modulus_poly
    return poly_to_index(parse(mod.field, text, "u") % mod)


def parse(field: FieldSpec, text: str, var: str = "t") -> Poly:
    """Parse terms like c*t^k, t^k, t, c joined by + and -; extension-field

    coefficients are u-polynomials, parenthesized or bare monomials.
    var="u" reads such a u-polynomial itself, over F_p."""
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, got {text!r}")
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial text")
    acc: dict = {}
    for sign, term in _split_terms(s):
        coef, exp = _parse_monomial(term, var)
        c = _parse_coefficient(coef, field)
        if sign < 0:
            c = field.neg(c)
        acc[exp] = field.add(acc.get(exp, 0), c)
    deg = max(acc) if acc else 0
    return Poly(field, [acc.get(i, 0) for i in range(deg + 1)])


def to_text(p: Poly, var: str = "t") -> str:
    if not p.coeffs:
        return "0"
    field = p.field
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if k == 0:
            parts.append(field.element_str(c))
        elif c == 1:
            parts.append(mono)
        else:
            cs = field.element_str(c)
            if "+" in cs:
                cs = f"({cs})"
            parts.append(cs + mono)
    return "+".join(parts)


# ------------------------------------------------------- index bijection
def index_to_poly(field: FieldSpec, k: int) -> Poly:
    """a_k: the polynomial whose base-q digits of k give its coefficients."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    q = field.q
    cs = []
    while k:
        cs.append(k % q)
        k //= q
    return Poly._new(field, cs)


def poly_to_index(p: Poly) -> int:
    q = p.field.q
    k = 0
    for c in reversed(p.coeffs):
        k = k * q + c
    return k


def enumerate_residues(f: Poly) -> list:
    """Canonical residue representatives mod f: all degrees < deg f, plus 0."""
    d = f.degree
    if not isinstance(d, int) or d < 1:
        raise ValueError("modulus must have degree >= 1")
    return [index_to_poly(f.field, k) for k in range(f.field.q ** d)]


def _degree_n_lists(field: FieldSpec, n: int):
    """degree_n_polys as coefficient lists, each list new."""
    # product varies its last digit fastest, index order the lowest
    for low in product(range(field.q), repeat=n):
        yield [*low[::-1], 1]


def degree_n_polys(field: FieldSpec, n: int):
    """Every monic polynomial of degree n, in index order."""
    for cs in _degree_n_lists(field, n):
        yield Poly._new(field, cs)


# --------------------------------------------------------- factorization
# Square-free, distinct-degree and equal-degree factorization (von zur
# Gathen-Gerhard, Modern Computer Algebra, ch. 14).  The closed forms of
# the paper need no equal-degree splitting, and only part of the
# distinct-degree walk: `chen.gamma` reads the repeated parts, the counts
# the factors of degree below deg f.
class _ModRing:
    """F_q[t]/(s) for a monic s of degree n >= 1, on coefficient lists of
    length n, with the q-th power map `frob`."""

    def __init__(self, s: Poly):
        self.field, self.s, self.n = s.field, s.coeffs, s.degree
        self.rows = [self.reduce([1])]

    def reduce(self, a: list) -> list:
        """a mod s, in place, padded to length n."""
        _divmod_lists(self.field, a, self.s)
        a += [0] * (self.n - len(a))
        return a

    def frob(self, a: list) -> list:
        """a^q mod s.  The map is F_q-linear, a^q = sum a_i t^(qi), so it
        is a sum of the rows t^(qi) mod s, each built when first needed."""
        f = self.field
        add, mul, rows = f._add, f._mul, self.rows
        out = [0] * self.n
        for i, c in enumerate(a):
            if c:
                while len(rows) <= i:
                    rows.append(self.reduce([0] * f.q + rows[-1]))
                mrow = mul[c]
                out = [add[x][mrow[y]] for x, y in zip(out, rows[i])]
        return out


def _pth_root(c: Poly) -> Poly:
    """The polynomial whose p-th power is c (c' = 0): coefficient c_(pj)
    goes to degree j, raised to q/p, the inverse of x -> x^p on F_q."""
    f = c.field
    roots = [f.pow(a, f.q // f.p) for a in range(f.q)]
    return Poly._new(f, [roots[a] for a in c.coeffs[::f.p]])


def squarefree_decomposition(g: Poly) -> list:
    """[(s, k), ...] with g = lead(g) * prod s^k, k ascending, each s monic,
    square-free and of degree >= 1, the s pairwise coprime: s is the
    product of the irreducible factors of multiplicity exactly k.

    Yun's loop peels the multiplicities prime to p off c = gcd(g, g');
    what is left is a p-th power, decomposed through its p-th root."""
    g = g.monic()
    c = gcd(g, g.derivative())
    if c.degree == 0:
        return [(g, 1)]
    out = []
    w = g // c
    k = 1
    while w.degree >= 1:
        y = gcd(w, c)
        z = w // y
        if z.degree >= 1:
            out.append((z, k))
        w, c = y, c // y
        k += 1
    if c.degree >= 1:
        p = g.field.p
        out += [(s, j * p) for s, j in squarefree_decomposition(_pth_root(c))]
        out.sort(key=lambda sk: sk[1])
    return out


def _distinct_degree(s: Poly, stop=inf):
    """Yield (d, product of the irreducible factors of degree d) of a monic
    square-free s, d ascending: the degree-d factors are those that divide
    t^(q^d) - t and no t^(q^i) - t with i < d.

    The walk ends before d = stop: the last yield is then the product of
    every factor of degree >= stop, unsplit, as (its degree, it)."""
    f = s.field
    ring = _ModRing(s)
    h = ring.reduce([0, 1])
    d = 0
    while 2 * (d + 1) <= s.degree and d + 1 < stop:
        d += 1
        h = ring.frob(h)
        h_minus_t = list(h)
        h_minus_t[1] = f._add[h[1]][f._neg[1]]
        u = gcd(s, Poly._new(f, h_minus_t))
        if u.degree >= 1:
            yield d, u
            s = s // u
            ring = _ModRing(s)
            h = ring.reduce(h)
    if s.degree >= 1:
        yield s.degree, s


def _equal_degree(u: Poly, d: int, rng) -> list:
    """The monic irreducible factors of u, a monic product of distinct
    irreducibles of degree d (Cantor-Zassenhaus, by the trace map).

    Tr(a) = a + a^q + ... + a^(q^(d-1)) mod u lies in F_q modulo each
    factor, so u = prod_c gcd(u, Tr(a) - c) over c in F_q; a random a
    leaves u whole only when all r factors share one trace (q^(1-r)).
    For odd q this takes the place of a^((q^d-1)/2), which costs d modular
    products on top of the same d Frobenius steps and splits u in two."""
    if u.degree == d:
        return [u]
    f = u.field
    add = f._add
    ring = _ModRing(u)
    while True:
        a = [rng.randrange(f.q) for _ in range(u.degree)]
        tr = a
        for _ in range(d - 1):
            a = ring.frob(a)
            tr = [add[x][y] for x, y in zip(tr, a)]
        tr = Poly._new(f, tr)
        parts, rest = [], u
        for c in range(f.q):
            v = gcd(rest, tr - Poly._new(f, [c]))
            if v.degree >= 1:
                parts.append(v)
                rest = rest // v
                if rest.degree < 1:
                    break
        if len(parts) > 1:
            return [p for v in parts for p in _equal_degree(v, d, rng)]


# ------------------------------------------------------- irreducibility
def monic_irreducibles(field: FieldSpec, degree: int) -> tuple:
    """All monic irreducibles of exact degree `degree`, in index order."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return tuple(p for p in degree_n_polys(field, degree)
                 if is_irreducible(p))


def is_irreducible(p: Poly) -> bool:
    """Square-free with no factor of degree <= deg p / 2, by the
    distinct-degree check, which stops at the first factor found."""
    d = p.degree
    if not isinstance(d, int) or d < 1:
        return False
    if d == 1:
        return True
    pm = p.monic()
    if gcd(pm, pm.derivative()).degree != 0:
        return False
    return next(_distinct_degree(pm))[0] == d


class Factorization(FrozenRecord):
    """unit: the constant polynomial of the leading coefficient; factors:
    ((Poly, int), ...), monic irreducible, sorted by (degree, index)."""

    _fields = ("unit", "factors")

    def __init__(self, unit: Poly, factors: tuple):
        setfield(self, "unit", unit)
        setfield(self, "factors", factors)

    def monic_divisors(self) -> list:
        """All monic divisors with degree >= 1, sorted by (degree, index)."""
        one = Poly._new(self.unit.field, [1])
        divs = [one]
        for p, e in self.factors:
            grown = []
            pw = one
            for _ in range(e + 1):
                grown += [d * pw for d in divs]
                pw = pw * p
            divs = grown
        out = [d for d in divs if d.degree >= 1]
        out.sort(key=lambda d: (d.degree, poly_to_index(d)))
        return out

    def to_json(self):
        return {"unit": to_text(self.unit),
                "factors": [[to_text(p), e] for p, e in self.factors]}

    def __str__(self):
        parts = [to_text(self.unit)]
        parts += [f"({to_text(p)})^{e}" for p, e in self.factors]
        return " * ".join(parts)


def factorize(g: Poly) -> Factorization:
    """Factor a nonconstant polynomial: square-free, distinct-degree and
    equal-degree factorization, factors sorted by (degree, index).  The
    splitting draws from a generator seeded here, so a call is
    deterministic."""
    if not isinstance(g.degree, int) or g.degree < 1:
        raise ValueError("cannot factor a constant")
    rng = random.Random(0)
    factors = []
    for s, k in squarefree_decomposition(g):
        for d, u in _distinct_degree(s):
            factors += [(p, k) for p in _equal_degree(u, d, rng)]
    factors.sort(key=lambda pe: (pe[0].degree, poly_to_index(pe[0])))
    return Factorization(Poly._new(g.field, [g.leading]), tuple(factors))


def valuation(p: Poly, h: Poly, check: bool = True):
    """Largest v with p^v | h; +infinity for h = 0."""
    if check and not is_irreducible(p):
        raise ValueError("valuation requires an irreducible polynomial")
    if h.is_zero():
        return inf
    v = 0
    while True:
        quo, r = divmod(h, p)
        if not r.is_zero():
            return v
        h = quo
        v += 1


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (zero for two zeros), by Euclid on coefficient lists."""
    b = a._check(b)
    f = a.field
    return Poly._new(f, _gcd_lists(f, list(a.coeffs), list(b.coeffs))).monic()


def xgcd(a: Poly, b: Poly):
    """(g, x, y) with x*a + y*b = g, g monic (or zero)."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly(field, [1]), Poly(field)
    t0, t1 = Poly(field), Poly(field, [1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    e = Poly._new(field, [field.inv(r0.leading)])
    return r0 * e, s0 * e, t0 * e
