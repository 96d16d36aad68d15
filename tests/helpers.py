"""Shared shorthand for the test suite: field construction by size q,
polynomial parsing, monic enumeration, the per-coefficient reference
ring ops that the table-row arithmetic of `Poly` is checked against, the
trial-division factorization that `factorize` is checked against, the
Poly route of the basis decomposition that `decompose` is checked against,
and the hand-derived self-Chen closed forms that the Euler-product counts
and density are checked against."""

from fractions import Fraction

from cpfq.field import field_make
from cpfq.polyring import Poly, index_to_poly, parse, poly_to_index, valuation
from cpfq.residue import FunctionTable, ResidueRing
from cpfq.wagner import eval_Qk, mu

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


def monic_upto(field, max_degree, min_degree=1):
    out = []
    for n in range(min_degree, max_degree + 1):
        out.extend(monic_polys(field, n))
    return out


def ring(q, text):
    return ResidueRing(pol(q, text))


def table(domain, codomain, fn):
    return FunctionTable.from_callable(domain, codomain, fn)


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
