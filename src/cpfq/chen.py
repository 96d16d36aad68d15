"""Chen pairs: moduli pairs where congruence preservation forces polynomiality.

gamma(h) is the threshold degree of h: every function A_f -> A_h that
preserves congruences is polynomial exactly when deg f < gamma(h).  It is
computed prime power by prime power and can be +infinity (math.inf).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import FrozenRecord, setfield
from .field import FieldSpec
from .guards import DEFAULT_GUARD, EnumerationGuard, check_census
from .oracle import census_self_chen, count_cpf_bruteforce, polyfn_module
from .polyring import Poly, _distinct_degree, is_irreducible, squarefree_decomposition

GAMMA_INF = math.inf


def _gamma_local(q: int, d: int, e: int):
    """Threshold for P^e, deg P = d, over F_q (P known irreducible)."""
    if e == 1:
        return GAMMA_INF
    if q == 2:
        if e == 2 and d == 1:
            return GAMMA_INF
        return d + 2
    return d + 1


def gamma_prime_power(p: Poly, e: int):
    """Threshold for a prime power modulus p^e; +infinity when every

    congruence-preserving function into A_{p^e} is polynomial."""
    if not is_irreducible(p):
        raise ValueError("gamma_prime_power requires an irreducible polynomial")
    if e < 1:
        raise ValueError("exponent must be >= 1")
    return _gamma_local(p.field.q, p.degree, e)


def gamma(h: Poly):
    """The threshold of h: the minimum of _gamma_local over its prime powers.

    A factor of exponent 1 gives +infinity, so only the parts s_k, k >= 2,
    of the square-free decomposition are read.  On each, the local value
    grows with the factor degree, so the distinct-degree walk stops at the
    first degree that gives a finite value (above degree 1 at q = 2 and
    k = 2); the factors of higher degree are never found."""
    d = h.degree
    if not isinstance(d, int) or d < 1:
        raise ValueError("g must have degree >= 1")
    q = h.field.q
    best = GAMMA_INF
    for s, k in squarefree_decomposition(h):
        if k == 1:
            continue
        for dp, _ in _distinct_degree(s):
            local = _gamma_local(q, dp, k)
            if local != GAMMA_INF:
                best = min(best, local)
                break
    return best


class ChenVerdict(FrozenRecord):
    _fields = ("chen_pair", "deg_f", "gamma_g")

    def __init__(self, chen_pair: bool, deg_f: int, gamma_g):
        # gamma_g is an int or math.inf
        setfield(self, "chen_pair", chen_pair)
        setfield(self, "deg_f", deg_f)
        setfield(self, "gamma_g", gamma_g)

    def __bool__(self):
        return self.chen_pair


def is_chen_pair(f: Poly, g: Poly) -> ChenVerdict:
    """(f, g) is a Chen pair iff deg f < gamma(g)."""
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise ValueError("f must have degree >= 1")
    if g.field != f.field:
        raise ValueError("f and g must share one field")
    gg = gamma(g)
    return ChenVerdict(n < gg, n, gg)


def is_self_chen(g: Poly) -> bool:
    """Whether (g, g) is a Chen pair: a finite gamma(g) is at most deg g."""
    return gamma(g) == GAMMA_INF


def squarefree_count(n: int, q: int) -> int:
    """Monic square-free polynomials of degree n over F_q."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return 1
    if n == 1:
        return q
    return q ** n - q ** (n - 1)


def chen_self_count(n: int, q: int = 2) -> int:
    """Degree-n g over F_q (all leading coefficients) with (g, g) a Chen
    pair.  Their Euler product differs from the square-free series only in
    the q linear factors: no square of higher degree keeps gamma infinite."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    series = [squarefree_count(k, q) for k in range(n + 1)]
    if _gamma_local(q, 1, 2) == GAMMA_INF:
        for _ in range(q):  # times 1 + x + x^2, divided by 1 + x
            s = [0, 0] + series
            series = [s[k] + s[k + 1] + s[k + 2] for k in range(n + 1)]
            for k in range(1, n + 1):
                series[k] -= series[k - 1]
    return (q - 1) * series[n]


def density_exact(q: int) -> Fraction:
    """Limit density of self-Chen moduli over F_q: the residue of the
    chen_self_count series at its simple pole x = 1/q."""
    if q < 2:
        raise ValueError("q must be >= 2")
    y = Fraction(1, q)
    linear = 1 + y + y * y if _gamma_local(q, 1, 2) == GAMMA_INF else 1 + y
    return (1 - y) * (linear / (1 + y)) ** q


class DensityReport(FrozenRecord):
    """per_degree: the self-Chen counts for n = 1..max_degree;
    per_degree_total: the polynomials inspected per degree; fraction: the
    cumulative self-Chen fraction, against its limit."""

    _fields = ("q", "max_degree", "monic_only", "per_degree", "per_degree_total",
               "fraction", "limit")

    def __init__(self, q: int, max_degree: int, monic_only: bool, per_degree: tuple,
                 per_degree_total: tuple, fraction: Fraction, limit: Fraction):
        setfield(self, "q", q)
        setfield(self, "max_degree", max_degree)
        setfield(self, "monic_only", monic_only)
        setfield(self, "per_degree", per_degree)
        setfield(self, "per_degree_total", per_degree_total)
        setfield(self, "fraction", fraction)
        setfield(self, "limit", limit)

    @property
    def error(self) -> Fraction:
        return abs(self.fraction - self.limit)


def density_empirical(field: FieldSpec, max_degree: int,
                      monic_only: bool = False) -> DensityReport:
    """Census the self-Chen condition over every polynomial of degree

    1..max_degree (all leading coefficients, unless monic_only), one
    oracle.census_self_chen per degree."""
    q = field.q
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    check_census(q, max_degree)
    degrees = range(1, max_degree + 1)
    counts = tuple(census_self_chen(field, n, monic_only).total for n in degrees)
    units = 1 if monic_only else q - 1
    totals = tuple(units * q ** n for n in degrees)
    return DensityReport(q, max_degree, monic_only, counts, totals,
                         Fraction(sum(counts), sum(totals)), density_exact(q))


def verify_chen(f: Poly, g: Poly, engine: str = "exhaustive",
                guard: EnumerationGuard = DEFAULT_GUARD) -> dict:
    """The Chen verdict against M == N, both counted by the oracle."""
    verdict = is_chen_pair(f, g)
    m = count_cpf_bruteforce(f, g, engine=engine, guard=guard)
    n = polyfn_module(f, g, guard).size
    return {"formula": verdict.chen_pair, "oracle": m == n, "M": m, "N": n,
            "match": verdict.chen_pair == (m == n)}


def verify_census(field: FieldSpec, n: int) -> dict:
    """chen_self_count against oracle.census_self_chen at degree n."""
    c = census_self_chen(field, n)
    formula = chen_self_count(n, field.q)
    out = {"n": c.degree, "formula": formula, "census": c.total,
           "match": formula == c.total}
    if c.components is not None:
        out["components"] = list(c.components)
    return out
