"""Size guards: every refusal of oversized work, in one place.

Each check decides its bound exactly and in O(1) before the work starts
(`power_exceeds` never builds a power too large to hold) and refuses with
a GuardExceeded of one shape, "<what> guarded to <expr> <= 2^<b>, got
<base>^<exp> = 2^<x.xx>"; the degree bounds drop the log2 parts.  The two
settable bounds are the fields of EnumerationGuard (the CLI's
--guard-functions and --guard-degree); the others are constants.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord

FIELD_LOG2 = 4           # q <= 16: operation tables of q^2 entries
CENSUS_LOG2 = 16         # q^n polynomials walked by a census or density
# the literal route takes q^(2 deg f) / 2 factorial steps, each a product
# mod g of degree < deg g, then q^deg f Euclid runs on g: a few seconds
LITERAL_SIZE_LOG2 = 9    # on q^deg f
LITERAL_WORK_LOG2 = 23   # on q^(2 deg f) * deg g
# the tables of the basis check of verify --what basis: up to |A_{P^e}|
# index tables of product maps (c -> c a_t) and coset labels of |A_{P^e}|
# entries each; a basis context builds no product table past it, and a
# table count within max_functions = 2^20 never reaches it (C^D <= 2^20
# with |A_f| = D >= 2 gives C^2 <= 2^20)
BASIS_TABLE_LOG2 = 20    # on |A_{P^e}|^2
# the random tables of verify --what crt and basis: every value drawn is
# split, checked and (crt) combined; the default 200 samples pass at the
# largest |A_f| = 2^10 of the domain pair bound (2^17.64)
SAMPLES_LOG2 = 18        # on samples * |A_f|
# factoring g runs up to deg g / 2 distinct-degree steps, each a Frobenius
# map and a gcd at degree deg g: about deg(g)^3 table lookups.  At the
# bound an irreducible g takes 1-3 s to factor over F_2 .. F_16 (F_16 the
# slowest), and so do characterize and decompose, which trust the factors
# found, and the counts at deg f >= deg g / 2.  The counts walk only the
# degrees below deg f; gamma and chen walk only the repeated parts of g,
# up to half their degree (0.5-0.6 s for P^2, deg P = 150, over F_16)
FACTOR_DEGREE = 300      # on deg g of every modulus the CLI factors


class GuardExceeded(ValueError):
    """A request refused by a size guard before its work starts."""


def power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether base^exponent > bound (base >= 1).  The bit lengths decide

    first, as base^exponent >= 2^(exponent * (bits(base) - 1)), so a
    power too large to build is never built."""
    if exponent * (base.bit_length() - 1) > bound.bit_length():
        return True
    return base ** exponent > bound


def check_power(what: str, expr: str, base: int, exponent: int, bound: int,
                factor: int = 1):
    """Refuse base^exponent * factor > bound (base, factor, bound >= 1)."""
    if power_exceeds(base, exponent, bound // factor):
        b = math.log2(bound)
        got = f"{base}^{exponent}" + (f" * {factor}" if factor > 1 else "")
        raise GuardExceeded(
            f"{what} guarded to {expr} <= 2^{b:.{0 if b.is_integer() else 2}f}, "
            f"got {got} = 2^{exponent * math.log2(base) + math.log2(factor):.2f}")


def check_field(p: int, m: int):
    check_power("field size", "q", p, m, 2 ** FIELD_LOG2)


def check_census(q: int, n: int):
    if n < 0:
        raise ValueError("degree must be >= 0")
    check_power("census", "q^n", q, n, 2 ** CENSUS_LOG2)


def check_literal(q: int, n: int, deg_g: int):
    check_power("literal path", "q^(deg f)", q, n, 2 ** LITERAL_SIZE_LOG2)
    check_power("literal path", "q^(2 deg f) * deg g", q, 2 * n,
                2 ** LITERAL_WORK_LOG2, factor=deg_g)


def check_samples(q: int, n: int, samples: int):
    if samples:
        check_power("sampled values", "samples * |A_f|", q, n, 2 ** SAMPLES_LOG2,
                    factor=samples)


def check_factor_degree(g):
    if g.degree > FACTOR_DEGREE:
        raise GuardExceeded(f"factorization guarded to deg g <= {FACTOR_DEGREE}, "
                            f"got {g.degree}")


def check_basis_tables(q: int, degree: int):
    check_power("basis tables", "|A_{P^e}|^2", q, 2 * degree, 2 ** BASIS_TABLE_LOG2)


class EnumerationGuard(FrozenRecord):
    """max_functions bounds every enumeration of the oracles and the CLI
    (|A_g|^|A_f| tables, |A_f|^2 pairs, the residues of A_f); max_degree
    bounds deg f and deg g."""

    _fields = ("max_functions", "max_degree")

    def __init__(self, max_functions: int = 2 ** 20, max_degree: int = 12):
        if max_functions < 1:
            raise ValueError("max_functions must be >= 1")
        super().__init__(max_functions, max_degree)

    def check_degrees(self, *polys):
        for p in polys:
            if p.degree > self.max_degree:
                raise GuardExceeded(f"degree guarded to deg f, deg g <= "
                                    f"{self.max_degree}, got {p.degree}")

    def check_total_functions(self, domain_size: int, codomain_size: int):
        check_power("table count", "|A_g|^|A_f|", codomain_size, domain_size,
                    self.max_functions)

    def check_domain_pairs(self, f):
        """The CRT check and the basis context cost time growing with
        |A_f|^2.  The polynomial-function span costs about rank x length
        row ops of `length` lanes each, with rank up to length = |A_f| deg g
        m, so this bound admits spans that run for minutes (q = 2, deg f =
        deg g = 10, g irreducible)."""
        check_power("domain pairs", "|A_f|^2", f.field.q, 2 * f.degree,
                    self.max_functions)

    def check_residues(self, f):
        check_power("residues", "|A_f|", f.field.q, f.degree, self.max_functions)


DEFAULT_GUARD = EnumerationGuard()
