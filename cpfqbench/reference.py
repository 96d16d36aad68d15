"""Reference values for the benchmark, computed without importing cpfq.

Polynomials over a prime field F_q are tuples of ints in 0..q-1, low
degree first, with no trailing zeros.  Their index is the base-q number
whose digits are the coefficients, which is also the order in which cpfq
lists factors of equal degree.

Everything here follows the paper's statements directly:

* monic irreducibles by a sieve over products, checked against Gauss's
  count (1/d) * sum_{k | d} mu(k) q^(d/k);
* gamma(g) by the prime-power rule on a known factorization;
* M (congruence-preserving functions A_f -> A_g, deg f = n) from the
  basis criterion: coordinate k ranges over P^mu(k) A_{P^e} with
  mu(k) = min(e, floor(floor(log_q k) / d));
* N (polynomial functions) from the P-adic valuation of the generalized
  factorial, v_P(k!) = sum_j floor(k / q^(d j)), summed by thresholds
  instead of by a loop over all k < q^n;
* the self-Chen census closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


# ------------------------------------------------------------ arithmetic
def trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def mul(a: tuple, b: tuple, q: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return trim(out)


def power(a: tuple, e: int, q: int) -> tuple:
    out = (1,)
    for _ in range(e):
        out = mul(out, a, q)
    return out


def index(a: tuple, q: int) -> int:
    k = 0
    for c in reversed(a):
        k = k * q + c
    return k


def from_index(k: int, q: int) -> tuple:
    cs = []
    while k:
        cs.append(k % q)
        k //= q
    return tuple(cs)


def monomial(n: int) -> tuple:
    """t^n."""
    return (0,) * n + (1,)


def to_text(a: tuple) -> str:
    """The text form cpfq prints for a polynomial over a prime field."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        var = "t" if k == 1 else f"t^{k}"
        parts.append(var if c == 1 else f"{c}{var}")
    return "+".join(parts)


# ---------------------------------------------------------- irreducibles
def moebius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def gauss_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q."""
    total = sum(moebius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0)
    return total // d


def monic_irreducibles(q: int, max_degree: int) -> dict:
    """{d: [monic irreducibles of degree d in index order]} for d <= max_degree.

    A monic polynomial of degree d is reducible exactly when it is a
    monic irreducible of degree k <= d/2 times a monic polynomial of
    degree d - k, so the sieve marks those products and keeps the rest.
    Raises AssertionError when a count differs from Gauss's formula."""
    # the monic polynomials of degree d have the indices q^d .. 2 q^d - 1
    out: dict = {}
    for d in range(1, max_degree + 1):
        reducible = set()
        for k in range(1, d // 2 + 1):
            for p in out[k]:
                for other in range(q ** (d - k), 2 * q ** (d - k)):
                    reducible.add(index(mul(p, from_index(other, q), q), q))
        found = [from_index(i, q) for i in range(q ** d, 2 * q ** d)
                 if i not in reducible]
        if len(found) != gauss_count(q, d):
            raise AssertionError(
                f"sieve found {len(found)} irreducibles of degree {d} over "
                f"F_{q}, Gauss's formula gives {gauss_count(q, d)}")
        out[d] = found
    return out


# ------------------------------------------------------- paper's results
def gamma_prime_power(q: int, d: int, e: int):
    """gamma(P^e) for deg P = d: +inf when e = 1, and for q = 2 also when

    P is linear and e = 2; otherwise d + 2 for q = 2 and d + 1 for odd q."""
    if e == 1:
        return INF
    if q == 2:
        return INF if (d == 1 and e == 2) else d + 2
    return d + 1


def gamma(q: int, factors) -> float:
    """factors: [(degree, exponent), ...] of g's distinct monic irreducibles."""
    return min(gamma_prime_power(q, d, e) for d, e in factors)


def cpf_exponent(q: int, n: int, factors) -> int:
    """log_q M for deg f = n and g with the given (degree, exponent) factors.

    Coordinates k = 0 .. q^n - 1 of a function into A_{P^e}; the k with
    floor(log_q k) = j number (q - 1) q^j and each has d*(e - min(e, j//d))
    free F_q digits (k = 0 has d*e)."""
    total = 0
    for d, e in factors:
        free = d * e
        for j in range(n):
            free += (q - 1) * q ** j * d * (e - min(e, j // d))
        total += free
    return total


def _factorial_valuation(k: int, big_q: int) -> int:
    v, pw = 0, big_q
    while pw <= k:
        v += k // pw
        pw *= big_q
    return v


def polyfn_exponent(q: int, n: int, factors) -> int:
    """log_q N: sum over P^e of d*(e q^n - sum_{k=1}^{q^n-1} min(e, v_P(k!))).

    v_P(k!) is nondecreasing in k, so the inner sum is
    sum_{v=1}^{e} #{k < q^n : v_P(k!) >= v}, each count found by
    bisecting for the first k reaching v."""
    size = q ** n
    total = 0
    for d, e in factors:
        big_q = q ** d
        inner = 0
        for v in range(1, e + 1):
            lo, hi = 0, v * big_q  # v_P((v Q)!) >= v
            while lo < hi:
                mid = (lo + hi) // 2
                if _factorial_valuation(mid, big_q) >= v:
                    hi = mid
                else:
                    lo = mid + 1
            inner += max(0, size - max(lo, 1))
        total += d * (e * size - inner)
    return total


def self_chen_count(q: int, n: int) -> int:
    """Degree-n g over F_q, every leading coefficient, with (g, g) Chen."""
    if q == 2:
        if n <= 3:
            return (1, 2, 4, 6)[n]
        num = 49 * 2 ** (n - 3) + (-1) ** (n - 1) * (3 * n - 13)
        if num % 9:
            raise AssertionError(f"q=2 census closed form not integral at n={n}")
        return num // 9
    if n == 0:
        return q - 1
    if n == 1:
        return (q - 1) * q
    return (q - 1) * (q ** n - q ** (n - 1))


def self_chen_density(q: int) -> Fraction:
    return Fraction(49, 72) if q == 2 else Fraction(q - 1, q)
