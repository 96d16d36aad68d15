"""Closed-form counts of congruence-preserving and polynomial functions.

Both families of counts are exact powers of q, so they are carried as a
QExponent (base q plus a big-integer exponent) rather than as expanded
integers.  M denotes the count of congruence-preserving functions
A_f -> A_g, N the count of polynomial functions; N <= M always, with
equality exactly on Chen pairs.

Only closed forms live here; `oracle.count_polyfn_literal` recomputes N
from every generalized factorial as the cross-check.
"""

from __future__ import annotations

import functools

from ._record import FrozenRecord
from .polyring import Poly, _distinct_degree, squarefree_decomposition

DECIMAL_BITS = 64


@functools.total_ordering
class QExponent(FrozenRecord):
    """An exact count q^exponent."""

    _fields = ("q", "exponent")

    def __init__(self, q: int, exponent: int):
        if q < 2:
            raise ValueError("base must be >= 2")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        super().__init__(q, exponent)

    def value(self) -> int:
        return self.q ** self.exponent

    def decimal(self):
        """The expanded integer when it fits in DECIMAL_BITS bits, else None."""
        if self.exponent > DECIMAL_BITS:
            return None
        v = self.q ** self.exponent
        return v if v.bit_length() <= DECIMAL_BITS else None

    def equals_int(self, n: int) -> bool:
        return n == self.value()

    def _cmp_key(self, other):
        if not isinstance(other, QExponent):
            raise TypeError("can only compare with QExponent")
        if other.q != self.q:
            raise ValueError("counts with different bases are not comparable")
        return other.exponent

    def __lt__(self, other):
        return self.exponent < self._cmp_key(other)

    def __mul__(self, other):
        if not isinstance(other, QExponent):
            return NotImplemented
        if other.q != self.q:
            raise ValueError("counts with different bases are not comparable")
        return QExponent(self.q, self.exponent + other.exponent)

    def __str__(self):
        return f"{self.q}^{self.exponent}"


def _require_modulus_degree(p: Poly, name: str) -> int:
    d = p.degree
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"{name} must have degree >= 1")
    return d


def _require_pair(f: Poly, g: Poly) -> int:
    """deg f, once f and g are moduli over one field."""
    n = _require_modulus_degree(f, "f")
    _require_modulus_degree(g, "g")
    if g.field != f.field:
        raise ValueError("f and g must share one field")
    return n


def _cpf_local_exponent(n: int, q: int, d: int, e: int) -> int:
    """Exponent of the count for deg f = n into A_{P^e}, deg P = d."""
    return d * (e * q ** n
                - (q - 1) * sum(q ** k * min(e, k // d) for k in range(1, n)))


def _count(local, f: Poly, g: Poly) -> QExponent:
    """q^(sum of local(n, q, d, e) over the factors P^e of g, deg P = d).

    At d >= n = deg f both local exponents are d e q^n, linear in d, so
    the distinct-degree walk of each square-free part stops at d = n and
    its factors of degree >= n count as one of their total degree."""
    n = _require_pair(f, g)
    q = f.field.q
    return QExponent(q, sum(local(n, q, d, e) * (u.degree // d)
                            for s, e in squarefree_decomposition(g)
                            for d, u in _distinct_degree(s, stop=n)))


def count_cpf(f: Poly, g: Poly) -> QExponent:
    """Number of congruence-preserving functions A_f -> A_g."""
    return _count(_cpf_local_exponent, f, g)


def _w(k: int, q: int, d: int) -> int:
    """sum_{j>=1} floor(k / q^(d*j)), finitely many nonzero terms."""
    total = 0
    step = q ** d
    power = step
    while power <= k:
        total += k // power
        power *= step
    return total


def _polyfn_local_exponent(n: int, q: int, d: int, e: int) -> int:
    """Exponent of the polynomial-function count for deg f = n into

    A_{P^e}, deg P = d: d * (e * q^n - sum_{0<k<q^n} min(e, w(k))).

    With s = q^d, w(k) = W(floor(k / s)) where W(m) = sum_{j>=0}
    floor(m / s^j) >= m.  So each m < q^(n-d) stands for s values of k,
    and min(e, W(m)) = e from m = e on; no k is visited."""
    if d > n:
        return d * e * q ** n
    s = q ** d
    big_m = q ** (n - d)
    head = sum(min(e, _w(m * s, q, d)) for m in range(1, min(big_m, e)))
    return d * (e * q ** n - s * (head + e * max(0, big_m - e)))


def count_polyfn(f: Poly, g: Poly) -> QExponent:
    """Number of polynomial functions A_f -> A_g, from the factors of g of
    degree < deg f and the total degree of the rest, per exponent."""
    return _count(_polyfn_local_exponent, f, g)
