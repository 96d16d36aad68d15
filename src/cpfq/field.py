"""Arithmetic in small finite fields F_q, q = p^m.

A field element is its index: one of the ints 0..q-1, with no wrapper
type.  Index k is the polynomial a_k of polyring's index bijection over
F_p, read in the variable u: its base-p digits are the coordinates, least
significant first, so index 0 is zero and index 1 is one.  A FieldSpec
precomputes full operation tables at construction (by polyring arithmetic
mod the modulus when m > 1) and does all arithmetic on indices:
add/sub/mul/neg/inv and pow.
"""

from __future__ import annotations

import threading

from .guards import check_field

_SPEC_CACHE: dict = {}
_SPEC_LOCK = threading.Lock()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """F_{p^m} with all index-level operation tables precomputed."""

    __slots__ = ("p", "m", "q", "modulus", "modulus_poly", "_add", "_mul",
                 "_neg", "_inv", "_coords", "_by_coords", "_texts", "_hash")

    def __init__(self, p: int, m: int = 1, modulus: tuple | None = None):
        # polyring imports this module, so its codec is imported here
        from .polyring import (Poly, index_to_poly, is_irreducible,
                               monic_irreducibles, poly_to_index, to_text)
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        if p >= 2:  # decided before p is tested or p^m built: both stay cheap
            check_field(p, m)
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        q = p ** m
        if m == 1:
            if modulus is not None:
                raise ValueError("no modulus is stored for prime fields")
            mod = None
            add = [[(i + j) % p for j in range(p)] for i in range(p)]
            mul = [[i * j % p for j in range(p)] for i in range(p)]
            neg = [-i % p for i in range(p)]
            self._texts = tuple(str(k) for k in range(p))
            self._coords = tuple((k,) for k in range(p))
        else:
            fp = field_make(p)
            if modulus is None:
                modulus = monic_irreducibles(fp, m)[0].coeffs
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            mod = Poly(fp, modulus)
            if not is_irreducible(mod):
                raise ValueError("modulus must be irreducible over F_p")
            # element k is a_k over F_p, a polynomial in u of degree < m
            els = [index_to_poly(fp, k) for k in range(q)]
            add = [[poly_to_index(a + b) for b in els] for a in els]
            mul = [[poly_to_index(a * b % mod) for b in els] for a in els]
            neg = [poly_to_index(-a) for a in els]
            self._texts = tuple(to_text(a, "u") for a in els)
            self._coords = tuple(a.coeffs + (0,) * (m - len(a.coeffs))
                                 for a in els)
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self.modulus_poly = mod
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        self._neg = tuple(neg)
        self._inv = (0,) + tuple(row.index(1) for row in self._mul[1:])
        self._by_coords = {c: k for k, c in enumerate(self._coords)}
        self._hash = hash((p, m, modulus))

    # index-level arithmetic, used heavily by polyring
    def add(self, i: int, j: int) -> int:
        return self._add[i][j]

    def sub(self, i: int, j: int) -> int:
        return self._add[i][self._neg[j]]

    def mul(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def neg(self, i: int) -> int:
        return self._neg[i]

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._inv[i]

    def pow(self, i: int, n: int) -> int:
        """i^n for n >= 0, by repeated squaring."""
        result = 1
        while n:
            if n & 1:
                result = self._mul[result][i]
            i = self._mul[i][i]
            n >>= 1
        return result

    def from_coeffs(self, coeffs) -> int:
        """Index of the element with the given F_p coordinates (length <= m)."""
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) > self.m:
            raise ValueError("coefficient vector longer than extension degree")
        return self._by_coords[tuple(coeffs) + (0,) * (self.m - len(coeffs))]

    def element_str(self, k: int) -> str:
        return self._texts[k]

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.m == 1:
            return f"FieldSpec(p={self.p})"
        from .polyring import to_text
        return (f"FieldSpec(p={self.p}, m={self.m}, "
                f"modulus={to_text(self.modulus_poly, 'u')})")


def field_make(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """Build (and cache) the field F_{p^m}; modulus defaults to the first

    monic irreducible of degree m in index order.  A field is cached under
    its reduced modulus, so the cache holds one entry per irreducible
    modulus and one per default under the field size guard."""
    key = (p, m, None if modulus is None else tuple(modulus))
    spec = _SPEC_CACHE.get(key)
    if spec is not None:
        return spec
    # built outside the lock: building F_{p^m} asks for F_p
    spec = FieldSpec(p, m, modulus)
    key = (p, m, None if modulus is None else spec.modulus)
    with _SPEC_LOCK:
        return _SPEC_CACHE.setdefault(key, spec)
