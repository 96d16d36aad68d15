"""Residue class rings A_f = F_q[t]/(f) and tabulated functions between them.

Residues are represented by their canonical representatives: the
polynomials of degree < deg f, together with 0.  A FunctionTable stores
one codomain representative per domain representative, in index order,
and serializes to the JSON shape
    {"q": 2, "f": "t^2", "g": "t^2", "values": {"0": "0", "1": "1", ...}}
with the value keys in index order (extension fields additionally carry
"p", "m" and "field_modulus").
"""

from __future__ import annotations

import json

from .field import FieldSpec, field_make
from .polyring import (Poly, enumerate_residues, factorize, index_to_poly,
                       parse, poly_to_index, power_exceeds, to_text, xgcd)


class ResidueRing:
    """A_f for a fixed modulus f with deg f >= 1."""

    def __init__(self, modulus: Poly):
        d = modulus.degree
        if not isinstance(d, int) or d < 1:
            raise ValueError("ring modulus must have degree >= 1")
        self.modulus = modulus
        self.field = modulus.field
        self.size = self.field.q ** d
        self._elements = None
        self._factorization = None

    @property
    def factorization(self):
        if self._factorization is None:
            self._factorization = factorize(self.modulus)
        return self._factorization

    def reduce(self, h: Poly) -> Poly:
        if h.field != self.field:
            raise ValueError("polynomial over a different field")
        return h % self.modulus

    def elements(self) -> list:
        if self._elements is None:
            self._elements = enumerate_residues(self.modulus)
        return self._elements

    def element(self, index: int) -> Poly:
        if not 0 <= index < self.size:
            raise ValueError(f"residue index {index} out of range")
        return index_to_poly(self.field, index)

    def index(self, rep: Poly) -> int:
        k = poly_to_index(rep)
        if k >= self.size:
            raise ValueError("not a canonical representative of this ring")
        return k

    def add(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a + b)

    def sub(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a - b)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a * b)

    def inv_unit(self, a: Poly) -> Poly:
        """Inverse of a unit (gcd(a, modulus) = 1)."""
        g, x, _ = xgcd(a, self.modulus)
        if g.degree != 0:
            raise ValueError(f"{to_text(a)} is not a unit mod {to_text(self.modulus)}")
        return self.reduce(x * self.field.element(self.field.inv(g.leading)))

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("ResidueRing", self.modulus))

    def __repr__(self):
        return f"ResidueRing({to_text(self.modulus)!r})"


def reduce_mod(h: Poly, g: Poly) -> Poly:
    """Canonical representative of h mod g (deg g >= 1)."""
    return ResidueRing(g).reduce(h)


class FunctionTable:
    """A function A_f -> A_g tabulated on canonical representatives."""

    __slots__ = ("domain", "codomain", "values", "_hash")

    def __init__(self, domain: ResidueRing, codomain: ResidueRing, values):
        values = tuple(values)
        if len(values) != domain.size:
            raise ValueError(f"expected {domain.size} values, got {len(values)}")
        for v in values:
            if not isinstance(v, Poly) or v.field != codomain.field:
                raise ValueError("values must be codomain polynomials")
            if poly_to_index(v) >= codomain.size:
                raise ValueError("value is not a canonical codomain representative")
        self.domain = domain
        self.codomain = codomain
        self.values = values
        self._hash = None

    @classmethod
    def from_callable(cls, domain: ResidueRing, codomain: ResidueRing, fn):
        return cls(domain, codomain,
                   [codomain.reduce(fn(h)) for h in domain.elements()])

    @classmethod
    def reduction(cls, domain: ResidueRing, codomain: ResidueRing):
        """sigma(hbar) = h mod g."""
        return cls.from_callable(domain, codomain, lambda h: h)

    def value_at(self, rep: Poly) -> Poly:
        return self.values[self.domain.index(rep)]

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.values == other.values)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.domain.modulus, self.codomain.modulus, self.values))
        return self._hash

    def __repr__(self):
        return (f"FunctionTable({to_text(self.domain.modulus)} -> "
                f"{to_text(self.codomain.modulus)}, {len(self.values)} values)")

    # ------------------------------------------------------------- JSON
    def to_json_obj(self) -> dict:
        field = self.domain.field
        out: dict = {"q": field.q}
        if field.m > 1:
            out["p"] = field.p
            out["m"] = field.m
            out["field_modulus"] = to_text(field.modulus_poly, "u")
        out["f"] = to_text(self.domain.modulus)
        out["g"] = to_text(self.codomain.modulus)
        out["values"] = {to_text(h): to_text(v)
                         for h, v in zip(self.domain.elements(), self.values)}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FunctionTable":
        if not isinstance(obj, dict):
            raise ValueError("a table must be a JSON object")
        keys = set(obj)
        expected = {"q", "f", "g", "values"}
        if "p" in keys or "m" in keys or "field_modulus" in keys:
            expected |= {"p", "m", "field_modulus"}
        if keys != expected:
            raise ValueError(f"table object must have keys {sorted(expected)}, "
                             f"got {sorted(keys)}")
        field = field_from_json_obj(obj)
        dom = ResidueRing(parse(field, obj["f"]))
        cod = ResidueRing(parse(field, obj["g"]))
        vals_in = obj["values"]
        if not isinstance(vals_in, dict):
            raise ValueError("table values must be a JSON object")
        # with fewer keys than the q^deg f representatives, one of the first
        # len(values) + 1 is missing: the scan stops there, never listing A_f
        short = power_exceeds(field.q, dom.modulus.degree, len(vals_in))
        values = []
        for k in range(len(vals_in) + 1 if short else dom.size):
            h = index_to_poly(field, k)
            key = to_text(h)
            if key not in vals_in:
                raise ValueError(f"missing value for representative {key!r}")
            v = parse(field, vals_in[key])
            if cod.reduce(v) != v:
                raise ValueError(f"value {vals_in[key]!r} is not a canonical "
                                 f"representative mod {to_text(cod.modulus)}")
            values.append(v)
        if len(vals_in) != dom.size:
            raise ValueError("values has keys that are not canonical representatives")
        return cls(dom, cod, values)

    @classmethod
    def from_json(cls, text: str) -> "FunctionTable":
        return cls.from_json_obj(json.loads(text))


def field_from_json_obj(obj: dict) -> FieldSpec:
    for key in ("q", "p", "m"):
        v = obj.get(key)
        if key in obj and (not isinstance(v, int) or isinstance(v, bool)):
            raise ValueError(f"table field {key!r} must be an integer, "
                             f"got {v!r}")
    if "p" in obj and obj.get("m", 1) > 1:
        modulus = parse(field_make(obj["p"]), obj["field_modulus"], "u")
        field = field_make(obj["p"], obj["m"], modulus.coeffs)
    else:
        field = field_make(obj["q"])
    for key in ("q", "p", "m"):
        if key in obj and obj[key] != getattr(field, key):
            raise ValueError(f"table field {key!r} = {obj[key]} does not fit "
                             f"the field F_{field.q} = F_({field.p}^{field.m})")
    return field


# ---------------------------------------------------------------- CRT
def crt_split(sigma: FunctionTable) -> list:
    """One table per prime power P_i^{e_i} of the codomain modulus, each
    value reduced into A_{P_i^{e_i}}."""
    out = []
    for p, e in sigma.codomain.factorization.factors:
        ring = ResidueRing(p ** e)
        out.append(FunctionTable(sigma.domain, ring,
                                 [ring.reduce(v) for v in sigma.values]))
    return out


def crt_combine(tables: list, modulus: Poly | None = None) -> FunctionTable:
    """Inverse of crt_split: tables over pairwise coprime prime powers with

    a common domain recombine into A_g, g the monic product (or the given

    modulus, which must factor into exactly those prime powers)."""
    if not tables:
        raise ValueError("need at least one table")
    domain = tables[0].domain
    field = domain.field
    parts = []
    seen = set()
    for tb in tables:
        if tb.domain != domain:
            raise ValueError("tables must share one domain")
        fact = tb.codomain.factorization
        if len(fact.factors) != 1:
            raise ValueError("each codomain modulus must be a prime power")
        p, e = fact.factors[0]
        if p in seen:
            raise ValueError("prime power moduli must be pairwise coprime")
        seen.add(p)
        parts.append((tb, p ** e))
    g = Poly(field, [1])
    for _, pe in parts:
        g = g * pe
    if modulus is not None:
        if (modulus.monic() != g):
            raise ValueError("modulus does not match the prime power moduli")
        g = modulus
    ring = ResidueRing(g)
    basis = []
    for _, pe in parts:
        m_i = g.monic() // pe
        gg, x, _ = xgcd(m_i, pe)
        if gg.degree != 0:
            raise ValueError("prime power moduli must be pairwise coprime")
        basis.append(ring.reduce(m_i * x))
    values = []
    for i in range(domain.size):
        acc = Poly(field)
        for (tb, _), b in zip(parts, basis):
            acc = ring.add(acc, ring.mul(tb.values[i], b))
        values.append(acc)
    return FunctionTable(domain, ring, values)
