"""Residue class rings A_f = F_q[t]/(f) and tabulated functions between them.

Residues are represented by their canonical representatives: the
polynomials of degree < deg f, together with 0, indexed by their base-q
digits.  A FunctionTable stores the codomain index of its value at each
domain residue, in index order.  The label of a residue mod a divisor h,
which names its class mod h, is one ColumnMap on those indices, kept in
one process-wide cache; the CRT split reads the labels mod each prime
power, and the combine is one more ColumnMap.  Both act on the values of
any number of tables side by side, one image per map.  A table serializes
to the JSON shape
    {"q": 2, "f": "t^2", "g": "t^2", "values": {"0": "0", "1": "1", ...}}
with the value keys in index order (extension fields additionally carry
"p", "m" and "field_modulus").
"""

from __future__ import annotations

import json
import operator
from array import array
from collections import OrderedDict
from functools import lru_cache

from .field import FieldSpec, field_make
from .guards import power_exceeds
from .polyring import (Factorization, Poly, enumerate_residues, factorize,
                       index_to_poly, parse, poly_to_index, to_text, xgcd)

# a ColumnMap on at most 2^INDEX_MAP_LOG2 source indices keeps an index
# table: O(|source|) data, a few bytes an entry
INDEX_MAP_LOG2 = 16


class ResidueRing:
    """A_f for a fixed modulus f with deg f >= 1.

    What depends only on f (its factorization, monic divisors and prime
    power rings, the classes of A_f mod a divisor) is computed once per
    ring object and kept on it."""

    def __init__(self, modulus: Poly):
        d = modulus.degree
        if not isinstance(d, int) or d < 1:
            raise ValueError("ring modulus must have degree >= 1")
        self.modulus = modulus
        self.field = modulus.field
        self.size = self.field.q ** d
        self._elements = None
        self._factorization = None
        self._divisors = None
        self._prime_powers = None
        self._classes: dict = {}

    @property
    def factorization(self):
        if self._factorization is None:
            self._factorization = factorize(self.modulus)
        return self._factorization

    @property
    def divisors(self) -> list:
        """The monic divisors of the modulus with degree >= 1."""
        if self._divisors is None:
            self._divisors = self.factorization.monic_divisors()
        return self._divisors

    @property
    def prime_powers(self) -> tuple:
        """A_{P^e} for each prime power P^e of the modulus, in factor

        order, each ring built knowing its factorization."""
        if self._prime_powers is None:
            rings = []
            for p, e in self.factorization.factors:
                ring = ResidueRing(p ** e)
                ring._factorization = Factorization(Poly(self.field, [1]), ((p, e),))
                rings.append(ring)
            self._prime_powers = tuple(rings)
        return self._prime_powers

    def labels(self, h: Poly, indices=None):
        """The label mod h of each residue index (by default every one, in
        index order): the A_h index of a_k mod h, which is also the first
        member of k's class mod h.  The label map keeps its index table (up
        to 2^INDEX_MAP_LOG2 residues) in the process-wide `_LABEL_MAPS`."""
        if indices is None:
            indices = range(self.size)
        n = self.modulus.degree
        if h.degree >= n:  # a_k mod h = a_k
            return indices
        return _LABEL_MAPS.get(n, h, table=True).image(indices)

    def label(self, h: Poly):
        """k -> the label mod h of residue index k, one index at a time: by

        the label map's index table if it is built, else by digits."""
        n = self.modulus.degree
        if h.degree >= n:
            return int  # the identity on indices
        cmap = _LABEL_MAPS.get(n, h, table=False)
        return cmap.digit_image if cmap._table is None else cmap._table.__getitem__

    def classes(self, h: Poly) -> tuple:
        """The residue indices grouped by their label mod h: each group in

        index order, the groups by their first member, which is the label."""
        got = self._classes.get(h)
        if got is None:
            # the labels are the residues of degree < min(deg h, deg f)
            width = min(h.degree, self.modulus.degree)
            groups = [[] for _ in range(self.field.q ** width)]
            for i, label in enumerate(self.labels(h)):
                groups[label].append(i)
            got = self._classes[h] = tuple(map(tuple, groups))
        return got

    def reduce(self, h: Poly) -> Poly:
        if h.field != self.field:
            raise ValueError("polynomial over a different field")
        return h % self.modulus

    def elements(self) -> list:
        """The canonical residues in index order."""
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
        return self.reduce(x)  # xgcd's g is monic, so g = 1

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("ResidueRing", self.modulus))

    def __repr__(self):
        return f"ResidueRing({to_text(self.modulus)!r})"


def _index_adder(field: FieldSpec):
    """(x, y) -> the index of a_x + a_y, digit by digit in F_q.  In
    characteristic 2 the F_2 coordinates of the digits add bit by bit,
    which is xor."""
    if field.p == 2:
        return operator.xor
    q, add = field.q, field._add

    def add_indices(x: int, y: int) -> int:
        if x < y:  # past the digits of y, those of x stay
            x, y = y, x
        out, place = 0, 1
        while y:
            x, a = divmod(x, q)
            y, b = divmod(y, q)
            out += add[a][b] * place
            place *= q
        return out + x * place
    return add_indices


class FunctionTable:
    """A function A_f -> A_g, kept as the A_g index of its value at each

    residue of A_f, in index order; `values` is a view built on first read."""

    __slots__ = ("domain", "codomain", "indices", "_values", "_hash")

    def __init__(self, domain: ResidueRing, codomain: ResidueRing, values):
        values = tuple(values)
        if len(values) != domain.size:
            raise ValueError(f"expected {domain.size} values, got {len(values)}")
        field, width = codomain.field, codomain.modulus.degree
        for v in values:
            if not isinstance(v, Poly) or v.field != field:
                raise ValueError("values must be codomain polynomials")
            if len(v.coeffs) > width:  # degree >= deg g
                raise ValueError("value is not a canonical codomain representative")
        self.domain = domain
        self.codomain = codomain
        self.indices = tuple(map(poly_to_index, values))
        self._values = values
        self._hash = None

    @classmethod
    def _new(cls, domain: ResidueRing, codomain: ResidueRing,
             indices) -> "FunctionTable":
        """Trusted constructor, like Poly._new, for the tables the library

        builds itself: one residue index of A_g per domain residue, in
        index order.  Nothing is checked."""
        tb = object.__new__(cls)
        tb.domain = domain
        tb.codomain = codomain
        tb.indices = tuple(indices)
        tb._values = tb._hash = None
        return tb

    @property
    def values(self) -> tuple:
        """The codomain representative of every index, built once."""
        if self._values is None:
            self._values = tuple(map(self.codomain.element, self.indices))
        return self._values

    @classmethod
    def from_callable(cls, domain: ResidueRing, codomain: ResidueRing, fn):
        return cls(domain, codomain,
                   [codomain.reduce(fn(h)) for h in domain.elements()])

    @classmethod
    def reduction(cls, domain: ResidueRing, codomain: ResidueRing):
        """sigma(hbar) = h mod g."""
        return cls.from_callable(domain, codomain, lambda h: h)

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.indices == other.indices)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.domain.modulus, self.codomain.modulus, self.indices))
        return self._hash

    def __repr__(self):
        return (f"FunctionTable({to_text(self.domain.modulus)} -> "
                f"{to_text(self.codomain.modulus)}, {len(self.indices)} values)")

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
        indices = []
        for k in range(len(vals_in) + 1 if short else dom.size):
            key = to_text(index_to_poly(field, k))
            if key not in vals_in:
                raise ValueError(f"missing value for representative {key!r}")
            v = parse(field, vals_in[key])
            if v.degree >= cod.modulus.degree:
                raise ValueError(f"value {vals_in[key]!r} is not a canonical "
                                 f"representative mod {to_text(cod.modulus)}")
            indices.append(poly_to_index(v))
        if len(vals_in) != dom.size:
            raise ValueError("values has keys that are not canonical representatives")
        return cls._new(dom, cod, indices)

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
    # to_json_obj writes them only for an extension field, its modulus as text
    if "field_modulus" in obj and field.m == 1:
        raise ValueError("table fields 'p', 'm' and 'field_modulus' describe an "
                         f"extension field, but 'm' = {obj.get('m')}")
    return field


# ------------------------------------------------------ linear column maps
class ColumnMap:
    """An F_q-linear map from F_q^n into A_g, given by images[j] mod g, the

    image of unit vector j, computed once with Poly ops: steps[j][c] is the
    A_g index of c images[j] mod g.  A source index is read by its n
    base-q digits, lowest first: a residue's coefficients, or the CRT
    parts' digits side by side.  `image` takes one route per map, chosen
    from its size: up to q^n = 2^INDEX_MAP_LOG2 an index table built once
    on first use, past it the digit route, which sums steps[j][c] over each
    index's digits c, with no Poly ring op."""

    __slots__ = ("field", "width", "steps", "tabled", "_add", "_table")

    def __init__(self, target: Poly, images):
        field = target.field
        self.field = field
        self.width = target.degree
        q, mul = field.q, field._mul
        steps = []
        for h in images:
            row = [0] * q  # row[c] = sum_a c x_a q^a, the top digit first
            for x in reversed((h % target).coeffs):
                row = [v * q + cx for v, cx in zip(row, mul[x])]
            steps.append(tuple(row))
        self.steps = tuple(steps)
        self.tabled = not power_exceeds(q, len(steps), 2 ** INDEX_MAP_LOG2)
        self._add = _index_adder(field)
        self._table = None

    def image(self, indices) -> list:
        """The A_g index of the image of each source index."""
        if self.tabled:
            return list(map(self.table().__getitem__, indices))
        return list(map(self.digit_image, indices))

    def digit_image(self, k: int) -> int:
        """The image of source index k, summed over its digits."""
        q, add, out = self.field.q, self._add, 0
        for step in self.steps:
            if not k:
                break
            k, c = divmod(k, q)
            if c:
                out = add(out, step[c])
        return out

    def table(self) -> array:
        """The image of every source index i < q^n, built once by digits:
        with c t^j the top term of i, image(i) = image(i - c t^j) + steps[j][c].
        Each entry takes the fewest bytes that hold every index of A_g."""
        if self._table is None:
            add = self._add
            out = array(next(code for code in "BHIQ" if not power_exceeds(
                self.field.q, self.width, 256 ** array(code).itemsize - 1)), [0])
            for step in self.steps:
                low = out[:]  # the images of i < q^j
                for v in step[1:]:
                    out.extend(add(x, v) for x in low)
            self._table = out
        return self._table

    @property
    def nbytes(self) -> int:
        """About the bytes the map holds: steps and index table."""
        q, n, width, table = self.field.q, len(self.steps), self.width, self._table
        return (n * (64 + q * (36 + width * q.bit_length() // 8))
                + (0 if table is None else len(table) * table.itemsize))


def _reduction(degree: int, modulus: Poly) -> ColumnMap:
    """h -> h mod modulus on the residues of degree < `degree`."""
    one = Poly(modulus.field, [1])
    return ColumnMap(modulus, [one.shift(j) for j in range(degree)])


# ------------------------------------------------------- labels mod h
class _LabelMaps:
    """The label maps of ResidueRing.labels and .label, which crt_split

    reads too: the reduction ColumnMap a_k -> a_k mod h on the residues of
    degree < n, per (n, h), in one process-wide LRU of at most `entries`
    maps holding at most about `nbytes` bytes, index tables included."""

    def __init__(self, entries: int, nbytes: int):
        self.entries, self.nbytes = entries, nbytes
        self.held = 0
        self._maps: OrderedDict = OrderedDict()  # key -> (map, its bytes)

    def get(self, degree: int, h: Poly, table: bool) -> ColumnMap:
        """The map of (degree, h), with its index table built if `table`
        and the map is tabled."""
        key = (degree, h)
        cmap, held = self._maps.get(key) or (_reduction(degree, h), 0)
        if held:  # a hit: only building its table changes its size
            self._maps.move_to_end(key)
            if not (table and cmap.tabled and cmap._table is None):
                return cmap
        if table and cmap.tabled:
            cmap.table()
        size = cmap.nbytes
        self._maps[key] = (cmap, size)
        self.held += size - held
        while len(self._maps) > self.entries or self.held > self.nbytes:
            self.held -= self._maps.popitem(last=False)[1][1]
        return cmap


# an index table holds at most 2^INDEX_MAP_LOG2 entries of at most 8 bytes
_LABEL_MAPS = _LabelMaps(entries=256, nbytes=2 ** 24)


# ---------------------------------------------------------------- CRT
def crt_split(sigma: FunctionTable) -> list:
    """One table per prime power P_i^{e_i} of the codomain modulus: the

    table's values split by `split_indices`."""
    cod = sigma.codomain
    return [FunctionTable._new(sigma.domain, ring, part)
            for ring, part in zip(cod.prime_powers, split_indices(cod, sigma.indices))]


def split_indices(codomain: ResidueRing, indices) -> list:
    """Per prime power P_i^{e_i} of g, the label mod P_i^{e_i} of each A_g

    index (its index reduced into A_{P_i^{e_i}}), by one label-map image
    over any number of tables side by side.  A prime-power codomain splits
    as the identity."""
    return [codomain.labels(ring.modulus, indices) for ring in codomain.prime_powers]


def _crt_keys(indices, moduli) -> list:
    """The key sum_i k_i w_i of each tuple (k_0, k_1, ...) of part indices,

    w_i = prod_{j<i} |A_{moduli[j]}|: the digits of the parts side by
    side, the source index of the combine map."""
    keys, w = None, 1
    for ks, pe in zip(indices, moduli):
        keys = list(ks) if keys is None else [k + w * x for k, x in zip(keys, ks)]
        w *= pe.field.q ** pe.degree
    return keys


@lru_cache(maxsize=16)
def _combine_map(g: Poly, moduli: tuple) -> tuple:
    """(A_g, the combine as one ColumnMap on the direct sum of the

    A_{moduli[i]}): unit vector t^j of part i maps to t^j e_i, where e_i =
    1 mod moduli[i] and 0 mod the others, by one xgcd per part.  Kept per
    modulus, so repeated combines into A_g run no xgcd; on a source of at
    most 2^INDEX_MAP_LOG2 indices its index table is the inverse of the
    split."""
    images = []
    for pe in moduli:
        m_i = g.monic() // pe
        e_i = m_i * xgcd(m_i, pe)[1]  # the moduli are coprime: gcd = 1
        images += [e_i.shift(j) for j in range(pe.degree)]
    return ResidueRing(g), ColumnMap(g, images)


@lru_cache(maxsize=16)
def _prime_power_moduli(codomains: tuple) -> tuple:
    """(P_i^{e_i} of each codomain modulus, their monic product), with each

    modulus checked to be a prime power and the P_i distinct."""
    pes, seen = [], set()
    g = Poly(codomains[0].field, [1])
    for ring in codomains:
        fact = ring.factorization
        if len(fact.factors) != 1:
            raise ValueError("each codomain modulus must be a prime power")
        p, e = fact.factors[0]
        if p in seen:
            raise ValueError("prime power moduli must be pairwise coprime")
        seen.add(p)
        pes.append(p ** e)
        g = g * pes[-1]
    return tuple(pes), g


def crt_combine(tables: list, modulus: Poly | None = None) -> FunctionTable:
    """Inverse of crt_split: tables over pairwise coprime prime powers with

    a common domain recombine into A_g, g the monic product (or the given
    modulus, which must factor into exactly those prime powers), by the
    combine map on the keys of their indices."""
    if not tables:
        raise ValueError("need at least one table")
    domain = tables[0].domain
    if any(tb.domain != domain for tb in tables):
        raise ValueError("tables must share one domain")
    moduli, g = _prime_power_moduli(tuple(tb.codomain for tb in tables))
    if modulus is not None:
        if modulus.monic() != g:
            raise ValueError("modulus does not match the prime power moduli")
        g = modulus
    return FunctionTable._new(domain, _combine_map(g, moduli)[0],
                              combine_indices(g, moduli, [tb.indices for tb in tables]))


def combine_indices(g: Poly, moduli: tuple, parts) -> list:
    """Inverse of split_indices: the A_g index of each tuple of part

    indices, parts[i] in A_{moduli[i]} (the prime powers of g in factor
    order), by one image of the cached combine map on their keys."""
    return _combine_map(g, moduli)[1].image(_crt_keys(parts, moduli))
