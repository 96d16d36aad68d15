"""The three workloads: seeded operations and the checks on their outputs.

An operation is one `cpfq` command line (a list of argv strings) with a
check that receives the parsed JSON output and returns an error message,
or None when the output is right.  Every expected value comes from
`reference`, never from a stored program output.  A round is a fixed
list of operations; a run repeats whole rounds.

The seed chooses the concrete polynomials (which irreducible factors,
which units, which f of the given degree) and the order of the list.
The shapes (field, factor degrees and exponents, deg f, engine) are
fixed, so every seed asks for the same amount of work and the figures
of different seeds are comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("queries", "census", "verify")


class Op:
    __slots__ = ("argv", "check", "label")

    def __init__(self, argv, check, label):
        self.argv = argv
        self.check = check
        self.label = label


class Modulus:
    """g = unit * prod P_i^e_i with the P_i chosen by the benchmark."""

    def __init__(self, q, unit, factors):
        self.q = q
        self.unit = unit
        # (P, e) sorted as cpfq lists them: by degree, then by index
        self.factors = sorted(factors, key=lambda pe: (len(pe[0]), ref.index(pe[0], q)))
        g = (unit,)
        for p, e in self.factors:
            g = ref.mul(g, ref.power(p, e, q), q)
        self.text = ref.to_text(g)
        self.shape = [(len(p) - 1, e) for p, e in self.factors]

    def gamma(self):
        return ref.gamma(self.q, self.shape)


def _pick_modulus(rng, q, irreducibles, shape, unit=None):
    """Distinct irreducibles of the shape's degrees, chosen by rng."""
    used = set()
    factors = []
    for d, e in shape:
        while True:
            p = rng.choice(irreducibles[d])
            if p not in used:
                break
        used.add(p)
        factors.append((p, e))
    if unit is None:
        unit = rng.randrange(1, q)
    return Modulus(q, unit, factors)


def _spread_moduli(rng, q, irreducibles, shape, count):
    """`count` moduli of one shape whose factors spread evenly over the

    index order.  cpfq factors by trial division in index order, so a
    factor's rank among the irreducibles of its degree sets what factoring
    g costs.  The count * c factors of a degree that the shape names c
    times take one rank from each of count * c equal strata, modulus m the
    strata m * c .. m * c + c - 1; the seed picks the rank inside each
    stratum and the unit.  So the moduli of every seed cost about the same."""
    slots = {d: 0 for d, _ in shape}
    for d, _ in shape:
        slots[d] += 1
    moduli = []
    for m in range(count):
        used, factors, seen = set(), [], {d: 0 for d in slots}
        for d, e in shape:
            cands, n = irreducibles[d], count * slots[d]
            s = m * slots[d] + seen[d]
            seen[d] += 1
            lo = s * len(cands) // n
            r = rng.randrange(lo, max(lo + 1, (s + 1) * len(cands) // n))
            while cands[r] in used:  # strata narrower than one irreducible
                r = (r + 1) % len(cands)
            used.add(cands[r])
            factors.append((cands[r], e))
        moduli.append(Modulus(q, rng.randrange(1, q), factors))
    return moduli


def _random_f(rng, q, n):
    """A polynomial of degree n with a random unit and random lower terms."""
    low = [rng.randrange(q) for _ in range(n)]
    return tuple(low) + (rng.randrange(1, q),)


def _render_gamma(value):
    return "inf" if value == ref.INF else value


def _expect(out, **want):
    for key, value in want.items():
        if key not in out:
            return f"missing key {key!r}"
        if out[key] != value:
            return f"{key}: got {out[key]!r}, expected {value!r}"
    return None


# --------------------------------------------------------------- queries
# (q, factor shape [(degree, exponent)], deg f).  Squarefree shapes have
# gamma = inf; the others put deg f below, at and above gamma, so Chen
# and non-Chen pairs both occur.  deg f keeps count-poly's q^n loop small.
QUERY_SHAPES = (
    (2, ((12, 1), (12, 1)), 12),
    (2, ((1, 3), (3, 2), (7, 1), (8, 1)), 14),
    (2, ((1, 2), (2, 1), (5, 4)), 6),
    (2, ((1, 1), (1, 2), (10, 2)), 11),
    (2, ((4, 3), (11, 1)), 13),
    (2, ((3, 1), (6, 2), (9, 1)), 8),
    (3, ((7, 1), (7, 1)), 8),
    (3, ((1, 2), (2, 3), (6, 1)), 7),
    (3, ((3, 2), (4, 2)), 3),
    (5, ((1, 1), (4, 1), (4, 1)), 5),
    (5, ((1, 3), (2, 3)), 1),
    (5, ((1, 3), (3, 2)), 2),
)


MODULI_PER_SHAPE = 4


def query_ops(seed):
    rng = random.Random(seed)
    max_deg = {}
    for q, shape, _ in QUERY_SHAPES:
        max_deg[q] = max(max_deg.get(q, 1), max(d for d, _ in shape))
    irreducibles = {q: ref.monic_irreducibles(q, d) for q, d in max_deg.items()}
    ops = []
    for q, shape, n in QUERY_SHAPES:
        for g in _spread_moduli(rng, q, irreducibles[q], shape, MODULI_PER_SHAPE):
            ops += _query_ops_for(q, g, ref.to_text(ref.monomial(n)), n)
    rng.shuffle(ops)
    return ops


def _query_ops_for(q, g, f_text, n):
    qs = str(q)
    gam = g.gamma()
    m_exp = ref.cpf_exponent(q, n, g.shape)
    n_exp = ref.polyfn_exponent(q, n, g.shape)
    factors = [[ref.to_text(p), e] for p, e in g.factors]
    text = " * ".join([str(g.unit)] + [f"({ref.to_text(p)})^{e}" for p, e in g.factors])
    chen = n < gam

    def check_factor(out):
        return _expect(out, q=q, g=g.text, unit=str(g.unit), factors=factors, text=text)

    def check_gamma(out):
        return _expect(out, q=q, g=g.text, gamma=_render_gamma(gam))

    def check_chen(out):
        return _expect(out, chen_pair=chen, deg_f=n, gamma_g=_render_gamma(gam))

    def check_cpf(out):
        return _expect(out, q=q, f=f_text, g=g.text, count=f"{q}^{m_exp}",
                       exponent=m_exp)

    def check_poly(out):
        err = _expect(out, q=q, f=f_text, g=g.text, count=f"{q}^{n_exp}",
                      exponent=n_exp)
        if err:
            return err
        # N <= M, with equality exactly on Chen pairs
        if n_exp > m_exp or (n_exp == m_exp) != chen:
            return f"N = {q}^{n_exp} against M = {q}^{m_exp} breaks N <= M, N = M iff Chen"
        return None

    label = f"q={q} g={g.shape} n={n}"
    return [
        Op(["factor", "--q", qs, "--g", g.text], check_factor, "factor " + label),
        Op(["gamma", "--q", qs, "--g", g.text], check_gamma, "gamma " + label),
        Op(["chen", "--q", qs, "--f", f_text, "--g", g.text], check_chen, "chen " + label),
        Op(["count-cpf", "--q", qs, "--f", f_text, "--g", g.text], check_cpf,
           "count-cpf " + label),
        Op(["count-poly", "--q", qs, "--f", f_text, "--g", g.text], check_poly,
           "count-poly " + label),
    ]


# ---------------------------------------------------------------- census
# (q, max degree of the density census, degrees of the verify census).
# The q = 2 cells exercise the valuation route with its four components;
# odd q is square-freeness by gcd.
CENSUS_CELLS = (
    (2, 9, (5, 6, 7, 8, 9)),
    (3, 6, (4, 5, 6)),
    (5, 4, (3, 4)),
)


class CensusAgreement:
    """Cross-route agreement: the verify census of degree n and entry n of

    the density census of the same q must report the same count."""

    def __init__(self):
        self.seen = {}

    def record(self, q, n, route, value):
        other = self.seen.setdefault((q, n), {})
        other[route] = value
        if len(set(other.values())) > 1:
            return f"census routes disagree at q={q} n={n}: {other}"
        return None


def census_ops(seed):
    rng = random.Random(seed)
    agree = CensusAgreement()
    ops = []
    for q, max_degree, degrees in CENSUS_CELLS:
        ops.append(_density_op(q, max_degree, agree))
        for n in degrees:
            ops.append(_census_op(q, n, agree))
    rng.shuffle(ops)
    return ops


def _density_op(q, max_degree, agree):
    per_degree = [ref.self_chen_count(q, n) for n in range(1, max_degree + 1)]
    totals = [(q - 1) * q ** n for n in range(1, max_degree + 1)]
    fraction = Fraction(sum(per_degree), sum(totals))
    rho = ref.self_chen_density(q)
    error = abs(fraction - rho)

    def fr(x):
        return {"num": x.numerator, "den": x.denominator}

    def check(out):
        err = _expect(out, q=q, rho=fr(rho), max_degree=max_degree, monic_only=False,
                      per_degree=per_degree, per_degree_total=totals,
                      fraction=fr(fraction), error=fr(error))
        for n, count in enumerate(out.get("per_degree", ()), start=1):
            err = err or agree.record(q, n, "density", count)
        return err

    return Op(["density", "--q", str(q), "--empirical", "--max-degree", str(max_degree)],
              check, f"density q={q} max_degree={max_degree}")


def _census_op(q, n, agree):
    want = ref.self_chen_count(q, n)

    def check(out):
        err = _expect(out, what="census", q=q, n=n, formula=want, census=want, match=True)
        if not err and q == 2 and sum(out.get("components", ())) != want:
            err = f"components {out.get('components')} do not sum to {want}"
        return err or agree.record(q, n, "verify", out["census"])

    return Op(["verify", "--q", str(q), "--what", "census", "--n", str(n)],
              check, f"census q={q} n={n}")


# ---------------------------------------------------------------- verify
# (what, q, deg f, factor shape of g, engine, guard on the table count).
# Sizes keep every cell under about a second.  The q = 3, t^2 -> P^2
# backtracking cell raises --guard-functions, as the README tells users
# to, materializes 3^12 rows and sets this workload's peak memory.
VERIFY_CELLS = (
    ("cpf-count", 2, 2, ((1, 3),), "exhaustive", None),
    ("cpf-count", 2, 3, ((1, 1), (1, 1)), "exhaustive", None),
    ("cpf-count", 2, 3, ((1, 2),), "backtracking", None),
    ("cpf-count", 3, 2, ((1, 1),), "exhaustive", None),
    ("cpf-count", 3, 2, ((1, 2),), "backtracking", 10 ** 9),
    ("cpf-count", 5, 1, ((1, 1),), "exhaustive", None),
    ("poly-count", 2, 3, ((1, 2), (2, 1)), None, None),
    ("poly-count", 3, 2, ((1, 1), (1, 2)), None, None),
    ("poly-count", 5, 1, ((1, 3),), None, None),
    ("chen", 2, 2, ((1, 1), (1, 2)), "exhaustive", None),
    ("chen", 3, 1, ((1, 2),), "backtracking", None),
    ("basis", 2, 2, ((1, 3),), None, None),
    ("basis", 2, 2, ((1, 3),), None, None),
    ("basis", 3, 1, ((1, 2),), None, None),
    ("crt", 2, 3, ((1, 2), (2, 1)), None, None),
    ("crt", 3, 2, ((1, 1), (1, 2)), None, None),
)
SAMPLES = 20


def verify_ops(seed):
    rng = random.Random(seed)
    irreducibles = {q: ref.monic_irreducibles(q, 2) for q in (2, 3, 5)}
    ops = []
    for what, q, n, shape, engine, guard in VERIFY_CELLS:
        g = _pick_modulus(rng, q, irreducibles[q], shape, unit=1)
        f = _random_f(rng, q, n)
        ops.append(_verify_op(what, q, n, ref.to_text(f), g, engine, guard,
                              rng.randrange(10 ** 6)))
    rng.shuffle(ops)
    return ops


def _verify_op(what, q, n, f_text, g, engine, guard, sample_seed):
    argv = ["verify", "--q", str(q), "--what", what, "--f", f_text, "--g", g.text]
    if engine:
        argv += ["--engine", engine]
    if guard:
        argv += ["--guard-functions", str(guard)]
    if what in ("basis", "crt"):
        argv += ["--samples", str(SAMPLES), "--seed", str(sample_seed)]
    m_count = q ** ref.cpf_exponent(q, n, g.shape)
    n_count = q ** ref.polyfn_exponent(q, n, g.shape)
    chen = n < g.gamma()
    base = {"what": what, "q": q, "f": f_text, "g": g.text}

    if what == "cpf-count":
        want = dict(base, engine=engine, formula=f"{q}^{ref.cpf_exponent(q, n, g.shape)}",
                    oracle=m_count, match=True)
    elif what == "poly-count":
        want = dict(base, formula=f"{q}^{ref.polyfn_exponent(q, n, g.shape)}",
                    oracle=n_count, match=True)
    elif what == "chen":
        want = dict(base, formula=chen, oracle=chen, M=m_count, N=n_count, match=True)
    elif what == "basis":
        want = dict(base, cp_tables=m_count, all_cp_pass=True, samples=SAMPLES,
                    agreements=SAMPLES, match=True)
    else:
        want = dict(base, samples=SAMPLES, roundtrip_ok=True, local_global_ok=True,
                    match=True)

    def check(out):
        return _expect(out, **want)

    label = f"{what} q={q} n={n} g={g.shape}" + (f" {engine}" if engine else "")
    return Op(argv, check, label)


def build(workload, seed):
    return {"queries": query_ops, "census": census_ops, "verify": verify_ops}[workload](seed)
