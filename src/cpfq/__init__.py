"""Congruence-preserving functions between residue class rings of F_q[t].

Exact counts, Chen-pair classification, basis decompositions, and
independent brute-force verification over small finite fields.
"""

from .chen import (ChenVerdict, DensityReport, GAMMA_INF, chen_self_count,
                   density_empirical, density_exact, gamma, gamma_prime_power,
                   is_chen_pair, is_self_chen, squarefree_count)
from .counting import QExponent, count_cpf, count_polyfn
from .field import FieldSpec, field_make
from .guards import EnumerationGuard, GuardExceeded
from .oracle import (CpCheck, PolyFnModule,
                     census_self_chen, census_squarefree, count_cpf_bruteforce,
                     count_polyfn_literal, deg_gcd_factorial,
                     encode_cp_problem, factorial, is_congruence_preserving,
                     polyfn_module)
from .polyring import (Factorization, ParseError, Poly, degree_n_polys,
                       enumerate_residues, factorize, gcd, index_to_poly,
                       is_irreducible, monic_irreducibles, parse,
                       poly_to_index, to_text, valuation, xgcd)
from .residue import FunctionTable, ResidueRing, crt_combine, crt_split
from .wagner import BasisCoefficients, PSequence, decompose, eval_Qk, mu

__version__ = "0.1.0"

__all__ = [
    "BasisCoefficients", "ChenVerdict", "CpCheck", "DensityReport",
    "EnumerationGuard", "Factorization", "FieldSpec", "FunctionTable",
    "GAMMA_INF", "GuardExceeded", "PSequence", "ParseError", "Poly",
    "PolyFnModule", "QExponent", "ResidueRing", "census_self_chen",
    "census_squarefree", "chen_self_count", "count_cpf",
    "count_cpf_bruteforce", "count_polyfn", "count_polyfn_literal",
    "crt_combine", "crt_split", "decompose", "deg_gcd_factorial",
    "degree_n_polys", "density_empirical", "density_exact",
    "encode_cp_problem", "enumerate_residues", "eval_Qk", "factorial",
    "factorize", "field_make", "gamma", "gamma_prime_power", "gcd",
    "index_to_poly", "is_chen_pair", "is_congruence_preserving",
    "is_irreducible", "is_self_chen", "monic_irreducibles", "mu", "parse",
    "poly_to_index", "polyfn_module", "squarefree_count", "to_text",
    "valuation", "xgcd",
]
