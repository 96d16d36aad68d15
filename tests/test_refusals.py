"""The input checks of the library: each refusal, its type and its message,
and the few edge values a check lets through."""

import json

import pytest

from cpfq.chen import (chen_self_count, density_empirical, density_exact,
                       gamma_prime_power, is_chen_pair, squarefree_count)
from cpfq.counting import QExponent, count_cpf
from cpfq.field import FieldSpec
from cpfq.guards import EnumerationGuard
from cpfq.oracle import count_cpf_bruteforce, polyfn_module
from cpfq.polyring import (ParseError, enumerate_residues, index_to_poly,
                           is_irreducible, monic_irreducibles, parse, xgcd)
from cpfq.residue import FunctionTable, ResidueRing, crt_combine
from cpfq.wagner import PSequence, decompose, eval_Qk
from helpers import make_field, pol, ring


def _identity(q, text):
    return FunctionTable.from_callable(ring(q, text), ring(q, text), lambda h: h)


REFUSALS = {
    # chen
    "gamma-reducible-P": (lambda: gamma_prime_power(pol(2, "t^2+t"), 1),
                          ValueError, "requires an irreducible polynomial"),
    "gamma-exponent-0": (lambda: gamma_prime_power(pol(2, "t"), 0),
                         ValueError, "exponent must be >= 1"),
    "chen-constant-f": (lambda: is_chen_pair(pol(2, "1"), pol(2, "t")),
                        ValueError, "f must have degree >= 1"),
    "chen-two-fields": (lambda: is_chen_pair(pol(2, "t"), pol(3, "t")),
                        ValueError, "f and g must share one field"),
    "squarefree-count-negative": (lambda: squarefree_count(-1, 2),
                                  ValueError, "degree must be >= 0"),
    "chen-self-count-negative": (lambda: chen_self_count(-1, 3),
                                 ValueError, "degree must be >= 0"),
    "density-exact-q-1": (lambda: density_exact(1), ValueError, "q must be >= 2"),
    "density-max-degree-0": (lambda: density_empirical(make_field(2), 0),
                             ValueError, "max_degree must be >= 1"),
    # counting
    "count-two-fields": (lambda: count_cpf(pol(2, "t"), pol(3, "t")),
                         ValueError, "f and g must share one field"),
    "qexponent-times-other-base": (lambda: QExponent(2, 3) * QExponent(3, 3),
                                   ValueError, "different bases"),
    "qexponent-times-int": (lambda: QExponent(2, 3) * 2, TypeError, "QExponent"),
    # field
    "field-modulus-not-monic": (lambda: FieldSpec(2, 2, (1, 1, 0)),
                                ValueError, "modulus must be monic of degree m"),
    "field-coordinates-too-long": (lambda: make_field(4).from_coeffs([1, 1, 1]),
                                   ValueError, "longer than extension degree"),
    # guards
    "guard-no-functions": (lambda: EnumerationGuard(0),
                           ValueError, "max_functions must be >= 1"),
    # oracle
    "unknown-engine": (lambda: count_cpf_bruteforce(pol(2, "t"), pol(2, "t"), engine="x"),
                       ValueError, "unknown engine 'x'"),
    "module-other-rings": (lambda: polyfn_module(pol(2, "t"), pol(2, "t")).contains(
        _identity(2, "t^2")), ValueError, "table over different rings"),
    # polyring
    "leading-of-zero": (lambda: pol(2, "0").leading,
                        ValueError, "zero polynomial has no leading coefficient"),
    "negative-power": (lambda: pol(2, "t") ** -1, ValueError, "negative polynomial power"),
    "parse-closing-first": (lambda: parse(make_field(2), ")t("),
                            ParseError, "unbalanced parentheses"),
    "parse-trailing-operator": (lambda: parse(make_field(2), "t+"), ParseError, "empty term"),
    "parse-empty-parentheses":(lambda: parse(make_field(2), "()t"),
                                ParseError, "empty parenthesized coefficient"),
    "negative-index": (lambda: index_to_poly(make_field(2), -1),
                       ValueError, "index must be nonnegative"),
    "residues-of-a-constant": (lambda: enumerate_residues(pol(2, "1")),
                               ValueError, "modulus must have degree >= 1"),
    "irreducibles-degree-0": (lambda: monic_irreducibles(make_field(2), 0),
                              ValueError, "degree must be >= 1"),
    # residue
    "ring-of-a-constant": (lambda: ResidueRing(pol(2, "1")),
                           ValueError, "ring modulus must have degree >= 1"),
    "reduce-other-field": (lambda: ring(2, "t").reduce(pol(3, "t")),
                           ValueError, "polynomial over a different field"),
    "element-out-of-range": (lambda: ring(2, "t").element(2),
                             ValueError, "residue index 2 out of range"),
    "index-not-canonical": (lambda: ring(2, "t").index(pol(2, "t")),
                            ValueError, "not a canonical representative"),
    "table-too-few-values": (lambda: FunctionTable(ring(2, "t"), ring(2, "t"), [pol(2, "0")]),
                             ValueError, "expected 2 values, got 1"),
    "table-int-values": (lambda: FunctionTable(ring(2, "t"), ring(2, "t"), [0, 1]),
                         ValueError, "values must be codomain polynomials"),
    "table-extra-key": (lambda: FunctionTable.from_json(json.dumps(
        {"q": 2, "f": "t", "g": "t", "values": {"0": "0", "1": "1", "t^9": "0"}})),
        ValueError, "keys that are not canonical representatives"),
    "crt-combine-nothing": (lambda: crt_combine([]), ValueError, "need at least one table"),
    # wagner: over F_2 with P = t^3+t+1, t^2 before t leaves degrees 0, 1, 3, 2
    "base-degrees-decrease": (lambda: PSequence(pol(2, "t^3+t+1"), [
        index_to_poly(make_field(2), k) for k in (0, 1, 4, 2, 3, 5, 6, 7)]),
        ValueError, "base degrees must be nondecreasing"),
    "sequence-negative-index": (lambda: PSequence(pol(2, "t")).element(-1),
                                ValueError, "index must be >= 0"),
    "q-exponent-0": (lambda: eval_Qk(pol(2, "t"), 0, 1, pol(2, "t")),
                     ValueError, "exponent must be >= 1"),
    "q-sequence-of-another-P": (lambda: eval_Qk(pol(2, "t"), 1, 1, pol(2, "t"),
                                                PSequence(pol(2, "t+1"))),
                                ValueError, "sequence attached to a different P"),
    "decompose-sequence-of-another-P": (lambda: decompose(_identity(2, "t^2"),
                                                          PSequence(pol(2, "t+1"))),
                                        ValueError, "sequence attached to a different P"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_edge_values_that_are_answered():
    F2 = make_field(2)
    zero = pol(2, "0")
    assert xgcd(zero, zero) == (zero, pol(2, "1"), zero)
    assert not is_irreducible(pol(2, "1")) and not is_irreducible(zero)
    assert parse(F2, "1*t") == parse(F2, "t") and parse(make_field(3), "2*t^2") == pol(3, "2t^2")
    assert pol(2, "t") != "t"


def test_reprs_name_the_field_and_moduli():
    assert repr(make_field(3)) == "FieldSpec(p=3)"
    assert repr(make_field(4)) == "FieldSpec(p=2, m=2, modulus=u^2+u+1)"
    assert str(pol(2, "t^2+1")) == "t^2+1" and repr(pol(2, "t^2+1")) == "Poly('t^2+1')"
    assert repr(ring(2, "t^2")) == "ResidueRing('t^2')"
    assert repr(_identity(2, "t^2")) == "FunctionTable(t^2 -> t^2, 4 values)"
