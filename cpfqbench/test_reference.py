"""Hand-worked values for the benchmark's reference code.

    python3 -m pytest cpfqbench/test_reference.py -q

Every expected value below is worked out by hand in the comment beside
it, not taken from cpfq.
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def test_gauss_counts():
    # q=2: 2 linear, t^2+t+1, t^3+t+1 and t^3+t^2+1, (16-4)/4 = 3, (32-2)/5 = 6,
    # (64-8-4+2)/6 = 9
    assert [ref.gauss_count(2, d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    # q=3: (9-3)/2 = 3, (27-3)/3 = 8, (81-9)/4 = 18; q=5: (25-5)/2 = 10, (125-5)/3 = 40
    assert [ref.gauss_count(3, d) for d in range(1, 5)] == [3, 3, 8, 18]
    assert [ref.gauss_count(5, d) for d in range(1, 4)] == [5, 10, 40]


def test_sieve_lists_the_known_irreducibles():
    irr = ref.monic_irreducibles(2, 3)
    assert irr[1] == [(0, 1), (1, 1)]               # t, t+1
    assert irr[2] == [(1, 1, 1)]                    # t^2+t+1
    assert irr[3] == [(1, 1, 0, 1), (1, 0, 1, 1)]   # t^3+t+1, t^3+t^2+1
    # over F_3 the monic irreducible quadratics are t^2+1, t^2+t+2, t^2+2t+2
    assert ref.monic_irreducibles(3, 2)[2] == [(1, 0, 1), (2, 1, 1), (2, 2, 1)]


def test_text_form():
    assert ref.to_text((1, 0, 2, 1)) == "t^3+2t^2+1"
    assert ref.to_text(ref.mul((1, 1), (1, 1), 2)) == "t^2+1"   # (t+1)^2 over F_2
    assert ref.to_text(ref.power((1, 1), 3, 3)) == "t^3+1"      # (t+1)^3 over F_3
    assert ref.to_text(()) == "0"


def test_gamma_rule():
    inf = math.inf
    assert ref.gamma(2, [(1, 1)]) == inf            # t: square-free
    assert ref.gamma(2, [(1, 2)]) == inf            # t^2: the q=2 exception
    assert ref.gamma(2, [(1, 3)]) == 3              # t^3: d + 2
    assert ref.gamma(2, [(2, 2)]) == 4              # (t^2+t+1)^2: d + 2
    assert ref.gamma(2, [(1, 2), (3, 2)]) == 5      # min(inf, 5)
    assert ref.gamma(3, [(1, 2)]) == 2              # t^2 over F_3: d + 1
    assert ref.gamma(5, [(1, 1), (2, 1)]) == inf


def test_cpf_exponent():
    # q=2, f=t^2, g=t^2: k=0 has 2 digits, k=1 (j=0) 2, k=2,3 (j=1) 1 each: 6
    assert ref.cpf_exponent(2, 2, [(1, 2)]) == 6
    # q=2, f=t^3, g=t^3: 3 + 3 + 2*2 + 4*1 = 14
    assert ref.cpf_exponent(2, 3, [(1, 3)]) == 14
    # q=3, f=t^2, g=P1 P2 with linear P_i: sigma mod P_i must factor
    # through A_{P_i} = F_3, so 3^3 choices for each: 6
    assert ref.cpf_exponent(3, 2, [(1, 1), (1, 1)]) == 6
    # q=3, f=t^2, g=t^2: 2 + 2*2 + 6*1 = 12
    assert ref.cpf_exponent(3, 2, [(1, 2)]) == 12


def test_polyfn_exponent():
    # q=2, f=t^3, g=t^3: v(k!) for k=1..7 is 0,1,1,3,3,4,4, capped at 3 it
    # sums to 14, so N = 3*8 - 14 = 10
    assert ref.polyfn_exponent(2, 3, [(1, 3)]) == 10
    # q=2, f=t^2, g=t^2: v(k!) for k=1..3 is 0,1,1: N = 2*4 - 2 = 6 = M (Chen)
    assert ref.polyfn_exponent(2, 2, [(1, 2)]) == 6
    # q=3, f=t^2, g=t^2: v(k!) = floor(k/3) + floor(k/9): 0,0,1,1,1,2,2,2 for
    # k=1..8, capped at 2 sums to 9, so N = 18 - 9 = 9 < M = 12
    assert ref.polyfn_exponent(3, 2, [(1, 2)]) == 9
    # a linear factor with e=1 into f of degree 1: the cap is never reached below q
    assert ref.polyfn_exponent(5, 1, [(1, 1)]) == 5


def test_census_closed_forms():
    assert [ref.self_chen_count(2, n) for n in range(4)] == [1, 2, 4, 6]
    # degree 4 over F_2: 16 polynomials less t^4, t^3(t+1), t(t+1)^3, (t+1)^4
    # and (t^2+t+1)^2
    assert ref.self_chen_count(2, 4) == 11
    assert ref.self_chen_count(2, 5) == (49 * 4 + 2) // 9 == 22
    # odd q, every leading coefficient: (q-1)q for n = 1, (q-1)(q^n - q^(n-1)) after
    assert ref.self_chen_count(3, 1) == 6
    assert ref.self_chen_count(3, 2) == 2 * (9 - 3) == 12
    assert ref.self_chen_count(5, 3) == 4 * (125 - 25)
