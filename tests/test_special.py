"""Rising factorials, harmonic and Euler numbers, Gamma-ratio shifts, and the
classical central-binomial congruences."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercong.arith import InvalidPrime
from supercong.checks import check
from supercong.special import (
    euler_number,
    h2,
    inv_pochhammer_int,
    pochhammer,
)

from oracles import gamma_ratio_half_shift

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(17, 3), 0) == 1
        assert pochhammer(0, 0) == 1

    def test_examples(self):
        assert pochhammer(1, 4) == 24
        assert pochhammer(Fraction(-1, 2), 2) == Fraction(-1, 4)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)

    @given(RATIONALS, st.integers(0, 12), st.integers(0, 12))
    def test_splitting(self, a, j, k):
        assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)

    @given(st.integers(0, 40))
    def test_half_base_vs_central_binomial(self, k):
        assert pochhammer(Fraction(1, 2), k) / math.factorial(k) == Fraction(
            math.comb(2 * k, k), 4**k
        )

    @given(st.integers(0, 40))
    def test_negative_half_base_vs_central_binomial(self, k):
        assert pochhammer(Fraction(-1, 2), k) / math.factorial(k) == Fraction(
            -math.comb(2 * k, k), 4**k * (2 * k - 1)
        )


class TestInvPochhammerInt:
    def test_convention(self):
        assert inv_pochhammer_int(-1) == 0
        assert inv_pochhammer_int(-7) == 0
        assert inv_pochhammer_int(0) == 1
        assert inv_pochhammer_int(3) == Fraction(1, 6)


class TestH2:
    def test_values(self):
        assert h2(0) == 0
        assert h2(1) == 1
        assert h2(2) == Fraction(5, 4)
        assert h2(3) == Fraction(49, 36)

    @given(st.integers(0, 100))
    def test_matches_direct_sum(self, n):
        assert h2(n) == sum(Fraction(1, j * j) for j in range(1, n + 1))


class TestEulerNumbers:
    def test_tables(self):
        assert [euler_number(n) for n in (0, 2, 4, 6)] == [1, -1, 5, -61]

    def test_known_larger_values(self):
        assert euler_number(8) == 1385
        assert euler_number(10) == -50521
        assert euler_number(12) == 2702765

    def test_odd_index_is_zero(self):
        assert euler_number(7) == 0
        assert euler_number(9) == 0

    def test_boustrophedon_matches_the_binomial_recurrence(self):
        # the oracle: E_0, E_2, ... from sum_{k=0..n/2} C(n, 2k) E_(2k) = 0, n even >= 2
        values = [1]
        for n in range(2, 600, 2):
            values.append(-sum(math.comb(n, 2 * k) * e for k, e in enumerate(values)))
        assert [euler_number(2 * j) for j in range(len(values))] == values

    @given(st.integers(1, 20))
    def test_defining_recurrence(self, half_n):
        # sum_{k=0..n/2} C(n,2k) E_2k == 0 for every even n >= 2
        n = 2 * half_n
        assert sum(math.comb(n, 2 * k) * euler_number(2 * k) for k in range(half_n + 1)) == 0


class TestGammaRatioHalfShift:
    def test_examples(self):
        assert gamma_ratio_half_shift(3) == -3
        assert gamma_ratio_half_shift(5) == 5
        assert gamma_ratio_half_shift(7) == -7

    def test_exact_law_all_odd(self):
        # holds for every odd p >= 3, prime or not
        for p in range(3, 200, 2):
            assert gamma_ratio_half_shift(p) == p * (-1) ** ((p - 1) // 2)

    def test_rejects_even_and_small(self):
        with pytest.raises(ValueError):
            gamma_ratio_half_shift(4)
        with pytest.raises(ValueError):
            gamma_ratio_half_shift(1)


class TestClassicalCongruences:
    """Wolstenholme's and Morley's congruences, registered checks."""

    def test_wolstenholme_at_5(self):
        rep = check("wolstenholme", 5)
        assert rep.lhs - rep.rhs == 250  # C(10,5) - 2 = 2 * 5^3
        assert rep.achieved_valuation == 3 and rep.passed

    def test_wolstenholme_scan(self):
        for p in (7, 11, 13, 97, 199):
            assert check("wolstenholme", p).passed

    def test_morley_at_5(self):
        rep = check("morley", 5)
        assert rep.lhs == 6 and rep.rhs == 256
        assert rep.achieved_valuation == 3 and rep.passed

    def test_morley_scan(self):
        for p in (7, 11, 13, 97, 199):
            assert check("morley", p).passed

    def test_domain_floor(self):
        for check_id in ("wolstenholme", "morley"):
            with pytest.raises(InvalidPrime):
                check(check_id, 3)
            with pytest.raises(InvalidPrime):
                check(check_id, 9)
