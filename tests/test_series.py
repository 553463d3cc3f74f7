"""Summand families, the telescoping F/G pair, and the terminating
transformation, cross-checked against direct rising-factorial evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.series import (
    ParameterSingularity,
    PreconditionViolated,
    SumSpec,
    boundary_closed_form,
    check_telescoped_identity,
    check_wz_relation,
    f32_top_minus_one,
    partial_sum,
    pochhammer_ratio_product,
    term_value,
    whipple_terminating,
    wz_F,
    wz_G,
    wz_G_tail,
)
from supercong.special import poch_neg_half, pochhammer

HALF = Fraction(1, 2)


def direct_term(family, m, k):
    # independent route: literal definition via pochhammer, no term ratios
    if family == "A":
        return (-1) ** k * (4 * k - 1) ** m * pochhammer(-HALF, k) ** 3 / math.factorial(k) ** 3
    if family == "B":
        return (4 * k - 1) ** m * pochhammer(-HALF, k) ** 4 / math.factorial(k) ** 4
    return (-1) ** k * (4 * k + 1) ** m * pochhammer(HALF, k) ** 3 / math.factorial(k) ** 3


class TestSumSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SumSpec("X", 1, 3)
        with pytest.raises(ValueError):
            SumSpec("A", 2, 3)
        with pytest.raises(ValueError):
            SumSpec("A", 1, -1)


class TestTermValue:
    def test_examples(self):
        assert term_value(SumSpec("A", 1, 9), 0) == -1
        assert term_value(SumSpec("A", 1, 9), 1) == Fraction(3, 8)
        assert term_value(SumSpec("A", 3, 9), 2) == Fraction(-343, 512)

    @given(st.sampled_from("ABV"), st.sampled_from([1, 3, 5, 7]), st.integers(0, 25))
    def test_matches_direct_definition(self, family, m, k):
        assert term_value(SumSpec(family, m, 0), k) == direct_term(family, m, k)

    def test_neg_half_ratio_is_a_catalan_number_over_a_power_of_two(self):
        # (-1/2)_k / k! = -Cat(k-1) / 2^(2k-1): no odd prime divides its denominator
        for k in range(1, 601):
            catalan = math.comb(2 * k - 2, k - 1) // k
            assert poch_neg_half(k) / math.factorial(k) == Fraction(-catalan, 2 ** (2 * k - 1))

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_family_summand_denominators_are_powers_of_two(self, family):
        for k in range(301):
            d = term_value(SumSpec(family, 1, k), k).denominator
            assert d & (d - 1) == 0, k


class TestPartialSum:
    def test_examples(self):
        assert partial_sum(SumSpec("V", 1, 1)) == Fraction(3, 8)
        assert partial_sum(SumSpec("A", 1, 3)) == Fraction(-2605, 4096)
        assert partial_sum(SumSpec("A", 3, 3)) == Fraction(8315, 4096)

    @settings(max_examples=40)
    @given(st.sampled_from("ABV"), st.sampled_from([1, 3, 5]), st.integers(0, 30))
    def test_matches_term_by_term(self, family, m, upper):
        spec = SumSpec(family, m, upper)
        assert partial_sum(spec) == sum(
            (term_value(spec, k) for k in range(upper + 1)), Fraction(0)
        )


class TestWZPair:
    def test_F_examples(self):
        assert wz_F(1, 0) == Fraction(3, 8)
        assert wz_F(1, 1) == Fraction(-3, 4)
        assert wz_F(2, 3) == 0  # k > n vanishes through 1/(1)_(-1) = 0

    def test_G_examples(self):
        assert wz_G(0, 2) == 0  # n = 0 vanishes
        assert wz_G(1, 1) == -1
        assert wz_G(2, 1) == Fraction(1, 8)

    def test_F_matches_direct_definition(self):
        for n in range(0, 10):
            for k in range(0, n + 1):
                direct = (
                    (-1) ** (n + k)
                    * (4 * n - 1)
                    * pochhammer(-HALF, n) ** 2
                    * pochhammer(-HALF, n + k)
                    / (
                        math.factorial(n) ** 2
                        * math.factorial(n - k)
                        * pochhammer(-HALF, k) ** 2
                    )
                )
                assert wz_F(n, k) == direct

    def test_G_matches_direct_definition(self):
        for n in range(1, 10):
            for k in range(0, n + 1):
                direct = (
                    (-1) ** (n + k)
                    * 2
                    * pochhammer(-HALF, n) ** 2
                    * pochhammer(-HALF, n + k - 1)
                    / (
                        math.factorial(n - 1) ** 2
                        * math.factorial(n - k)
                        * pochhammer(-HALF, k) ** 2
                    )
                )
                assert wz_G(n, k) == direct

    def test_relation_spot_value(self):
        # both sides equal 9/8 at (n,k) = (1,1)
        assert wz_F(1, 0) - wz_F(1, 1) == Fraction(9, 8)
        assert wz_G(2, 1) - wz_G(1, 1) == Fraction(9, 8)
        assert check_wz_relation(1, 1)

    def test_relation_boundary_column(self):
        assert check_wz_relation(0, 1)

    def test_relation_small_grid(self):
        assert all(check_wz_relation(n, k) for n in range(0, 26) for k in range(1, n + 2))

    def test_relation_needs_positive_k(self):
        with pytest.raises(PreconditionViolated):
            check_wz_relation(3, 0)

    def test_telescoped_identity(self):
        for p in (3, 5, 7, 97):
            assert check_telescoped_identity(p)
        with pytest.raises(PreconditionViolated):
            check_telescoped_identity(4)

    def test_column_sum_is_family_A_sum(self):
        # the k = 0 column of F is exactly the weight-1 alternating sum
        for p in (3, 5, 7, 11):
            h = (p + 1) // 2
            assert partial_sum(SumSpec("A", 1, h)) == sum(
                (wz_F(n, 0) for n in range(h + 1)), Fraction(0)
            )

    def test_column_is_family_A_summand(self):
        # the telescoped identity reads its F(n, 0) sum as the A/m=1 prefix sum
        for n in range(61):
            assert wz_F(n, 0) == term_value(SumSpec("A", 1, n), n)

    def test_G_tail_needs_two_terms_of_n(self):
        assert wz_G_tail(2) == wz_G(2, 1)
        for n in (-1, 0, 1):
            with pytest.raises(PreconditionViolated):
                wz_G_tail(n)


class TestBoundaryClosedForm:
    def test_p3_value(self):
        direct, closed = boundary_closed_form(3)
        assert direct == closed == Fraction(-105, 64)

    def test_equality_including_odd_composites(self):
        for p in (5, 7, 9, 15, 21, 199):
            direct, closed = boundary_closed_form(p)
            assert direct == closed


class TestWhipple:
    def test_empty_series(self):
        assert whipple_terminating(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), 4, 0)

    def test_examples(self):
        assert whipple_terminating(-HALF, Fraction(3, 4), Fraction(3, 4), Fraction(1, 4), 1)
        assert whipple_terminating(1, HALF, Fraction(1, 3), Fraction(1, 4), 3)

    def test_two_term_instance_by_hand(self):
        # N=1, (a,b,c,d) = (-1/2, 3/4, 3/4, 1/4): lhs = 1 + 9 = 10 and
        # rhs = (3/2)/(3/4)... prefactor (1+a)_1/(1+a-d)_1 = (1/2)/(1/4) = 2,
        # series 1 + 4 = 5
        a, b, c, d = -HALF, Fraction(3, 4), Fraction(3, 4), Fraction(1, 4)
        k1 = (
            -a
            * (1 + a / 2)
            * b
            * c
            * d
            * (-1)
            / ((a / 2) * (1 + a - b) * (1 + a - c) * (1 + a - d) * (1 + a + 1))
        )
        assert 1 + k1 == 10
        assert pochhammer(1 + a, 1) / pochhammer(1 + a - d, 1) == 2

    def test_singularity_detection(self):
        # b = 1 + a makes (1+a-b)_k vanish from k = 1 on
        with pytest.raises(ParameterSingularity):
            whipple_terminating(-HALF, HALF, Fraction(3, 4), Fraction(1, 4), 2)
        # a = 0 makes (a/2)_k vanish
        with pytest.raises(ParameterSingularity):
            whipple_terminating(0, Fraction(3, 4), Fraction(3, 4), Fraction(1, 4), 1)

    def test_random_admissible_sample(self):
        rng = random.Random(74)
        draws = 0
        while draws < 30:
            a, b, c, d = (
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)
            )
            N = rng.randint(0, 4)
            try:
                assert whipple_terminating(a, b, c, d, N)
            except ParameterSingularity:
                continue
            draws += 1


class TestF32TopMinusOne:
    def test_closed_form_instance(self):
        # top parameters ((-1-p)/2, (-1+p)/2) at p = 5 with lower -1/4:
        # 1 - 4(1 - 25) = 97
        p = 5
        assert f32_top_minus_one(
            Fraction(-1 - p, 2), Fraction(-1 + p, 2), Fraction(-1, 4)
        ) == 97

    def test_degenerate_cases(self):
        assert f32_top_minus_one(0, Fraction(7, 2), Fraction(1, 3)) == 1
        assert f32_top_minus_one(1, 1, 1) == 0

    def test_zero_lower_parameter(self):
        with pytest.raises(ZeroDivisionError):
            f32_top_minus_one(1, 1, 0)


class TestPochhammerRatioProduct:
    def test_equals_rising_factorial_ratio(self):
        for p in (3, 5, 7, 9, 13):
            for k in range(0, (p + 1) // 2 + 1):
                num = pochhammer(Fraction(-1 - p, 2), k) * pochhammer(Fraction(-1 + p, 2), k)
                den = pochhammer(1 + Fraction(p, 2), k) * pochhammer(1 - Fraction(p, 2), k)
                assert pochhammer_ratio_product(p, k) == num / den

    def test_rejects_even_p(self):
        with pytest.raises(PreconditionViolated):
            pochhammer_ratio_product(4, 1)
