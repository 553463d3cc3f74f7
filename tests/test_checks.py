"""Named congruence checks, closed-form lemma scans, and per-index instances,
with independent brute-force oracles where the values were derived."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong.arith import InvalidPrime, PrimePower, reduce_mod
from supercong.checks import (
    CHECKS,
    DEFAULT_CHECK_IDS,
    IndexOutOfRange,
    PrimeTooSmall,
    check,
    check_lemma_f,
    check_lemma_g,
    check_lemma_sun3,
    check_ratio_expansion,
    table1_f,
    table1_g,
    table1_g_parts,
)
from supercong.special import h2, pochhammer

HALF = Fraction(1, 2)


def lemma_summand_direct(m, n, k):
    # literal rising-factorial route, independent of the incremental terms
    return (
        (4 * k - 1) ** m
        * pochhammer(-HALF, k) ** 2
        * pochhammer(-n, k)
        * pochhammer(n - 1, k)
        / (
            math.factorial(k) ** 2
            * pochhammer(n + HALF, k)
            * pochhammer(Fraction(3, 2) - n, k)
        )
    )


def lemma_weight_direct(k):
    return sum(
        (Fraction(1, 4 * j * j) - Fraction(1, (2 * j - 3) ** 2) for j in range(1, k + 1)),
        Fraction(0),
    )


class TestTable1:
    def test_f_values(self):
        assert table1_f(3, 2) == 0 and table1_f(3, 17) == 0
        assert table1_f(5, 2) == -384  # -64 * 2 * 1 * 3
        assert table1_f(7, 2) == -384 * (24 * 4 - 48 + 11)

    def test_g_value_at_m3_n2(self):
        assert table1_g(3, 2) == Fraction(135, 16)
        rational, coeff = table1_g_parts(3, 2)
        assert coeff == 0 and rational == Fraction(135, 16)

    def test_g_h2_coefficients(self):
        assert table1_g_parts(5, 3)[1] == 32 * 3 * 2 * 5
        assert table1_g_parts(7, 2)[1] == 32 * 2 * 1 * 3 * (24 * 4 - 48 + 11)

    def test_rejects_other_weights(self):
        with pytest.raises(ValueError):
            table1_f(9, 2)

    @pytest.mark.parametrize("table", [table1_f, table1_g, table1_g_parts])
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_n_below_two(self, table, n):
        with pytest.raises(ValueError, match=f"n must be >= 2, got {n}"):
            table(7, n)


class TestLemmaClosedForms:
    def test_m3_n2_term_values(self):
        terms = [lemma_summand_direct(3, 2, k) for k in range(3)]
        assert terms == [-1, Fraction(54, 5), Fraction(-49, 5)]
        assert sum(terms) == 0

    def test_m5_n2_sum(self):
        assert sum(lemma_summand_direct(5, 2, k) for k in range(3)) == -384

    def test_weighted_m3_n2_by_hand(self):
        # weights w(1) = -3/4, w(2) = -27/16
        assert lemma_weight_direct(1) == Fraction(-3, 4)
        assert lemma_weight_direct(2) == Fraction(-27, 16)
        total = sum(
            lemma_summand_direct(3, 2, k) * lemma_weight_direct(k) for k in range(3)
        )
        assert total == Fraction(135, 16) == table1_g(3, 2)

    def test_incremental_terms_match_direct(self):
        from supercong.checks import _lemma_sum

        for m in (3, 5, 7):
            for n in (2, 3, 7, 12):
                terms = [lemma_summand_direct(m, n, k) for k in range(n + 1)]
                assert Fraction(*_lemma_sum(m, n, weighted=False)) == sum(terms)
                assert Fraction(*_lemma_sum(m, n, weighted=True)) == sum(
                    t * lemma_weight_direct(k) for k, t in enumerate(terms)
                )

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_scan_small_range(self, m):
        for n in range(2, 13):
            assert check_lemma_f(m, n)
            assert check_lemma_g(m, n)

    def test_g_at_spec_examples(self):
        assert check_lemma_g(5, 3)
        assert check_lemma_g(7, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            check_lemma_f(3, 1)


class TestLemmaIntegerWalk:
    """The integer walk behind check_lemma_f/g against the closed forms,
    plain and weighted."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from((3, 5, 7)), n=st.integers(2, 120))
    @example(m=3, n=2)  # f = 0
    @example(m=7, n=120)
    def test_walk_sums_equal_fraction_sums(self, m, n):
        from supercong.checks import _lemma_sum

        assert Fraction(*_lemma_sum(m, n, weighted=False)) == table1_f(m, n)
        assert Fraction(*_lemma_sum(m, n, weighted=True)) == table1_g(m, n)

    def test_walk_rejects_what_lemma_terms_rejects(self):
        from supercong.checks import _lemma_sum

        for m, n in ((3, 1), (4, 5), (9, 2)):
            for weighted in (False, True):
                with pytest.raises(ValueError):
                    _lemma_sum(m, n, weighted)


class TestLemmaSun3:
    def test_p5_k1_values(self):
        rep = check_lemma_sun3(5, 1)
        assert rep.lhs == Fraction(3375, 512)
        assert rep.rhs == 125
        assert rep.lhs - rep.rhs == Fraction(-60625, 512)  # -5^4 * 97 / 512
        assert rep.achieved_valuation == 4 and rep.passed
        assert rep.k == 1

    def test_more_instances(self):
        assert check_lemma_sun3(5, 2).passed
        assert check_lemma_sun3(7, 3).passed

    def test_index_range(self):
        with pytest.raises(IndexOutOfRange):
            check_lemma_sun3(5, 0)
        with pytest.raises(IndexOutOfRange):
            check_lemma_sun3(5, 3)

    def test_prime_floor(self):
        with pytest.raises(PrimeTooSmall):
            check_lemma_sun3(3, 1)

    def test_lhs_matches_direct_definition(self):
        for p, k in ((5, 1), (7, 2), (11, 4)):
            h = (p - 1) // 2
            direct = (
                (-1) ** (h + 1 + k)
                * 2
                * pochhammer(HALF, h + 1) ** 2
                * pochhammer(HALF, h + k)
                / (
                    math.factorial(h) ** 2
                    * math.factorial(h + 1 - k)
                    * pochhammer(HALF, k) ** 2
                )
            )
            assert check_lemma_sun3(p, k).lhs == direct


class TestRatioExpansion:
    def test_empty_product(self):
        rep = check_ratio_expansion(5, 0, 4)
        assert rep.lhs == rep.rhs == 1
        assert rep.passed

    def test_p5_k2_order4_values(self):
        rep = check_ratio_expansion(5, 2, 4)
        assert rep.lhs == Fraction(64, 21)
        assert rep.rhs == Fraction(-659, 1024)
        assert rep.achieved_valuation == 4 and rep.passed

    def test_p7_k4_order2(self):
        assert check_ratio_expansion(7, 4, 2).passed

    def test_index_and_order_validation(self):
        with pytest.raises(IndexOutOfRange):
            check_ratio_expansion(5, 4, 4)
        with pytest.raises(ValueError):
            check_ratio_expansion(5, 1, 3)


class TestCheckRegistry:
    def test_van_hamme_p3(self):
        rep = check("van_hamme", 3)
        assert rep.lhs == Fraction(3, 8) and rep.rhs == -3
        assert rep.achieved_valuation == 3 and rep.passed

    def test_thm1_p5(self):
        rep = check("thm1", 5)
        assert rep.lhs == Fraction(-2605, 4096) and rep.rhs == 370
        assert rep.lhs - rep.rhs == Fraction(-(5**4) * 2429, 4096)
        assert rep.achieved_valuation == 4 and rep.passed and rep.m == 1

    def test_thm2_p5_overachieves(self):
        rep = check("thm2", 5)
        assert rep.lhs == Fraction(8315, 4096) and rep.rhs == 15
        assert rep.lhs - rep.rhs == Fraction(-(5**5) * 17, 4096)
        assert rep.achieved_valuation == 5 and rep.passed  # required only 2

    def test_thm3_rhs_constants(self):
        for p in (5, 7, 11):
            assert check("thm3_m3", p).rhs == 0
            assert check("thm3_m5", p).rhs == 16 * p
            assert check("thm3_m7", p).rhs == 80 * p

    def test_gs0_rhs(self):
        rep = check("gs0", 5)
        assert rep.rhs == -5 * 5**4 and rep.passed

    def test_h2_cong_p5(self):
        rep = check("h2_cong", 5)
        assert rep.lhs == Fraction(49, 36) == h2(3)
        assert rep.rhs == 4
        assert rep.achieved_valuation == 1 and rep.passed

    def test_boundary_mod_and_tail(self):
        for p in (5, 7, 13):
            assert check("boundary_mod", p).passed
            assert check("tail_congruence", p).passed

    def test_p3_informational_mode(self):
        with pytest.raises(PrimeTooSmall):
            check("thm1", 3)
        rep = check("thm1", 3, informational=True)
        assert rep.passed is None and rep.informational
        assert rep.lhs == Fraction(-327, 512)
        assert rep.lhs - rep.rhs == Fraction(-15687, 512)  # -3^3 * 581 / 512
        assert rep.achieved_valuation == 3  # exactly 3: fails t = 4

    def test_informational_flag_ignored_in_domain(self):
        rep = check("thm1", 5, informational=True)
        assert rep.passed is True and not rep.informational

    def test_thm2_allows_p3(self):
        rep = check("thm2", 3)
        assert rep.passed and rep.achieved_valuation >= 2

    def test_rejects_composites_and_unknown_ids(self):
        with pytest.raises(InvalidPrime):
            check("thm1", 9)
        with pytest.raises(ValueError):
            check("no_such_check", 5)

    def test_default_ids_exclude_printed_variant(self):
        assert "lemma_sun1_printed" not in DEFAULT_CHECK_IDS
        assert "lemma_sun1_printed" in CHECKS
        assert set(DEFAULT_CHECK_IDS) == set(CHECKS) - {"lemma_sun1_printed"}


class TestLemmaSun1Variants:
    def test_lhs_value_p5(self):
        rep = check("lemma_sun1", 5)
        # 4/(1*C(2,1)) + 16/(3*C(4,2)) = 2 + 8/9
        assert rep.lhs == Fraction(26, 9)
        assert rep.rhs == -1  # E_2 - 1 + (-1)^2 = -1 - 1 + 1
        assert rep.passed

    def test_lhs_value_p7(self):
        rep = check("lemma_sun1", 7)
        assert rep.lhs == Fraction(794, 225)
        assert rep.passed

    def test_printed_variant_fails_at_5_and_7(self):
        # p=5: lhs = 4 (mod 5) but E_4 - 1 + 1 = 5 = 0 (mod 5)
        rep = check("lemma_sun1_printed", 5)
        assert rep.passed is False
        assert reduce_mod(rep.lhs, PrimePower(5, 1)) == 4
        assert reduce_mod(rep.rhs, PrimePower(5, 1)) == 0
        # p=7: lhs = 3 (mod 7) but E_6 - 1 - 1 = -63 = 0 (mod 7)
        rep = check("lemma_sun1_printed", 7)
        assert rep.passed is False
        assert reduce_mod(rep.lhs, PrimePower(7, 1)) == 3
        assert reduce_mod(rep.rhs, PrimePower(7, 1)) == 0

    def test_proof_reading_matches_at_5_and_7(self):
        # E_2 = -1 gives rhs = 4 (mod 5); E_4 = 5 gives rhs = 3 (mod 7)
        assert reduce_mod(check("lemma_sun1", 5).rhs, PrimePower(5, 1)) == 4
        assert reduce_mod(check("lemma_sun1", 7).rhs, PrimePower(7, 1)) == 3


class TestAggregates:
    def test_lemma_sun3_aggregate_is_worst_instance(self):
        rep = check("lemma_sun3", 7)
        worst = min(
            (check_lemma_sun3(7, k) for k in range(1, 4)),
            key=lambda r: (r.achieved_valuation, r.k),
        )
        assert rep.achieved_valuation == worst.achieved_valuation
        assert rep.passed == all(check_lemma_sun3(7, k).passed for k in range(1, 4))

    def test_ratio_expansion_aggregates(self):
        for order in (2, 4):
            rep = check(f"ratio_expansion_mod{order}", 7)
            per_k = [check_ratio_expansion(7, k, order) for k in range(0, 5)]
            assert rep.passed == all(r.passed for r in per_k)
            assert rep.achieved_valuation == min(r.achieved_valuation for r in per_k)


class TestModularFastPathAgreement:
    def test_reports_agree_with_residue_comparison(self):
        # wherever both sides reduce, pass/fail must match residue equality
        ids = ("van_hamme", "thm1", "thm2", "thm3_m5", "gs0", "lemma_sun1",
               "boundary_mod", "h2_cong", "combined_m5")
        for check_id in ids:
            for p in (5, 7, 11, 13):
                rep = check(check_id, p)
                pp = PrimePower(p, rep.required_valuation)
                same = reduce_mod(rep.lhs, pp) == reduce_mod(rep.rhs, pp)
                assert same == rep.passed
