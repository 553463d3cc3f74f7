"""Named congruence checks, closed-form lemma scans, and per-index instances,
with independent brute-force oracles where the values were derived."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong.arith import InvalidPrime, PrimePower, primes_in_range, reduce_mod
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
    lemma_scans,
    table1_f,
    table1_g,
    table1_g_parts,
)
from supercong.series import pochhammer_ratio_product
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
        from supercong.checks import _lemma_walk

        for n in (2, 3, 7, 12):
            for m, (plain, weighted) in zip((3, 5, 7), _lemma_walk((3, 5, 7), n)):
                terms = [lemma_summand_direct(m, n, k) for k in range(n + 1)]
                assert Fraction(*plain) == sum(terms)
                assert Fraction(*weighted) == sum(
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


def gosper_rn(n, k):
    # R = Rn/Rd is the Gosper certificate of the m = 3 lemma summand t_k
    return (
        -k * k * (2 * k - 2 * n + 1) * (2 * k + 2 * n - 1)
        * (16 * k * k * n * n - 16 * k * k * n + 2 * k * k - 24 * k * n * n + 24 * k * n
           - 3 * k + 7 * n * n - 7 * n + 1)
    )


def gosper_rd(n, k):
    return n * n * (n - 1) ** 2 * (4 * k - 1) ** 3


def lemma3_ratio(n, k):
    # t_(k+1)/t_k = A/B for the m = 3 summand that _lemma_walk sums
    a = (4 * k + 3) ** 3 * (2 * k - 1) ** 2 * (k - n) * (n + k - 1)
    b = (4 * k - 1) ** 3 * (k + 1) ** 2 * (2 * n + 2 * k + 1) * (2 * k - 2 * n + 3)
    return a, b


class TestLemmaF3Proof:
    """table1_f(3, n) = 0 for every n >= 2, from R = Rn/Rd with G(k) = R(n,k) t_k.

    Where t_k != 0 (0 <= k <= n), t_k = G(k+1) - G(k) iff
    R(n,k+1) A/B - R(n,k) = 1, with A/B = t_(k+1)/t_k from lemma3_ratio.
    Times the common denominator that reads
    T1 - T2 - T3 = 0, a polynomial of degree <= 6 in n and <= 13 in k; one that
    vanishes on {0..6} x {0..13} is zero (for each n its k-coefficients vanish,
    then each of them, of degree <= 6 in n, has 7 roots).  Rn(n,n) + Rd(n,n)
    has degree 7 and vanishes on 0..7, so R(n,n) = -1, and R(n,0) = 0.  So
    sum_(k<n) t_k = G(n) - G(0) = -t_n, and sum_(k<=n) t_k = 0.  Plain
    integers, no computer algebra.
    """

    def test_summand_ratio_matches_the_direct_summand(self):
        ratios = 0
        for n in range(2, 40):
            t = [lemma_summand_direct(3, n, k) for k in range(n + 1)]
            for k in range(n):
                assert t[k + 1] / t[k] == Fraction(*lemma3_ratio(n, k))
                ratios += 1
        assert ratios == 779

    def test_cleared_certificate_identity_is_the_zero_polynomial(self):
        for n in range(7):
            for k in range(14):
                # common factor of T2 and T3: (4k+3)^3 B / (4k-1)^3
                c = (k + 1) ** 2 * (4 * k + 3) ** 3 * (2 * k - 2 * n + 3) * (2 * k + 2 * n + 1)
                t1 = gosper_rn(n, k + 1) * lemma3_ratio(n, k)[0]
                assert t1 - gosper_rn(n, k) * c - gosper_rd(n, k) * c == 0

    def test_certificate_ends(self):
        for n in range(8):
            assert gosper_rn(n, n) + gosper_rd(n, n) == 0
            assert gosper_rn(n, 0) == 0


class TestLemmaIntegerWalk:
    """The shared integer walk behind check_lemma_f/g: one walk per n for
    every requested weight, plain and weighted, against the direct sums and
    the closed forms."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from((3, 5, 7)), n=st.integers(2, 120))
    @example(m=3, n=2)  # f = 0
    @example(m=7, n=120)
    def test_walk_sums_equal_fraction_sums(self, m, n):
        from supercong.checks import _lemma_walk

        [(plain, weighted)] = _lemma_walk((m,), n)
        assert Fraction(*plain) == table1_f(m, n)
        assert Fraction(*weighted) == table1_g(m, n)

    @settings(max_examples=12, deadline=None)
    @given(
        ms=st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3, unique=True)
        .map(lambda ms: tuple(sorted(ms))),
        n=st.integers(2, 120),
    )
    @example(ms=(3, 5, 7), n=2)
    @example(ms=(3, 5, 7), n=120)
    def test_every_cell_equals_the_direct_sum(self, ms, n):
        from supercong.checks import _lemma_walk

        # the summand at m = 1, from rising factorials at each k, carries m
        # through (4k-1)^(m-1); the weight is summed at each k too
        base = [lemma_summand_direct(1, n, k) for k in range(n + 1)]
        weights = [lemma_weight_direct(k) for k in range(n + 1)]
        cells = _lemma_walk(ms, n)
        assert len(cells) == len(ms)
        for m, (plain, weighted) in zip(ms, cells):
            terms = [t * (4 * k - 1) ** (m - 1) for k, t in enumerate(base)]
            assert Fraction(*plain) == sum(terms, Fraction(0))
            assert Fraction(*weighted) == sum(
                (t * w for t, w in zip(terms, weights)), Fraction(0)
            )

    def test_checks_reject_what_the_closed_forms_reject(self):
        for m, n in ((3, 1), (4, 5), (9, 2)):
            for check_fn in (check_lemma_f, check_lemma_g):
                with pytest.raises(ValueError):
                    check_fn(m, n)
            with pytest.raises(ValueError):
                lemma_scans((3, m), n, 5)

    @settings(max_examples=15, deadline=None)
    @given(
        ms=st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3, unique=True)
        .map(lambda ms: tuple(sorted(ms))),
        lo=st.integers(2, 24),
        width=st.integers(0, 6),
        rnd=st.randoms(use_true_random=False),
    )
    @example(ms=(3, 5, 7), lo=2, width=0, rnd=random.Random(0))
    def test_scans_equal_shuffled_checks_and_fraction_sums(self, ms, lo, width, rnd):
        ns = range(lo, lo + width + 1)
        scans = lemma_scans(ms, lo, ns[-1])
        ids = [(check_id, m) for check_id in ("lemma_f", "lemma_g") for m in ms]
        assert [(check_id, m) for check_id, m, _ in scans] == ids
        results = {(check_id, m): list(scan) for check_id, m, scan in scans}
        cases = [(check_id, m, n) for check_id, m in ids for n in ns]
        rnd.shuffle(cases)
        checks = {"lemma_f": check_lemma_f, "lemma_g": check_lemma_g}
        checked = {(c, m, n): checks[c](m, n) for c, m, n in cases}
        for n in ns:
            base = [lemma_summand_direct(1, n, k) for k in range(n + 1)]
            for m in ms:
                terms = [t * (4 * k - 1) ** (m - 1) for k, t in enumerate(base)]
                weighted = sum((t * lemma_weight_direct(k) for k, t in enumerate(terms)), Fraction(0))
                direct = {"lemma_f": sum(terms) == table1_f(m, n), "lemma_g": weighted == table1_g(m, n)}
                for c in checks:
                    assert results[c, m][n - lo] == ((n,), True)
                    assert checked[c, m, n] is direct[c] is True

    @pytest.mark.parametrize("weights,n_range,walked", [
        ("7,3,5", "2..300", (3, 5, 7)),  # at the cap
        ("7", "2..40", (7,)),  # a single weight walks that weight alone
    ])
    def test_a_lemma_scan_walks_each_n_once(self, monkeypatch, capsys, weights, n_range, walked):
        from supercong import checks, cli

        walks = []

        def closed_form_walk(ms, n):
            # the closed forms as the walk's pairs, so the scan passes fast
            walks.append((ms, n))
            cells = [(table1_f(m, n), table1_g(m, n)) for m in ms]
            return [((f.numerator, f.denominator), (g.numerator, g.denominator)) for f, g in cells]

        monkeypatch.setattr(checks, "_lemma_walk", closed_form_walk)
        assert cli.run(["lemma", "--m", weights, "--n", n_range, "--format", "csv"]) == 0
        lo, hi = map(int, n_range.split(".."))
        assert walks == [(walked, n) for n in range(lo, hi + 1)]
        assert capsys.readouterr().out.count("\n") == 1 + 2 * len(walked)


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

    @settings(max_examples=40, deadline=None)
    @given(
        pk=st.sampled_from(primes_in_range(3, 401))
        .flatmap(lambda p: st.tuples(st.just(p), st.integers(0, (p + 1) // 2))),
        order=st.sampled_from((2, 4)),
    )
    @example(pk=(3, 2), order=4)
    @example(pk=(5, 3), order=4)
    @example(pk=(401, 201), order=4)
    @example(pk=(401, 201), order=2)
    def test_rhs_is_the_expansion_summed_directly(self, pk, order):
        # the weight summed as Fractions, apart from the walk both sides share
        p, k = pk
        rep = check_ratio_expansion(p, k, order)
        u2 = (pochhammer(-HALF, k) / math.factorial(k)) ** 2
        assert rep.rhs == (u2 * (1 + p * p * lemma_weight_direct(k)) if order == 4 else u2)
        assert rep.lhs == pochhammer_ratio_product(p, k)

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
        assert rep.passed is None
        assert rep.lhs == Fraction(-327, 512)
        assert rep.lhs - rep.rhs == Fraction(-15687, 512)  # -3^3 * 581 / 512
        assert rep.achieved_valuation == 3  # exactly 3: fails t = 4

    def test_informational_flag_ignored_in_domain(self):
        rep = check("thm1", 5, informational=True)
        assert rep.passed is True

    def test_thm2_allows_p3(self):
        rep = check("thm2", 3)
        assert rep.passed and rep.achieved_valuation >= 2

    def test_rejects_composites_and_unknown_ids(self):
        with pytest.raises(InvalidPrime):
            check("thm1", 9)
        with pytest.raises(ValueError):
            check("no_such_check", 5)

    def test_default_ids_exclude_printed_variant(self):
        # the 18 ids that verify and --checks all run, in their sorted order
        assert DEFAULT_CHECK_IDS == (
            "boundary_mod", "combined_m3", "combined_m5", "combined_m7", "gs0", "h2_cong",
            "lemma_sun1", "lemma_sun3", "ratio_expansion_mod2", "ratio_expansion_mod4",
            "sun_refinement", "tail_congruence", "thm1", "thm2", "thm3_m3", "thm3_m5",
            "thm3_m7", "van_hamme",
        )
        opt_in = {"lemma_sun1_printed", "morley", "wolstenholme"}
        assert opt_in <= set(CHECKS)
        assert set(DEFAULT_CHECK_IDS) == set(CHECKS) - opt_in

    @pytest.mark.parametrize("check_id,lhs,rhs", [("wolstenholme", 20, 2), ("morley", 2, -16)])
    def test_classical_informational_p3(self, check_id, lhs, rhs):
        # C(6,3) - 2 = 18 and C(2,1) - (-1)^1 4^2 = 18 = 2 * 3^2: one short of p^3
        rep = check(check_id, 3, informational=True)
        assert (rep.lhs, rep.rhs, rep.lhs - rep.rhs) == (lhs, rhs, 18)
        assert rep.achieved_valuation == 2 and rep.required_valuation == 3
        assert rep.passed is None and rep.m is None


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
