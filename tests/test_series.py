"""Summand families, the telescoping F/G pair, and the terminating
transformation, cross-checked against direct rising-factorial evaluation."""

import itertools
import math
import operator
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong import series, special
from supercong.series import (
    PreconditionViolated,
    SumSpec,
    boundary_closed_form,
    boundary_scan,
    check_boundary_closed_form,
    check_telescoped_identity,
    check_wz_relation,
    partial_sum,
    pochhammer_ratio_product,
    term_value,
    wz_F,
    wz_G,
    wz_G_tail,
    wz_relation_scan,
)
from supercong.special import euler_number, h2, poch_neg_half, pochhammer

from oracles import ParameterSingularity, f32_top_minus_one, terminating_sum, whipple_terminating

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

    @pytest.mark.parametrize("n", [-1, -2, -40])
    def test_relation_needs_non_negative_n(self, n):
        with pytest.raises(PreconditionViolated, match=f"n >= 0, got n={n}"):
            check_wz_relation(n, 1)

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


def pair_poly(n, k):
    # the pair relation divided by F(n,k), times -2(4n-1)(2n+2k-3)(n-k+1)
    return (
        (4 * n - 1) * (2 * k - 3) ** 2
        + 2 * (4 * n - 1) * (2 * n + 2 * k - 3) * (n - k + 1)
        - (2 * n - 1) ** 2 * (2 * n + 2 * k - 3)
        - 8 * n * n * (n - k + 1)
    )


class TestPairRelationProof:
    """F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k) for every n >= 0 and k >= 1.

    For 1 <= k <= n, F(n,k) != 0 since (-1/2)_j != 0, and (x)_(j+1) = (x)_j (x+j)
    turns the closed forms into the three ratios below.  Divided by F(n,k) and
    cleared of the nonzero -2(4n-1)(2n+2k-3)(n-k+1), the relation reads
    pair_poly = 0, of degree <= 3 in n and <= 2 in k; one that vanishes on
    {0..3} x {0..2} is zero (for each n its k-coefficients vanish, then each of
    them, a cubic in n, has 4 roots).  At k = n+1 the relation reads
    F(n,n) = G(n+1,n+1), as (-1/2)_(2n+1) = (-1/2)_(2n) (2n - 1/2); for k >= n+2
    all four terms vanish.  Summing over 0 <= n <= h and 1 <= k <= h gives the
    telescoped identity for every h.  Plain integers, no computer algebra.
    """

    def test_cleared_relation_is_the_zero_polynomial(self):
        assert all(pair_poly(n, k) == 0 for n in range(4) for k in range(4))

    def test_ratios_match_the_closed_forms(self):
        instances = 0
        for n in range(1, 40):
            for k in range(1, n + 1):
                f = wz_F(n, k)
                assert wz_F(n, k - 1) / f == Fraction(
                    (2 * k - 3) ** 2, -2 * (2 * n + 2 * k - 3) * (n - k + 1)
                )
                assert wz_G(n, k) / f == Fraction(4 * n * n, (4 * n - 1) * (2 * n + 2 * k - 3))
                assert wz_G(n + 1, k) / f == Fraction(
                    -((2 * n - 1) ** 2), 2 * (4 * n - 1) * (n - k + 1)
                )
                instances += 1
        assert instances == 780

    def test_diagonal(self):
        for n in range(40):
            assert wz_F(n, n) == wz_G(n + 1, n + 1)
            assert wz_F(n, n + 1) == wz_G(n, n + 1) == 0


class TestTermWalk:
    """walk_total's unreduced sum against plain Fraction stepping of the same
    term and running sum, after every prefix of the steps."""

    @given(
        start=st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50).filter(bool)),
        steps=st.lists(
            st.tuples(st.integers(-30, 30), st.integers(-30, 30).filter(bool), st.integers(-30, 30)),
            max_size=25,
        ),
    )
    def test_every_state_equals_fraction_stepping(self, start, steps):
        x, p, q = start
        total, term = Fraction(x, q), Fraction(p, q)
        expected = [total]
        for a, b, c in steps:
            term *= Fraction(a, b)
            total += c * term
            expected.append(total)
        for i in range(len(steps) + 1):
            x, q = series.walk_total(steps[:i], *start)
            assert Fraction(x, q) == expected[i]
            assert q == start[2] * math.prod(b for _, b, _ in steps[:i])


def row_scale(n):
    # F(n, 0)/D, D = (4n-1) prod_{j<=n} (2j-1)^2: times it, _wz_row's
    # integers are the values of F and G
    return wz_F(n, 0) / ((4 * n - 1) * math.prod(range(1, 2 * n, 2)) ** 2)


class TestWZRows:
    """check_wz_relation reads F(n, .), G(n, .) and G(n+1, .) off one stream
    of integers per row n, over one denominator in closed form and stepped
    along k; the direct factorial formulas are the oracle."""

    def test_rows_equal_direct_values(self):
        for n in range(0, 61):
            scale = row_scale(n)
            row = list(itertools.islice(series._wz_row(n), n + 3))
            assert all(type(x) is int for values in row for x in values)
            for k, (f, g, g_next) in enumerate(row):  # k = 0..n+2
                assert f * scale == wz_F(n, k)
                assert g * scale == wz_G(n, k + 1)
                assert g_next * scale == wz_G(n + 1, k + 1)
            assert row[-1] == (0, 0, 0)

    def test_pair_rows_share_one_denominator(self):
        # the three rows start at D, D G(n, 1)/F(n, 0) and D G(n+1, 1)/F(n, 0)
        for n in range(0, 61):
            odd = math.prod(range(1, 2 * n, 2)) ** 2
            assert wz_G(n, 1) / wz_F(n, 0) == Fraction(-8 * n**3, 4 * n - 1)
            assert wz_G(n + 1, 1) / wz_F(n, 0) == Fraction((2 * n - 1) ** 3, 4 * n - 1)
            assert next(series._wz_row(n)) == (
                (4 * n - 1) * odd, -8 * n**3 * odd, (2 * n - 1) ** 3 * odd)

    def test_every_step_divides_exactly(self):
        from supercong.cli import GRID_CAP

        for n in range(0, GRID_CAP + 1):
            row = series._wz_row(n)
            steps = zip(series._wz_F_ratios(n), series._wz_G_ratios(n), series._wz_G_ratios(n + 1))
            values = next(row)
            for ratios, next_values in zip(steps, itertools.islice(row, n + 2)):
                for x, (a, b), y in zip(values, ratios, next_values):
                    assert 0 < b < 1 << 30 and divmod(x * a, b) == (y, 0)
                values = next_values

    @settings(max_examples=25, deadline=None)
    @given(cases=st.lists(
        st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n + 3))),
        min_size=1, max_size=30,
    ))
    def test_relation_in_any_order_equals_direct(self, cases):
        for n, k in cases + [(n, n + 1) for n, _ in cases]:
            direct = wz_F(n, k - 1) - wz_F(n, k) == wz_G(n + 1, k) - wz_G(n, k)
            assert check_wz_relation(n, k) == direct

    @settings(max_examples=20, deadline=None)
    @given(grid=st.integers(1, 25), rnd=st.randoms(use_true_random=False))
    @example(grid=1, rnd=random.Random(0))
    def test_scan_equals_shuffled_checks_and_fraction_oracle(self, grid, rnd):
        scan = list(wz_relation_scan(grid))
        cases = [(n, k) for n in range(1, grid + 1) for k in range(1, n + 1)]
        assert [case for case, _ in scan] == cases
        rnd.shuffle(cases)
        checked = {(n, k): check_wz_relation(n, k) for n, k in cases}
        for (n, k), holds in scan:
            direct = wz_F(n, k - 1) - wz_F(n, k) == wz_G(n + 1, k) - wz_G(n, k)
            assert holds is checked[n, k] is direct is True

    def test_a_row_scan_builds_each_row_once(self, monkeypatch):
        built = []

        def recording_f_ratios(n, _real=series._wz_F_ratios):
            built.append(n)
            return _real(n)

        monkeypatch.setattr(series, "_wz_F_ratios", recording_f_ratios)
        assert all(holds for _, holds in wz_relation_scan(30))
        assert built == list(range(1, 31))

    def test_tail_is_a_prefix_of_the_G_row(self):
        for n in range(2, 40):
            g = [g for _, g, _ in itertools.islice(series._wz_row(n), n - 1)]
            assert wz_G_tail(n) == Fraction(*series._wz_G_tail_sum(n)) == sum(g) * row_scale(n)
            assert wz_G_tail(n) == sum((wz_G(n, k) for k in range(1, n)), Fraction(0))


class TestTelescopedScan:
    """telescoped_scan and check_telescoped_identity compare the A/m=1
    numerator, F(h, h) and the G-tail pair by one cross-multiplication; the
    Fraction identity over family_sum, wz_F and wz_G_tail is the oracle."""

    def test_scan_equals_the_fraction_identity(self):
        ps = [*range(3, 401, 2), 1499]
        scan = list(series.telescoped_scan(ps))
        assert [case for case, _ in scan] == [(p,) for p in ps]
        for (p,), holds in scan:
            h = (p + 1) // 2
            direct = series.family_sum("A", 1, h) == wz_F(h, h) + wz_G_tail(h + 1)
            assert holds is direct is True

    def test_check_reads_the_scan_at_p_composites_included(self):
        for p in (3, 9, 15, 21, 97, 99):
            assert check_telescoped_identity(p)
        for p in (-1, 1, 2, 4):
            with pytest.raises(PreconditionViolated):
                check_telescoped_identity(p)

    @pytest.mark.parametrize("ps", [[4], [1]])
    def test_a_scan_rejects_an_even_or_small_p(self, ps):
        with pytest.raises(PreconditionViolated, match="odd and >= 3"):
            list(series.telescoped_scan(ps))

    @pytest.mark.parametrize("ps", [[5, 3], [7, 7]])
    def test_a_scan_takes_its_primes_in_any_order_and_repeated(self, ps):
        # the scan keeps no walk of its own: each p reads the shared caches
        special._CACHE.clear()
        scan = list(series.telescoped_scan(ps))
        assert scan == [((p,), check_telescoped_identity(p)) for p in ps] == [((p,), True) for p in ps]


class TestBoundaryClosedForm:
    def test_p3_value(self):
        direct, closed = boundary_closed_form(3)
        assert direct == closed == Fraction(-105, 64)

    def test_equality_including_odd_composites(self):
        for p in (5, 7, 9, 15, 21, 199):
            direct, closed = boundary_closed_form(p)
            assert direct == closed


class TestBoundaryWalk:
    """boundary_scan and check_boundary_closed_form read the closed side of
    the boundary form off one integer walk over odd p and F(h, h) off
    boundary_term, compared by one cross-multiplication; the Fraction
    boundary_closed_form and wz_F are the oracle."""

    def test_walk_pairs_equal_fraction_path(self):
        walk = itertools.islice(series._boundary_walk(), 150)
        for p, c in walk:
            assert all(type(x) is int for x in c)
            assert Fraction(*c) == boundary_closed_form(p)[1]
            assert series.boundary_term(p) == wz_F((p + 1) // 2, (p + 1) // 2)

    @settings(max_examples=30, deadline=None)
    @given(lo=st.integers(0, 160), width=st.integers(0, 40), rnd=st.randoms(use_true_random=False))
    def test_odd_window_scan_equals_fraction_path(self, lo, width, rnd):
        odd = list(range(max(lo | 1, 3), lo + width + 1, 2))
        scan = list(boundary_scan(lo, lo + width))
        assert [case for case, _ in scan] == [(p,) for p in odd]
        rnd.shuffle(odd)
        checked = {p: check_boundary_closed_form(p) for p in odd}
        for (p,), holds in scan:
            assert holds is checked[p] is operator.eq(*boundary_closed_form(p)) is True

    def test_descending_repeated_and_jumping_calls(self):
        for p in (51, 49, 49, 3, 3, 201, 5, 99, 97, 99, 301, 7):
            assert check_boundary_closed_form(p) is operator.eq(*boundary_closed_form(p))

    def test_threads_scanning_different_windows(self):
        # more threads than cores, switching often
        windows = [range(lo, lo + 80, 2) for lo in (3, 81, 161, 241)]
        got = {}
        barrier = threading.Barrier(len(windows))

        def scan(window):
            barrier.wait()
            got[window] = [check_boundary_closed_form(p) for p in window]

        threads = [threading.Thread(target=scan, args=(w,)) for w in windows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for window in windows:
            for p, verdict in zip(window, got[window], strict=True):
                assert verdict is operator.eq(*boundary_closed_form(p)) is True

    @pytest.mark.parametrize("p", [-1, 0, 1, 2, 4, 100])
    def test_even_or_small_p_is_rejected(self, p):
        for fn in (check_boundary_closed_form, boundary_closed_form):
            with pytest.raises(PreconditionViolated):
                fn(p)


def whipple_sides_per_k(a, b, c, d, N):
    """The terms k = 0..N of both sums of whipple_terminating, each rebuilt
    from rising factorials at its own k (no term ratios); a vanishing
    denominator raises ZeroDivisionError."""
    e = Fraction(-N)

    def terms(sign, tops, bottoms):
        return [
            sign**k * math.prod(pochhammer(x, k) for x in tops)
            / (math.factorial(k) * math.prod(pochhammer(y, k) for y in bottoms))
            for k in range(N + 1)
        ]

    return (
        terms(-1, (a, 1 + a / 2, b, c, d, e), (a / 2, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e)),
        terms(1, (1 + a - b - c, d, e), (1 + a - b, 1 + a - c)),
    )


whipple_parameter = st.fractions(min_value=-6, max_value=6, max_denominator=4)


class TestWhipple:
    @settings(max_examples=150, deadline=None)
    @given(a=whipple_parameter, b=whipple_parameter, c=whipple_parameter, d=whipple_parameter,
           N=st.integers(0, 8))
    @example(a=Fraction(1, 3), b=Fraction(2, 7), c=Fraction(1, 5), d=Fraction(-2), N=6)
    # 1+a-d = -N: (1+a-d)_k is not 0 for k <= N, but a step at k = N would divide by 0
    @example(a=Fraction(1), b=Fraction(1, 3), c=Fraction(2, 5), d=Fraction(5), N=3)
    def test_stepped_sides_equal_the_per_k_form(self, a, b, c, d, N):
        try:
            lhs, rhs = whipple_sides_per_k(a, b, c, d, N)
        except ZeroDivisionError:
            with pytest.raises(ParameterSingularity):
                whipple_terminating(a, b, c, d, N)
            return
        e, lower = Fraction(-N), (a / 2, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a + N)
        assert terminating_sum((a, 1 + a / 2, b, c, d, e), lower, -1, N) == sum(lhs)
        assert terminating_sum((1 + a - b - c, d, e), lower[1:3], 1, N) == sum(rhs)
        prefactor = pochhammer(1 + a, N) / pochhammer(1 + a - d, N)
        assert sum(lhs) == prefactor * sum(rhs)
        assert whipple_terminating(a, b, c, d, N)

    def test_a_nonpositive_integer_top_ends_both_sums(self):
        # d = -2 zeroes every term from k = 3 on, inside the range N = 6
        a, b, c, d, N = Fraction(1, 3), Fraction(2, 7), Fraction(1, 5), Fraction(-2), 6
        for terms in whipple_sides_per_k(a, b, c, d, N):
            assert all(terms[:3]) and terms[3:] == [0] * 4
        assert whipple_terminating(a, b, c, d, N)

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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: term_value(SumSpec("A", 1, 3), -1), "k must be non-negative, got -1"),
        (lambda: wz_F(-1, 0), "n and k must be non-negative"),
        (lambda: wz_F(0, -1), "n and k must be non-negative"),
        (lambda: wz_G(-1, 0), "n and k must be non-negative"),
        (lambda: wz_G(0, -1), "n and k must be non-negative"),
        (lambda: whipple_terminating(1, 2, 3, 4, -1), "N must be non-negative, got -1"),
        (lambda: pochhammer_ratio_product(5, -1), "k must be non-negative, got -1"),
        (lambda: poch_neg_half(-1), "index must be non-negative, got -1"),
        (lambda: h2(-1), "n must be non-negative, got -1"),
        (lambda: euler_number(-1), "n must be non-negative, got -1"),
    ],
)
def test_negative_index_is_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
