"""The shared paths of `check`: prefix-sum streams kept across primes and
running products along k, each against its direct per-call oracle.

The streams are process-wide caches, so every property draws a prime
window and visits it in a random order (descending, or a large prime
before a small one), starting either from empty caches or from whatever
earlier examples left in them.
"""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong import arith, checks, series, special
from supercong.arith import primes_in_range
from supercong.checks import DEFAULT_CHECK_IDS, check, check_lemma_sun3, check_ratio_expansion
from supercong.cli import run
from supercong.series import SumSpec, partial_sum, summands, term_value, wz_F, wz_G
from supercong.special import euler_number, h2, poch_neg_half, pochhammer

POOL = primes_in_range(3, 151)


@st.composite
def visit_orders(draw, lo=3, hi=151, width=6):
    """A window of consecutive primes in lo..hi, in a random order."""
    pool = [p for p in POOL if lo <= p <= hi]
    i = draw(st.integers(0, len(pool) - 1))
    j = draw(st.integers(i, min(i + width, len(pool)) - 1))
    return draw(st.permutations(pool[i : j + 1]))


def _maybe_cold(cold: bool) -> None:
    if cold:
        special._CACHE.clear()


def _even_euler_direct(count):
    """E_0, E_2, ..., E_(2 count - 2) from their recurrence, without the cache."""
    values = [1]
    for n in range(2, 2 * count, 2):
        values.append(-sum(math.comb(n, 2 * k) * e for k, e in enumerate(values)))
    return values


class TestPrefixSums:
    @settings(max_examples=40, deadline=None)
    @given(order=visit_orders(), m=st.sampled_from((1, 3, 5, 7)), cold=st.booleans())
    @example(order=[151, 149, 5, 3], m=3, cold=True)
    @example(order=[97, 3, 151], m=7, cold=True)
    def test_family_sums_match_partial_sum(self, order, m, cold):
        _maybe_cold(cold)
        for p in order:
            assert checks._sum_a(m, p) == partial_sum(SumSpec("A", m, (p + 1) // 2))
            assert checks._sum_b(m, p) == partial_sum(SumSpec("B", m, (p + 1) // 2))
            assert checks._sum_v(m, p) == partial_sum(SumSpec("V", m, (p - 1) // 2))

    @settings(max_examples=20, deadline=None)
    @given(order=visit_orders(), cold=st.booleans())
    @example(order=[151, 7, 3], cold=True)
    def test_central_binomial_sum_matches_direct_sum(self, order, cold):
        _maybe_cold(cold)
        for p in order:
            terms = (
                Fraction(4**k, (2 * k - 1) * math.comb(2 * k, k)) for k in range(1, (p + 1) // 2)
            )
            direct = sum(terms, Fraction(0))
            assert checks._central_binomial_sum(p) == direct

    def test_threads_share_one_stream_without_lost_updates(self):
        euler = _even_euler_direct(POOL[-1] // 2)

        def direct(p):
            h = (p + 1) // 2
            return (
                partial_sum(SumSpec("B", 5, h)),
                sum((Fraction(1, j * j) for j in range(1, h + 1)), Fraction(0)),
                euler[(p - 3) // 2],
                pochhammer(Fraction(-1, 2), h),
            )

        def from_cache(p):
            h = (p + 1) // 2
            return checks._sum_b(5, p), h2(h), euler_number(p - 3), poch_neg_half(h)

        expected = {p: direct(p) for p in POOL}
        orders = [POOL, POOL[::-1], POOL[1::2], POOL[::-2]] * 2
        h = (POOL[-1] + 1) // 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # each round starts every sequence cold
                special._CACHE.clear()
                errors = []

                def visit(order):
                    try:
                        for p in order:
                            assert from_cache(p) == expected[p], p
                    except Exception as exc:  # a lost update, or two threads in one generator
                        errors.append(exc)

                threads = [threading.Thread(target=visit, args=(o,)) for o in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and errors == []
                lengths = {key: len(values) for key, (values, _) in special._CACHE.items()}
                assert lengths == {
                    ("B", 5): h + 1, "h2": h + 1, "E_2j": (POOL[-1] - 3) // 2 + 1,
                    "(-1/2)_k": h + 1,
                }
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    @pytest.mark.parametrize("family", ["A", "B", "V"])
    def test_family_sum_at_every_index_from_cold_caches_in_shuffled_order(self, family, m):
        # partial_sum's prefixes, one summand at a time, against the
        # integer walk read at 0..600 in a shuffled order from a cold cache
        expected = list(itertools.accumulate(itertools.islice(summands(family, m), 601)))
        assert expected[-1] == partial_sum(SumSpec(family, m, 600))
        order = list(range(601))
        random.Random(f"{family}{m}").shuffle(order)
        special._CACHE.clear()
        for upper in order:
            value = series.family_sum(family, m, upper)
            assert value == expected[upper], upper
            den = value.denominator
            assert math.gcd(value.numerator, den) == 1 and den & (den - 1) == 0, upper
        assert len(special._CACHE[family, m][0]) == 601

    def test_each_shared_family_sum_is_reduced_once(self, monkeypatch):
        # two checks read each of five of the seven sums at every prime; a
        # second read returns the Fraction that the first one reduced
        reads = {}

        def recording(family, m, upper, _real=series.family_sum):
            value = _real(family, m, upper)
            reads.setdefault((family, m, upper), []).append(value)
            return value

        monkeypatch.setattr(checks, "family_sum", recording)
        tasks = [(check_id, p) for check_id in DEFAULT_CHECK_IDS for p in primes_in_range(5, 199)]
        random.Random(30).shuffle(tasks)
        special._CACHE.clear()
        for check_id, p in tasks:
            check(check_id, p)
        shared = {key: values for key, values in reads.items() if len(values) > 1}
        assert {key[:2] for key in shared} == {("A", 1), ("B", 3), ("B", 5), ("B", 7), ("V", 1)}
        assert len(shared) == 5 * len(primes_in_range(5, 199))
        assert all(len(values) == 2 and values[0] is values[1] for values in shared.values())
        assert all(values[0] == partial_sum(SumSpec(*key)) for key, values in reads.items())

    def test_ratio_walks_keep_two_indices_per_prime(self, capsys):
        # verify reads the worst k of both ratio expansion orders off one
        # walk per prime and keeps those two values alone, not the crosses
        special._CACHE.clear()
        assert run(["verify", "--primes", "5..400", "--format", "json"]) == 0
        capsys.readouterr()
        kept = {key: values for key, (values, _) in special._CACHE.items()
                if isinstance(key, tuple) and key[0] == "ratio_expansion"}
        assert sorted(key[1] for key in kept) == primes_in_range(5, 400)
        assert all(len(values) == 2 and all(k is None or type(k) is int for k in values)
                   for values in kept.values())

    @pytest.mark.parametrize("cold", [True, False])
    def test_both_ratio_orders_at_a_prime_share_one_walk(self, monkeypatch, cold):
        walks = []

        def counting(p, _real=checks._ratio_expansion_crosses):
            walks.append(p)
            return _real(p)

        monkeypatch.setattr(checks, "_ratio_expansion_crosses", counting)
        _maybe_cold(cold)
        special._CACHE.pop(("ratio_expansion", 997, checks.WORST_K_DIGITS), None)
        reports = [check(f"ratio_expansion_mod{order}", 997) for order in (4, 2, 4, 2)]
        assert walks == [997] and reports[:2] == reports[2:]

    def test_lemma_sun3_builds_the_pair_at_its_worst_k_once(self, monkeypatch):
        built = []

        def counting(p, k, _real=checks._lemma_sun3_values):
            built.append(k)
            return _real(p, k)

        monkeypatch.setattr(checks, "_lemma_sun3_values", counting)
        for p in (5, 7, 101, 499):
            built.clear()
            rep = check("lemma_sun3", p)
            assert rep.k == 1 and built == [1]

    def test_error_inside_a_sequence_restarts_it(self):
        starts = []

        def interrupted_once():
            starts.append(1)
            for i in itertools.count():
                if i == 3 and len(starts) == 1:
                    raise KeyboardInterrupt
                yield i

        try:
            with pytest.raises(KeyboardInterrupt):
                special.cached("interrupted once", interrupted_once, 5)
            assert special.cached("interrupted once", interrupted_once, 5) == 5
            assert len(starts) == 2
        finally:
            special._CACHE.pop("interrupted once", None)

    @given(family=st.sampled_from("ABV"), m=st.sampled_from((1, 3, 9)), n=st.integers(1, 25))
    def test_summand_stream_matches_term_value(self, family, m, n):
        spec = SumSpec(family, m, 0)
        stream = list(itertools.islice(summands(family, m), n))
        assert stream == [term_value(spec, k) for k in range(n)]


def _same_instance(aggregate, per_index):
    worst = min(per_index, key=lambda r: (r.achieved_valuation, r.k))
    assert (aggregate.k, aggregate.lhs, aggregate.rhs, aggregate.achieved_valuation) == (
        worst.k, worst.lhs, worst.rhs, worst.achieved_valuation,
    )
    assert aggregate.passed == all(r.passed for r in per_index)


class TestWorstK:
    @settings(max_examples=15, deadline=None)
    @given(order=visit_orders(lo=3, hi=101, width=3))
    def test_ratio_expansion_is_min_over_indices(self, order):
        for p in order:
            for order_ in (2, 4):
                per_k = [check_ratio_expansion(p, k, order_) for k in range(0, (p + 1) // 2 + 1)]
                _same_instance(check(f"ratio_expansion_mod{order_}", p), per_k)

    @settings(max_examples=15, deadline=None)
    @given(order=visit_orders(lo=5, hi=151, width=3))
    def test_lemma_sun3_is_min_over_indices(self, order):
        for p in order:
            per_k = [check_lemma_sun3(p, k) for k in range(1, (p - 1) // 2 + 1)]
            _same_instance(check("lemma_sun3", p), per_k)

    @settings(max_examples=20, deadline=None)
    @given(order=visit_orders(lo=5))
    def test_tail_sum_matches_direct_sum(self, order):
        for p in order:
            h = (p + 1) // 2
            direct = sum((wz_G(h + 1, k) for k in range(1, h + 1)), Fraction(0))
            assert series.wz_G_tail(h + 1) == direct


WORST_K_PRIMES = primes_in_range(3, 401)


def _worst_k_cases(p):
    """(check id, first k, crosses, exact per-index values) of each worst-k
    search at p."""
    yield (
        "lemma_sun3", 1, checks._lemma_sun3_crosses(p, checks._lemma_sun3_values(p, 1)),
        lambda k: checks._lemma_sun3_values(p, k),
    )
    for order, crosses in zip((2, 4), checks._ratio_expansion_crosses(p)):
        yield (
            f"ratio_expansion_mod{order}", 0, crosses,
            lambda k, order=order: checks._ratio_expansion_values(p, k, order),
        )


def _worst_k(p, first, crosses, values):
    """The (lhs, rhs, k) that the search over crosses from k = first picks."""
    ks = range(first, first + len(crosses))
    return checks._worst_k(p, ks, checks._least_k(p, first, crosses), values)


def _capped_valuation(cross, p, digits):
    return arith.split_power(cross, p)[0] if cross % p**digits else digits


def _per_index_worst(p, ks, values):
    """(lhs, rhs, k) of the first k with the least exact v_p(lhs - rhs)."""
    return min(((*values(k), k) for k in ks), key=lambda t: arith.vp(t[0] - t[1], p))


class TestWorstKResidues:
    """The residue searches against the per-index closed forms, which are
    their oracle and, where every k reaches the precision, their fallback."""

    @settings(max_examples=15, deadline=None)
    @given(p=st.sampled_from(WORST_K_PRIMES))
    @example(p=3)
    @example(p=5)
    @example(p=397)
    def test_same_instance_as_exact_search(self, p):
        for check_id, first, crosses, values in _worst_k_cases(p):
            ks = range(first, first + len(crosses))
            assert checks.CHECKS[check_id].values(p) == _per_index_worst(p, ks, values)

    @settings(max_examples=15, deadline=None)
    @given(p=st.sampled_from(WORST_K_PRIMES))
    @example(p=3)
    @example(p=5)
    @example(p=397)
    def test_every_cross_has_the_exact_valuation_below_the_precision(self, p):
        digits = checks.WORST_K_DIGITS
        for _, first, crosses, values in _worst_k_cases(p):
            assert -(p**digits) < min(crosses) and max(crosses) < p**digits
            for k, cross in enumerate(crosses, first):
                lhs, rhs = values(k)
                assert _capped_valuation(cross, p, digits) == min(arith.vp(lhs - rhs, p), digits)

    def test_lemma_sun3_at_three_in_informational_mode(self):
        rep = check("lemma_sun3", 3, informational=True)
        lhs, rhs = checks._lemma_sun3_values(3, 1)
        assert (rep.lhs, rep.rhs, rep.k, rep.passed) == (lhs, rhs, 1, None)
        assert rep.achieved_valuation == arith.vp(lhs - rhs, 3) == 5

    @pytest.mark.parametrize("p", [3, 5, 7, 31, 199, 401])
    def test_every_k_at_the_precision_falls_back_to_the_exact_search(self, p, monkeypatch):
        monkeypatch.setattr(checks, "WORST_K_DIGITS", 1)
        for check_id, first, crosses, values in _worst_k_cases(p):
            assert all(cross % p == 0 for cross in crosses)
            ks = range(first, first + len(crosses))
            assert checks.CHECKS[check_id].values(p) == _per_index_worst(p, ks, values)

    @pytest.mark.parametrize("p", [3, 5, 7, 31, 199, 401])
    @pytest.mark.parametrize("digits", range(1, 7))
    def test_every_precision_gives_the_same_record(self, p, digits, monkeypatch):
        ids = ("lemma_sun3", "ratio_expansion_mod2", "ratio_expansion_mod4")
        at_twelve = [checks.CHECKS[i].values(p) for i in ids]
        monkeypatch.setattr(checks, "WORST_K_DIGITS", digits)
        assert [checks.CHECKS[i].values(p) for i in ids] == at_twelve

    def test_sides_are_compared_across_their_denominators(self):
        # at k = 1 the sides 2/1 and 4/2 are equal though their numerators
        # differ; at k = 2, 1/3 and 16/3 differ by 5
        values = {1: (Fraction(2), Fraction(2)), 2: (Fraction(1, 3), Fraction(16, 3))}
        crosses = [ln * rd - rn * ld for ln, ld, rn, rd in ((2, 1, 4, 2), (1, 3, 16, 3))]
        assert _worst_k(5, 1, crosses, values.get) == (*values[2], 2)

    def test_only_a_cross_below_the_least_valuation_is_split(self, monkeypatch):
        split = []

        def recording(n, p, _real=arith.split_power):
            split.append(n)
            return _real(n, p)

        monkeypatch.setattr(checks, "split_power", recording)
        # valuations 3, 2, 1, 1, 2, 0 at k = 4..9: the first k of valuation 0 is the worst
        crosses = [125, 50, -15, 20, 25, 3]
        values = {k: (Fraction(k), Fraction(0)) for k in range(4, 10)}
        assert _worst_k(5, 4, crosses, values.get) == (Fraction(9), Fraction(0), 9)
        assert split == [125, 50, -15, 3]
        split.clear()
        # a tie keeps its first k
        assert _worst_k(5, 4, crosses[:5], values.get)[2] == 6
        assert split == [125, 50, -15]

    @pytest.mark.parametrize("p", [3, 5, 13, 101])
    def test_lemma_sun3_walk_stops_at_the_last_index(self, p):
        assert len(checks._lemma_sun3_crosses(p, checks._lemma_sun3_values(p, 1))) == (p - 1) // 2
        for crosses in checks._ratio_expansion_crosses(p):
            assert len(crosses) == (p + 1) // 2 + 1


class TestTelescopedIdentity:
    """The telescoped identity reads the lhs of thm1, boundary_mod and
    tail_congruence, so those three must agree with it on every prime."""

    @pytest.mark.parametrize("cold", [True, False])
    def test_thm1_lhs_is_boundary_plus_tail(self, cold):
        # descending, so a warm run reads every prime's sum off a longer stream
        for p in reversed(primes_in_range(5, 97)):
            _maybe_cold(cold)
            assert check("thm1", p).lhs == (
                check("boundary_mod", p).lhs + check("tail_congruence", p).lhs
            )

    @settings(max_examples=3, deadline=None)
    @given(order=st.permutations(primes_in_range(5, 400)))
    @example(order=primes_in_range(5, 400)[::-1])
    def test_shortcuts_match_wz_F_and_wz_G_tail_from_cold_caches(self, order):
        # boundary_mod reads F(h, h) off the boundary walk, and
        # tail_congruence its G-tail as thm1's lhs less that F(h, h); wz_F
        # and wz_G_tail, the wz scan's independent sides, are their oracles,
        # and with them each record is the one built from the oracle
        special._CACHE.clear()
        for p in order:
            h, sgn = (p + 1) // 2, checks._sgn(p)
            boundary, tail = series.boundary_term(p), checks.CHECKS["tail_congruence"].values(p)[0]
            assert (boundary, tail) == (wz_F(h, h), series.wz_G_tail((p + 3) // 2))
            assert check("boundary_mod", p) == arith.make_report(
                "boundary_mod", p, wz_F(h, h), Fraction(sgn * (p**3 - p)), 4)
            assert check("tail_congruence", p) == arith.make_report(
                "tail_congruence", p, series.wz_G_tail((p + 3) // 2),
                p**3 * (2 - sgn - euler_number(p - 3)), 4)

    def test_a_tail_without_its_last_term_fails(self, monkeypatch):
        # wz_G_tail and the telescoped scan read one G-tail pair
        def short_tail(n, _real=series._wz_G_tail_sum):
            num, den = _real(n)
            last = wz_G(n, n - 1)
            return num * last.denominator - last.numerator * den, den * last.denominator

        monkeypatch.setattr(series, "_wz_G_tail_sum", short_tail)
        primes = [*primes_in_range(3, 31), 1499]
        for p in primes:
            assert not series.check_telescoped_identity(p)
        assert not any(holds for _, holds in series.telescoped_scan(primes))


def test_each_check_builds_one_report_through_make_report(monkeypatch):
    built = []

    def counting(check_id, *args, _real=checks.make_report, **kwargs):
        built.append(check_id)
        return _real(check_id, *args, **kwargs)

    monkeypatch.setattr(checks, "make_report", counting)
    for check_id in DEFAULT_CHECK_IDS:
        built.clear()
        check(check_id, 31)
        assert built == [check_id]
