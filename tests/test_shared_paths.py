"""The shared paths of `check`: prefix-sum streams kept across primes and
running products along k, each against its direct per-call oracle.

The streams are process-wide caches, so every property draws a prime
window and visits it in a random order (descending, or a large prime
before a small one), starting either from empty caches or from whatever
earlier examples left in them.
"""

import itertools
import math
import sys
import threading
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong import arith, checks
from supercong.arith import primes_in_range
from supercong.checks import check, check_lemma_sun3, check_ratio_expansion
from supercong.series import SumSpec, partial_sum, summands, term_value, wz_G

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
        checks._PREFIX_SUMS.clear()


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
        checks._PREFIX_SUMS.clear()
        orders = [POOL, POOL[::-1], POOL[1::2], POOL[::-2]]
        errors = []

        def visit(order):
            try:
                for p in order:
                    assert checks._sum_b(5, p) == partial_sum(SumSpec("B", 5, (p + 1) // 2))
            except AssertionError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=visit, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        totals, _ = checks._PREFIX_SUMS[("B", 5)]
        assert len(totals) == (POOL[-1] + 1) // 2 + 1

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
            assert checks._tail_sum(p) == direct


def test_check_tests_primality_once(monkeypatch):
    calls = []

    def counting(p, _real=arith.is_odd_prime):
        calls.append(p)
        return _real(p)

    monkeypatch.setattr(arith, "is_odd_prime", counting)
    monkeypatch.setattr(checks, "is_odd_prime", counting)
    for check_id in ("ratio_expansion_mod4", "lemma_sun3", "thm1"):
        calls.clear()
        check(check_id, 31)
        assert calls == [31]
