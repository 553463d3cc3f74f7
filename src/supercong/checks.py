"""Named congruence checks, one registry (CHECKS) for every congruence the
package tests at a prime: the summand families' congruences, the lemmas
behind them and the classical Wolstenholme and Morley congruences.  Beside
it: per-index lemma instances.  The lemma sums' closed forms live in lemma.

Every check produces a CongruenceReport carrying the exact achieved valuation
of lhs - rhs, so over-performance (a sum beating its required modulus) is
visible as data.  Checks whose supporting ingredients hold only for p > 3
have floor 5; p = 3 is reachable for them via informational mode, which
records valuations without pass/fail semantics.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .arith import CongruenceReport, PrimeTooSmall, make_report, require_prime, split_power, vp
# checks reads four of these; the rest stay importable from checks, their former home
from .lemma import (
    TABLE1_WEIGHTS,
    _lemma_walk,
    _shifted_steps,
    _table1_g_pair,
    check_lemma_f,
    check_lemma_g,
    lemma_scans,
    table1_f,
    table1_g,
    table1_g_parts,
)
from .series import boundary_term, family_sum, pochhammer_ratio_product
from .special import cached, euler_number, h2


class IndexOutOfRange(ValueError):
    """A per-index lemma instance was requested outside its stated index range."""


# ---------------------------------------------------------------------------
# Per-index congruence instances.
# ---------------------------------------------------------------------------


def _lemma_sun3_values(p: int, k: int) -> tuple[Fraction, Fraction]:
    # (1/2)_n = (2n-1)!!/2^n turns the lhs into the integer quotient
    # sign (p!!)^2 (2h+2k-1)!! / (2^(3h+1-k) h!^2 (h+1-k)! ((2k-1)!!)^2)
    h = (p - 1) // 2
    sign = -1 if (h + 1 + k) % 2 else 1
    p_odd = math.prod(range(1, p + 1, 2))
    num = sign * p_odd * p_odd * math.prod(range(p + 2, p + 2 * k - 1, 2), start=p_odd)
    k_odd = math.prod(range(1, 2 * k, 2))
    den = math.factorial(h) ** 2 * math.factorial(h + 1 - k) * k_odd * k_odd << 3 * h + 1 - k
    rhs = Fraction(p**3 * 4**k, 2 * k * (2 * k - 1) * math.comb(2 * k, k))
    return Fraction(num, den), rhs


def check_lemma_sun3(p: int, k: int) -> CongruenceReport:
    """One (p, k) instance of the signed Pochhammer-quotient congruence

        (-1)^((p+1)/2+k) 2 (1/2)_((p+1)/2)^2 (1/2)_((p-1)/2+k)
          / ((1)_((p-1)/2)^2 (1)_((p+1)/2-k) (1/2)_k^2)
        = p^3 4^k / (2k(2k-1) C(2k,k))   (mod p^4)

    for primes p >= 5 and 1 <= k <= (p-1)/2.
    """
    p = require_prime(p, "lemma_sun3", floor=5)
    h = (p - 1) // 2
    if not 1 <= k <= h:
        raise IndexOutOfRange(f"k must lie in [1, {h}], got {k}")
    lhs, rhs = _lemma_sun3_values(p, k)
    return make_report("lemma_sun3", p, lhs, rhs, 4, k=k)


def check_ratio_expansion(p: int, k: int, order: int) -> CongruenceReport:
    """The shifted-parameter product prod_{j=1..k} ((2j-3)^2-p^2)/((2j)^2-p^2)
    against its even expansion in p:

        order 4:  (-1/2)_k^2/k!^2 * (1 + p^2 sum_{j=1..k} (1/(2j)^2 - 1/(2j-3)^2))
        order 2:  (-1/2)_k^2/k!^2

    for odd primes and 0 <= k <= (p+1)/2; required valuation = order.  The
    order-4 rhs is that product, the lhs, with p^2 read as e and truncated
    after its first order in e (_shifted_steps); order 2 keeps e^0 alone.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    p = require_prime(p, "ratio_expansion")
    if not 0 <= k <= (p + 1) // 2:
        raise IndexOutOfRange(f"k must lie in [0, {(p + 1) // 2}], got {k}")
    lhs, rhs = _ratio_expansion_values(p, k, order)
    return make_report(f"ratio_expansion_mod{order}", p, lhs, rhs, order, k=k)


def _ratio_expansion_values(p: int, k: int, order: int) -> tuple[Fraction, Fraction]:
    a0, a1, b = 1, 0, 1
    for cd, c_d, d2 in itertools.islice(_shifted_steps(), k):
        a0, a1, b = a0 * cd, a1 * cd + a0 * c_d, b * d2
    e = p * p if order == 4 else 0
    return pochhammer_ratio_product(p, k), Fraction(a0 + e * a1, b)


# ---------------------------------------------------------------------------
# The named check registry.
# ---------------------------------------------------------------------------

class CheckDef(NamedTuple):
    floor: int
    required: int
    m: int | None
    values: Callable[[int], tuple[Fraction, Fraction, int | None]]


def _sgn(p: int) -> int:
    """(-1)^((p-1)/2) for odd p."""
    return -1 if ((p - 1) // 2) % 2 else 1


def _sum_a(m: int, p: int) -> Fraction:
    return family_sum("A", m, (p + 1) // 2)


def _sum_b(m: int, p: int) -> Fraction:
    return family_sum("B", m, (p + 1) // 2)


def _sum_v(m: int, p: int) -> Fraction:
    return family_sum("V", m, (p - 1) // 2)


def _central_binomial_sum(p: int) -> Fraction:
    # sum_{k=1..(p-1)/2} 4^k / ((2k-1) C(2k,k)) as reduced running totals:
    # the term is 2 at k = 1, and 4^k/C(2k,k) advances by (2k+2)/(2k+1) and
    # 1/(2k-1) by (2k-1)/(2k+1)
    def sums() -> Iterator[Fraction]:
        ratios = (Fraction((2 * k + 2) * (2 * k - 1), (2 * k + 1) ** 2) for k in itertools.count(1))
        terms = itertools.accumulate(ratios, operator.mul, initial=Fraction(2))
        return itertools.accumulate(terms, initial=Fraction(0))
    return cached("central", sums, (p - 1) // 2)


def _combined(m: int, p: int) -> tuple[Fraction, Fraction, None]:
    """combined_m<m>'s values at p: the B sum and table1_f(m, h) - p^2
    table1_g(m, h), h = (p+1)/2, built as one Fraction from the integer
    table1_f and the integer pair of table1_g."""
    h = (p + 1) // 2
    g_num, g_den = _table1_g_pair(m, h)
    return _sum_b(m, p), Fraction(table1_f(m, h).numerator * g_den - p * p * g_num, g_den), None


#: The worst-k searches read valuations off residues mod p^WORST_K_DIGITS.
#: Every value >= 1 gives the same reports: a least valuation below it is
#: exact, and when every k reaches it the exact values decide.
WORST_K_DIGITS = 12


def _least_k(p: int, first: int, crosses: list[int]) -> int | None:
    """The first k with the least v_p(lhs - rhs) below N = WORST_K_DIGITS,
    or None when every k reaches N, where crosses[i], at k = first + i, is
    lhs - rhs times a p-adic unit mod p^N: its valuation is the exact one
    wherever it is below N.  A cross divisible by p^v, v the least
    valuation so far, cannot lower it and is not split."""
    worst, least = None, p**WORST_K_DIGITS  # least = p^v
    for k, cross in enumerate(crosses, first):
        if cross % least:
            worst, least = k, p ** split_power(cross, p)[0]
    return worst


def _worst_k(
    p: int, ks: range, worst: int | None, values: Callable[[int], tuple[Fraction, Fraction]]
) -> tuple[Fraction, Fraction, int]:
    """(lhs, rhs, k) at the first k of ks with the least v_p(lhs - rhs),
    where values(k) is the exact (lhs, rhs) and worst is _least_k's k:
    values compares every k only when none is below N."""
    if worst is None:
        return min(((*values(k), k) for k in ks), key=lambda t: vp(t[0] - t[1], p))
    return (*values(worst), worst)


def _lemma_sun3_crosses(p: int, start: tuple[Fraction, Fraction]) -> list[int]:
    """_least_k's crosses of lemma_sun3 at p, from k = 1, where both sides
    are p^3 times a unit: start = (lhs, rhs).  From k-1 to k, lhs advances
    by -2(2h+2k-1)(h+2-k)/(2k-1)^2 and rhs by (2k-2)(2k-3)/(2k-1)^2: over one
    denominator, prime to p, so the cross steps by the numerators."""
    mod, h, (lhs, rhs) = p**WORST_K_DIGITS, (p - 1) // 2, start
    ln, rn = lhs.numerator * rhs.denominator % mod, rhs.numerator * lhs.denominator % mod
    crosses = [ln - rn]
    for k in range(2, h + 1):
        ln = ln * -2 * (2 * h + 2 * k - 1) * (h + 2 - k) % mod
        rn = rn * (2 * k - 2) * (2 * k - 3) % mod
        crosses.append(ln - rn)
    return crosses


def _lemma_sun3_worst(p: int) -> tuple[Fraction, Fraction, int]:
    """lemma_sun3's (lhs, rhs, k) at p, with the pair at k = 1, the worst k
    at every prime checked, built once."""
    start = _lemma_sun3_values(p, 1)
    crosses = _lemma_sun3_crosses(p, start)
    return _worst_k(p, range(1, len(crosses) + 1), _least_k(p, 1, crosses),
                    lambda k: start if k == 1 else _lemma_sun3_values(p, k))


def _ratio_expansion_crosses(p: int) -> tuple[list[int], list[int]]:
    """_least_k's crosses of ratio_expansion_mod2 and _mod4 at p, from
    k = 0, off one walk.  With _shifted_steps' (cd, c - d, d^2) and
    e = p^2, lhs is the product of the steps (c - e)/(d - e) =
    (cd + (c - d)e - e^2)/(d^2 - e^2) and rhs that of cd/d^2, times 1 + e w
    at order 4, w the sum of the steps' (c - d)/(cd).  For k <= (p+1)/2, c
    and d are squares of integers in [-1, p+1] other than 0 and p, so every
    factor is a p-adic unit, and lhs - rhs is rhs (x/y - 1 - e w) for x/y
    the product of the steps' ratios: the cross is x - y at order 2 and
    x - y - e u at order 4, where u = y w, an integer, steps to
    (u cd + y (c - d))(d^2 - e^2), y's old value: no denominator is kept."""
    mod, e, e2 = p**WORST_K_DIGITS, p * p, p**4
    x, y, u = 1, 1, 0
    crosses = [0], [0]
    for cd, c_d, d2 in itertools.islice(_shifted_steps(), (p + 1) // 2):
        x, y, u = (x * ((cd + c_d * e - e2) * d2) % mod, y * (d2 - e2) * cd % mod,
                   (u * cd + y * c_d) * (d2 - e2) % mod)
        crosses[0].append(x - y)
        crosses[1].append((x - y - e * u) % mod)
    return crosses


def _ratio_expansion_worst(p: int, order: int) -> tuple[Fraction, Fraction, int]:
    """ratio_expansion_mod<order>'s (lhs, rhs, k) at p.  One walk finds
    _least_k's k of both orders, and special.cached keeps the two per p
    and precision, so the other order's check reads its k."""
    def least_ks() -> Iterator[int | None]:  # a generator: the walk runs on the first read only
        yield from [_least_k(p, 0, crosses) for crosses in _ratio_expansion_crosses(p)]
    worst = cached(("ratio_expansion", p, WORST_K_DIGITS), least_ks, order // 4)
    return _worst_k(p, range((p + 3) // 2), worst, lambda k: _ratio_expansion_values(p, k, order))


CHECKS: dict[str, CheckDef] = {
    "van_hamme": CheckDef(3, 3, 1, lambda p: (_sum_v(1, p), Fraction(p * _sgn(p)), None)),
    "sun_refinement": CheckDef(
        5, 4, 1, lambda p: (_sum_v(1, p), p * _sgn(p) + p**3 * euler_number(p - 3), None),
    ),
    "thm1": CheckDef(
        5, 4, 1, lambda p: (_sum_a(1, p), -p * _sgn(p) + p**3 * (2 - euler_number(p - 3)), None),
    ),
    "thm2": CheckDef(3, 2, 3, lambda p: (_sum_a(3, p), Fraction(3 * p * _sgn(p)), None)),
    "thm3_m3": CheckDef(5, 4, 3, lambda p: (_sum_b(3, p), Fraction(0), None)),
    "thm3_m5": CheckDef(5, 4, 5, lambda p: (_sum_b(5, p), Fraction(16 * p), None)),
    "thm3_m7": CheckDef(5, 4, 7, lambda p: (_sum_b(7, p), Fraction(80 * p), None)),
    "gs0": CheckDef(5, 5, 1, lambda p: (_sum_b(1, p), Fraction(-5 * p**4), None)),
    "lemma_sun1": CheckDef(
        3, 1, None, lambda p: (_central_binomial_sum(p), euler_number(p - 3) - 1 + _sgn(p), None),
    ),
    # A common printed form of the same congruence reads E_(p-1), but every
    # application of it needs E_(p-3); this id evaluates the misprinted form to
    # document the discrepancy (it fails at p = 5 and p = 7) and is excluded
    # from DEFAULT_CHECK_IDS.
    "lemma_sun1_printed": CheckDef(
        5, 1, None, lambda p: (_central_binomial_sum(p), euler_number(p - 1) - 1 + _sgn(p), None),
    ),
    # the G-tail sum_{k=1..h} G(h+1, k) by the telescoped identity: thm1's
    # lhs less F(h, h), h = (p+1)/2
    "tail_congruence": CheckDef(
        5, 4, None,
        lambda p: (_sum_a(1, p) - boundary_term(p), p**3 * (2 - _sgn(p) - euler_number(p - 3)),
                   None),
    ),
    "boundary_mod": CheckDef(
        5, 4, None, lambda p: (boundary_term(p), Fraction(_sgn(p) * (p**3 - p)), None),
    ),
    "h2_cong": CheckDef(5, 1, None, lambda p: (h2((p + 1) // 2), Fraction(4), None)),
    **{
        f"combined_m{m}": CheckDef(5, 4, m, lambda p, m=m: _combined(m, p))
        for m in TABLE1_WEIGHTS
    },
    # Wolstenholme (1862) and Morley (1895)
    "wolstenholme": CheckDef(5, 3, None, lambda p: (math.comb(2 * p, p), 2, None)),
    "morley": CheckDef(
        5, 3, None, lambda p: (math.comb(p - 1, (p - 1) // 2), _sgn(p) * 4 ** (p - 1), None),
    ),
    "lemma_sun3": CheckDef(5, 4, None, _lemma_sun3_worst),
    **{
        f"ratio_expansion_mod{order}": CheckDef(
            3, order, None, lambda p, order=order: _ratio_expansion_worst(p, order))
        for order in (2, 4)
    },
}

#: Canonical scan set: every registered check except the erratum documentation
#: id and the two classical congruences, which run only when named.
DEFAULT_CHECK_IDS = tuple(sorted(set(CHECKS) - {"lemma_sun1_printed", "morley", "wolstenholme"}))


def check(check_id: str, p: int, *, informational: bool = False) -> CongruenceReport:
    """Run one named check at an odd prime p.

    Below the check's floor, raises PrimeTooSmall unless informational=True,
    in which case the report carries the exact valuations with passed=None.
    For aggregate ids (lemma_sun3, ratio_expansion_mod*) the report holds the
    minimum achieved valuation over the index range, so it passes iff every
    per-index instance passes.
    """
    spec = CHECKS.get(check_id)
    if spec is None:
        raise ValueError(f"unknown check id {check_id!r}")
    p = require_prime(p, check_id, floor=3 if informational else spec.floor)
    lhs, rhs, k = spec.values(p)
    return make_report(
        check_id, p, lhs, rhs, spec.required,
        m=spec.m, k=k, informational=informational and p < spec.floor, prime_checked=True,
    )
