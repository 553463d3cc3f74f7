"""Named congruence checks over the summand families, plus the exact
closed-form identities and per-index lemma instances backing them.

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
from typing import Callable, Iterable, Iterator, NamedTuple

from .arith import CongruenceReport, PrimeTooSmall, make_report, require_prime, split_power, vp
from .series import family_sum, pochhammer_ratio_product, walk_total, wz_F, wz_G_tail
from .special import cached, euler_number, h2, poch_neg_half, poch_pos_half


class IndexOutOfRange(ValueError):
    """A per-index lemma instance was requested outside its stated index range."""


# ---------------------------------------------------------------------------
# Closed forms for the two lemma sums, per weight exponent m in {3, 5, 7}.
# ---------------------------------------------------------------------------

TABLE1_WEIGHTS = (3, 5, 7)


def require_lemma_args(m: int, n: int = 2) -> None:
    """Raise ValueError unless m is in TABLE1_WEIGHTS and n >= 2, where the
    closed forms and the lemma sums are stated; the default n checks m alone."""
    if m not in TABLE1_WEIGHTS:
        raise ValueError(f"closed forms exist for m in {TABLE1_WEIGHTS}, got {m}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


def table1_f(m: int, n: int) -> Fraction:
    """Closed form of the unweighted lemma sum."""
    require_lemma_args(m, n)
    if m == 3:
        return Fraction(0)
    base = -64 * n * (n - 1) * (2 * n - 1)
    if m == 5:
        return Fraction(base)
    return Fraction(base * (24 * n * n - 24 * n + 11))


def table1_g_parts(m: int, n: int) -> tuple[Fraction, Fraction]:
    """(rational part, coefficient of H_n^(2)) of the weighted closed form."""
    require_lemma_args(m, n)
    den = 4 * n * n * (n - 1) ** 2
    if m == 3:
        return Fraction((2 * n - 1) ** 2 * (7 * n * n - 7 * n + 1), den), Fraction(0)
    if m == 5:
        poly = 256 * n**6 - 640 * n**5 + 320 * n**4 + 414 * n**3 - 493 * n**2 + 145 * n - 1
        return Fraction((2 * n - 1) * poly, den), Fraction(32 * n * (n - 1) * (2 * n - 1))
    poly = (
        6144 * n**8 - 21504 * n**7 + 24320 * n**6 - 1920 * n**5
        - 18496 * n**4 + 17582 * n**3 - 7557 * n**2 + 1433 * n - 1
    )
    coeff = 32 * n * (n - 1) * (2 * n - 1) * (24 * n * n - 24 * n + 11)
    return Fraction((2 * n - 1) * poly, den), Fraction(coeff)


def table1_g(m: int, n: int) -> Fraction:
    """Weighted closed form: rational part + H-coefficient * H_n^(2)."""
    rational, coeff = table1_g_parts(m, n)
    return rational + coeff * h2(n)


def _weights() -> Iterator[Fraction]:
    terms = (Fraction(1, 4 * j * j) - Fraction(1, (2 * j - 3) ** 2) for j in itertools.count(1))
    return itertools.accumulate(terms, initial=Fraction(0))


def _weight(k: int) -> Fraction:
    """Inner weight sum_{j=1..k} (1/(2j)^2 - 1/(2j-3)^2) of the order-4 product
    expansion; the weighted lemma sum carries the same weights as integers."""
    return cached("weights", _weights, k)


def _lemma_sum(m: int, n: int, weighted: bool) -> tuple[int, int]:
    """The sum over k = 0..n of the terminating lemma summand

        t_k = (4k-1)^m (-1/2)_k^2 (-n)_k (n-1)_k / ((1)_k^2 (n+1/2)_k (3/2-n)_k),

    each term times _weight(k) if weighted, as an unreduced (numerator,
    denominator) pair from one walk_total.  Defined for m in TABLE1_WEIGHTS
    and n >= 2.

    The walk's term steps by the ratio t_k/t_(k-1) without its (4k-1)^m
    factor, which its c carries, with weight k as an integer W/L over the
    common denominator L = lcm of (2j)^2 and (2j-3)^2 for j <= n.
    """
    require_lemma_args(m, n)
    lcm = math.lcm(*range(2, 2 * n + 1, 2), *range(1, 2 * n - 2, 2)) ** 2 if weighted else 1
    def steps():
        w = 0
        for k in range(1, n + 1):
            c = (4 * k - 1) ** m
            if weighted:
                w += lcm // (4 * k * k) - lcm // (2 * k - 3) ** 2
                c *= w
            num = (2 * k - 3) ** 2 * (k - 1 - n) * (n + k - 2)
            yield num, k * k * (2 * n + 2 * k - 1) * (2 * k - 2 * n + 1), c
    total, q = walk_total(steps(), 0 if weighted else -1)  # k = 0: term -1, weight 0
    return total, q * lcm


def _equals(pair: tuple[int, int], value: Fraction) -> bool:
    num, den = pair
    return num * value.denominator == value.numerator * den


def check_lemma_f(m: int, n: int) -> bool:
    """Unweighted lemma sum equals its closed form, exactly (not just p-adically)."""
    return _equals(_lemma_sum(m, n, weighted=False), table1_f(m, n))


def check_lemma_g(m: int, n: int) -> bool:
    """Weighted lemma sum equals its closed form, exactly."""
    return _equals(_lemma_sum(m, n, weighted=True), table1_g(m, n))


# ---------------------------------------------------------------------------
# Per-index congruence instances.
# ---------------------------------------------------------------------------


def _lemma_sun3_values(p: int, k: int) -> tuple[Fraction, Fraction]:
    h = (p - 1) // 2
    sign = -1 if (h + 1 + k) % 2 else 1
    lhs = (
        sign
        * 2
        * poch_pos_half(h + 1) ** 2
        * poch_pos_half(h + k)
        / (
            Fraction(math.factorial(h)) ** 2
            * math.factorial(h + 1 - k)
            * poch_pos_half(k) ** 2
        )
    )
    rhs = Fraction(p**3 * 4**k, 2 * k * (2 * k - 1) * math.comb(2 * k, k))
    return lhs, rhs


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

    for odd primes and 0 <= k <= (p+1)/2; required valuation = order.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    p = require_prime(p, "ratio_expansion")
    if not 0 <= k <= (p + 1) // 2:
        raise IndexOutOfRange(f"k must lie in [0, {(p + 1) // 2}], got {k}")
    lhs, rhs = _ratio_expansion_values(p, k, order)
    return make_report(f"ratio_expansion_mod{order}", p, lhs, rhs, order, k=k)


def _ratio_expansion_values(p: int, k: int, order: int) -> tuple[Fraction, Fraction]:
    u2 = (poch_neg_half(k) / math.factorial(k)) ** 2
    rhs = u2 if order == 2 else u2 * (1 + p * p * _weight(k))
    return pochhammer_ratio_product(p, k), rhs


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


#: The worst-k searches read valuations off residues mod p^WORST_K_DIGITS.
#: Every value >= 1 gives the same reports: a least valuation below it is
#: exact, and when every k reaches it the exact values decide.
WORST_K_DIGITS = 12


def _worst_k(
    p: int,
    residues: Iterable[tuple[int, int, int, int, int]],
    values: Callable[[int], tuple[Fraction, Fraction]],
) -> tuple[Fraction, Fraction, int]:
    """(lhs, rhs, k) at the first k with the least v_p(lhs - rhs), where
    values(k) is the exact (lhs, rhs) and residues walks (k, ln, ld, rn, rd)
    with lhs = ln/ld and rhs = rn/rd mod p^N, N = WORST_K_DIGITS.  With ld
    and rd prime to p, v_p(ln rd - rn ld mod p^N) is the exact valuation
    wherever it is below N; when every k reaches N, values compares them."""
    mod = p**WORST_K_DIGITS
    found = []  # (capped valuation, k) in increasing k
    for k, ln, ld, rn, rd in residues:
        cross = (ln * rd - rn * ld) % mod
        found.append((split_power(cross, p)[0] if cross else WORST_K_DIGITS, k))
    v, k = min(found)
    if v == WORST_K_DIGITS:
        return min(((*values(k), k) for _, k in found), key=lambda t: vp(t[0] - t[1], p))
    return (*values(k), k)


def _lemma_sun3_residues(p: int) -> Iterator[tuple[int, int, int, int, int]]:
    # At k = 1 both sides are p^3 times a ratio of integers below p.  From
    # k-1 to k, lhs advances by -2(2h+2k-1)(h+2-k)/(2k-1)^2 and rhs by
    # (2k-2)(2k-3)/(2k-1)^2, and (2k-1)^2 <= (p-2)^2 is prime to p.
    mod, h = p**WORST_K_DIGITS, (p - 1) // 2
    lhs, rhs = _lemma_sun3_values(p, 1)
    ln, ld = lhs.numerator % mod, lhs.denominator % mod
    rn, rd = rhs.numerator % mod, rhs.denominator % mod
    yield 1, ln, ld, rn, rd
    for k in range(2, h + 1):
        d = (2 * k - 1) ** 2
        ln, ld = ln * -2 * (2 * h + 2 * k - 1) * (h + 2 - k) % mod, ld * d % mod
        rn, rd = rn * (2 * k - 2) * (2 * k - 3) % mod, rd * d % mod
        yield k, ln, ld, rn, rd


def _ratio_expansion_residues(p: int, order: int) -> Iterator[tuple[int, int, int, int, int]]:
    # From k-1 to k, lhs advances by (c^2 - p^2)/(d^2 - p^2) and
    # u = (-1/2)_k/k! by c/d, where c = 2k-3 and d = 2k; the order-4 weight
    # wn/wd adds 1/d^2 - 1/c^2.  For k <= (p+1)/2, d lies in [2, p+1] and c
    # in [-1, p-2], so neither is 0 mod p and both sides are p-adic units.
    mod = p**WORST_K_DIGITS
    ln = ld = un = ud = wd = 1
    wn = 0
    yield 0, 1, 1, 1, 1
    for k in range(1, (p + 1) // 2 + 1):
        c, d = 2 * k - 3, 2 * k
        ln, ld = ln * (c * c - p * p) % mod, ld * (d * d - p * p) % mod
        un, ud = un * c % mod, ud * d % mod
        rn, rd = un * un, ud * ud
        if order == 4:
            c2, d2 = c * c, d * d
            wn, wd = (wn * c2 * d2 + wd * (c2 - d2)) % mod, wd * c2 * d2 % mod
            rn, rd = rn * (wd + p * p * wn), rd * wd
        yield k, ln, ld, rn % mod, rd % mod


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
    "tail_congruence": CheckDef(
        5, 4, None,
        lambda p: (wz_G_tail((p + 3) // 2), p**3 * (2 - _sgn(p) - euler_number(p - 3)), None),
    ),
    "boundary_mod": CheckDef(
        5, 4, None,
        lambda p: (wz_F((p + 1) // 2, (p + 1) // 2), Fraction(_sgn(p) * (p**3 - p)), None),
    ),
    "h2_cong": CheckDef(5, 1, None, lambda p: (h2((p + 1) // 2), Fraction(4), None)),
    **{
        f"combined_m{m}": CheckDef(
            5, 4, m,
            lambda p, m=m: (
                _sum_b(m, p),
                table1_f(m, (p + 1) // 2) - p * p * table1_g(m, (p + 1) // 2),
                None,
            ),
        )
        for m in TABLE1_WEIGHTS
    },
    "lemma_sun3": CheckDef(
        5, 4, None,
        lambda p: _worst_k(p, _lemma_sun3_residues(p), lambda k: _lemma_sun3_values(p, k)),
    ),
    **{
        f"ratio_expansion_mod{order}": CheckDef(
            3, order, None,
            lambda p, order=order: _worst_k(
                p, _ratio_expansion_residues(p, order),
                lambda k: _ratio_expansion_values(p, k, order),
            ),
        )
        for order in (2, 4)
    },
}

#: Canonical scan set: every registered check except the erratum documentation id.
DEFAULT_CHECK_IDS = tuple(sorted(i for i in CHECKS if i != "lemma_sun1_printed"))


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
        m=spec.m, k=k, informational=informational and p < spec.floor,
    )
