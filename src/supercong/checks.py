"""Named congruence checks, one registry (CHECKS) for every congruence the
package tests at a prime: the summand families' congruences, the lemmas
behind them and the classical Wolstenholme and Morley congruences.  Beside
it: the exact closed-form identities and per-index lemma instances.

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
from .series import boundary_term, family_sum, pochhammer_ratio_product
from .special import cached, euler_number, h2


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


def _shifted_steps() -> Iterator[tuple[int, int, int]]:
    """The factors (c - e)/(d - e), c = (2j-3)^2 and d = (2j)^2, of
    prod_{j=1..k} ((2j-3)^2 - e)/((2j)^2 - e) for j = 1, 2, ..., to first
    order in e: (cd + (c - d)e)/d^2 as (cd, c - d, d^2).  The product's e^0
    coefficient is u_k^2, u_k = (-1/2)_k/k!, and its e coefficient u_k^2 w_k
    with w_k = sum_{j=1..k} (1/(2j)^2 - 1/(2j-3)^2), the weight of the
    order-4 ratio expansion and of the weighted lemma sum."""
    for j in itertools.count(1):
        c, d = (2 * j - 3) ** 2, 4 * j * j
        yield c * d, c - d, d * d


def _lemma_walk(ms: tuple[int, ...], n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """For each weight m of ms, the sums over k = 0..n of the terminating
    lemma summand

        t_k = (4k-1)^m (-1/2)_k^2 (-n)_k (n-1)_k / ((1)_k^2 (n+1/2)_k (3/2-n)_k),

    plain and with each term times the weight w_k of _shifted_steps, as
    (numerator, denominator) pairs over one denominator, from one walk along
    k for every m.  The walk keeps the term without its (4k-1)^m factor as
    (p0 + e p1)/q, its ratio's (2k-3)^2/(2k)^2 factor taken from
    _shifted_steps, so p1/q is the term times w_k.  Each m keeps its own two
    running sums over q, by walk_total's recurrence.
    """
    p0 = q = 1
    p1 = 0
    plain = [-1] * len(ms)  # k = 0: term (-1)^m = -1, weight 0
    weighted = [0] * len(ms)
    for k, (cd, c_d, d2) in zip(range(1, n + 1), _shifted_steps()):
        x = 4 * (k - 1 - n) * (n + k - 2)  # (2k-3)^2/k^2 = 4c/d
        b = d2 * (2 * n + 2 * k - 1) * (2 * k - 2 * n + 1)
        p0, p1 = p0 * cd * x, (p1 * cd + p0 * c_d) * x
        q *= b
        for i, m in enumerate(ms):
            c = (4 * k - 1) ** m
            plain[i] = plain[i] * b + c * p0
            weighted[i] = weighted[i] * b + c * p1
    return [((x, q), (y, q)) for x, y in zip(plain, weighted)]


def _lemma_holds(sums: tuple[tuple[int, int], ...], m: int, n: int, weighted: bool) -> bool:
    """Whether the weighted (else the plain) sum of one _lemma_walk cell at
    weight m and index n equals its closed form, by one cross-multiplication."""
    closed = table1_g(m, n) if weighted else table1_f(m, n)
    num, den = sums[weighted]
    return num * closed.denominator == closed.numerator * den


def check_lemma_f(m: int, n: int) -> bool:
    """Unweighted lemma sum equals its closed form, exactly (not just
    p-adically)."""
    require_lemma_args(m, n)
    return _lemma_holds(_lemma_walk((m,), n)[0], m, n, False)


def check_lemma_g(m: int, n: int) -> bool:
    """Weighted lemma sum equals its closed form, exactly."""
    require_lemma_args(m, n)
    return _lemma_holds(_lemma_walk((m,), n)[0], m, n, True)


_Scan = Iterator[tuple[tuple[int], bool]]  # (case, holds) in case order


def _lemma_cell_scan(walks: Iterable[tuple[int, list]], i: int, m: int, weighted: bool) -> _Scan:
    for n, cells in walks:
        yield (n,), _lemma_holds(cells[i], m, n, weighted)


def lemma_scans(ms: tuple[int, ...], lo: int, hi: int) -> list[tuple[str, int, _Scan]]:
    """(check id, m, scan) for lemma_f and then lemma_g, each at every weight
    m of ms, where scan yields ((n,), check_lemma_f(m, n)) or ((n,),
    check_lemma_g(m, n)) for n = lo..hi.  The scans read one stream of
    _lemma_walk(ms, n), one walk per n for every weight, and each compares
    its own sums with their closed form only as far as it is read."""
    for m in ms:
        require_lemma_args(m, lo)
    walks = itertools.tee(((n, _lemma_walk(ms, n)) for n in range(lo, hi + 1)), 2 * len(ms))
    cells = itertools.product(((False, "lemma_f"), (True, "lemma_g")), enumerate(ms))
    return [(check_id, m, _lemma_cell_scan(walk, i, m, weighted))
            for ((weighted, check_id), (i, m)), walk in zip(cells, walks)]


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
    x - y - e w y, times w's denominator, at order 4."""
    mod, e, e2 = p**WORST_K_DIGITS, p * p, p**4
    x, y, w_num, w_den = 1, 1, 0, 1
    crosses = [0], [0]
    for cd, c_d, d2 in itertools.islice(_shifted_steps(), (p + 1) // 2):
        x, y = x * ((cd + c_d * e - e2) * d2) % mod, y * ((d2 - e2) * cd) % mod
        w_num, w_den = (w_num * cd + c_d * w_den) % mod, w_den * cd % mod
        crosses[0].append(x - y)
        crosses[1].append(((x - y) * w_den - e * w_num * y) % mod)
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
