"""Truncated hypergeometric sums and the telescoping F/G pair, all in exact
rational arithmetic.

Summand families (the weight exponent m is always odd):

    A: (-1)^k (4k-1)^m (-1/2)_k^3 / k!^3
    B:        (4k-1)^m (-1/2)_k^4 / k!^4
    V: (-1)^k (4k+1)^m (1/2)_k^3  / k!^3

Summation is sequential left-to-right; exactness makes the order irrelevant
and the result deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .special import cached, inv_pochhammer_int, poch_neg_half, pochhammer


class PreconditionViolated(ValueError):
    """An operation was called outside its stated domain."""


class SumSpec(NamedTuple("SumSpec", [("family", str), ("m", int), ("upper", int)])):
    """One truncated sum: family tag, odd weight exponent, inclusive upper index."""

    __slots__ = ()

    def __new__(cls, family: str, m: int, upper: int) -> SumSpec:
        if family not in _FAMILY:
            raise ValueError(f"unknown family {family!r}; expected one of {tuple(_FAMILY)}")
        if m < 1 or m % 2 == 0:
            raise ValueError(f"weight exponent m must be an odd positive integer, got {m}")
        if upper < 0:
            raise ValueError(f"upper limit must be >= 0, got {upper}")
        return super().__new__(cls, family, m, upper)


class _Family(NamedTuple):
    """One summand family: sign (-1)^k if alternating, times (4k + shift)^m u_k^power,
    where u_k = (half_base/2)_k / k!."""

    half_base: int
    power: int
    alternating: bool
    shift: int


_FAMILY = {
    "A": _Family(-1, 3, True, -1),
    "B": _Family(-1, 4, False, -1),
    "V": _Family(1, 3, True, 1),
}


def term_value(spec: SumSpec, k: int) -> Fraction:
    """The exact k-th summand of the family (defined for every k >= 0)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    fam = _FAMILY[spec.family]
    u = pochhammer(Fraction(fam.half_base, 2), k) / math.factorial(k)
    sign = -1 if fam.alternating and k % 2 else 1
    return sign * (4 * k + fam.shift) ** spec.m * u**fam.power


def summand_factors(family: str) -> Iterator[tuple[int, int, int, int]]:
    """The integer factors of the family's summands for k = 0, 1, 2, ...
    without end: (sign, w, a, b) with summand k = sign * w^m * U_k, where
    U_0 = 1 and U_k = U_(k-1) * a/b = u_k^power.  So w = 4k + shift, and a/b
    is the step (2k - 2 + half_base)/(2k) of u_k raised to the power."""
    fam = _FAMILY[family]
    sign = 1
    yield sign, fam.shift, 1, 1
    for k in itertools.count(1):
        if fam.alternating:
            sign = -sign
        a, b = 2 * k - 2 + fam.half_base, 2 * k
        yield sign, 4 * k + fam.shift, a**fam.power, b**fam.power


def summands(family: str, m: int) -> Iterator[Fraction]:
    """The family's summands for k = 0, 1, 2, ... without end, each from the
    last by an exact step of summand_factors."""
    u = Fraction(1)
    for sign, w, a, b in summand_factors(family):
        u *= Fraction(a, b)
        yield sign * w**m * u


def partial_sum(spec: SumSpec) -> Fraction:
    """Sum of term_value(spec, k) over k = 0..upper, via incremental term ratios."""
    return sum(itertools.islice(summands(spec.family, spec.m), spec.upper + 1), Fraction(0))


def walk_total(
    steps: Iterable[tuple[int, int, int]], x: int = 0, p: int = 1, q: int = 1
) -> tuple[int, int]:
    """The running sum of a term that steps by exact ratios, in integers with
    no gcd per term.  x/q is the starting sum and p/q the starting term over
    one unreduced denominator q; each step (a, b, c) multiplies the term by
    a/b and adds c times the new term to the sum.  Returns the last sum as
    the unreduced pair (x, q)."""
    for a, b, c in steps:
        p *= a
        q *= b
        x = x * b + c * p
    return x, q


def _family_numerators(family: str, m: int) -> Iterator[int]:
    """N_k = 4^(power (k+1)) times the family's sum over 0..k, for k = 0,
    1, 2, ...  Summand_factors' U_k = u_k^power is G_k/4^(power (k+1)) with
    G_k an integer (u_k 4^k is -2 Cat(k-1) or C(2k, k)), so G_k steps from
    G_(k-1) by one exact division, and N_k = 4^power N_(k-1) + sign w^m G_k:
    no gcd and no Fraction per term."""
    bits = 2 * _FAMILY[family].power
    total, scale = 0, 1
    for sign, w, a, b in summand_factors(family):
        scale = (scale * a << bits) // b
        total = (total << bits) + sign * w**m * scale
        yield total


def family_sum(family: str, m: int, upper: int) -> Fraction:
    """partial_sum(SumSpec(family, m, upper)) read off the numerators N_k of
    _family_numerators, kept per (family, m): the sum at one upper limit is
    a prefix of every longer one.  A read reduces N_upper/4^(power
    (upper+1)) by the trailing zero bits of N_upper alone."""
    num = cached((family, m), lambda: _family_numerators(family, m), upper)
    bits = 2 * _FAMILY[family].power * (upper + 1)
    zeros = min((num & -num).bit_length() - 1, bits) if num else bits
    return Fraction(num >> zeros, 1 << bits - zeros)


def wz_F(n: int, k: int) -> Fraction:
    """F(n,k) = (-1)^(n+k) (4n-1) (-1/2)_n^2 (-1/2)_(n+k) / ((1)_n^2 (1)_(n-k) (-1/2)_k^2).

    The 1/(1)_m = 0 convention for negative m makes F vanish for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    inv_tail = inv_pochhammer_int(n - k)
    if inv_tail == 0:
        return Fraction(0)
    sign = -1 if (n + k) % 2 else 1
    num = (4 * n - 1) * poch_neg_half(n) ** 2 * poch_neg_half(n + k) * inv_tail
    return sign * num / (Fraction(math.factorial(n)) ** 2 * poch_neg_half(k) ** 2)


def wz_G(n: int, k: int) -> Fraction:
    """G(n,k) = (-1)^(n+k) 2 (-1/2)_n^2 (-1/2)_(n+k-1) / ((1)_(n-1)^2 (1)_(n-k) (-1/2)_k^2).

    Vanishes at n = 0 (through 1/(1)_(-1) = 0) and for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    inv_head = inv_pochhammer_int(n - 1)
    inv_tail = inv_pochhammer_int(n - k)
    if inv_head == 0 or inv_tail == 0:
        return Fraction(0)
    sign = -1 if (n + k) % 2 else 1
    num = 2 * poch_neg_half(n) ** 2 * poch_neg_half(n + k - 1) * inv_head**2 * inv_tail
    return sign * num / poch_neg_half(k) ** 2


def _wz_F_ratios(n: int) -> Iterator[tuple[int, int]]:
    """(a, b) with F(n, k)/F(n, k-1) = a/b, for k = 1, 2, ... (a = 0 at k = n+1)."""
    return ((-2 * (2 * n + 2 * k - 3) * (n - k + 1), (2 * k - 3) ** 2) for k in itertools.count(1))


def _wz_G_ratios(n: int) -> Iterator[tuple[int, int]]:
    """(a, b) with G(n, k+1)/G(n, k) = a/b, for k = 1, 2, ... (a = 0 from k = n on)."""
    return ((-2 * (2 * n + 2 * k - 3) * (n - k), (2 * k - 1) ** 2) for k in itertools.count(1))


def _wz_row_starts(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """F(n, 0) and G(n, 1) as unreduced integer pairs (num, den).  With
    c = 2^n (-1/2)_n = (-1)(1)(3)...(2n-3), they are

        F(n, 0) = (-1)^n (4n-1) c^3 / (8^n n!^3)
        G(n, 1) = (-1)^(n+1) 8 c^3 / (8^n (n-1)!^3),  and G(0, 1) = 0."""
    cube = math.prod(range(-1, 2 * n - 2, 2)) ** 3
    sign = -1 if n % 2 else 1
    f = (sign * (4 * n - 1) * cube, math.factorial(n) ** 3 << 3 * n)
    return f, ((-sign * 8 * cube, math.factorial(n - 1) ** 3 << 3 * n) if n else (0, 1))


def wz_G_tail(n: int) -> Fraction:
    """sum_{k=1..n-1} G(n, k) for n >= 2, one walk along the G ratios."""
    if n < 2:
        raise PreconditionViolated(f"the G-tail is stated for n >= 2, got n={n}")
    num, den = _wz_row_starts(n)[1]
    steps = ((a, b, 1) for a, b in itertools.islice(_wz_G_ratios(n), n - 2))
    return Fraction(*walk_total(steps, num, num, den))


_Row = tuple[list[int], int]  # integer numerators over one denominator


def _integer_row(num: int, den: int, ratios: list[tuple[int, int]]) -> _Row:
    """(nums, den) with nums[i]/den = num/den times the first i ratios a/b,
    for i = 0..len(ratios), then one 0 for the value after the row; no a is
    0.  Numerator i is num times the product of the first i a's and of the
    other b's, over den times every b.  It is read off numerator i+1 by one
    exact division, last numerator first, so each step multiplies and
    divides by small integers only."""
    num = math.prod((a for a, _ in ratios), start=num)
    nums = [0, num]
    for a, b in reversed(ratios):
        num = num * b // a
        nums.append(num)
    nums.reverse()
    return nums, den * math.prod(b for _, b in ratios)


def _wz_rows(n: int) -> tuple[_Row, _Row]:
    """(F(n, 0..n+1), G(n, 1..n+1)): every value of row n that is not zero,
    then one zero."""
    f, g = _wz_row_starts(n)
    return (_integer_row(*f, list(itertools.islice(_wz_F_ratios(n), n))),
            _integer_row(*g, list(itertools.islice(_wz_G_ratios(n), max(n - 1, 0)))))


def _wz_pair(
    n: int, rows: tuple[_Row, _Row], next_rows: tuple[_Row, _Row]
) -> tuple[list[int], ...]:
    """The numerators of F(n, 0..n+2), G(n, 1..n+2) and G(n+1, 1..n+2) over
    one common denominator, the lcm of their rows' denominators, from
    rows = _wz_rows(n) and next_rows = _wz_rows(n+1)."""
    rows = (*rows, next_rows[1])
    lcm = math.lcm(*(den for _, den in rows))
    # each row ends in its first zero, and every later value is zero too
    return tuple(
        (nums if den == lcm else [x * (lcm // den) for x in nums]) + [0] * (n + 3 - len(nums))
        for nums, den in rows
    )


def _wz_holds(pair: tuple[list[int], ...], k: int) -> bool:
    f, g, g_next = pair
    return f[k - 1] - f[k] == g_next[k - 1] - g[k - 1]


def check_wz_relation(n: int, k: int) -> bool:
    """F(n,k-1) - F(n,k) == G(n+1,k) - G(n,k), exactly.  Stated for n >= 0
    and k >= 1."""
    if n < 0:
        raise PreconditionViolated(f"the pair relation is stated for n >= 0, got n={n}")
    if k < 1:
        raise PreconditionViolated(f"the pair relation is stated for k >= 1, got k={k}")
    # from k = n+2 on, all four values are zero
    return _wz_holds(_wz_pair(n, _wz_rows(n), _wz_rows(n + 1)), min(k, n + 2))


def wz_relation_scan(grid: int) -> Iterator[tuple[tuple[int, int], bool]]:
    """((n, k), check_wz_relation(n, k)) for 1 <= k <= n <= grid, n-major.
    The scan keeps rows n and n+1, so it builds each row once and brings
    the rows of each n to one denominator once."""
    rows = _wz_rows(1)
    for n in range(1, grid + 1):
        next_rows = _wz_rows(n + 1)
        pair = _wz_pair(n, rows, next_rows)
        for k in range(1, n + 1):
            yield (n, k), _wz_holds(pair, k)
        rows = next_rows


def _require_odd(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise PreconditionViolated(f"p must be odd and >= 3, got {p}")


def check_telescoped_identity(p: int) -> bool:
    """Exact telescoped identity for odd p >= 3, with h = (p+1)/2:

        sum_{n=0..h} F(n,0) == F(h,h) + sum_{k=1..h} G(h+1, k)

    The terms are the lhs of thm1 (F(n,0): A at m = 1), boundary_mod and tail_congruence.
    """
    _require_odd(p)
    h = (p + 1) // 2
    return family_sum("A", 1, h) == wz_F(h, h) + wz_G_tail(h + 1)


def boundary_closed_form(p: int) -> tuple[Fraction, Fraction]:
    """The diagonal boundary term two ways, for odd p >= 3.

    Returns (F(h,h), -2p(2p+1) C(2p,p) C(p-1,(p-1)/2) / (4^p (p+1)^2)),
    h = (p+1)/2.  The two components are equal for every odd p; the identity
    is algebraic, not merely p-adic, so odd composites work too.
    """
    _require_odd(p)
    h = (p + 1) // 2
    closed = Fraction(
        -2 * p * (2 * p + 1) * math.comb(2 * p, p) * math.comb(p - 1, (p - 1) // 2),
        4**p * (p + 1) ** 2,
    )
    return wz_F(h, h), closed


def _boundary_ratios(p: int) -> tuple[int, int, int, int]:
    """(a, b, c, d): from odd p to p+2, F(h,h) steps by a/b, the product of
    (4h+1)(4h+3) over 4(h+1)^2, and C(2p,p) C(p-1,(p-1)/2) by c/d, the
    product of 4(2p+1)(2p+3)/((p+1)(p+2)) and 4p/(p+1)."""
    return ((2 * p + 3) * (2 * p + 5), (p + 3) ** 2,
            16 * p * (2 * p + 1) * (2 * p + 3), (p + 1) ** 2 * (p + 2))


def _boundary_walk() -> Iterator[tuple[int, tuple[int, int], tuple[int, int]]]:
    """(p, F(h,h), closed form) for odd p = 3, 5, 7, ..., h = (p+1)/2, each
    side of boundary_closed_form as an unreduced integer pair (num, den):

        F(h,h) = -(4h-1)!! / (4^h h!^2)
        closed = -2p(2p+1) C(2p,p) C(p-1,(p-1)/2) / (4^p (p+1)^2)

    Each step multiplies by small integers, and the binomial product, an
    integer, is stepped by one exact division."""
    f_num, f_den, binomials = -105, 64, 40  # at p = 3: -7!!, 4^2 2!^2, C(6,3) C(2,1)
    for p in itertools.count(3, 2):
        yield p, (f_num, f_den), (-2 * p * (2 * p + 1) * binomials, (p + 1) ** 2 << 2 * p)
        a, b, c, d = _boundary_ratios(p)
        f_num *= a
        f_den *= b
        binomials = binomials * c // d


def boundary_term(p: int) -> Fraction:
    """F(h, h), h = (p+1)/2, for odd p >= 3, kept across calls:
    _boundary_walk's value at p = 3 stepped from p to p+2 by
    _boundary_ratios' a/b as reduced Fractions, so each step takes gcds with
    small integers only."""
    def terms() -> Iterator[Fraction]:
        _, start, _ = next(_boundary_walk())
        steps = (Fraction(*_boundary_ratios(q)[:2]) for q in itertools.count(3, 2))
        return itertools.accumulate(steps, operator.mul, initial=Fraction(*start))
    return cached("F(h,h)", terms, (p - 3) // 2)


def boundary_scan(lo: int, hi: int) -> Iterator[tuple[tuple[int], bool]]:
    """((p,), operator.eq(*boundary_closed_form(p))) for odd p >= 3 in
    lo..hi, read off one _boundary_walk: each verdict is one
    cross-multiplication, with no gcd and no Fraction."""
    walk = itertools.islice(_boundary_walk(), max((hi - 1) // 2, 0))  # p = 3..hi
    for p, (f_num, f_den), (c_num, c_den) in walk:
        if p >= lo:
            yield (p,), f_num * c_den == c_num * f_den


def check_boundary_closed_form(p: int) -> bool:
    """operator.eq(*boundary_closed_form(p)), by boundary_scan's walk up to p."""
    _require_odd(p)
    [(_, holds)] = boundary_scan(p, p)
    return holds


def pochhammer_ratio_product(p: int, k: int) -> Fraction:
    """prod_{j=1..k} ((2j-3)^2 - p^2) / ((2j)^2 - p^2) for odd p.

    Equals the rising-factorial ratio
    ((-1-p)/2)_k ((-1+p)/2)_k / ((1+p/2)_k (1-p/2)_k) exactly.
    """
    if p % 2 == 0:
        raise PreconditionViolated(f"p must be odd, got {p}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    js = range(1, k + 1)
    return Fraction(
        math.prod((2 * j - 3) ** 2 - p * p for j in js), math.prod((2 * j) ** 2 - p * p for j in js)
    )
