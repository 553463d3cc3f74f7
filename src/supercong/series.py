"""Truncated hypergeometric sums, the telescoping F/G pair, and terminating
instances of the very-well-poised 6F5(-1) <-> 3F2(1) transformation, all in
exact rational arithmetic.

Summand families (the weight exponent m is always odd):

    A: (-1)^k (4k-1)^m (-1/2)_k^3 / k!^3
    B:        (4k-1)^m (-1/2)_k^4 / k!^4
    V: (-1)^k (4k+1)^m (1/2)_k^3  / k!^3

Summation is sequential left-to-right; exactness makes the order irrelevant
and the result deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .arith import Rational
from .special import cached, inv_pochhammer_int, poch_neg_half, pochhammer

FAMILIES = ("A", "B", "V")


class PreconditionViolated(ValueError):
    """An operation was called outside its stated domain."""


class ParameterSingularity(ValueError):
    """A denominator rising factorial vanishes for the given parameters."""


class SumSpec(NamedTuple("SumSpec", [("family", str), ("m", int), ("upper", int)])):
    """One truncated sum: family tag, odd weight exponent, inclusive upper index."""

    __slots__ = ()

    def __new__(cls, family: str, m: int, upper: int) -> SumSpec:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
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


def family_sum(family: str, m: int, upper: int) -> Fraction:
    """partial_sum(SumSpec(family, m, upper)) read off running totals kept per
    (family, m): the sum at one upper limit is a prefix of every longer one.
    The totals are reduced Fractions: their denominators are powers of 2, so
    reducing each is cheaper than one gcd of walk_total's unreduced numbers."""
    return cached((family, m), lambda: itertools.accumulate(summands(family, m)), upper)


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


def _wz_F_row(n: int) -> Iterator[Fraction]:
    """F(n, k) for k = 0, 1, 2, ... without end, each from the last by
    F(n, k)/F(n, k-1) = -2(2n+2k-3)(n-k+1)/(2k-3)^2 (zero from k = n+1 on)."""
    f = wz_F(n, 0)
    for k in itertools.count(1):
        yield f
        f *= Fraction(-2 * (2 * n + 2 * k - 3) * (n - k + 1), (2 * k - 3) ** 2)


def _wz_G_ratios(n: int) -> Iterator[tuple[int, int]]:
    """(a, b) with G(n, k+1)/G(n, k) = a/b, for k = 1, 2, ... (a = 0 from k = n on)."""
    return ((-2 * (2 * n + 2 * k - 3) * (n - k), (2 * k - 1) ** 2) for k in itertools.count(1))


def _wz_G_row(n: int) -> Iterator[Fraction]:
    """G(n, k) for k = 1, 2, ... without end, each from the last by its ratio."""
    ratios = (Fraction(a, b) for a, b in _wz_G_ratios(n))
    return itertools.accumulate(ratios, operator.mul, initial=wz_G(n, 1))


def wz_G_tail(n: int) -> Fraction:
    """sum_{k=1..n-1} G(n, k) for n >= 2, one walk along the G ratios."""
    if n < 2:
        raise PreconditionViolated(f"the G-tail is stated for n >= 2, got n={n}")
    g = wz_G(n, 1)
    steps = ((a, b, 1) for a, b in itertools.islice(_wz_G_ratios(n), n - 2))
    return Fraction(*walk_total(steps, g.numerator, g.numerator, g.denominator))


@functools.lru_cache(maxsize=2)
def _wz_rows(n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(F(n, 0..n+1), G(n, 1..n+1)): every value of row n that is not zero,
    then one zero.  A scan over n = 1, 2, ... reads rows n and n+1, so two
    memoised rows build each row once."""
    f = tuple(itertools.islice(_wz_F_row(n), n + 2))
    return f, tuple(itertools.islice(_wz_G_row(n), n + 1))


def _at(row: tuple[Fraction, ...], i: int) -> Fraction:
    # a row ends in its first zero, and every later value is zero too
    return row[min(i, len(row) - 1)]


def check_wz_relation(n: int, k: int) -> bool:
    """F(n,k-1) - F(n,k) == G(n+1,k) - G(n,k), exactly.  Stated for k >= 1."""
    if k < 1:
        raise PreconditionViolated(f"the pair relation is stated for k >= 1, got k={k}")
    f, g = _wz_rows(n)
    g_next = _wz_rows(n + 1)[1]
    return _at(f, k - 1) - _at(f, k) == _at(g_next, k - 1) - _at(g, k - 1)


def check_telescoped_identity(p: int) -> bool:
    """Exact telescoped identity for odd p >= 3, with h = (p+1)/2:

        sum_{n=0..h} F(n,0) == F(h,h) + sum_{k=1..h} G(h+1, k)

    The terms are the lhs of thm1 (F(n,0): A at m = 1), boundary_mod and tail_congruence.
    """
    if p < 3 or p % 2 == 0:
        raise PreconditionViolated(f"p must be odd and >= 3, got {p}")
    h = (p + 1) // 2
    return family_sum("A", 1, h) == wz_F(h, h) + wz_G_tail(h + 1)


def boundary_closed_form(p: int) -> tuple[Fraction, Fraction]:
    """The diagonal boundary term two ways, for odd p >= 3.

    Returns (F(h,h), -2p(2p+1) C(2p,p) C(p-1,(p-1)/2) / (4^p (p+1)^2)),
    h = (p+1)/2.  The two components are equal for every odd p; the identity
    is algebraic, not merely p-adic, so odd composites work too.
    """
    if p < 3 or p % 2 == 0:
        raise PreconditionViolated(f"p must be odd and >= 3, got {p}")
    h = (p + 1) // 2
    closed = Fraction(
        -2 * p * (2 * p + 1) * math.comb(2 * p, p) * math.comb(p - 1, (p - 1) // 2),
        4**p * (p + 1) ** 2,
    )
    return wz_F(h, h), closed


def _vanishes_within(base: Fraction, count: int) -> bool:
    # (x)_k = 0 for some 1 <= k <= count iff x is an integer in [-(count-1), 0]
    return base.denominator == 1 and -(count - 1) <= base.numerator <= 0


def _terminating_sum(
    tops: tuple[Fraction, ...], bottoms: tuple[Fraction, ...], sign: int, N: int
) -> Fraction:
    """sum_{k=0..N} sign^k prod (top)_k / (k! prod (bottom)_k), one walk_total
    along the term ratios sign prod (top+k) / ((k+1) prod (bottom+k)) for
    k < N, so no bottom+k past N-1 is ever divided by."""
    ratios = (
        sign * math.prod(x + k for x in tops) / ((k + 1) * math.prod(y + k for y in bottoms))
        for k in range(N)
    )
    return Fraction(*walk_total(((t.numerator, t.denominator, 1) for t in ratios), 1, 1, 1))


def whipple_terminating(a: Rational, b: Rational, c: Rational, d: Rational, N: int) -> bool:
    """Terminating transform check with e = -N:

        sum_{k=0..N} (-1)^k (a)_k (1+a/2)_k (b)_k (c)_k (d)_k (-N)_k
                     / (k! (a/2)_k (1+a-b)_k (1+a-c)_k (1+a-d)_k (1+a+N)_k)
        == ((1+a)_N / (1+a-d)_N)
           * sum_{k=0..N} (1+a-b-c)_k (d)_k (-N)_k / (k! (1+a-b)_k (1+a-c)_k)

    The prefactor is the Gamma-ratio of the transformation reduced to rising
    factorials by the shift property.  Raises ParameterSingularity when a
    denominator rising factorial vanishes within the summation range.
    """
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    e = Fraction(-N)
    lower = (a / 2, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e)
    for base in lower:
        if _vanishes_within(base, N):
            raise ParameterSingularity(f"denominator factor ({base})_k vanishes for some k <= {N}")
    lhs = _terminating_sum((a, 1 + a / 2, b, c, d, e), lower, -1, N)
    rhs = _terminating_sum((1 + a - b - c, d, e), lower[1:3], 1, N)
    prefactor = pochhammer(1 + a, N) / pochhammer(1 + a - d, N)
    return lhs == prefactor * rhs


def f32_top_minus_one(d: Rational, e: Rational, lower: Rational) -> Fraction:
    """Exact two-term value 1 - d*e/lower^2 of a 3F2(1) whose top parameter is
    -1 and whose two lower parameters both equal `lower`."""
    d, e, lower = Fraction(d), Fraction(e), Fraction(lower)
    return 1 - d * e / lower**2  # lower = 0 raises ZeroDivisionError


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
