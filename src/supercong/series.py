"""Truncated hypergeometric sums and the telescoping F/G pair, all in exact
rational arithmetic.  The summand families A, B and V, and the integer
factors each summand steps by, are defined in `families`.

Summation is sequential left-to-right; exactness makes the order irrelevant
and the result deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .arith import PreconditionViolated
from .families import _FAMILY, _Family, summand_factors  # noqa: F401  (re-exported)
from .special import cached, inv_pochhammer_int, poch_neg_half, pochhammer


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


def term_value(spec: SumSpec, k: int) -> Fraction:
    """The exact k-th summand of the family (defined for every k >= 0)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    fam = _FAMILY[spec.family]
    u = pochhammer(Fraction(fam.half_base, 2), k) / math.factorial(k)
    sign = -1 if fam.alternating and k % 2 else 1
    return sign * (4 * k + fam.shift) ** spec.m * u**fam.power


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


def _family_numerators(family: str, m: int) -> Iterator[list]:
    """[N_k], a list family_sum may reduce in place, for k = 0, 1, 2, ...:
    N_k = 4^(power (k+1)) times the family's sum over 0..k.  Summand_factors'
    U_k = u_k^power is G_k/4^(power (k+1)), G_k an integer (u_k 4^k is
    -2 Cat(k-1) or C(2k, k)) that steps by one exact division, and
    N_k = 4^power N_(k-1) + sign w^m G_k: no gcd and no Fraction per term."""
    bits = 2 * _FAMILY[family].power
    total, scale = 0, 1
    for sign, w, a, b in summand_factors(family):
        scale = (scale * a << bits) // b
        total = (total << bits) + sign * w**m * scale
        yield [total]


def family_sum(family: str, m: int, upper: int) -> Fraction:
    """partial_sum(SumSpec(family, m, upper)) read off the numerators N_k of
    _family_numerators, kept per (family, m): the sum at one upper limit is
    a prefix of every longer one.  The first read of an index reduces
    N_upper/4^(power (upper+1)), by the trailing zero bits of N_upper alone,
    and the Fraction takes N_upper's place in its list: later reads take no gcd."""
    cell = cached((family, m), lambda: _family_numerators(family, m), upper)
    if type(num := cell[0]) is int:
        bits = 2 * _FAMILY[family].power * (upper + 1)
        zeros = min((num & -num).bit_length() - 1, bits) if num else bits
        cell[0] = Fraction(num >> zeros, 1 << bits - zeros)
    return cell[0]


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


def _wz_G_tail_sum(n: int) -> tuple[int, int]:
    """sum_{k=1..n-1} G(n, k) for n >= 2 as an unreduced integer pair
    (num, den), one walk_total along the G ratios.  With
    c = 2^n (-1/2)_n = (-1)(1)(3)...(2n-3),

        G(n, 1) = (-1)^(n+1) 8 c^3 / (8^n (n-1)!^3)."""
    num = (8 if n % 2 else -8) * math.prod(range(-1, 2 * n - 2, 2)) ** 3
    steps = ((a, b, 1) for a, b in itertools.islice(_wz_G_ratios(n), n - 2))
    return walk_total(steps, num, num, math.factorial(n - 1) ** 3 << 3 * n)


def wz_G_tail(n: int) -> Fraction:
    """sum_{k=1..n-1} G(n, k) for n >= 2, one walk along the G ratios."""
    if n < 2:
        raise PreconditionViolated(f"the G-tail is stated for n >= 2, got n={n}")
    return Fraction(*_wz_G_tail_sum(n))


def _wz_row(n: int) -> Iterator[tuple[int, int, int]]:
    """(F(n, k), G(n, k+1), G(n+1, k+1)) times D/F(n, 0) for k = 0, 1, 2, ...
    without end, D = (4n-1) prod_{j=1..n} (2j-1)^2.  F(n, 0) is never zero,
    and G(n, 1)/F(n, 0) = -8n^3/(4n-1), G(n+1, 1)/F(n, 0) = (2n-1)^3/(4n-1),
    so the three start at (4n-1), -8n^3 and (2n-1)^3 times the product.
    Each steps along k by its ratio a/b with one multiplication and one
    division, and every division is exact: up to a row's first a = 0 its
    b's multiply to a divisor of the product, and after it the row is 0."""
    odd = math.prod(range(1, 2 * n, 2)) ** 2
    f, g, g_next = (4 * n - 1) * odd, -8 * n**3 * odd, (2 * n - 1) ** 3 * odd
    yield f, g, g_next
    for (a, b), (c, d), (e, q) in zip(_wz_F_ratios(n), _wz_G_ratios(n), _wz_G_ratios(n + 1)):
        f, g, g_next = f * a // b, g * c // d, g_next * e // q
        yield f, g, g_next


def _wz_relation_row(n: int) -> Iterator[bool]:
    """check_wz_relation(n, k) for k = 1, 2, ... without end, each one
    comparison of _wz_row's integers as k advances."""
    for (f, g, g_next), (f_k, _, _) in itertools.pairwise(_wz_row(n)):
        yield f - f_k == g_next - g


def check_wz_relation(n: int, k: int) -> bool:
    """F(n,k-1) - F(n,k) == G(n+1,k) - G(n,k), exactly.  Stated for n >= 0
    and k >= 1."""
    if n < 0:
        raise PreconditionViolated(f"the pair relation is stated for n >= 0, got n={n}")
    if k < 1:
        raise PreconditionViolated(f"the pair relation is stated for k >= 1, got k={k}")
    # from k = n+2 on, all four values are zero
    return next(itertools.islice(_wz_relation_row(n), min(k, n + 2) - 1, None))


def wz_relation_scan(grid: int) -> Iterator[tuple[tuple[int, int], bool]]:
    """((n, k), check_wz_relation(n, k)) for 1 <= k <= n <= grid, n-major,
    each row n streamed once, as far as it is read."""
    for n in range(1, grid + 1):
        yield from zip(((n, k) for k in range(1, n + 1)), _wz_relation_row(n))


def _require_odd(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise PreconditionViolated(f"p must be odd and >= 3, got {p}")


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


def _diagonal_ratio(p: int) -> tuple[int, int]:
    """(a, b): from odd p to p+2, F(h,h), h = (p+1)/2, steps by a/b, the
    product of (4h+1)(4h+3) over 4(h+1)^2."""
    return (2 * p + 3) * (2 * p + 5), (p + 3) ** 2


def boundary_term(p: int) -> Fraction:
    """F(h, h), h = (p+1)/2, for odd p >= 3, kept across calls for both wz
    scans and for boundary_mod and tail_congruence: F(2, 2) = -105/64
    stepped from p to p+2 by _diagonal_ratio's a/b as reduced Fractions, so
    each step takes gcds with small integers only."""
    def terms() -> Iterator[Fraction]:
        steps = (Fraction(*_diagonal_ratio(q)) for q in itertools.count(3, 2))
        return itertools.accumulate(steps, operator.mul, initial=Fraction(-105, 64))
    return cached("F(h,h)", terms, (p - 3) // 2)


def _boundary_walk() -> Iterator[tuple[int, tuple[int, int]]]:
    """(p, closed form) for odd p = 3, 5, 7, ..., the closed side
    -2p(2p+1) C(2p,p) C(p-1,(p-1)/2) / (4^p (p+1)^2) of boundary_closed_form
    as an unreduced integer pair (num, den).  The binomial product, an
    integer, steps from p to p+2 by one exact division, by
    4(2p+1)(2p+3)/((p+1)(p+2)) times 4p/(p+1)."""
    binomials = 40  # C(6,3) C(2,1)
    for p in itertools.count(3, 2):
        yield p, (-2 * p * (2 * p + 1) * binomials, (p + 1) ** 2 << 2 * p)
        binomials = binomials * 16 * p * (2 * p + 1) * (2 * p + 3) // ((p + 1) ** 2 * (p + 2))


def boundary_scan(lo: int, hi: int) -> Iterator[tuple[tuple[int], bool]]:
    """((p,), operator.eq(*boundary_closed_form(p))) for odd p >= 3 in
    lo..hi: the closed side off one _boundary_walk, F(h,h) from
    boundary_term, each verdict one cross-multiplication."""
    for p, (c_num, c_den) in itertools.islice(_boundary_walk(), max((hi - 1) // 2, 0)):
        if p >= lo:
            f = boundary_term(p)
            yield (p,), f.numerator * c_den == c_num * f.denominator


def check_boundary_closed_form(p: int) -> bool:
    """operator.eq(*boundary_closed_form(p)), by boundary_scan's walk up to p."""
    _require_odd(p)
    [(_, holds)] = boundary_scan(p, p)
    return holds


def telescoped_scan(ps: Iterable[int]) -> Iterator[tuple[tuple[int], bool]]:
    """((p,), check_telescoped_identity(p)) for each p of ps, odd and >= 3,
    in any order, h = (p+1)/2:

        sum_{n=0..h} F(n,0) = family_sum("A", 1, h)
        F(h,h) + sum_{k=1..h} G(h+1, k) = boundary_term(p) + _wz_G_tail_sum(h+1)

    Each verdict compares A - F(h,h) with the G-tail by one
    cross-multiplication of integers, the A sum's power-of-two denominator
    applied as a shift.  The A sum and F(h,h) are the cached values thm1,
    boundary_mod and tail_congruence read."""
    for p in ps:
        _require_odd(p)
        h = (p + 1) // 2
        a, f = family_sum("A", 1, h), boundary_term(p)
        g_num, g_den = _wz_G_tail_sum(h + 1)
        shift = a.denominator.bit_length() - 1
        a_less_f = a.numerator * f.denominator - (f.numerator << shift)  # over 2^shift f.den
        yield (p,), a_less_f * g_den == g_num * f.denominator << shift


def check_telescoped_identity(p: int) -> bool:
    """Exact telescoped identity for odd p >= 3, composites included, with
    h = (p+1)/2:

        sum_{n=0..h} F(n,0) == F(h,h) + sum_{k=1..h} G(h+1, k)

    The terms are the lhs of thm1 (F(n,0): A at m = 1), boundary_mod and
    tail_congruence.  One step of telescoped_scan."""
    [(_, holds)] = telescoped_scan([p])
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
