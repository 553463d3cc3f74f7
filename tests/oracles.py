"""Exact identities that no command runs, kept beside the tests that hold
them: the terminating 6F5(-1) <-> 3F2(1) transformation, the Gamma-ratio
shift and the two-term 3F2(1) value.  Gamma ratios are never evaluated as
Gamma values: each reduces to a quotient of rising factorials through
Gamma(x+1) = x*Gamma(x)."""

import math
from fractions import Fraction

from supercong.series import walk_total
from supercong.special import pochhammer


class ParameterSingularity(ValueError):
    """A denominator rising factorial vanishes for the given parameters."""


def _vanishes_within(base, count):
    # (x)_k = 0 for some 1 <= k <= count iff x is an integer in [-(count-1), 0]
    return base.denominator == 1 and -(count - 1) <= base.numerator <= 0


def terminating_sum(tops, bottoms, sign, N):
    """sum_{k=0..N} sign^k prod (top)_k / (k! prod (bottom)_k), one walk_total
    along the term ratios sign prod (top+k) / ((k+1) prod (bottom+k)) for
    k < N, so no bottom+k past N-1 is ever divided by."""
    ratios = (
        sign * math.prod(x + k for x in tops) / ((k + 1) * math.prod(y + k for y in bottoms))
        for k in range(N)
    )
    return Fraction(*walk_total(((t.numerator, t.denominator, 1) for t in ratios), 1, 1, 1))


def whipple_terminating(a, b, c, d, N):
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
    lhs = terminating_sum((a, 1 + a / 2, b, c, d, e), lower, -1, N)
    rhs = terminating_sum((1 + a - b - c, d, e), lower[1:3], 1, N)
    prefactor = pochhammer(1 + a, N) / pochhammer(1 + a - d, N)
    return lhs == prefactor * rhs


def gamma_ratio_half_shift(p):
    """Gamma(1 + p/2) Gamma(1 - p/2) / (Gamma(1/2) Gamma(3/2)) for odd p >= 3.

    Reduced via the shift Gamma(x+1) = x*Gamma(x) to the exact quotient
    (3/2)_h / (1 - p/2)_h with h = (p-1)/2, which equals p * (-1)^((p-1)/2).
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and >= 3, got {p}")
    h = (p - 1) // 2
    return pochhammer(Fraction(3, 2), h) / pochhammer(1 - Fraction(p, 2), h)


def f32_top_minus_one(d, e, lower):
    """Exact two-term value 1 - d*e/lower^2 of a 3F2(1) whose top parameter is
    -1 and whose two lower parameters both equal `lower`."""
    d, e, lower = Fraction(d), Fraction(e), Fraction(lower)
    return 1 - d * e / lower**2  # lower = 0 raises ZeroDivisionError
