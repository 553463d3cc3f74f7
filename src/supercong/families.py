"""The summand families, one definition for every layer that walks them
(the weight exponent m is always odd):

    A: (-1)^k (4k-1)^m (-1/2)_k^3 / k!^3
    B:        (4k-1)^m (-1/2)_k^4 / k!^4
    V: (-1)^k (4k+1)^m (1/2)_k^3  / k!^3

`series` sums them exactly and `conjectures` walks them p-adically; both
step from one summand to the next by the integer factors of
summand_factors, so discovery runs this module alone of the two.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple


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
