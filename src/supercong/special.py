"""Special functions: the one prefix cache of growing exact sequences, rising
factorials, second-order harmonic numbers and Euler numbers, all exact.  The
congruences built on them are checks.CHECKS entries.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from fractions import Fraction
from typing import Callable, Iterator

from .arith import Rational

# Every growing exact sequence of the package, keyed by name: the values
# computed so far and the iterator that yields the rest.
_CACHE: dict[object, tuple[list, Iterator]] = {}
_lock = threading.Lock()


def cached(key: object, make_iterator: Callable[[], Iterator], k: int):
    """Value k (from 0) of the sequence make_iterator() yields, kept per key.

    The first call for a key starts the iterator; later calls extend the kept
    prefix under one lock, and indices already computed are read without it.
    The iterator runs under that lock, so it may read no cached sequence.
    An exception inside the iterator (an interrupt, say) ends a generator for
    good, so the key is dropped and the next call starts it again.
    """
    entry = _CACHE.get(key)
    if entry is None or not 0 <= k < len(entry[0]):
        if k < 0:
            raise ValueError(f"index must be non-negative, got {k}")
        with _lock:
            entry = _CACHE.setdefault(key, ([], make_iterator()))
            values, it = entry
            try:
                while len(values) <= k:
                    values.append(next(it))
            except BaseException:
                del _CACHE[key]
                raise
    return entry[0][k]


def pochhammer(a: Rational, k: int) -> Fraction:
    """Rising factorial (a)_k = a(a+1)...(a+k-1); the empty product is 1."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return next(itertools.islice(_rising(Fraction(a)), k, None))


def _rising(a: Fraction) -> Iterator[Fraction]:
    """(a)_0, (a)_1, (a)_2, ..."""
    factors = (a + i for i in itertools.count())
    return itertools.accumulate(factors, operator.mul, initial=Fraction(1))


def poch_neg_half(k: int) -> Fraction:
    """(-1/2)_k, the rising factorial the telescoping pair is built from."""
    return cached("(-1/2)_k", lambda: _rising(Fraction(-1, 2)), k)


def inv_pochhammer_int(m: int) -> Fraction:
    """1/(1)_m = 1/m!, extended by 1/(1)_m = 0 for m = -1, -2, ...

    The zero extension is what makes the boundary terms of the telescoping
    F/G pair vanish; see series.wz_F and series.wz_G.
    """
    if m < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(m))


def _h2_values() -> Iterator[Fraction]:
    return itertools.accumulate(
        (Fraction(1, j * j) for j in itertools.count(1)), initial=Fraction(0)
    )


def h2(n: int) -> Fraction:
    """Second-order harmonic number sum_{j=1..n} 1/j^2; zero for n = 0."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return cached("h2", _h2_values, n)


def _even_euler_values() -> Iterator[int]:
    # E_0, E_2, E_4, ... by Seidel's boustrophedon, additions only: row n is
    # the running sums of row n-1 read backwards from 0, and its last entry
    # is the zigzag number A_n, with E_(2j) = (-1)^j A_(2j) (odd-index Euler
    # numbers vanish).  Millar, Sloane and Young, J. Combin. Theory A 76 (1996)
    row = [1]
    yield 1
    for j in itertools.count(1):
        for _ in range(2):
            row = list(itertools.accumulate(reversed(row), initial=0))
        yield -row[-1] if j % 2 else row[-1]


def euler_number(n: int) -> int:
    """Single Euler number E_n (zero at odd n)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return 0 if n % 2 else cached("E_2j", _even_euler_values, n // 2)

