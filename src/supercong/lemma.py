"""The paper's two lemma sums and their Table 1 closed forms, per weight
m in {3, 5, 7}: the closed forms f(m, n) and g(m, n), and one walk along
the terminating summand that sums both lemma sums exactly for every weight
at once, read by the exact lemma scans and by check_lemma_f/g.

The closed forms need only the second-order harmonic numbers, so the
lemma and table commands run on this module and special alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator

from .special import cached_prefix, h2

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
    """(rational part, coefficient of H_n^(2)) of the weighted closed form;
    the coefficient is an integer."""
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


def _table1_g_pair(m: int, n: int) -> tuple[int, int]:
    """table1_g(m, n) as an unreduced integer pair: with r and the integer
    c from table1_g_parts and H = h2(n), r + c H is
    (r_num H_den + c H_num r_den, r_den H_den)."""
    (rational, coeff), h = table1_g_parts(m, n), h2(n)
    r_den, h_den = rational.denominator, h.denominator
    return rational.numerator * h_den + coeff.numerator * h.numerator * r_den, r_den * h_den


def table1_g(m: int, n: int) -> Fraction:
    """Weighted closed form: rational part + H-coefficient * H_n^(2)."""
    return Fraction(*_table1_g_pair(m, n))


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


def _lemma_steps(ms: tuple[int, ...]) -> Iterator[tuple[int, int, int, int, int, tuple[int, ...]]]:
    """Row k = 1, 2, ... of the lemma walk's step table for the weights ms:
    (c, d, cd, c - d, d^2, ((4k-1)^m for m in ms)) with c = (2k-3)^2 and
    d = (2k)^2 as in _shifted_steps.  No entry depends on n, so every n
    reads a prefix of one table."""
    for k, (cd, c_d, d2) in enumerate(_shifted_steps(), 1):
        yield (2 * k - 3) ** 2, 4 * k * k, cd, c_d, d2, tuple((4 * k - 1) ** m for m in ms)


def _lemma_walk(ms: tuple[int, ...], n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """For each weight m of ms, the sums over k = 0..n of the terminating
    lemma summand

        t_k = (4k-1)^m (-1/2)_k^2 (-n)_k (n-1)_k / ((1)_k^2 (n+1/2)_k (3/2-n)_k),

    plain and with each term times the weight w_k of _shifted_steps, as
    (numerator, denominator) pairs over one denominator, from one walk along
    k for every m.  The walk keeps the term without its (4k-1)^m factor as
    (p0 + e p1)/q, its ratio's (2k-3)^2/(2k)^2 factor taken from
    _shifted_steps, so p1/q is the term times w_k.  With E = (2n-1)^2, the
    rest of the ratio at k is x/(d - E), x = c - E = 4(k-1-n)(n+k-2), over
    the table rows k = 1..n of _lemma_steps(ms), kept per ms.  Each m keeps
    its own two running sums over q: the step that takes q to q b takes the
    plain sum x to x b + (4k-1)^m p0, and the weighted one likewise with p1.
    """
    e = (2 * n - 1) ** 2
    p0 = q = 1
    p1 = 0
    plain = [-1] * len(ms)  # k = 0: term (-1)^m = -1, weight 0
    weighted = [0] * len(ms)
    for c, d, cd, c_d, d2, powers in cached_prefix(("lemma steps", ms), lambda: _lemma_steps(ms), n):
        x = c - e
        b = d2 * (d - e)
        cdx = cd * x
        p0, p1 = p0 * cdx, p1 * cdx + p0 * (c_d * x)
        q *= b
        for i, w in enumerate(powers):
            plain[i] = plain[i] * b + w * p0
            weighted[i] = weighted[i] * b + w * p1
    return [((x, q), (y, q)) for x, y in zip(plain, weighted)]


def _lemma_holds(sums: tuple[tuple[int, int], ...], m: int, n: int, weighted: bool) -> bool:
    """Whether the weighted (else the plain) sum of one _lemma_walk cell at
    weight m and index n equals its closed form, by one cross-multiplication
    of integers, the weighted closed form read as _table1_g_pair."""
    num, den = sums[weighted]
    c_num, c_den = _table1_g_pair(m, n) if weighted else table1_f(m, n).as_integer_ratio()
    return num * c_den == c_num * den


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
