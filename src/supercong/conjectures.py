"""Conjectured constant families: verify the congruence for a given constant
at (m, p, r), extract the constants' residues per prime, and rediscover the
integer constant by symmetric CRT lifting.

Family C: alternating cube sums (summand family A), claimed
    sum = c_m * p^r * (-1)^((p-1)r/2)  (mod p^(r+2)),
family D: fourth-power sums (summand family B), claimed
    sum = d_m * p^r                     (mod p^(r+3)),
with the truncation at (p^r+1)/2 ("half") or p^r - 1 ("full"); both
truncations are claimed to obey the same congruence, so the residues must
agree between variants.

Every summand's denominator is a power of 2, yet the exact sums are huge
rationals (about 22k bits at p = 61, r = 2).  conj_sum and
verify_conjecture evaluate them exactly.  residue_table, and
extract_residue, its call for one weight, only need the sum mod p^(r+e), so
they work in fixed-precision p-adic arithmetic instead: each summand is p^v
times a p-adic unit, kept mod p^(r+e), which keeps the residue exact
(conj_sum is its oracle), and one walk per prime serves every weight and
both truncations, whichever the variant reads.  The walk steps through the
first min(r+e, p^(r-1)) blocks of p summands only and extrapolates the
rest, since mod p^(r+e) each block is a polynomial of low degree in its
index, so a prime costs about (r+e) p + p^(r-1) steps rather than p^r.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from . import series
from .arith import (
    CongruenceReport,
    InconsistentInput,
    PreconditionViolated,
    crt_lift,
    make_report,
    require_prime,
    split_power,
)
from .families import _FAMILY, summand_factors

VARIANTS = ("half", "full")


class Family(NamedTuple):
    """A conjectured family: its sum of summand family `summand` is claimed
    mod p^(r + residue_exponent), with sign (-1)^((p-1)r/2) if that
    summand family alternates."""

    summand: str
    residue_exponent: int
    default_m: tuple[int, ...]  # the weights discovery scans by default


FAMILIES = {
    "C": Family("A", 2, (1, 3, 5, 7, 9, 11)),
    "D": Family("B", 3, (1, 3, 5, 7, 9, 11, 13, 15)),
}


class ValuationTooLow(ValueError):
    """The sum's valuation at p is below r: the claimed congruence already
    fails at this prime (a counterexample candidate)."""


def _validate(
    family: str, ms: Iterable[int], p: int, r: int, variant: str,
    variants: tuple[str, ...] = VARIANTS,
) -> int:
    """The checked prime p, after every argument of a family sum at the
    weights ms is validated."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {tuple(FAMILIES)}, got {family!r}")
    for m in ms:
        if m < 1 or m % 2 == 0:
            raise ValueError(f"m must be an odd positive integer, got {m}")
    p = require_prime(p, f"family {family}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if variant not in variants:
        raise ValueError(f"variant must be one of {variants}, got {variant!r}")
    return p


def _unit_sign(family: str, p: int, r: int) -> int:
    """(-1)^((p-1)r/2) for a family whose summands alternate; +1 otherwise."""
    return -1 if _FAMILY[FAMILIES[family].summand].alternating and ((p - 1) // 2 * r) % 2 else 1


def _upper(p: int, r: int, variant: str) -> int:
    return (p**r + 1) // 2 if variant == "half" else p**r - 1


def conj_sum(family: str, m: int, p: int, r: int, variant: str) -> Fraction:
    """Exact truncated sum of the family's summand at prime p and depth r,
    with upper limit (p^r+1)/2 (half) or p^r - 1 (full)."""
    _validate(family, (m,), p, r, variant)
    return series.partial_sum(series.SumSpec(FAMILIES[family].summand, m, _upper(p, r, variant)))


def verify_conjecture(
    family: str, m: int, p: int, r: int, constant: int, variant: str
) -> CongruenceReport:
    """Report on sum = constant * p^r * sign (mod p^(r+2) or p^(r+3))."""
    p = _validate(family, (m,), p, r, variant)
    s = conj_sum(family, m, p, r, variant)
    rhs = Fraction(constant * p**r * _unit_sign(family, p, r))
    required = r + FAMILIES[family].residue_exponent
    return make_report(f"conj_{family.lower()}_{variant}", p, s, rhs, required, m=m, r=r)


def residue_table(
    family: str, ms: Iterable[int], p: int, r: int, variant: str
) -> dict[int, tuple[int, int] | ValueError]:
    """Invert the claimed congruence for the constant of every weight in ms
    at one prime, from one walk over the summands.

    Maps each distinct weight, ascending, to its cell: (residue, modulus)
    with residue = (sum * sign / p^r) mod p^e, e = 2 for family C and 3 for
    family D, or the first failure of that weight's walk.  A summand of
    negative valuation fails with PreconditionViolated, a sum of valuation
    below r with ValuationTooLow naming its truncation, and with variant
    "both", half and full residues that differ with InconsistentInput.

    The sum is never formed exactly: _cut_sums keeps it mod p^N, N = r + e,
    which fixes sum / p^r mod p^e exactly, walks only the first
    min(N, p^(r-1)) blocks of p summands, and gives every weight's sum at
    both cuts whatever the variant.  The table reads the cut or cuts its
    variant names, every weight in turn; "both" reads the half truncation,
    a prefix of the full one, first.
    """
    ms = sorted(set(ms))
    if not ms:
        raise ValueError("need at least one weight")
    p = _validate(family, ms, p, r, variant, VARIANTS + ("both",))
    pr, pe = p**r, p ** FAMILIES[family].residue_exponent
    unit_sign = _unit_sign(family, p, r)
    bad, sums = _cut_sums(family, ms, p, r)
    cells: list = [None] * len(ms)  # None until a cut reads the weight
    for cut_variant, totals in zip(VARIANTS, sums):
        if variant not in (cut_variant, "both"):
            continue
        cut = _upper(p, r, cut_variant)
        for i, (m, cell, total, k) in enumerate(zip(ms, cells, totals, bad)):
            if isinstance(cell, ValueError):
                continue
            if k is not None and k <= cut:
                cells[i] = PreconditionViolated(
                    f"family {family}, m={m}, p={p}: summand {k} has v_p < 0")
            elif total % pr:
                cells[i] = ValuationTooLow(
                    f"family {family}, m={m}, p={p}, r={r} ({cut_variant}): v_p(sum) < r"
                )
            else:
                read = (total // pr * unit_sign % pe, pe)
                cells[i] = read if cell in (None, read) else InconsistentInput(
                    f"half/full residues disagree at p={p}: {cell} vs {read}")
    return dict(zip(ms, cells))


def _differences(rows: list[list[int]], modulus: int) -> list[list[int]]:
    """The forward differences of rows at the first row, entry by entry mod
    modulus: row y of rows is the sum over j of difference j times C(y, j)."""
    diffs = []
    while rows:
        diffs.append(rows[0])
        rows = [[(b - a) % modulus for a, b in zip(lo, hi)] for lo, hi in zip(rows, rows[1:])]
    return diffs


def _combine(rows: list[list[int]], coefficients: list[int], q: int, modulus: int) -> list[int]:
    """The sum of the rows times their coefficients, entry by entry, over the
    unit denominator q, mod modulus."""
    totals = [0] * len(rows[0])
    for row, c in zip(rows, coefficients):
        if c:
            totals = [x + d * c for x, d in zip(totals, row)]
    inverse = pow(q, -1, modulus)
    return [x * inverse % modulus for x in totals]


def _cut_sums(
    family: str, ms: list[int], p: int, r: int
) -> tuple[list[int | None], tuple[list[int], list[int]]]:
    """residue_table's walk at the validated weights ms, ascending: each
    weight's first summand of negative valuation, or None, and every
    weight's sum mod p^N at the half cut and at the full cut.

    Write summand k = p y + a, 0 <= a < p, as summand a of block y, and t_k
    for its sign times U_k of summand_factors.  Block y sums to t_(py)
    S_m(py).  As p^N divides (py)^N, three things are polynomials in y of
    degree < N mod p^N (the digit structure of (1/2)_k/k!, Dwork 1969):
    S_m(py), the partial block sum to a = (p+1)/2 (where the half cut ends
    block (p^(r-1) - 1)/2), and the unit Q(py) of the block-end step
    t_(p(y+1)) / t_(py) = ((2y+1)/(2y+2))^power Q(py).  So the explicit pass
    walks only the first B = min(N, p^(r-1)) blocks, in full, and records
    those three per block, and their forward differences times binomials
    C(y, j) give every later block.  The outer walk steps t_(py) over all
    p^(r-1) blocks and keeps its binomial moments, the sums of t_(py) C(y, j)
    for j < B, which serve every weight: a weight's sum at a cut is one dot
    product with its differences.  Where B covers every block, r = 1
    included, the differences give back the recorded values exactly.

    Within a block each summand is sign p^v_t w^m t/q, the step a/b of t/q
    split free of p once for every weight, so each weight's block sum is
    its own x over one shared unit denominator q: a step a/b takes t/q to
    (t a)/(q b) and x to x b + c t a, c = sign p^v_t w^m, with no gcd.  w
    keeps its power of p, as w^m mod p^N is exact either way, and steps
    from one weight to the next by (w^2)^(gap/2); p^v_t is 0 once v_t >= N.
    Only v_t < 0, which a substituted factor stream alone gives, splits w
    for each weight.  The moments share one denominator the same way.  A
    substituted stream has no block structure: it is walked exactly only
    at r = 1, where one block covers it.
    """
    summand = FAMILIES[family].summand
    power = _FAMILY[summand].power
    # (-1/2)_k/k! = -Cat(k-1)/2^(2k-1), so for odd p every summand is a
    # p-adic integer, and summand 0 is the unit -1: p^(r+e) is precision enough.
    n = r + FAMILIES[family].residue_exponent
    modulus = p**n
    half_gaps = [(hi - lo) // 2 for lo, hi in zip(ms, ms[1:])]
    half_block, half_at = (p ** (r - 1) - 1) // 2, (p + 1) // 2
    explicit = min(n, p ** (r - 1))
    sums: list[list[int]] = []  # per block, S_m(py) of each weight
    partials: list[list[int]] = []  # per block, the partial S_m(py) to a = half_at
    steps: list[list[int]] = []  # per block, [Q(py)]
    bad: list[int | None] = [None] * len(ms)
    factors = summand_factors(summand)
    sign, w, _, _ = next(factors)
    for y in range(explicit):
        start, t, q, v_t, xs = sign, 1, 1, 0, [0] * len(ms)
        block = enumerate(itertools.chain([(sign, w, 1, 1)], factors), y * p)
        for count, record in (half_at + 1, partials), (p - 1 - half_at, sums):
            for k, (sign, w, a, b) in itertools.islice(block, count):
                if not a % p:
                    v_a, a = split_power(a, p)
                    v_t += v_a
                if not b % p:
                    v_b, b = split_power(b, p)
                    v_t -= v_b
                t, q = t * a % modulus, q * b % modulus
                if v_t >= 0:  # every weight's summand is p^v_t w^m t/q
                    term = sign * pow(p, v_t, modulus) * t * pow(w, ms[0], modulus) % modulus
                    xs[0] = (xs[0] * b + term) % modulus
                    w2 = w * w % modulus
                    for i, half in enumerate(half_gaps, 1):
                        term = term * (w2 if half == 1 else pow(w2, half, modulus)) % modulus
                        xs[i] = (xs[i] * b + term) % modulus
                    continue
                v_w, w = split_power(w, p)
                for i, m in enumerate(ms):
                    v = m * v_w + v_t
                    if v >= 0:
                        term = sign * pow(p, v, modulus) * t * pow(w, m, modulus)
                        xs[i] = (xs[i] * b + term) % modulus
                    elif bad[i] is None:
                        bad[i] = k
            inverse = pow(q, -1, modulus) * start  # relative to the block's first summand
            record.append([x * inverse % modulus for x in xs])
        sign, w, a, b = next(factors)  # summand p(y+1), whose step a/b ends block y
        _, top = split_power((2 * y + 2) ** power * t * a, p)
        _, bottom = split_power((2 * y + 1) ** power * q * b, p)
        steps.append([sign * start * top * pow(bottom, -1, modulus) % modulus])
    sums, partials = _differences(sums, modulus), _differences(partials, modulus)
    steps = [d for d, in _differences(steps, modulus)]
    binomials, moments = [1] + [0] * (explicit - 1), [0] * explicit
    t, q, v_t, den = 1, 1, 0, 1
    for y in range(p ** (r - 1)):
        if y:  # step t_(py) by ((2y-1)/(2y))^power Q(p(y-1)), then C(y, j)
            num, den = 2 * y - 1, 2 * y
            if not num % p:
                v, num = split_power(num, p)
                v_t += power * v
            if not den % p:
                v, den = split_power(den, p)
                v_t -= power * v
            den = den**power % modulus
            t = t * num**power * sum(map(operator.mul, steps, binomials)) % modulus
            q = q * den % modulus
            binomials = [1, *map(operator.add, binomials[1:], binomials)]
        term = pow(p, v_t, modulus) * t % modulus
        if y == half_block:  # blocks before y, and y to a = half_at
            coefficients = [mo * den for mo in moments] + [term * c for c in binomials]
            half = _combine(sums + partials, coefficients, q, modulus)
        moments = [(mo * den + term * c) % modulus for mo, c in zip(moments, binomials)]
    return bad, (half, _combine(sums, moments, q, modulus))


def _residue(cell: tuple[int, int] | ValueError) -> tuple[int, int]:
    """A residue_table cell's (residue, modulus); a failed cell raises."""
    if isinstance(cell, ValueError):
        raise cell
    return cell


def extract_residue(family: str, m: int, p: int, r: int, variant: str) -> tuple[int, int]:
    """The residue_table cell of the one weight m at p: (residue, modulus),
    or the cell's exception raised.  Requires v_p(sum) >= r.  variant
    "both" reads the half truncation, a prefix of the full one, at its cut
    on the one walk."""
    return _residue(residue_table(family, (m,), p, r, variant)[m])


class DiscoveryResult(NamedTuple):
    """A reconstructed integer constant with the per-prime evidence behind it.

    `consistent` witnesses the invariant "constant reproduces the residue at
    every evidence prime".  A False value means the per-prime residues do not
    come from any single small integer: the evidence rows identify the
    disagreeing primes, which are counterexample candidates for the claimed
    congruence.
    """

    family: str
    m: int
    r: int
    constant: int
    evidence: tuple[tuple[int, int, int], ...]  # (p, residue, modulus)
    consistent: bool


def _stabilized_lift(evidence: list[tuple[int, int, int]]) -> int:
    """Symmetric CRT lift that tolerates a disagreeing minority of primes.

    Lifts descending-prime prefixes, each prime extending the last prefix's
    lift x mod M by one crt_lift of the two pairs (x mod M, M) and its own,
    until the symmetric representative stops changing; the first stabilized
    value is the candidate.  When every residue comes from one constant of
    small magnitude this equals the plain full-pool crt_lift (the full lift
    of consistent residues IS that constant); when a lone prime disagrees,
    the stabilized value is still the constant the remaining primes pin
    down, and the re-check in discover_constant flags the disagreement
    instead of returning an artifact of the combined modulus.
    """
    x, modulus, prev = 0, 1, None
    for _, res, mod in sorted(evidence, reverse=True):
        x = crt_lift([(x % modulus, modulus), (res, mod)])
        modulus *= mod
        if x == prev:
            return x
        prev = x
    return prev


def discover_constant(
    family: str,
    m: int,
    primes: list[int],
    r: int = 1,
    variant: str = "both",
    tables: Mapping[int, Mapping[int, tuple[int, int] | ValueError]] | None = None,
) -> DiscoveryResult:
    """Rediscover the family constant from per-prime residues via CRT.

    With variant="both" (the default) the residue is extracted from the half
    and full truncations, which must agree at every prime (see
    extract_residue); InconsistentInput identifies the offending prime
    otherwise.  Residues are gathered in ascending prime order, and the
    first failing prime's exception is raised; they are lifted to the
    symmetric representative (see _stabilized_lift), and `consistent`
    re-verifies that the lifted constant reproduces every residue.  The
    output is empirical: it carries no claim beyond the primes listed in
    the evidence.

    tables, if given, maps every prime to its residue_table at (family, r,
    variant) with m among its weights, and the residues are read from it:
    so discovering several weights walks each prime once.  Otherwise each
    prime's residue is extracted for m alone.
    """
    if not primes:
        raise ValueError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    primes = [require_prime(p, "discovery", floor=5) for p in sorted(primes)]
    evidence = [
        (p, *(extract_residue(family, m, p, r, variant) if tables is None else _residue(tables[p][m])))
        for p in primes
    ]
    constant = _stabilized_lift(evidence)
    consistent = all(constant % mod == res for _, res, mod in evidence)
    return DiscoveryResult(family, m, r, constant, tuple(evidence), consistent)
