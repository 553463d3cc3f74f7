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
(conj_sum is its oracle), and one walk per prime serves every weight.
"""

from __future__ import annotations

import itertools
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

    The sum is never formed exactly: the walk keeps it mod p^N, N = r + e,
    which fixes sum / p^r mod p^e exactly.  Summand k of summand_factors is
    sign * p^v * w^m * t/q, with w and the step a/b of t/q split free of p
    once for every weight, so each weight's sum is its own x over one
    shared unit denominator q: a step a/b takes t/q to (t a)/(q b) and x to
    x b + c t a, c = sign p^v w^m, with no gcd.  Each cut reads every weight
    with one inverse of q; "both" reads the half truncation, a prefix of the
    full one, at its cut.  w^m steps from one weight to the next by
    (w^2)^(gap/2).
    """
    ms = sorted(set(ms))
    if not ms:
        raise ValueError("need at least one weight")
    p = _validate(family, ms, p, r, variant, VARIANTS + ("both",))
    e = FAMILIES[family].residue_exponent
    # (-1/2)_k/k! = -Cat(k-1)/2^(2k-1), so for odd p every summand is a
    # p-adic integer, and summand 0 is the unit -1: p^(r+e) is precision enough.
    n, modulus, pr, pe = r + e, p ** (r + e), p**r, p**e
    p_powers = [p**v for v in range(n)]  # p^v for v >= n vanishes mod p^n
    half_gaps = [(hi - lo) // 2 for lo, hi in zip(ms, ms[1:])]
    # ascending, as the half cut never passes the full one; half first where they coincide
    cuts = [(_upper(p, r, v), v) for v in VARIANTS if variant in (v, "both")]
    unit_sign = _unit_sign(family, p, r)
    factors = enumerate(summand_factors(FAMILIES[family].summand))
    cells: list = [None] * len(ms)  # None until a cut reads the weight
    xs, t, q, v_t, walked = [0] * len(ms), 1, 1, 0, 0
    for cut, cut_variant in cuts:
        for k, (sign, w, a, b) in itertools.islice(factors, cut + 1 - walked):
            v_w = 0
            if not w % p:
                v_w, w = split_power(w, p)
            if not a % p:
                v_a, a = split_power(a, p)
                v_t += v_a
            if not b % p:
                v_b, b = split_power(b, p)
                v_t -= v_b
            t, q = t * a % modulus, q * b % modulus
            if not v_w and 0 <= v_t < n:  # every weight's summand has v = v_t
                term = sign * p_powers[v_t] * t * pow(w, ms[0], modulus) % modulus
                xs[0] = (xs[0] * b + term) % modulus
                w2 = w * w % modulus
                for i, half in enumerate(half_gaps, 1):
                    term = term * (w2 if half == 1 else pow(w2, half, modulus)) % modulus
                    xs[i] = (xs[i] * b + term) % modulus
                continue
            for i, m in enumerate(ms):
                v = m * v_w + v_t
                if v >= 0:
                    term = sign * p_powers[v] * t * pow(w, m, modulus) if v < n else 0
                    xs[i] = (xs[i] * b + term) % modulus
                elif not isinstance(cells[i], ValueError):
                    cells[i] = PreconditionViolated(
                        f"family {family}, m={m}, p={p}: summand {k} has v_p < 0")
        walked = cut + 1
        inverse = pow(q, -1, modulus)
        for i, (m, cell) in enumerate(zip(ms, cells)):
            if isinstance(cell, ValueError):
                continue
            total = xs[i] * inverse % modulus
            if total % pr:
                cells[i] = ValuationTooLow(
                    f"family {family}, m={m}, p={p}, r={r} ({cut_variant}): v_p(sum) < r"
                )
                continue
            read = (total // pr * unit_sign % pe, pe)
            cells[i] = read if cell in (None, read) else InconsistentInput(
                f"half/full residues disagree at p={p}: {cell} vs {read}")
        if all(isinstance(cell, ValueError) for cell in cells):
            break
    return dict(zip(ms, cells))


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
