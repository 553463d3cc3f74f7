"""Conjectured constant families: verify the congruence for a given constant
at (m, p, r), extract the constant's residue per prime, and rediscover the
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
verify_conjecture evaluate them exactly.  extract_residue only needs the
sum mod p^(r+e), so it works in fixed-precision p-adic arithmetic instead:
each summand is p^v times a p-adic unit, kept mod p^(r+e), which keeps the
residue exact (conj_sum is its oracle).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .arith import (
    CongruenceReport,
    InconsistentInput,
    crt_lift,
    make_report,
    require_prime,
    split_power,
)
from .series import PreconditionViolated, SumSpec, partial_sum, summand_factors

FAMILIES = ("C", "D")
VARIANTS = ("half", "full")

_SUMMAND = {"C": "A", "D": "B"}
_RESIDUE_EXPONENT = {"C": 2, "D": 3}


class ValuationTooLow(ValueError):
    """The sum's valuation at p is below r: the claimed congruence already
    fails at this prime (a counterexample candidate)."""


def _validate(
    family: str, m: int, p: int, r: int, variant: str, variants: tuple[str, ...] = VARIANTS
) -> int:
    """The checked prime p, after every argument of a family sum is validated."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be an odd positive integer, got {m}")
    p = require_prime(p, f"family {family}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if variant not in variants:
        raise ValueError(f"variant must be one of {variants}, got {variant!r}")
    return p


def _unit_sign(family: str, p: int, r: int) -> int:
    """(-1)^((p-1)r/2) for family C; +1 for family D."""
    if family == "D":
        return 1
    return -1 if (((p - 1) // 2) * r) % 2 else 1


def _upper(p: int, r: int, variant: str) -> int:
    return (p**r + 1) // 2 if variant == "half" else p**r - 1


def conj_sum(family: str, m: int, p: int, r: int, variant: str) -> Fraction:
    """Exact truncated sum of the family's summand at prime p and depth r,
    with upper limit (p^r+1)/2 (half) or p^r - 1 (full)."""
    _validate(family, m, p, r, variant)
    return partial_sum(SumSpec(_SUMMAND[family], m, _upper(p, r, variant)))


def verify_conjecture(
    family: str, m: int, p: int, r: int, constant: int, variant: str
) -> CongruenceReport:
    """Report on sum = constant * p^r * sign (mod p^(r+2) or p^(r+3))."""
    p = _validate(family, m, p, r, variant)
    s = conj_sum(family, m, p, r, variant)
    rhs = Fraction(constant * p**r * _unit_sign(family, p, r))
    required = r + _RESIDUE_EXPONENT[family]
    return make_report(f"conj_{family.lower()}_{variant}", p, s, rhs, required, m=m, r=r)


def extract_residue(family: str, m: int, p: int, r: int, variant: str) -> tuple[int, int]:
    """Invert the claimed congruence for the constant at one prime.

    Returns (residue, modulus) with residue = (sum * sign / p^r) mod p^e,
    e = 2 for family C and 3 for family D.  Requires v_p(sum) >= r.
    variant "both" reads the half and the full truncation and raises
    InconsistentInput unless their residues agree.

    The sum is never formed exactly: one walk keeps it mod p^N, N = r + e,
    which fixes sum / p^r mod p^e exactly.  Summand k of summand_factors is
    sign * p^v * w^m * t/q, with w and the step a/b of t/q split free of p,
    so the sum is x/q over one unit denominator q (series.walk_total's
    recurrence), read with one inverse at each cut the walk passes; "both"
    reads the half truncation, a prefix of the full one, at its cut.  A
    summand of negative valuation raises PreconditionViolated.
    """
    p = _validate(family, m, p, r, variant, VARIANTS + ("both",))
    e = _RESIDUE_EXPONENT[family]
    cuts = {v: _upper(p, r, v) for v in VARIANTS if variant in (v, "both")}
    # (-1/2)_k/k! = -Cat(k-1)/2^(2k-1), so for odd p every summand is a
    # p-adic integer, and summand 0 is the unit -1: p^(r+e) is precision enough.
    modulus, pr, pe = p ** (r + e), p**r, p**e
    factors = itertools.islice(summand_factors(_SUMMAND[family]), max(cuts.values()) + 1)
    x, t, q, v_t, pairs = 0, 1, 1, 0, []
    for k, (sign, w, a, b) in enumerate(factors):
        v_w, w = split_power(w, p)
        v_a, a = split_power(a, p)
        v_b, b = split_power(b, p)
        v_t += v_a - v_b
        v = m * v_w + v_t
        if v < 0:
            raise PreconditionViolated(f"family {family}, m={m}, p={p}: summand {k} has v_p < 0")
        t, q = t * a % modulus, q * b % modulus
        x = (x * b + sign * pow(p, v, modulus) * pow(w, m, modulus) * t) % modulus
        for cut_variant, cut in cuts.items():  # half first, also where the cuts coincide
            if cut != k:
                continue
            total = x * pow(q, -1, modulus) % modulus
            if total % pr:
                raise ValuationTooLow(
                    f"family {family}, m={m}, p={p}, r={r} ({cut_variant}): v_p(sum) < r"
                )
            pairs.append((total // pr * _unit_sign(family, p, r) % pe, pe))
    if pairs[0] != pairs[-1]:
        raise InconsistentInput(f"half/full residues disagree at p={p}: {pairs[0]} vs {pairs[-1]}")
    return pairs[-1]


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

    Lifts descending-prime prefixes until the symmetric representative stops
    changing; the first stabilized value is the candidate.  When every
    residue comes from one constant of small magnitude this equals the plain
    full-pool crt_lift (the full lift of consistent residues IS that
    constant); when a lone prime disagrees, the stabilized value is still the
    constant the remaining primes pin down, and the re-check in
    discover_constant flags the disagreement instead of returning an
    artifact of the combined modulus.
    """
    acc: list[tuple[int, int]] = []
    prev = None
    for _, res, mod in sorted(evidence, reverse=True):
        acc.append((res, mod))
        x = crt_lift(acc)
        if prev is not None and x == prev:
            return x
        prev = x
    return prev


def discover_constant(
    family: str,
    m: int,
    primes: list[int],
    r: int = 1,
    variant: str = "both",
) -> DiscoveryResult:
    """Rediscover the family constant from per-prime residues via CRT.

    With variant="both" (the default) the residue is extracted from the half
    and full truncations, which must agree at every prime (see
    extract_residue); InconsistentInput identifies the offending prime
    otherwise.  Residues are gathered in ascending prime order, lifted to
    the symmetric representative (see _stabilized_lift), and `consistent`
    re-verifies that the lifted constant reproduces every residue.  The
    output is empirical: it carries no claim beyond the primes listed in
    the evidence.
    """
    if not primes:
        raise ValueError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    primes = [require_prime(p, "discovery", floor=5) for p in sorted(primes)]
    evidence = [(int(p), *extract_residue(family, m, p, r, variant)) for p in primes]
    constant = _stabilized_lift(evidence)
    consistent = all(constant % mod == res for _, res, mod in evidence)
    return DiscoveryResult(family, m, r, constant, tuple(evidence), consistent)
