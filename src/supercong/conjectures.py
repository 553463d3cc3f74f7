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

Terms with index k >= p (which occur for r >= 2 and in full variants) can
carry p-dividing denominator factors.  conj_sum and verify_conjecture
evaluate the sums exactly.  extract_residue only needs the sum mod
p^(r+e), so it works in fixed-precision p-adic arithmetic instead: each
summand is p^v times a p-adic unit, and the units are kept mod a power of p
fixed by the least v, which keeps the residue exact (conj_sum is its oracle).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .arith import (
    CongruenceReport,
    InconsistentInput,
    crt_lift,
    make_report,
    require_prime,
    split_power,
)
from .series import SumSpec, partial_sum, summand_factors

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


def _split_summands(
    family: str, m: int, p: int, count: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """The first count summands of the family as (v, sign, w, a, b): summand
    k is sign * p^v * w^m * A_k with A_k = A_(k-1) * a/b, where w, a and b
    are the p-free parts of the factors of summand_factors."""
    v_u = 0
    for sign, w, a, b in itertools.islice(summand_factors(_SUMMAND[family]), count):
        v_w, w = split_power(w, p)
        v_a, a = split_power(a, p)
        v_b, b = split_power(b, p)
        v_u += v_a - v_b
        yield m * v_w + v_u, sign, w, a, b


def extract_residue(family: str, m: int, p: int, r: int, variant: str) -> tuple[int, int]:
    """Invert the claimed congruence for the constant at one prime.

    Returns (residue, modulus) with residue = (sum * sign / p^r) mod p^e,
    e = 2 for family C and 3 for family D.  Requires v_p(sum) >= r.
    variant "both" reads the half and the full truncation and raises
    InconsistentInput unless their residues agree.

    The sum is never formed exactly.  A first pass finds vmin, the least
    valuation of a summand (at most 0, the valuation of summand 0); a
    second computes sum / p^vmin with every unit kept mod p^N,
    N = r + e - vmin, which fixes sum / p^r mod p^e exactly.  The half
    range is a prefix of the full one and its least valuation is no
    smaller, so "both" walks the full range once and reads the half
    truncation off the same running sum at its cut.
    """
    p = _validate(family, m, p, r, variant, VARIANTS + ("both",))
    e = _RESIDUE_EXPONENT[family]
    cuts = {v: _upper(p, r, v) for v in VARIANTS if variant in (v, "both")}
    count = max(cuts.values()) + 1
    vmin = min(v for v, *_ in _split_summands(family, m, p, count))
    shift = r - vmin
    modulus = p ** (shift + e)
    summands = _split_summands(family, m, p, count)
    total, units, done, pe, pairs = 0, 1, 0, p**e, []
    for cut_variant, cut in cuts.items():  # half first: its cut is the smaller
        for v, sign, w, a, b in itertools.islice(summands, cut + 1 - done):
            units = units * a * pow(b, -1, modulus) % modulus
            total += sign * pow(p, v - vmin, modulus) * pow(w, m, modulus) * units
        done, total = cut + 1, total % modulus
        if total % p**shift:
            raise ValuationTooLow(
                f"family {family}, m={m}, p={p}, r={r} ({cut_variant}): v_p(sum) < r"
            )
        pairs.append((total // p**shift * _unit_sign(family, p, r) % pe, pe))
    if pairs[0] != pairs[-1]:
        raise InconsistentInput(f"half/full residues disagree at p={p}: {pairs[0]} vs {pairs[-1]}")
    return pairs[-1]


@dataclass(frozen=True)
class DiscoveryResult:
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
