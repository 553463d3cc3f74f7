"""Exact rational arithmetic core: p-adic valuation, congruence of rationals
modulo odd prime powers, modular reduction, and symmetric CRT lifting.

Rationals are plain `fractions.Fraction` values, which already enforce the
canonical form this package relies on: reduced, denominator positive, zero
held as 0/1.  A congruence a = b (mod p^t) between rationals means
v_p(a - b) >= t.  Everything here is pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

#: Valuation of zero.  Compares greater than every finite valuation.
INFINITE = math.inf

Rational = Fraction | int
Valuation = int | float


class InvalidPrime(ValueError):
    """The given modulus base is not an odd prime (or is outside a check's domain)."""


class PrimeTooSmall(InvalidPrime):
    """An odd prime below the domain floor of a check or claim (a check's
    informational mode bypasses it)."""


class NonInvertibleDenominator(ValueError):
    """reduce_mod needs a denominator coprime to p; callers must fall back to
    the exact-rational path when this is raised."""


class InconsistentInput(ValueError):
    """CRT input violates its contract (residue out of range, moduli not coprime)."""


class PreconditionViolated(ValueError):
    """An operation was called outside its stated domain."""


def is_odd_prime(p: int) -> bool:
    """Deterministic primality by trial division; even numbers (incl. 2) fail."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int, what: str, floor: int = 3) -> int:
    """The one primality guard: InvalidPrime unless p is an odd prime, and
    PrimeTooSmall if it is one below floor; what names the caller.  Returns
    p as a plain int."""
    if not is_odd_prime(p):
        raise InvalidPrime(f"{what} needs an odd prime, got {p}")
    if p < floor:
        raise PrimeTooSmall(f"{what} requires p >= {floor}, got {p}")
    return int(p)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Odd primes p with lo <= p <= hi, ascending, from an in-process sieve."""
    if hi < 3:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(max(lo, 3), hi + 1) if flags[p] and p % 2]


class PrimePower(NamedTuple("PrimePower", [("p", int), ("t", int)])):
    """A modulus p**t with p an odd prime and t >= 1."""

    __slots__ = ()

    def __new__(cls, p: int, t: int) -> PrimePower:
        require_prime(p, "a modulus base")
        if t < 1:
            raise ValueError(f"modulus exponent must be >= 1, got {t}")
        return super().__new__(cls, p, t)

    @property
    def modulus(self) -> int:
        return self.p**self.t


def split_power(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and u not divisible by p, for a nonzero
    integer n; u keeps the sign of n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def vp(x: Rational, p: int) -> Valuation:
    """p-adic valuation of a rational: v_p(numerator) - v_p(denominator).

    Returns INFINITE for x = 0, so "x = 0 (mod p^t)" is expressible for
    every t."""
    require_prime(p, "vp")
    if x == 0:
        return INFINITE
    return split_power(x.numerator, p)[0] - split_power(x.denominator, p)[0]


def congruent(a: Rational, b: Rational, m: PrimePower) -> bool:
    """True iff v_p(a - b) >= t, i.e. a = b (mod p^t) as rationals."""
    return vp(Fraction(a) - Fraction(b), m.p) >= m.t


def reduce_mod(a: Rational, m: PrimePower) -> int:
    """Residue of a rational in [0, p^t): numerator times the inverse of the
    denominator.  This is the fast modular path; it refuses denominators
    divisible by p (the exact path via vp/congruent handles those)."""
    a = Fraction(a)
    if a.denominator % m.p == 0:
        raise NonInvertibleDenominator(
            f"denominator {a.denominator} is divisible by {m.p}; use the exact path"
        )
    mod = m.modulus
    return a.numerator * pow(a.denominator, -1, mod) % mod


def crt_lift(residues: list[tuple[int, int]]) -> int:
    """Lift pairwise-coprime congruences to the symmetric representative.

    Given (residue, modulus) pairs, returns the unique integer x with
    x = r_i (mod m_i) for all i and x in (-M/2, M/2], M the product of the
    moduli.  Ties at exactly M/2 take the positive value.
    """
    if not residues:
        raise InconsistentInput("need at least one (residue, modulus) pair")
    x, mod = 0, 1
    for r, m in residues:
        if m < 1 or not 0 <= r < m:
            raise InconsistentInput(f"residue {r} out of range for modulus {m}")
        if math.gcd(mod, m) != 1:
            raise InconsistentInput(f"modulus {m} is not coprime to the others")
        x += mod * ((r - x) * pow(mod, -1, m) % m)
        mod *= m
    return x if 2 * x <= mod else x - mod


class CongruenceReport(NamedTuple):
    """Evidence for one congruence claim: lhs = rhs (mod p**required_valuation).

    achieved_valuation is always the exact v_p(lhs - rhs), recorded even on
    failure.  passed is None for informational rows (out-of-domain primes run
    for data only), in which case no pass/fail semantics attach.
    """

    check_id: str
    p: int
    lhs: Fraction
    rhs: Fraction
    required_valuation: int
    achieved_valuation: Valuation
    passed: bool | None
    m: int | None = None
    r: int | None = None
    k: int | None = None


def make_report(
    check_id: str,
    p: int,
    lhs: Rational,
    rhs: Rational,
    required: int,
    *,
    m: int | None = None,
    r: int | None = None,
    k: int | None = None,
    informational: bool = False,
    prime_checked: bool = False,
) -> CongruenceReport:
    """Build a report, computing the achieved valuation from exact rationals
    as v_p(ln rd - rn ld) - v_p(ld) - v_p(rd), lhs = ln/ld and rhs = rn/rd:
    no reduced difference, so no gcd of one.  v_p(ln rd - rn ld) is read
    off its residue mod p^8 unless p^8 divides it, as it rarely does.

    p must be an odd prime (InvalidPrime otherwise), tested here unless
    prime_checked says require_prime returned it; the report holds it as a
    plain int.  informational=True records no verdict (passed is None).
    """
    if not prime_checked:
        p = require_prime(p, "make_report")
    if type(lhs) is not Fraction or type(rhs) is not Fraction:  # Fraction(x) copies x slowly
        lhs, rhs = Fraction(lhs), Fraction(rhs)
    ld, rd = lhs.denominator, rhs.denominator
    cross = lhs.numerator * rd - rhs.numerator * ld
    achieved = INFINITE if cross == 0 else (split_power(cross % p**8 or cross, p)[0]
                                             - split_power(ld, p)[0] - split_power(rd, p)[0])
    passed = None if informational else achieved >= required
    return CongruenceReport(check_id, p, lhs, rhs, required, achieved, passed, m=m, r=r, k=k)
