"""Exact identities that no command runs, kept beside the tests that hold
them: the terminating 6F5(-1) <-> 3F2(1) transformation, summed by the
generic integer walk walk_total, the Gamma-ratio shift and the two-term
3F2(1) value; the lemma sums by a walk that builds each step from n and
k alone, the oracle of the lemma step table; discovery's stabilized CRT
lift by re-lifting every prefix, the oracle of the running lift; and the
residue walk that steps through every summand, the oracle of the block
walk.  Gamma
ratios are never evaluated as Gamma values: each reduces to a quotient of
rising factorials through Gamma(x+1) = x*Gamma(x)."""

import itertools
import math
from fractions import Fraction

from supercong import arith, conjectures
from supercong.lemma import _shifted_steps
from supercong.special import pochhammer


class ParameterSingularity(ValueError):
    """A denominator rising factorial vanishes for the given parameters."""


def _vanishes_within(base, count):
    # (x)_k = 0 for some 1 <= k <= count iff x is an integer in [-(count-1), 0]
    return base.denominator == 1 and -(count - 1) <= base.numerator <= 0


def walk_total(steps, x=0, p=1, q=1):
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


def lemma_walk_per_n(ms, n):
    """lemma._lemma_walk(ms, n) with each step's factors built from n and k
    alone, no table: (2k-3)^2 - (2n-1)^2 = 4(k-1-n)(n+k-2) and
    (2k)^2 - (2n-1)^2 = (2n+2k-1)(2k-2n+1)."""
    p0 = q = 1
    p1 = 0
    plain = [-1] * len(ms)
    weighted = [0] * len(ms)
    for k, (cd, c_d, d2) in zip(range(1, n + 1), _shifted_steps()):
        x = 4 * (k - 1 - n) * (n + k - 2)
        b = d2 * (2 * n + 2 * k - 1) * (2 * k - 2 * n + 1)
        p0, p1 = p0 * cd * x, (p1 * cd + p0 * c_d) * x
        q *= b
        for i, m in enumerate(ms):
            c = (4 * k - 1) ** m
            plain[i] = plain[i] * b + c * p0
            weighted[i] = weighted[i] * b + c * p1
    return [((x, q), (y, q)) for x, y in zip(plain, weighted)]


def prefix_relift(evidence):
    """conjectures._stabilized_lift by one arith.crt_lift of every
    descending-prime prefix, each from its first pair: the first value that
    two prefixes in a row lift to, or the full pool's lift."""
    acc = []
    prev = None
    for _, res, mod in sorted(evidence, reverse=True):
        acc.append((res, mod))
        x = arith.crt_lift(acc)
        if prev is not None and x == prev:
            return x
        prev = x
    return prev


def stepwise_residue_walk(family, ms, p, r, variant):
    """conjectures.residue_table by one walk through every summand up to the
    last cut, reading conjectures.summand_factors: (cells, sums), with sums
    mapping each cut's variant to every weight's sum mod p^(r+e), failed
    weights' included.  Unlike the table it does not stop once every weight
    has failed, which changes no cell: a failed cell keeps its first failure."""
    ms = sorted(set(ms))
    if not ms:
        raise ValueError("need at least one weight")
    p = conjectures._validate(family, ms, p, r, variant, conjectures.VARIANTS + ("both",))
    e = conjectures.FAMILIES[family].residue_exponent
    n, modulus, pr, pe = r + e, p ** (r + e), p**r, p**e
    p_powers = [p**v for v in range(n)]
    half_gaps = [(hi - lo) // 2 for lo, hi in zip(ms, ms[1:])]
    cuts = [(conjectures._upper(p, r, v), v) for v in conjectures.VARIANTS if variant in (v, "both")]
    unit_sign = conjectures._unit_sign(family, p, r)
    factors = enumerate(conjectures.summand_factors(conjectures.FAMILIES[family].summand))
    cells = [None] * len(ms)
    sums = {}
    xs, t, q, v_t, walked = [0] * len(ms), 1, 1, 0, 0
    for cut, cut_variant in cuts:
        for k, (sign, w, a, b) in itertools.islice(factors, cut + 1 - walked):
            v_w = 0
            if not w % p:
                v_w, w = arith.split_power(w, p)
            if not a % p:
                v_a, a = arith.split_power(a, p)
                v_t += v_a
            if not b % p:
                v_b, b = arith.split_power(b, p)
                v_t -= v_b
            t, q = t * a % modulus, q * b % modulus
            if not v_w and 0 <= v_t < n:
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
                    cells[i] = arith.PreconditionViolated(
                        f"family {family}, m={m}, p={p}: summand {k} has v_p < 0")
        walked = cut + 1
        inverse = pow(q, -1, modulus)
        sums[cut_variant] = [x * inverse % modulus for x in xs]
        for i, (m, cell, total) in enumerate(zip(ms, cells, sums[cut_variant])):
            if isinstance(cell, ValueError):
                continue
            if total % pr:
                cells[i] = conjectures.ValuationTooLow(
                    f"family {family}, m={m}, p={p}, r={r} ({cut_variant}): v_p(sum) < r"
                )
                continue
            read = (total // pr * unit_sign % pe, pe)
            cells[i] = read if cell in (None, read) else conjectures.InconsistentInput(
                f"half/full residues disagree at p={p}: {cell} vs {read}")
    return dict(zip(ms, cells)), sums


def stepwise_residue(family, m, p, r, variant):
    """conjectures.extract_residue by the stepwise walk: the one weight's
    cell, or its exception raised."""
    cell = stepwise_residue_walk(family, (m,), p, r, variant)[0][m]
    if isinstance(cell, ValueError):
        raise cell
    return cell
