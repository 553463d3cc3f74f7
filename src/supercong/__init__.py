"""Exact-arithmetic toolkit for truncated hypergeometric sum congruences.

Everything runs on arbitrary-precision rationals (`fractions.Fraction`): the
package evaluates the summand families exactly, checks each named congruence
by computing the exact p-adic valuation of lhs - rhs, verifies the exact
telescoping and closed-form identities behind them, and rediscovers the
families' integer constants from per-prime residues via symmetric CRT
lifting.  No floating point anywhere.
"""

from .arith import (
    INFINITE,
    CongruenceReport,
    InconsistentInput,
    InvalidPrime,
    NonInvertibleDenominator,
    PrimePower,
    PrimeTooSmall,
    congruent,
    crt_lift,
    is_odd_prime,
    make_report,
    primes_in_range,
    reduce_mod,
    vp,
)
from .checks import (
    CHECKS,
    DEFAULT_CHECK_IDS,
    IndexOutOfRange,
    check,
    check_lemma_f,
    check_lemma_g,
    check_lemma_sun3,
    check_ratio_expansion,
    table1_f,
    table1_g,
    table1_g_parts,
)
from .conjectures import (
    DiscoveryResult,
    ValuationTooLow,
    conj_sum,
    discover_constant,
    extract_residue,
    residue_table,
    verify_conjecture,
)
from .series import (
    PreconditionViolated,
    SumSpec,
    boundary_closed_form,
    check_boundary_closed_form,
    check_telescoped_identity,
    check_wz_relation,
    partial_sum,
    pochhammer_ratio_product,
    term_value,
    wz_F,
    wz_G,
)
from .special import (
    euler_number,
    h2,
    inv_pochhammer_int,
    pochhammer,
)

__version__ = "0.1.0"
