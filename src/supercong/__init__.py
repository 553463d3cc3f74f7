"""Exact-arithmetic toolkit for truncated hypergeometric sum congruences.

Everything runs on arbitrary-precision rationals (`fractions.Fraction`): the
package evaluates the summand families exactly, checks each named congruence
by computing the exact p-adic valuation of lhs - rhs, verifies the exact
telescoping and closed-form identities behind them, and rediscovers the
families' integer constants from per-prime residues via symmetric CRT
lifting.  No floating point anywhere.

Importing the package registers each layer module in sys.modules without
running it; a layer runs on the first read of one of its attributes, so a
CLI command runs only the layers it uses.  The names below resolve from
their layers on first use.
"""

import importlib.util
import sys

# The names the package re-exports, by the layer that defines them.
_EXPORTS = {
    "arith": (
        "INFINITE", "CongruenceReport", "InconsistentInput", "InvalidPrime",
        "NonInvertibleDenominator", "PreconditionViolated", "PrimePower", "PrimeTooSmall",
        "congruent", "crt_lift", "is_odd_prime", "make_report", "primes_in_range", "reduce_mod", "vp",
    ),
    "families": (),  # registered for the layers that walk the summands; exports no name
    "special": ("euler_number", "h2", "inv_pochhammer_int", "pochhammer"),
    "series": (
        "SumSpec", "boundary_closed_form", "check_boundary_closed_form",
        "check_telescoped_identity", "check_wz_relation", "partial_sum",
        "pochhammer_ratio_product", "term_value", "wz_F", "wz_G",
    ),
    "lemma": ("check_lemma_f", "check_lemma_g", "table1_f", "table1_g", "table1_g_parts"),
    "checks": (
        "CHECKS", "DEFAULT_CHECK_IDS", "IndexOutOfRange", "check", "check_lemma_sun3",
        "check_ratio_expansion",
    ),
    "conjectures": (
        "DiscoveryResult", "ValuationTooLow", "conj_sum", "discover_constant", "extract_residue",
        "residue_table", "verify_conjecture",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = (*_EXPORTS, *_HOME)
__version__ = "0.1.0"


def _register(layer: str):
    """The layer module, in sys.modules and bound here, to run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
