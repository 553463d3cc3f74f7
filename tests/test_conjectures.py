"""Conjectured constant families: sums, verification, residue extraction,
CRT discovery, and the one documented counterexample cell."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import prefix_relift
from supercong import arith, conjectures, families, series
from supercong.arith import InvalidPrime, primes_in_range, vp
from supercong.checks import check
from supercong.conjectures import (
    DiscoveryResult,
    conj_sum,
    discover_constant,
    extract_residue,
    verify_conjecture,
)

PRIMES_SMALL = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestConjSum:
    def test_examples(self):
        assert conj_sum("C", 1, 3, 1, "half") == Fraction(-327, 512)
        assert conj_sum("C", 1, 5, 1, "half") == Fraction(-2605, 4096)
        assert vp(conj_sum("D", 3, 5, 1, "half"), 5) >= 4

    def test_half_sum_matches_thm1_lhs(self):
        assert conj_sum("C", 1, 5, 1, "half") == check("thm1", 5).lhs

    def test_upper_limits(self):
        # half: (p^r+1)/2 + 1 terms; full: p^r terms; they differ
        assert conj_sum("C", 1, 5, 1, "half") != conj_sum("C", 1, 5, 1, "full")

    def test_validation(self):
        with pytest.raises(ValueError):
            conj_sum("E", 1, 5, 1, "half")
        with pytest.raises(ValueError):
            conj_sum("C", 2, 5, 1, "half")
        with pytest.raises(ValueError):
            conj_sum("C", 1, 5, 0, "half")
        with pytest.raises(ValueError):
            conj_sum("C", 1, 5, 1, "quarter")
        with pytest.raises(InvalidPrime):
            conj_sum("C", 1, 9, 1, "half")


class TestVerifyConjecture:
    def test_family_c_base_case_p3(self):
        rep = verify_conjecture("C", 1, 3, 1, -1, "half")
        assert rep.lhs - rep.rhs == Fraction(-1863, 512)  # -3^4 * 23 / 512
        assert rep.achieved_valuation == 4 >= rep.required_valuation == 3
        assert rep.passed

    def test_paper_constants_spot(self):
        assert verify_conjecture("C", 5, 7, 1, 23, "half").passed
        assert verify_conjecture("D", 5, 5, 1, 16, "half").passed

    def test_sign_convention_family_c(self):
        # r even kills the sign; r odd keeps (-1)^((p-1)/2)
        rep = verify_conjecture("C", 1, 3, 1, -1, "half")
        assert rep.rhs == 3  # (-1) * 3 * (-1)
        rep = verify_conjecture("C", 1, 3, 2, -1, "half")
        assert rep.rhs == -9

    def test_required_valuation_by_family(self):
        assert verify_conjecture("C", 1, 5, 1, -1, "half").required_valuation == 3
        assert verify_conjecture("D", 1, 5, 1, 0, "half").required_valuation == 4
        assert verify_conjecture("D", 1, 5, 2, 0, "full").required_valuation == 5


class TestExtractResidue:
    def test_examples(self):
        assert extract_residue("C", 1, 5, 1, "half") == (24, 25)  # -1 mod 25
        assert extract_residue("D", 1, 7, 1, "half") == (0, 343)
        assert extract_residue("C", 3, 11, 1, "half") == (3, 121)

    def test_half_and_full_agree(self):
        for family, m in (("C", 1), ("C", 5), ("D", 5), ("D", 13)):
            for p in (5, 7, 11):
                assert extract_residue(family, m, p, 1, "half") == extract_residue(
                    family, m, p, 1, "full"
                )


class TestDiscovery:
    def test_family_c_constants(self):
        for m, want in ((1, -1), (3, 3), (5, 23), (7, -5)):
            res = discover_constant("C", m, PRIMES_SMALL)
            assert isinstance(res, DiscoveryResult)
            assert res.constant == want and res.consistent

    def test_family_d_constants(self):
        for m, want in ((1, 0), (3, 0), (5, 16), (7, 80), (9, 192)):
            res = discover_constant("D", m, PRIMES_SMALL)
            assert res.constant == want and res.consistent

    def test_larger_constants_need_more_primes(self):
        res = discover_constant("C", 11, PRIMES_SMALL)
        assert res.constant == -96973 and res.consistent
        res = discover_constant("D", 13, PRIMES_SMALL)
        assert res.constant == -3472 and res.consistent

    def test_stability_under_more_primes(self):
        base = discover_constant("C", 3, [5, 7, 11, 13])
        more = discover_constant("C", 3, PRIMES_SMALL)
        assert base.constant == more.constant == 3

    def test_evidence_matches_constant_when_consistent(self):
        res = discover_constant("C", 5, [5, 7, 11, 13, 17])
        assert res.consistent
        for p, residue, modulus in res.evidence:
            assert res.constant % modulus == residue

    def test_single_variant_runs(self):
        assert discover_constant("C", 1, [5, 7, 11], variant="half").constant == -1
        assert discover_constant("C", 1, [5, 7, 11], variant="full").constant == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            discover_constant("C", 1, [])
        with pytest.raises(ValueError):
            discover_constant("C", 1, [5, 5, 7])
        with pytest.raises(InvalidPrime):
            discover_constant("C", 1, [3, 5, 7])
        with pytest.raises(InvalidPrime):
            discover_constant("C", 1, [5, 9])
        with pytest.raises(ValueError):
            discover_constant("C", 1, [5, 7], variant="quarter")

    def test_verify_with_discovered_constants(self):
        for family, m in (("C", 3), ("D", 5)):
            res = discover_constant(family, m, [5, 7, 11, 13])
            for p in (5, 7, 11):
                for variant in ("half", "full"):
                    assert verify_conjecture(family, m, p, 1, res.constant, variant).passed


def _lifted(lift, evidence):
    """lift(evidence), or the type and text of the InconsistentInput it
    raises, with the length of each crt_lift call it made on the way."""
    calls = []

    def counting(pairs, _real=arith.crt_lift):
        calls.append(len(pairs))
        return _real(pairs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "crt_lift", counting)
        patch.setattr(conjectures, "crt_lift", counting)
        try:
            out = lift(evidence)
        except arith.InconsistentInput as exc:
            out = (type(exc), str(exc))
    return out, calls


@st.composite
def lift_evidence(draw):
    """(p, residue, modulus) at distinct primes of the residues of one
    integer c mod p^e, some of them perturbed, out of range, or taken mod a
    power of one of the primes, which another pair's modulus may share."""
    primes = draw(st.lists(st.sampled_from(primes_in_range(5, 60)), min_size=1, max_size=10,
                           unique=True))
    c = draw(st.integers(-10**15, 10**15))
    evidence = []
    for p in primes:
        e = draw(st.integers(1, 3))
        mod = p**e
        fault = draw(st.sampled_from((None, None, None, "perturbed", "out of range", "shared")))
        if fault == "shared":
            mod = draw(st.sampled_from(primes)) ** e
        res = c % mod
        if fault == "perturbed":
            res = (res + draw(st.integers(1, mod - 1))) % mod
        elif fault == "out of range":
            res, mod = draw(st.sampled_from(((-1, mod), (mod, mod), (res, 0), (0, -mod))))
        evidence.append((p, res, mod))
    return evidence


class TestRunningLift:
    """_stabilized_lift extends one running lift by a two-pair crt_lift
    per prime; prefix_relift, which lifts every prefix from its first pair,
    is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(lift_evidence())
    @example([(5, 30, 125), (7, 1, 343)])
    @example([(5, 2, 25), (7, 3, 25)])
    @example([(5, 125, 125)])
    def test_equals_the_prefix_relift_and_fails_at_the_same_prime(self, evidence):
        (got, calls), (want, oracle_calls) = (_lifted(lift, evidence)
                                              for lift in (conjectures._stabilized_lift,
                                                           prefix_relift))
        assert got == want
        assert len(calls) == len(oracle_calls)  # one call per prime consumed, either way

    @pytest.mark.parametrize("family,m", [("C", 9), ("C", 11), ("D", 15), ("D", 21)])
    def test_one_crt_lift_of_at_most_two_pairs_per_prime_consumed(self, family, m):
        """The benchmark tracer's conjectures.lift_primes counts the
        crt_lift calls under discover_constant: still the primes consumed."""
        evidence = discover_constant(family, m, PRIMES_SMALL).evidence
        (_, calls), (_, oracle_calls) = (_lifted(lift, evidence)
                                         for lift in (conjectures._stabilized_lift, prefix_relift))
        assert len(calls) == len(oracle_calls) >= 3
        assert max(calls) == 2


class TestCounterexampleFamilyD15:
    """The one cell of the grid where the published constant fails: m = 15 at
    p = 5, r = 1.  Everything here is the verified true state of the world;
    see the r = 2 tests below showing the anomaly does not extend there."""

    def test_residue_disagrees_with_constant(self):
        res_half = extract_residue("D", 15, 5, 1, "half")
        res_full = extract_residue("D", 15, 5, 1, "full")
        assert res_half == res_full == (30, 125)  # variants agree with each other
        assert 138480 % 125 == 105  # ... but not with the published constant

    def test_congruence_fails_at_valuation_3(self):
        for variant in ("half", "full"):
            rep = verify_conjecture("D", 15, 5, 1, 138480, variant)
            assert rep.passed is False
            assert rep.achieved_valuation == 3  # exactly one short of r + 3

    def test_discovery_still_pins_the_published_value(self):
        res = discover_constant("D", 15, PRIMES_SMALL)
        assert res.constant == 138480
        assert res.consistent is False
        disagreeing = [p for p, residue, mod in res.evidence if res.constant % mod != residue]
        assert disagreeing == [5]

    def test_other_primes_are_clean(self):
        res = discover_constant("D", 15, [7, 11, 13, 17, 19, 23])
        assert res.constant == 138480 and res.consistent

    def test_every_other_cell_is_clean_at_small_primes(self):
        for m, want in ((1, 0), (3, 0), (5, 16), (7, 80), (9, 192), (11, 640), (13, -3472)):
            assert verify_conjecture("D", m, 5, 1, want, "half").passed

    def test_anomaly_does_not_extend_to_r2(self):
        for variant in ("half", "full"):
            assert verify_conjecture("D", 15, 5, 2, 138480, variant).passed


@pytest.mark.parametrize(
    "m,constant,disagreeing",
    [(19, 421390400, [5, 7]), (21, -36584338320, [7]), (23, 4086574673200, [7])],
)
class TestCounterexamplesBeyondReadmeWeights:
    """The same pattern as m = 15 at the next weights: over primes 5..199 at
    r = 1 the lifted constant reproduces every residue except at the listed
    small primes, and at r = 2 (5..61) it reproduces all of them."""

    def test_discovery_pins_the_constant_and_the_disagreeing_primes(self, m, constant, disagreeing):
        res = discover_constant("D", m, primes_in_range(5, 199))
        assert (res.constant, res.consistent) == (constant, False)
        assert [p for p, residue, mod in res.evidence if constant % mod != residue] == disagreeing

    def test_congruence_fails_exactly_at_the_disagreeing_primes(self, m, constant, disagreeing):
        for p in (5, 7, 11):
            for variant in ("half", "full"):
                rep = verify_conjecture("D", m, p, 1, constant, variant)
                assert rep.passed is (p not in disagreeing), (p, variant)

    def test_anomaly_does_not_extend_to_r2(self, m, constant, disagreeing):
        res = discover_constant("D", m, primes_in_range(5, 61), r=2)
        assert (res.constant, res.consistent) == (constant, True)


MAP_PRIMES = primes_in_range(5, 23)
MAP_WEIGHTS = range(1, 60, 2)


class TestFamilyDFailureMap:
    """Where family D's congruence fails at r = 1, as observed over odd
    m <= 59 and p in 5..23 (an observed pattern, not a theorem): no cell with
    m < 2p + 5 fails, every failing cell achieves valuation 3 where 4 is
    claimed, at p = 5 exactly the weights m = 15 or 19 (mod 20) fail, and
    family C never fails.  At r = 2 every residue matches the r = 1
    constant.  The constants are lifted from primes 29..199, so no mapped
    prime is part of its own evidence."""

    @pytest.fixture(scope="class")
    def constants(self):
        found = {}
        for family in ("C", "D"):
            for m in MAP_WEIGHTS:
                res = discover_constant(family, m, primes_in_range(29, 199))
                pool = math.prod(mod for _, _, mod in res.evidence)
                # consistent, and the symmetric lift is far from ambiguous
                assert res.consistent and pool >= 2 * abs(res.constant) * 10**67, (family, m)
                found[family, m] = res.constant
        return found

    @pytest.fixture(scope="class")
    def failing(self, constants):
        """The (family, m, p, variant) cells at r = 1 that fail, by report."""
        return {
            (family, m, p, variant): rep
            for (family, m), constant in constants.items()
            for p in MAP_PRIMES
            for variant in ("half", "full")
            if not (rep := verify_conjecture(family, m, p, 1, constant, variant)).passed
        }

    def test_no_d_cell_below_2p_plus_5_fails(self, failing):
        assert failing and all(m >= 2 * p + 5 for family, m, p, _ in failing if family == "D")

    def test_every_failing_d_cell_misses_by_exactly_one_power(self, failing):
        assert {rep.achieved_valuation for rep in failing.values()} == {3}

    def test_at_p5_the_failing_weights_are_15_or_19_mod_20(self, failing):
        for variant in ("half", "full"):
            weights = sorted(m for fam, m, p, v in failing if (fam, p, v) == ("D", 5, variant))
            assert weights == [15, 19, 35, 39, 55, 59]

    def test_every_c_cell_passes(self, failing):
        assert {family for family, *_ in failing} == {"D"}

    def test_depth_two_residues_match_the_depth_one_constants(self, constants):
        for (family, m), constant in constants.items():
            if m > 39:
                continue
            for p in MAP_PRIMES:
                residue, modulus = extract_residue(family, m, p, 2, "both")
                assert constant % modulus == residue, (family, m, p)


class TestDepthTwo:
    def test_r2_spot_checks(self):
        assert verify_conjecture("C", 1, 5, 2, -1, "half").passed
        assert verify_conjecture("C", 3, 7, 2, 3, "full").passed
        assert verify_conjecture("D", 5, 7, 2, 16, "half").passed


class TestSummandFamilies:
    """The summand families are defined once, in `families`, and the domain
    error in `arith`; series and conjectures bind the same objects."""

    # (-1)^((p-1)r/2) for C, whose A summands alternate; +1 for D, whose B summands do not
    @pytest.mark.parametrize("p,r,c_sign", [
        (5, 1, 1), (5, 2, 1), (5, 3, 1), (13, 1, 1), (13, 2, 1), (13, 3, 1),
        (7, 1, -1), (7, 2, 1), (7, 3, -1), (11, 1, -1), (11, 2, 1), (11, 3, -1),
    ])
    def test_unit_sign_follows_the_summand_family(self, p, r, c_sign):
        assert (conjectures._unit_sign("C", p, r), conjectures._unit_sign("D", p, r)) == (c_sign, 1)

    def test_one_error_class_and_one_factor_stream(self):
        assert series.PreconditionViolated is conjectures.PreconditionViolated
        assert conjectures.PreconditionViolated is arith.PreconditionViolated
        assert series.summand_factors is conjectures.summand_factors is families.summand_factors
        assert series._FAMILY is families._FAMILY

    def test_the_series_names_conjectures_bound_resolve_from_series(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            conjectures.no_such_name
