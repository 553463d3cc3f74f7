"""Core exact-arithmetic layer: valuations, congruences, modular reduction,
symmetric CRT lifting."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supercong
from supercong import checks, conjectures
from supercong.arith import (
    INFINITE,
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
    require_prime,
    vp,
)

PRIMES = st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23])
RATIONALS = st.fractions(min_value=-500, max_value=500, max_denominator=360)
NONZERO_RATIONALS = RATIONALS.filter(lambda x: x != 0)


class TestPrimality:
    def test_primes_in_range(self):
        assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_in_range(3, 3) == [3]
        assert primes_in_range(24, 28) == []

    def test_two_is_not_odd_prime(self):
        assert not is_odd_prime(2)
        assert 2 not in primes_in_range(1, 10)

    def test_is_odd_prime(self):
        assert is_odd_prime(3) and is_odd_prime(199) and is_odd_prime(9973)
        assert not is_odd_prime(1) and not is_odd_prime(9) and not is_odd_prime(91)

    def test_prime_power_validation(self):
        assert PrimePower(3, 3).modulus == 27
        for bad in (2, 4, 9, 15):
            with pytest.raises(InvalidPrime):
                PrimePower(bad, 1)
        with pytest.raises(ValueError):
            PrimePower(5, 0)


class TestValuation:
    def test_zero_is_infinite(self):
        assert vp(0, 7) == INFINITE
        assert INFINITE > 10**9

    def test_examples(self):
        assert vp(Fraction(27, 8), 3) == 3
        # 15687 = 27 * 581 by trial division, 581 = 7 * 83
        assert 15687 == 27 * 581 and 581 % 3 != 0
        assert vp(Fraction(-15687, 512), 3) == 3
        assert vp(Fraction(1, 9), 3) == -2

    def test_rejects_composite_base(self):
        with pytest.raises(InvalidPrime):
            vp(Fraction(1, 2), 9)

    @given(NONZERO_RATIONALS, NONZERO_RATIONALS, PRIMES)
    def test_multiplicative(self, a, b, p):
        assert vp(a * b, p) == vp(a, p) + vp(b, p)

    @given(NONZERO_RATIONALS, NONZERO_RATIONALS, PRIMES)
    def test_ultrametric(self, a, b, p):
        va, vb = vp(a, p), vp(b, p)
        assert vp(a + b, p) >= min(va, vb)
        if va != vb:
            assert vp(a + b, p) == min(va, vb)


class TestCongruent:
    def test_examples(self):
        assert congruent(Fraction(3, 8), -3, PrimePower(3, 3))
        assert not congruent(Fraction(1, 2), Fraction(1, 2) + 5, PrimePower(5, 2))

    @given(RATIONALS, PRIMES, st.integers(min_value=1, max_value=4))
    def test_reflexive(self, a, p, t):
        assert congruent(a, a, PrimePower(p, t))

    @given(RATIONALS, RATIONALS, RATIONALS, PRIMES, st.integers(min_value=1, max_value=3))
    def test_equivalence_relation(self, a, b, c, p, t):
        m = PrimePower(p, t)
        assert congruent(a, b, m) == congruent(b, a, m)
        if congruent(a, b, m) and congruent(b, c, m):
            assert congruent(a, c, m)


class TestReduceMod:
    def test_examples(self):
        assert reduce_mod(Fraction(1, 2), PrimePower(3, 2)) == 5
        assert reduce_mod(7, PrimePower(5, 1)) == 2
        with pytest.raises(NonInvertibleDenominator):
            reduce_mod(Fraction(1, 5), PrimePower(5, 2))

    @given(RATIONALS, RATIONALS, PRIMES, st.integers(min_value=1, max_value=3))
    def test_cross_path_oracle(self, a, b, p, t):
        # wherever both sides reduce, the fast modular path must agree with
        # the exact valuation path
        m = PrimePower(p, t)
        if Fraction(a).denominator % p == 0 or Fraction(b).denominator % p == 0:
            return
        assert congruent(a, b, m) == (reduce_mod(a, m) == reduce_mod(b, m))


class TestCrtLift:
    def test_examples(self):
        assert crt_lift([(2, 3), (3, 5)]) == -7
        assert crt_lift([(0, 9), (0, 25)]) == 0
        assert crt_lift([(24, 25)]) == -1

    def test_tie_takes_positive(self):
        # representative range is (-M/2, M/2]; for even M the tie M/2 stays
        assert crt_lift([(2, 4)]) == 2
        assert crt_lift([(3, 4)]) == -1

    def test_out_of_range_residue(self):
        with pytest.raises(InconsistentInput):
            crt_lift([(5, 3)])
        with pytest.raises(InconsistentInput):
            crt_lift([(-1, 3)])

    def test_non_coprime_moduli(self):
        with pytest.raises(InconsistentInput):
            crt_lift([(1, 6), (2, 15)])

    def test_empty_input(self):
        with pytest.raises(InconsistentInput):
            crt_lift([])

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.sets(st.sampled_from([5, 7, 11, 13, 17, 19]), min_size=3, max_size=5),
           st.integers(min_value=1, max_value=2))
    def test_roundtrip(self, x, primes, t):
        moduli = [p**t for p in sorted(primes)]
        M = math.prod(moduli)
        if not (-M // 2 < x <= M // 2):
            return
        lifted = crt_lift([(x % m, m) for m in moduli])
        assert lifted == x
        for m in moduli:
            assert lifted % m == x % m

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from([27, 25, 49, 121, 169])),
                    min_size=1, max_size=4, unique_by=lambda rm: rm[1]))
    def test_lift_satisfies_all_congruences(self, pairs):
        pairs = [(r % m, m) for r, m in pairs]
        x = crt_lift(pairs)
        M = math.prod(m for _, m in pairs)
        assert 2 * abs(x) <= M and (x > -M / 2)
        for r, m in pairs:
            assert x % m == r


@st.composite
def report_sides(draw):
    """(p, lhs, rhs): ints or rationals with p in the numerator or the
    denominator, rhs equal to lhs, unrelated to it, or lhs plus a multiple
    of a power of p."""
    p = draw(PRIMES)

    def side():
        x = draw(st.one_of(st.integers(-10**6, 10**6), RATIONALS))
        e = draw(st.integers(-4, 4))
        return x * p**e if e >= 0 else x / Fraction(p) ** -e  # an int stays an int

    lhs, kind = side(), draw(st.sampled_from(("equal", "free", "close")))
    if kind == "equal":
        return p, lhs, lhs
    return p, lhs, side() if kind == "free" else lhs + side() * p ** draw(st.integers(0, 8))


class TestReports:
    @settings(max_examples=150)
    @given(sides=report_sides(), required=st.integers(0, 8), informational=st.booleans())
    @example(sides=(5, Fraction(3, 25), Fraction(3, 25)), required=4, informational=False)
    @example(sides=(7, 49, Fraction(1, 7)), required=1, informational=False)
    @example(sides=(3, Fraction(2, 27), Fraction(5, 27)), required=0, informational=True)
    @example(sides=(11, 7, 7 + 11**5), required=5, informational=False)
    def test_valuation_is_that_of_the_reduced_difference(self, sides, required, informational):
        p, lhs, rhs = sides
        rep = make_report("t", p, lhs, rhs, required, informational=informational)
        assert rep.achieved_valuation == vp(Fraction(lhs) - Fraction(rhs), p)
        assert rep.passed == (None if informational else rep.achieved_valuation >= required)
        assert (rep.lhs, rep.rhs) == (lhs, rhs)
        assert type(rep.lhs) is type(rep.rhs) is Fraction
        assert make_report("t", p, lhs, rhs, required, informational=informational,
                           prime_checked=True) == rep

    def test_pass_iff_valuation_reached(self):
        rep = make_report("demo", 5, Fraction(1, 2), Fraction(1, 2) + 125, 3)
        assert rep.achieved_valuation == 3 and rep.passed
        rep = make_report("demo", 5, Fraction(1, 2), Fraction(1, 2) + 25, 3)
        assert rep.achieved_valuation == 2 and not rep.passed

    def test_equal_sides_have_infinite_valuation(self):
        rep = make_report("demo", 7, Fraction(3, 4), Fraction(3, 4), 4)
        assert rep.achieved_valuation == INFINITE and rep.passed

    def test_informational_has_no_verdict(self):
        rep = make_report("demo", 3, 1, 4, 2, informational=True)
        assert rep.passed is None
        assert rep.achieved_valuation == 1

    @pytest.mark.parametrize("p", [9, 15, 1, 2, 4])
    def test_rejects_a_p_that_is_not_an_odd_prime(self, p):
        with pytest.raises(InvalidPrime):
            make_report("x", p, 0, 27, 2)


class TestCheckedPrime:
    """require_prime tests every p it is given and returns it as a plain
    int, and every report and evidence row holds that int."""

    def test_plain_int_is_tested_once(self, primality_tests):
        assert vp(Fraction(49, 3), 7) == 2
        assert primality_tests == [7]

    def test_a_check_tests_its_prime_once(self, primality_tests):
        for check_id in checks.DEFAULT_CHECK_IDS:
            primality_tests.clear()
            checks.check(check_id, 13)
            assert primality_tests == [13], check_id
        primality_tests.clear()
        checks.check("thm1", 3, informational=True)
        assert primality_tests == [3]

    def test_checked_prime_still_meets_the_floor(self):
        p = require_prime(31, "t")
        with pytest.raises(PrimeTooSmall, match="t requires p >= 37, got 31"):
            require_prime(p, "t", floor=37)

    def test_no_checked_prime_escapes(self):
        reports = [
            make_report("t", require_prime(7, "t"), Fraction(1, 3), 50, 2, k=1),
            checks.check("thm1", 5),
            checks.check("wolstenholme", 5),
            conjectures.verify_conjecture("C", 5, 7, 1, 23, "half"),
        ]
        assert [type(rep.p) for rep in reports] == [int] * 4
        evidence = conjectures.discover_constant("C", 5, [7, 11]).evidence
        assert [type(p) for p, _, _ in evidence] == [int, int]

    def test_report_survives_pickle(self):
        for rep in (checks.check("thm1", 5), checks.check("lemma_sun3", 31)):
            back = pickle.loads(pickle.dumps(rep))
            assert back == rep and type(back.p) is int


class TestRequirePrime:
    """Every layer validates p through arith.require_prime, so a p below a
    caller's floor raises PrimeTooSmall, which except InvalidPrime catches."""

    def test_hierarchy_and_reexports(self):
        assert issubclass(PrimeTooSmall, InvalidPrime)
        assert checks.PrimeTooSmall is supercong.PrimeTooSmall is PrimeTooSmall
        require_prime(3, "x")
        require_prime(5, "x", floor=5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: require_prime(3, "x", floor=5),
            lambda: checks.check("thm1", 3),
            lambda: checks.check_lemma_sun3(3, 1),
            lambda: checks.check("wolstenholme", 3),
            lambda: checks.check("morley", 3),
            lambda: conjectures.discover_constant("C", 1, [3, 5, 7]),
        ],
    )
    def test_below_floor_is_prime_too_small(self, call):
        with pytest.raises(PrimeTooSmall, match="requires p >= 5, got 3"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: require_prime(9, "x"),
            lambda: vp(3, 9),
            lambda: PrimePower(2, 1),
            lambda: make_report("x", 15, 0, 1, 1),
            lambda: checks.check("thm2", 9),
            lambda: checks.check_ratio_expansion(1, 0, 2),
            lambda: checks.check("wolstenholme", 9),
            lambda: conjectures.conj_sum("C", 1, 9, 1, "half"),
            lambda: conjectures.extract_residue("D", 1, 4, 1, "both"),
            lambda: conjectures.discover_constant("C", 1, [5, 9]),
        ],
    )
    def test_non_prime_is_invalid_prime_only(self, call):
        with pytest.raises(InvalidPrime, match="needs an odd prime, got") as exc:
            call()
        assert type(exc.value) is InvalidPrime
