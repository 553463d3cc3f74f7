"""The fixed-precision p-adic `extract_residue` against the exact path it
replaced (`conj_sum`, `vp`, `reduce_mod`), `residue_table`'s one walk for
several weights against both, and constant discovery at depth 2 and 3,
which the p-adic path makes cheap."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import conjectures, series
from supercong.arith import PrimePower, primes_in_range, reduce_mod, vp
from supercong.conjectures import (
    VARIANTS,
    InconsistentInput,
    ValuationTooLow,
    conj_sum,
    discover_constant,
    extract_residue,
    residue_table,
)
from supercong.series import PreconditionViolated

C_CONSTANTS = {1: -1, 3: 3, 5: 23, 7: -5, 9: 1647, 11: -96973}
D_CONSTANTS = {1: 0, 3: 0, 5: 16, 7: 80, 9: 192, 11: 640, 13: -3472, 15: 138480}


def exact_residue(family, m, p, r, variant):
    """The residue from the exact sum, as extract_residue computed it before."""
    s = conj_sum(family, m, p, r, variant)
    if vp(s, p) < r:
        raise ValuationTooLow(
            f"family {family}, m={m}, p={p}, r={r} ({variant}): v_p(sum) < r"
        )
    pp = PrimePower(p, conjectures.FAMILIES[family].residue_exponent)
    x = s * conjectures._unit_sign(family, p, r) / Fraction(p) ** r
    return reduce_mod(x, pp), pp.modulus


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from("CD"),
    m=st.sampled_from(range(1, 16, 2)),
    p=st.sampled_from(primes_in_range(5, 37)),
    r=st.sampled_from((1, 2)),
    variant=st.sampled_from(("half", "full")),
)
def test_padic_residue_matches_exact(family, m, p, r, variant):
    assert outcome(extract_residue, family, m, p, r, variant) == outcome(
        exact_residue, family, m, p, r, variant
    )


@pytest.mark.parametrize(
    "family,m,p,r,variant",
    [
        ("D", 15, 5, 1, "half"),
        ("D", 15, 5, 1, "full"),
        ("C", 1, 5, 3, "half"),
        ("C", 11, 5, 3, "full"),
        ("D", 15, 5, 3, "full"),
        ("C", 9, 7, 3, "half"),
        ("D", 13, 7, 3, "full"),
    ],
)
def test_pinned_cells_match_exact(family, m, p, r, variant):
    assert extract_residue(family, m, p, r, variant) == exact_residue(family, m, p, r, variant)


def test_d15_anomaly_residue():
    assert extract_residue("D", 15, 5, 1, "half") == extract_residue("D", 15, 5, 1, "full") == (30, 125)


def walks_integral_summands(family, m, p, r, variant):
    """Whether every summand extract_residue may walk, up to the largest cut
    of the variant, has v_p >= 0: the exact summands under the current
    summand_factors, not the walk's own split."""
    count = max(conjectures._upper(p, r, v) for v in VARIANTS if variant in (v, "both")) + 1
    walked = itertools.islice(series.summands(conjectures.FAMILIES[family].summand, m), count)
    return all(vp(s, p) >= 0 for s in walked)


def assert_exact_or_refused(got, want, integral):
    """The p-adic outcome equals the exact one on p-integral summands; on any
    other stream it may refuse with PreconditionViolated, but it never gives a
    different residue."""
    if integral:
        assert got == want
    else:
        assert got == want or got[0] is PreconditionViolated


factor = st.builds(
    lambda sign, unit, v: sign * unit * 5**v,
    st.sampled_from((1, -1)), st.integers(1, 40), st.integers(0, 3),
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.tuples(st.sampled_from((1, -1)), factor, factor, factor), min_size=1, max_size=5),
    r=st.sampled_from((1, 2)),
    variant=st.sampled_from(("half", "full")),
)
def test_arbitrary_factor_streams_match_exact(steps, r, variant):
    """Both paths read the summands from series.summand_factors.  Random
    streams of factors with powers of p in w, a and b reach what the two
    families never do: sums of valuation below r, which must raise the same
    ValuationTooLow on both paths, and summands of negative valuation, which
    the p-adic path may refuse."""

    def fake_factors(family):
        return itertools.chain([(1, 1, 1, 1)], itertools.cycle(steps))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "summand_factors", fake_factors)
        mp.setattr(conjectures, "summand_factors", fake_factors)
        for family, m in (("C", 1), ("D", 3)):
            assert_exact_or_refused(
                outcome(extract_residue, family, m, 5, r, variant),
                outcome(exact_residue, family, m, 5, r, variant),
                walks_integral_summands(family, m, 5, r, variant),
            )


@pytest.mark.parametrize(
    "family,constants,r,primes",
    [
        ("C", C_CONSTANTS, 2, primes_in_range(5, 61)),
        ("D", D_CONSTANTS, 2, primes_in_range(5, 61)),
        ("C", C_CONSTANTS, 3, primes_in_range(5, 13)),
        ("D", D_CONSTANTS, 3, primes_in_range(5, 13)),
    ],
)
def test_constants_hold_at_depth_two_and_three(family, constants, r, primes):
    """Every README constant is recovered and reproduces every residue at
    r = 2 and r = 3, d_15 = 138480 included: the p = 5 anomaly is r = 1 only."""
    for m, want in constants.items():
        res = discover_constant(family, m, primes, r=r)
        assert (res.constant, res.consistent) == (want, True), (family, m, r)


def exact_both(family, m, p, r):
    """The half and then the full exact residue, as discover_constant
    compared them before extract_residue read both off one walk."""
    half = exact_residue(family, m, p, r, "half")
    full = exact_residue(family, m, p, r, "full")
    if half != full:
        raise InconsistentInput(f"half/full residues disagree at p={p}: {half} vs {full}")
    return full


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from("CD"),
    m=st.sampled_from(range(1, 16, 2)),
    p=st.sampled_from(primes_in_range(5, 37)),
    r=st.sampled_from((1, 2)),
)
def test_both_variants_from_one_walk_match_exact(family, m, p, r):
    assert outcome(extract_residue, family, m, p, r, "both") == outcome(exact_both, family, m, p, r)


@pytest.mark.parametrize("family,m", [("C", 1), ("C", 11), ("D", 3), ("D", 15)])
def test_both_variants_at_p3_where_the_cuts_coincide(family, m):
    # (3 + 1)/2 = 3 - 1: one cut serves both truncations
    assert conjectures._upper(3, 1, "half") == conjectures._upper(3, 1, "full")
    assert outcome(extract_residue, family, m, 3, 1, "both") == outcome(exact_both, family, m, 3, 1)


def substituted_factors(steps):
    def fake_factors(family):
        return itertools.chain([(1, 1, 1, 1)], itertools.cycle(steps))

    return fake_factors


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.tuples(st.sampled_from((1, -1)), factor, factor, factor), min_size=1, max_size=5),
    r=st.sampled_from((1, 2)),
)
def test_both_variants_on_arbitrary_factor_streams_match_exact(steps, r):
    """Random factor streams reach both exceptions of the shared walk:
    ValuationTooLow at either cut and half/full residues that disagree, and
    also summands of negative valuation, which the walk may refuse."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "summand_factors", substituted_factors(steps))
        mp.setattr(conjectures, "summand_factors", substituted_factors(steps))
        for family, m in (("C", 1), ("D", 3)):
            assert_exact_or_refused(
                outcome(extract_residue, family, m, 5, r, "both"),
                outcome(exact_both, family, m, 5, r),
                walks_integral_summands(family, m, 5, r, "both"),
            )


@pytest.mark.parametrize(
    "steps,raised",
    [
        # summands 1, -2*3^k: the half sum 1 - 2(3 + 9 + 27) = -77
        ([(-1, 2, 3, 1)], "ValuationTooLow: family C, m=1, p=5, r=1 (half)"),
        # summands 1, -2, -2, -2, -2: the half sum is -5, the full one -7
        ([(-1, 2, 5, 5)], "ValuationTooLow: family C, m=1, p=5, r=1 (full)"),
        ([(-1, 2, 1, 2), (-1, 1, 5, 1)],
         "InconsistentInput: half/full residues disagree at p=5: (24, 25) vs (4, 25)"),
    ],
)
def test_both_variants_pinned_factor_streams(steps, raised):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "summand_factors", substituted_factors(steps))
        mp.setattr(conjectures, "summand_factors", substituted_factors(steps))
        got = outcome(extract_residue, "C", 1, 5, 1, "both")
        assert got == outcome(exact_both, "C", 1, 5, 1)
    assert f"{got[0].__name__}: {got[1]}".startswith(raised)


def test_coinciding_cuts_name_the_half_truncation_first():
    # summands 1, 2, 2: at p = 3, r = 1 both truncations end at summand 2,
    # and their common sum 5 has v_3 = 0 < r
    assert conjectures._upper(3, 1, "half") == conjectures._upper(3, 1, "full") == 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "summand_factors", substituted_factors([(1, 2, 1, 1)]))
        mp.setattr(conjectures, "summand_factors", substituted_factors([(1, 2, 1, 1)]))
        got = outcome(extract_residue, "C", 1, 3, 1, "both")
        assert got == outcome(exact_both, "C", 1, 3, 1)
    assert got == (ValuationTooLow, "family C, m=1, p=3, r=1 (half): v_p(sum) < r")


@pytest.mark.parametrize("variant", ["half", "full", "both"])
def test_negative_valuation_summand_is_refused(variant):
    # summand 1 is 1/5: v_5 = -1, outside the p-integral walk's domain
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjectures, "summand_factors", substituted_factors([(1, 1, 1, 5)]))
        with pytest.raises(PreconditionViolated, match="family C, m=1, p=5: summand 1 has v_p < 0"):
            extract_residue("C", 1, 5, 1, variant)


def test_default_discovery_cell_walks_the_summands_once(monkeypatch):
    """One pass over the full range; the half truncation is read off it at
    its cut."""
    walks = []

    def counting(family, _real=series.summand_factors):
        walks.append(family)
        return _real(family)

    monkeypatch.setattr(conjectures, "summand_factors", counting)
    assert discover_constant("C", 5, [7]).constant == 23
    assert walks == ["A"]


def cell_outcome(cell):
    """A residue_table cell as outcome() shows a result or an exception."""
    return (type(cell), str(cell)) if isinstance(cell, ValueError) else cell


def exact_cell(family, m, p, r, variant):
    if variant == "both":
        return outcome(exact_both, family, m, p, r)
    return outcome(exact_residue, family, m, p, r, variant)


# (p, r) with p in 5..37 and r in 1..3 where the exact oracle sums at most
# 600 summands per weight: 8 weights of both truncations at p = 13, r = 3
# take about 7 s, at p = 23, r = 2 about 0.4 s
PRIME_DEPTHS = [(p, r) for p in primes_in_range(5, 37) for r in (1, 2, 3) if p**r < 600]


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from("CD"),
    ms=st.sets(st.sampled_from(range(1, 16, 2)), min_size=1, max_size=8),
    prime_depth=st.sampled_from(PRIME_DEPTHS),
    variant=st.sampled_from(VARIANTS + ("both",)),
)
def test_every_table_cell_matches_its_weight_alone_and_exact(family, ms, prime_depth, variant):
    p, r = prime_depth
    table = residue_table(family, ms, p, r, variant)
    assert list(table) == sorted(ms)
    for m, cell in table.items():
        got = cell_outcome(cell)
        assert got == outcome(extract_residue, family, m, p, r, variant), m
        assert got == exact_cell(family, m, p, r, variant), m


def test_table_cells_fail_alone_on_a_substituted_stream():
    """Summands 1, 2^m, 5^m/25, 1: at p = 5, r = 1 the half sum is
    2 + 2^m + 5^(m-2).  Weight 1 has a summand of valuation -1, weight 5's
    sum 159 has valuation 0, and weights 3 and 7 keep the residues of their
    exact sums 15 and 3255, as each has when walked alone."""
    steps = [(1, 2, 1, 1), (1, 5, 1, 25), (1, 1, 25, 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "summand_factors", substituted_factors(steps))
        mp.setattr(conjectures, "summand_factors", substituted_factors(steps))
        table = residue_table("C", (7, 5, 3, 1), 5, 1, "half")
        alone = {m: outcome(extract_residue, "C", m, 5, 1, "half") for m in table}
        exact = {m: outcome(exact_residue, "C", m, 5, 1, "half") for m in (3, 5, 7)}
    assert {m: cell_outcome(cell) for m, cell in table.items()} == alone == {
        1: (PreconditionViolated, "family C, m=1, p=5: summand 2 has v_p < 0"),
        3: (3, 25),
        5: (ValuationTooLow, "family C, m=5, p=5, r=1 (half): v_p(sum) < r"),
        7: (1, 25),
    }
    assert exact == {m: alone[m] for m in (3, 5, 7)}


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.tuples(st.sampled_from((1, -1)), factor, factor, factor), min_size=1, max_size=5),
    ms=st.sets(st.sampled_from(range(1, 12, 2)), min_size=2, max_size=6),
    r=st.sampled_from((1, 2)),
    variant=st.sampled_from(VARIANTS + ("both",)),
)
def test_table_cells_on_arbitrary_factor_streams_match_each_weight_alone(steps, ms, r, variant):
    """Random streams fail some weights and not others (a summand of
    negative valuation, a sum of valuation below r, or disagreeing
    truncations): every cell is the outcome of its weight walked alone, so
    no weight's failure moves another weight's residue, and each agrees
    with the exact path where the exact summands are p-integral."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "summand_factors", substituted_factors(steps))
        mp.setattr(conjectures, "summand_factors", substituted_factors(steps))
        table = residue_table("D", ms, 5, r, variant)
        for m, cell in table.items():
            got = cell_outcome(cell)
            assert got == outcome(extract_residue, "D", m, 5, r, variant), m
            assert_exact_or_refused(
                got, exact_cell("D", m, 5, r, variant), walks_integral_summands("D", m, 5, r, variant)
            )


def test_table_validates_every_weight_and_needs_one():
    with pytest.raises(ValueError, match="need at least one weight"):
        residue_table("C", (), 5, 1, "both")
    with pytest.raises(ValueError, match="m must be an odd positive integer, got 4"):
        residue_table("C", (1, 4), 5, 1, "both")
