"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
Every tolerance (required valuation, exactness, prime range, runtime budget)
is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from supercong.arith import PrimePower, congruent, primes_in_range, reduce_mod
from supercong.checks import check, check_lemma_sun3, check_ratio_expansion
from supercong.cli import run
from supercong.conjectures import discover_constant, verify_conjecture
from supercong.lemma import check_lemma_f, check_lemma_g
from supercong.series import (
    boundary_closed_form,
    check_telescoped_identity,
    check_wz_relation,
    wz_F,
    wz_G,
)
from supercong.special import pochhammer

from oracles import ParameterSingularity, gamma_ratio_half_shift, whipple_terminating

HALF = Fraction(1, 2)
PRIMES_199 = primes_in_range(5, 199)
PRIMES_97 = primes_in_range(5, 97)

C_CONSTANTS = {1: -1, 3: 3, 5: 23, 7: -5, 9: 1647, 11: -96973}
D_CONSTANTS = {1: 0, 3: 0, 5: 16, 7: 80, 9: 192, 11: 640, 13: -3472, 15: 138480}


def _report(num, ok, desc):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def test_criterion_01_lemma_closed_forms():
    t0 = time.perf_counter()
    ok = all(
        check_lemma_f(m, n) and check_lemma_g(m, n)
        for m in (3, 5, 7)
        for n in range(2, 51)
    )
    # spot values by direct summation, independent of the incremental path
    def summand(m, n, k):
        return (
            (4 * k - 1) ** m
            * pochhammer(-HALF, k) ** 2
            * pochhammer(-n, k)
            * pochhammer(n - 1, k)
            / (
                math.factorial(k) ** 2
                * pochhammer(n + HALF, k)
                * pochhammer(Fraction(3, 2) - n, k)
            )
        )

    ok &= sum(summand(5, 2, k) for k in range(3)) == -384
    weights = [Fraction(0), Fraction(-3, 4), Fraction(-27, 16)]
    ok &= sum(summand(3, 2, k) * weights[k] for k in range(3)) == Fraction(135, 16)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5
    _report(1, ok, f"closed-form lemma sums exact, m in {{3,5,7}}, n 2..50 ({elapsed:.2f}s < 5s)")


def test_criterion_02_wz_relation_and_telescoping():
    t0 = time.perf_counter()
    ok = all(check_wz_relation(n, k) for n in range(1, 61) for k in range(1, n + 1))
    ok &= all(check_telescoped_identity(p) for p in primes_in_range(3, 97))
    ok &= wz_F(1, 0) - wz_F(1, 1) == Fraction(9, 8)
    ok &= wz_G(2, 1) - wz_G(1, 1) == Fraction(9, 8)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10
    _report(2, ok, f"pair relation exact on 1<=k<=n<=60, telescoped identity primes 3..97 ({elapsed:.2f}s < 10s)")


def test_criterion_03_weight1_alternating_mod_p4():
    reports = {p: check("thm1", p) for p in PRIMES_199}
    ok = all(r.passed for r in reports.values())
    spot = reports[5]
    ok &= spot.lhs == Fraction(-2605, 4096) and spot.rhs == 370
    ok &= spot.lhs - spot.rhs == Fraction(-(5**4) * 2429, 4096)
    ok &= spot.achieved_valuation == 4
    info = check("thm1", 3, informational=True)
    ok &= info.passed is None and info.achieved_valuation == 3
    _report(3, ok, "thm1 valuation >= 4 for primes 5..199; p=3 informational row records exactly 3")


def test_criterion_04_weight3_alternating_mod_p2():
    reports = {p: check("thm2", p) for p in PRIMES_199}
    ok = all(r.passed for r in reports.values())
    ok &= reports[5].lhs - reports[5].rhs == Fraction(-(5**5) * 17, 4096)
    ok &= reports[5].achieved_valuation == 5
    _report(4, ok, "thm2 valuation >= 2 for primes 5..199; p=5 overachieves at exactly 5")


def test_criterion_05_fourth_power_family_mod_p4():
    t0 = time.perf_counter()
    ok = True
    for p in PRIMES_199:
        r3, r5, r7 = (check(f"thm3_m{m}", p) for m in (3, 5, 7))
        ok &= r3.passed and r3.rhs == 0
        ok &= r5.passed and r5.rhs == 16 * p
        ok &= r7.passed and r7.rhs == 80 * p
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    _report(5, ok, f"thm3 m=3,5,7 valuation >= 4 vs 0/16p/80p for primes 5..199 ({elapsed:.1f}s < 30s)")


def test_criterion_06_base_congruence_and_refinement():
    ok = all(check("van_hamme", p).passed for p in PRIMES_199)
    ok &= all(check("sun_refinement", p).passed for p in PRIMES_199)
    p3 = check("van_hamme", 3)
    ok &= p3.passed and p3.lhs == Fraction(3, 8) and p3.rhs == -3
    ok &= p3.achieved_valuation == 3
    _report(6, ok, "van_hamme (t=3) and sun_refinement (t=4) pass for 5..199; van_hamme passes at p=3")


def test_criterion_07_fourth_power_weight1_mod_p5():
    ok = all(check("gs0", p).passed for p in PRIMES_199)
    _report(7, ok, "weight-1 fourth-power sum = -5p^4 (mod p^5) for primes 5..199")


def test_criterion_08_euler_index_erratum():
    ok = all(check("lemma_sun1", p).passed for p in PRIMES_199)
    printed5 = check("lemma_sun1_printed", 5)
    printed7 = check("lemma_sun1_printed", 7)
    ok &= printed5.passed is False
    ok &= reduce_mod(printed5.lhs, PrimePower(5, 1)) == 4
    ok &= reduce_mod(printed5.rhs, PrimePower(5, 1)) == 0
    ok &= printed7.passed is False
    ok &= printed5.lhs == Fraction(26, 9) and printed7.lhs == Fraction(794, 225)
    _report(8, ok, "lemma_sun1 (E_(p-3) reading) passes 5..199; printed E_(p-1) variant fails at p=5,7")


def test_criterion_09_pochhammer_quotient_instances():
    ok = True
    for p in PRIMES_97:
        for k in range(1, (p - 1) // 2 + 1):
            ok &= check_lemma_sun3(p, k).passed
    spot = check_lemma_sun3(5, 1)
    ok &= spot.lhs - spot.rhs == Fraction(-(5**4) * 97, 512)
    _report(9, ok, "per-index quotient congruence holds mod p^4 for all k, primes 5..97")


def test_criterion_10_supporting_congruences():
    ok = True
    for p in PRIMES_97:
        ok &= check("boundary_mod", p).passed
        ok &= check("tail_congruence", p).passed
        ok &= check("h2_cong", p).passed
        for m in (3, 5, 7):
            ok &= check(f"combined_m{m}", p).passed
        for k in range(0, (p + 1) // 2 + 1):
            ok &= check_ratio_expansion(p, k, 4).passed
            ok &= check_ratio_expansion(p, k, 2).passed
    ok &= all(
        boundary_closed_form(p)[0] == boundary_closed_form(p)[1]
        for p in range(3, 200, 2)
    )
    _report(10, ok, "boundary/tail/expansion/combined/harmonic congruences for 5..97; boundary form exact for odd p<=199")


def test_criterion_11_transformation_and_gamma_ratio():
    rng = random.Random(1145)
    ok = True
    draws = 0
    for N in range(0, 9):
        admissible = 0
        while admissible < 12:
            a, b, c, d = (
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)
            )
            try:
                ok &= whipple_terminating(a, b, c, d, N)
            except ParameterSingularity:
                continue
            admissible += 1
            draws += 1
    ok &= draws >= 100
    ok &= all(
        gamma_ratio_half_shift(p) == p * (-1) ** ((p - 1) // 2) for p in range(3, 200, 2)
    )
    _report(11, ok, f"terminating transform exact on {draws} admissible draws, N 0..8; gamma ratio exact odd p<=199")


def test_criterion_12_constant_discovery():
    t0 = time.perf_counter()
    ok = True
    for m, want in C_CONSTANTS.items():
        res = discover_constant("C", m, PRIMES_199, r=1, variant="both")
        ok &= res.constant == want and res.consistent
    for m, want in D_CONSTANTS.items():
        res = discover_constant("D", m, PRIMES_199, r=1, variant="both")
        ok &= res.constant == want
        # the single documented exception: (D, m=15) disagrees at p=5 only
        if m == 15:
            bad = [p for p, res_p, mod in res.evidence if res.constant % mod != res_p]
            ok &= res.consistent is False and bad == [5]
        else:
            ok &= res.consistent
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120
    _report(12, ok, f"all 14 constants rediscovered from primes 5..199, half/full residues agreeing ({elapsed:.1f}s < 120s)")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2: a lift that never "
                   "stabilises over its primes is printed as a consistent discovery")
@pytest.mark.parametrize("family,m,want", [("c", 11, C_CONSTANTS[11]), ("d", 15, D_CONSTANTS[15])])
def test_primes_too_few_to_pin_the_constant_make_no_consistent_discovery(capsys, family, m, want):
    """Over 5..11 neither lift stabilises, so each is the full-pool lift,
    which reproduces every residue by construction: 51252 for c_11, whose
    moduli multiply to less than 2 * 96973, and -11274845 for d_15, which
    hides the p = 5 counterexample.  The run must not exit 0 with a wrong
    constant marked consistent."""
    code = run(["discover", "--family", family, "--m", str(m), "--primes", "5..11",
                "--format", "json"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code != 0 or not any(row["consistent"] and row["constant"] != want for row in rows)


def test_criterion_13_depth_two_verification():
    pool = primes_in_range(5, 47)
    ok = True
    for family, table in (("C", C_CONSTANTS), ("D", D_CONSTANTS)):
        for m in table:
            constant = discover_constant(family, m, pool).constant
            for p in (5, 7, 11):
                for variant in ("half", "full"):
                    ok &= verify_conjecture(family, m, p, 2, constant, variant).passed
    _report(13, ok, "r=2 congruences hold at p in {5,7,11} for every listed m with the discovered constants")


def test_criterion_14_modular_vs_exact_oracle():
    rng = random.Random(20260810)
    instances = 0
    ok = True
    primes = (3, 5, 7, 11, 13)
    while instances < 1200:
        p = primes[rng.randrange(len(primes))]
        t = rng.randint(1, 3)
        den_a, den_b = rng.randint(1, 400), rng.randint(1, 400)
        if den_a % p == 0 or den_b % p == 0:
            continue
        a = Fraction(rng.randint(-10**6, 10**6), den_a)
        b = a + Fraction(rng.randint(-50, 50) * p ** rng.randint(0, 4), den_b * p + 1)
        if b.denominator % p == 0:
            continue
        m = PrimePower(p, t)
        ok &= congruent(a, b, m) == (reduce_mod(a, m) == reduce_mod(b, m))
        instances += 1
    # the same equivalence on real check reports
    for check_id in ("van_hamme", "thm1", "thm2", "thm3_m3", "thm3_m5", "gs0",
                     "lemma_sun1", "boundary_mod", "tail_congruence", "h2_cong",
                     "combined_m3", "combined_m5", "combined_m7"):
        for p in PRIMES_97:
            rep = check(check_id, p)
            pp = PrimePower(p, rep.required_valuation)
            ok &= (reduce_mod(rep.lhs, pp) == reduce_mod(rep.rhs, pp)) == rep.passed
            instances += 1
    ok &= instances >= 1000
    _report(14, ok, f"modular fast path agrees with exact path on {instances} instances")
