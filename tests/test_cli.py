"""Command-line surface: record schemas, exit codes, determinism."""

import contextlib
import functools
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supercong
from supercong.arith import INFINITE, CongruenceReport, make_report
from supercong.checks import check
from supercong import checks, cli, conjectures, series
from supercong.cli import (
    CONGRUENCE_CSV_HEADER,
    DISCOVERY_CSV_HEADER,
    run,
    serialize_report,
)
from supercong.conjectures import DiscoveryResult, discover_constant, residue_table
from supercong.series import PreconditionViolated


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usable_cpus(monkeypatch, n):
    """Let this process run on n CPUs, as the --jobs clamp counts them."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestSerializeReport:
    def test_json_record_matches_contract(self):
        rep = check("thm1", 5)
        rec = json.loads(serialize_report(rep, "json"))
        assert rec == {
            "check_id": "thm1",
            "p": 5,
            "m": 1,
            "r": None,
            "lhs": "-2605/4096",
            "rhs": "370/1",
            "required_valuation": 4,
            "achieved_valuation": 4,
            "pass": True,
        }

    def test_rationals_always_carry_denominator(self):
        rep = check("van_hamme", 5)
        rec = json.loads(serialize_report(rep, "json"))
        assert rec["rhs"] == "5/1"

    def test_infinite_valuation_serializes_as_inf(self):
        rep = make_report("demo", 5, Fraction(1, 3), Fraction(1, 3), 2)
        assert json.loads(serialize_report(rep, "json"))["achieved_valuation"] == "inf"
        assert serialize_report(rep, "csv").split(",")[7] == "inf"

    def test_csv_row_order_matches_header(self):
        assert CONGRUENCE_CSV_HEADER == (
            "check_id,p,m,r,lhs,rhs,required_valuation,achieved_valuation,pass"
        )
        row = serialize_report(check("thm1", 5), "csv")
        assert row == "thm1,5,1,,-2605/4096,370/1,4,4,true"

    def test_informational_record(self):
        rep = check("thm1", 3, informational=True)
        rec = json.loads(serialize_report(rep, "json"))
        assert rec["pass"] is None and rec["informational"] is True
        assert serialize_report(rep, "csv").endswith(",")  # empty pass column

    def test_discovery_record(self):
        res = discover_constant("C", 1, [5, 7, 11])
        rec = json.loads(serialize_report(res, "json"))
        assert rec["family"] == "C" and rec["constant"] == -1 and rec["consistent"]
        assert rec["primes"] == [5, 7, 11]
        assert rec["evidence"][0] == [5, 24, 25]
        csv_row = serialize_report(res, "csv")
        assert csv_row == "C,1,1,-1,true,3,5,11"

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            serialize_report(check("thm2", 5), "yaml")


# 5000 digits, past the interpreter's default limit of 4300 on int-to-str conversion
LONG = -(10**4999 + 7)


def _encoder_row(record):
    """A JSON row as a dict of the record's fields written by one
    json.JSONEncoder: the oracle of the template renderer.  Rationals show
    as "num/den", an infinite valuation as "inf", and an informational
    congruence row carries "informational": true."""
    if isinstance(record, CongruenceReport):
        names = ("check_id", "p", "m", "r", "lhs", "rhs", "required_valuation",
                 "achieved_valuation", "pass")
        names += ("informational",) if record.passed is None else ()
        derived = {"pass": record.passed, "informational": True}
    elif isinstance(record, DiscoveryResult):
        names = ("family", "m", "r", "constant", "consistent", "primes", "evidence")
        derived = {"primes": [p for p, _, _ in record.evidence]}
    elif isinstance(record, cli.ScanRecord):
        names = ("check_id", "scope", "instances", "pass", "first_failure")
        derived = {"pass": record.first_failure is None}
    else:
        names, derived = ("m", "n", "f", "g"), {}
    with _int_digit_limit(0):
        fields = {
            name: f"{value.numerator}/{value.denominator}" if type(value) is Fraction
            else "inf" if value == INFINITE else value
            for name, value in record._asdict().items()
        }
        fields.update(derived)
        encoder = json.JSONEncoder(separators=(",", ":"))
        return encoder.encode({name: fields[name] for name in names})


# integers of every size, past the 4300-digit limit on int-to-str conversion too
LONG_INTEGERS = st.integers(10**4300, 10**4400)
INTEGERS = st.one_of(st.integers(), LONG_INTEGERS, LONG_INTEGERS.map(lambda n: -n))
FRACTIONS = st.builds(Fraction, INTEGERS, INTEGERS.filter(bool))
MAYBE_INTS = st.one_of(st.none(), INTEGERS)
RECORDS = st.one_of(
    st.builds(CongruenceReport, st.text(), INTEGERS, FRACTIONS, FRACTIONS, INTEGERS,
              st.one_of(INTEGERS, st.just(INFINITE)), st.one_of(st.none(), st.booleans()),
              MAYBE_INTS, MAYBE_INTS, MAYBE_INTS),
    st.builds(DiscoveryResult, st.text(), INTEGERS, INTEGERS, INTEGERS,
              st.lists(st.tuples(INTEGERS, INTEGERS, INTEGERS), min_size=1).map(tuple),
              st.booleans()),
    st.builds(cli.ScanRecord, st.text(), st.text(), INTEGERS, st.one_of(st.none(), st.text())),
    st.builds(cli._TableRow, INTEGERS, INTEGERS, FRACTIONS, FRACTIONS),
)


@settings(max_examples=300, deadline=None)
@given(RECORDS)
@example(check("thm1", 3, informational=True))
@example(make_report("a\"\\\n\x7f\u00e9\U0001f600", 5, Fraction(-1, 3), Fraction(-1, 3), 2))
@example(DiscoveryResult("D", 15, 1, 138480, ((5, 30, 125), (7, 1, 343)), False))
@example(cli.ScanRecord("lemma_f", "m=3,n=2..50", 49, "n=7"))
def test_json_rows_equal_the_encoder_rows(record):
    assert serialize_report(record, "json") == _encoder_row(record)



@contextlib.contextmanager
def _int_digit_limit(limit):
    """The interpreter's int-to-str digit limit set to limit (0: none) for the
    block, and restored after it; a no-op on a Python without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


class TestLongIntegers:
    """Records print integers of any length and leave the caller's limit as it was."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        with _int_digit_limit(4300):
            before = _digit_limit()
            yield
            assert _digit_limit() == before

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_congruence_lhs_and_rhs_read_back_exactly(self, fmt):
        lhs, rhs = Fraction(LONG, 3), Fraction(-LONG + 1)
        line = serialize_report(make_report("demo", 5, lhs, rhs, 2), fmt)
        with _int_digit_limit(0):
            exact = [f"{x.numerator}/{x.denominator}" for x in (lhs, rhs)]
            if fmt == "json":
                rec = json.loads(line)
                assert [rec["lhs"], rec["rhs"]] == exact
            elif fmt == "csv":
                assert line.split(",")[4:6] == exact
            else:  # text rows show both ends of each rational
                assert line.split()[4:6] == [f"{x[:14]}..{x[-14:]}" for x in exact]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_discovery_constant_reads_back_exactly(self, fmt):
        res = DiscoveryResult("D", 1, 1, LONG, ((5, 0, 125), (7, 0, 343)), True)
        line = serialize_report(res, fmt)
        with _int_digit_limit(0):
            if fmt == "json":
                assert json.loads(line)["constant"] == LONG
            elif fmt == "csv":
                assert int(line.split(",")[3]) == LONG
            else:
                assert int(line.split("constant = ")[1].split()[0]) == LONG

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("consistent,code", [(True, 0), (False, 1)])
    def test_a_run_exits_by_the_verdict_of_a_long_constant(
        self, capsys, monkeypatch, jobs, consistent, code
    ):
        def discover(family, m, primes, r=1, variant="both", tables=None):
            return DiscoveryResult(family, m, r, LONG, ((5, 0, 125),), consistent)

        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "discover_constant", discover)
        got = run_cli(capsys, "discover", "--family", "d", "--m", "1,3", "--format", "csv",
                      "--jobs", jobs)
        _assert_no_child_left()
        assert got[0] == code and got[2] == ""
        with _int_digit_limit(0):
            assert [int(row.split(",")[3]) for row in got[1].splitlines()[1:]] == [LONG, LONG]

    def test_a_rendering_that_starts_during_another_still_prints(self, monkeypatch):
        # the second thread starts while the first holds the lifted limit
        # and is still converting; the first must not restore 4300 under it
        def slow_int_text(value):
            time.sleep(0.01)
            return int.__repr__(value)

        monkeypatch.setitem(cli._JSON_TEXT, int, slow_int_text)
        res = DiscoveryResult("D", 1, 1, LONG, ((5, 0, 125),), True)
        lines, errors = [], []

        def render():
            try:
                lines.append(serialize_report(res, "json"))
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=render) for _ in range(2)]
        threads[0].start()
        time.sleep(0.003)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(lines) == 2 and lines[0] == lines[1]


class TestVerifyCommand:
    def test_json_stream_and_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "thm1,thm2", "--primes", "5..13", "--format", "json"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 8  # 2 checks x primes 5,7,11,13
        assert [r["p"] for r in records] == [5, 7, 11, 13] * 2
        assert all(r["pass"] for r in records)

    def test_csv_has_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "van_hamme", "--primes", "5..7", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CONGRUENCE_CSV_HEADER
        assert len(lines) == 3

    def test_include_p3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "thm1,van_hamme", "--primes", "3..5",
            "--include-p3", "--format", "json",
        )
        assert code == 0  # informational rows never fail the run
        records = [json.loads(line) for line in out.splitlines()]
        by_key = {(r["check_id"], r["p"]): r for r in records}
        info = by_key[("thm1", 3)]
        assert info["pass"] is None and info["informational"] is True
        assert info["achieved_valuation"] == 3
        assert by_key[("van_hamme", 3)]["pass"] is True  # in-domain at p = 3

    def test_without_flag_p3_rows_are_skipped(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "thm1", "--primes", "3..5", "--format", "json"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["p"] for r in records] == [5]

    def test_failing_check_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "lemma_sun1_printed", "--primes", "5..7",
            "--format", "json",
        )
        assert code == 1
        assert all(json.loads(line)["pass"] is False for line in out.splitlines())

    def test_unknown_check_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "nope")
        assert code == 2 and "unknown check ids" in err

    def test_empty_prime_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--primes", "11..7")
        assert code == 2 and "empty prime range" in err
        # argparse reports it after the usage line, under the flag's name
        assert err.startswith("usage: supercong verify")
        assert "argument --primes: empty prime range 11..7" in err

    def test_output_identical_across_worker_counts(self, capsys):
        args = ("verify", "--checks", "thm2,van_hamme,h2_cong", "--primes", "5..31",
                "--format", "json")
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_all_checks_identical_at_one_and_two_jobs(self, capsys):
        args = ("verify", "--primes", "5..61", "--format", "json")
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2 and len(out1.splitlines()) == 18 * 16

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        _usable_cpus(monkeypatch, 2)  # the affinity set, not the machine, decides
        assert [cli._worker_count(j, 100) for j in (1, 2, 3, 64)] == [1, 2, 2, 2]
        # where the platform has no affinity set, the machine's CPU count
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert [cli._worker_count(j, 100) for j in (1, 2, 3, 64)] == [1, 2, 2, 2]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._worker_count(4, 100) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
    def test_a_process_pinned_to_one_cpu_runs_one_worker(self):
        code = ("import os; from supercong import cli; "
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "print(cli._worker_count(4, 100))")
        assert _python(code) == "1"

    def test_jobs_clamped_to_task_count(self, monkeypatch):
        _usable_cpus(monkeypatch, 8)
        assert [cli._worker_count(6, t) for t in (0, 1, 2, 5, 6, 100)] == [1, 1, 2, 5, 6, 6]

    def test_jobs_run_serially_without_fork(self, monkeypatch):
        _usable_cpus(monkeypatch, 8)
        monkeypatch.delattr(cli.os, "fork")
        assert cli._worker_count(4, 100) == 1

    def test_prime_range_above_cap_exits_two_before_sieving(self, capsys, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieve asked for {lo}..{hi}")

        monkeypatch.setattr(cli, "primes_in_range", no_sieve)
        code, out, err = run_cli(capsys, "verify", "--primes", "5..10000000000")
        assert code == 2 and out == ""
        assert "--primes upper end 10000000000 exceeds the cap 2000\n" in err
        code, out, err = run_cli(capsys, "discover", "--family", "c", "--primes", "5..10000000000")
        assert code == 2 and out == ""
        assert "--primes upper end 10000000000 exceeds the cap 10000000" in err
        code, _, err = run_cli(capsys, "wz", "--telescope", "3..10000001")
        assert code == 2 and "--telescope upper end" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--primes", "5..2001"],
            ["verify", "--checks", "h2_cong", "--primes", "2000..2500"],
            ["verify", "--primes", "3..10000000", "--jobs", "2"],
        ],
    )
    def test_verify_window_above_its_cap_exits_two_before_sieving(self, capsys, monkeypatch, argv):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieve asked for {lo}..{hi}")

        monkeypatch.setattr(cli, "primes_in_range", no_sieve)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "exceeds the cap 2000" in err

    def test_verify_window_at_its_cap_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--primes", "1990..2000", "--checks", "h2_cong", "--format", "json"
        )
        assert code == 0
        assert [json.loads(line)["p"] for line in out.splitlines()] == [1993, 1997, 1999]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--primes", "200..210"], "no selected check applies"),
            (["verify", "--checks", "thm1", "--primes", "3..3"], "no selected check applies"),
            (["wz", "--telescope", "50..10"], "empty telescope range 50..10"),
            (["wz", "--telescope", "24..28"], "wz_telescoped: no instances"),
            (["wz", "--boundary", "9..3"], "empty boundary range 9..3"),
            (["wz", "--boundary", "3..10000001"], "--boundary upper end 10000001 exceeds the cap"),
            (["wz", "--grid", "0"], "--grid must be >= 1"),
            (["lemma", "--n", "40..30"], "empty n range 40..30"),
            (["table", "--n", "9..3"], "empty n range 9..3"),
            (["lemma", "--m", "", "--n", "2..5"], "no m values given"),
            (["table", "--m", ""], "no m values given"),
            (["discover", "--family", "d", "--m", ""], "no m values given"),
            (["table", "--n", "0..1", "--format", "csv"], "argument --n: n must be >= 2, got 0"),
            (["verify", "--jobs", "0"], "jobs must be >= 1"),
            (["discover", "--family", "c", "--r", "0"], "r must be >= 1"),
            (["lemma", "--m", "3,x"], "invalid literal for int() with base 10: 'x'"),
            (["verify", "--primes", "5..x"], "invalid literal for int() with base 10: 'x'"),
            # The cap test squares max(prime_max, 1), never a negative upper end.
            (["discover", "--family", "c", "--primes=-5000..-1", "--r", "2"], "no usable primes"),
            (["discover", "--family", "c", "--primes=-5000..-4000", "--r", "2"],
             "no usable primes in -5000..-4000"),
            (["verify", "--checks", ",", "--primes", "5..7"], "argument --checks: no check ids given"),
        ],
    )
    def test_empty_or_unbounded_range_exits_two(self, capsys, monkeypatch, argv, message):
        def no_boundary_walk():
            raise AssertionError("boundary form evaluated")

        monkeypatch.setattr(series, "_boundary_walk", no_boundary_walk)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and message in err

    def test_discover_work_above_cap_exits_two_before_any_sum(self, capsys, monkeypatch):
        def stub(family, ms, p, r, variant):
            raise cli.ValuationTooLow(f"stub reached at p={p}, r={r}")

        monkeypatch.setattr(cli, "residue_table", stub)
        for primes, r in (("5..3163", "2"), ("5..3162", "2"), ("5..577", "2"), ("5..251", "3"),
                          ("5..7", "1000000000")):
            code, out, err = run_cli(capsys, "discover", "--family", "c", "--primes", primes, "--r", r)
            assert (code, out) == (2, "") and "exceeds the cap 10000000" in err
        # The sum of p^2 over 5..571 is 9960943, within the cap (577 adds 332929 more):
        # the run gets as far as the first walk.
        code, _, err = run_cli(capsys, "discover", "--family", "c", "--primes", "5..576", "--r", "2")
        assert code == 1 and "stub reached at p=5, r=2" in err

    def test_repeated_check_id_counts_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "thm1,thm1", "--primes", "5..7", "--format", "json"
        )
        assert code == 0
        assert [(r["check_id"], r["p"]) for r in map(json.loads, out.splitlines())] == [
            ("thm1", 5), ("thm1", 7),
        ]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["wz", "--grid", "201"], "argument --grid: --grid 201 exceeds the cap 200"),
            (["wz", "--boundary", "3..3002"],
             "argument --boundary: --boundary upper end 3002 exceeds the cap 3001"),
            (["lemma", "--n", "2..301"], "argument --n: --n upper end 301 exceeds the cap 300"),
            (["table", "--n", "250..301"], "argument --n: --n upper end 301 exceeds the cap 300"),
            (["lemma", "--n", "1..5"], "argument --n: n must be >= 2, got 1"),
            (["table", "--n", "1..3"], "argument --n: n must be >= 2, got 1"),
            (["lemma", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
            (["wz", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
            (["table", "--jobs", "7"], "unrecognized arguments: --jobs 7"),
            (["wz", "--telescope", "3..1501"],
             "argument --telescope: --telescope upper end 1501 exceeds the cap 1500"),
            (["lemma", "--m", "9", "--n", "2..4"],
             "argument --m: closed forms exist for m in (3, 5, 7), got 9"),
            (["table", "--m", "3,9", "--n", "2..4"],
             "argument --m: closed forms exist for m in (3, 5, 7), got 9"),
        ],
    )
    def test_work_caps_and_undeclared_flags_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            # the benchmark's inputs, then each cap's largest accepted input
            ["lemma", "--m", "3,5,7", "--n", "2..100"],
            ["wz", "--grid", "80", "--telescope", "3..199", "--boundary", "3..399"],
            ["lemma", "--n", "2..300"],
            ["table", "--n", "2..300"],
            ["wz", "--grid", "200", "--boundary", "3..3001"],
            ["wz", "--telescope", "3..1500"],
        ],
    )
    def test_work_caps_admit(self, argv):
        args = cli._build_parser().parse_args(argv)
        assert vars(args).keys() >= {"handler", "format"}

    def test_default_scan_small_window_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--primes", "5..7")
        assert code == 0
        assert "check_id" in out.splitlines()[0]


class TestOtherCommands:
    def test_lemma(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "--m", "3,5", "--n", "2..8", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4  # {lemma_f, lemma_g} x {3, 5}
        assert all(r["pass"] and r["instances"] == 7 for r in records)

    @pytest.mark.parametrize("error,code,shown", [
        (ValueError, 2, "error: n=3 fails\n"),
        (conjectures.ValuationTooLow, 1, "counterexample candidate: n=3 fails\n"),
    ])
    @pytest.mark.parametrize("argv,module", [
        (["table", "--m", "5", "--n", "2..4"], cli),
        (["lemma", "--m", "3,5", "--n", "2..4"], checks),
    ])
    def test_a_failing_table_or_lemma_task_ends_the_run(
        self, capsys, monkeypatch, error, code, shown, argv, module
    ):
        def fails_at_3(m, n, _real=module.table1_g):
            if n == 3:
                raise error(f"n={n} fails")
            return _real(m, n)

        monkeypatch.setattr(module, "table1_g", fails_at_3)
        assert run_cli(capsys, *argv) == (code, "", shown)

    def test_lemma_rejects_bad_weight(self, capsys):
        code, _, err = run_cli(capsys, "lemma", "--m", "4", "--n", "2..5")
        assert code == 2

    def test_wz(self, capsys):
        code, out, _ = run_cli(
            capsys, "wz", "--grid", "10", "--telescope", "3..13", "--boundary", "3..21",
            "--format", "json",
        )
        assert code == 0
        records = {json.loads(line)["check_id"]: json.loads(line) for line in out.splitlines()}
        assert records["wz_relation"]["instances"] == 55
        assert records["wz_telescoped"]["instances"] == 5  # 3,5,7,11,13
        assert records["wz_boundary"]["instances"] == 10  # odd 3..21
        assert all(r["pass"] for r in records.values())

    def test_discover(self, capsys):
        code, out, _ = run_cli(
            capsys, "discover", "--family", "c", "--m", "5", "--primes", "5..47",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["constant"] == 23 and rec["consistent"] is True

    def test_discover_inconsistent_family_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "discover", "--family", "d", "--m", "15", "--primes", "5..60",
            "--format", "json",
        )
        assert code == 1
        rec = json.loads(out.strip())
        assert rec["constant"] == 138480 and rec["consistent"] is False

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_discover_prints_the_same_bytes_for_every_variant(self, capsys, monkeypatch, jobs):
        _usable_cpus(monkeypatch, 2)
        args = ("discover", "--family", "c", "--m", "1,3,5", "--primes", "5..31",
                "--format", "json", "--jobs", jobs)
        runs = [run_cli(capsys, *args, "--variant", v) for v in ("half", "full", "both")]
        assert runs == [runs[0]] * 3
        code, out, _ = runs[0]
        assert code == 0 and [json.loads(line)["m"] for line in out.splitlines()] == [1, 3, 5]

    def test_discover_counterexample_holds_for_every_variant(self, capsys):
        args = ("discover", "--family", "d", "--m", "15", "--primes", "5..60", "--format", "json")
        runs = [run_cli(capsys, *args, "--variant", v) for v in ("half", "full", "both")]
        assert runs == [runs[0]] * 3
        code, out, _ = runs[0]
        rec = json.loads(out)
        assert code == 1 and rec["constant"] == 138480 and rec["consistent"] is False
        assert [p for p, res, mod in rec["evidence"] if rec["constant"] % mod != res] == [5]

    def test_lemma_repeated_weight_counts_once(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "--m", "3,3", "--n", "2..4", "--format", "json")
        assert code == 0
        assert [(r["check_id"], r["scope"]) for r in map(json.loads, out.splitlines())] == [
            ("lemma_f", "m=3,n=2..4"), ("lemma_g", "m=3,n=2..4"),
        ]

    def test_discover_repeated_weight_is_one_cell(self, capsys, monkeypatch):
        walks, lifts = [], []

        def walking(family, ms, p, r, variant):
            walks.append((p, tuple(ms)))
            return residue_table(family, ms, p, r, variant)

        def lifting(family, m, primes, **kwargs):
            lifts.append((family, m))
            return discover_constant(family, m, primes, **kwargs)

        monkeypatch.setattr(cli, "residue_table", walking)
        monkeypatch.setattr(cli, "discover_constant", lifting)
        code, out, _ = run_cli(
            capsys, "discover", "--family", "c", "--m", "5,5", "--primes", "5..13", "--format", "json"
        )
        assert code == 0 and lifts == [("C", 5)]
        assert walks == [(p, (5,)) for p in (5, 7, 11, 13)]
        assert [json.loads(line)["constant"] for line in out.splitlines()] == [23]

    def test_discover_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "discover", "--family", "d", "--m", "1", "--primes", "5..13",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == DISCOVERY_CSV_HEADER
        assert lines[1] == "D,1,1,0,true,4,5,13"

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--m", "5", "--n", "2..3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,n,f,g"
        assert lines[1] == "5,2,-384/1,11799/16"

    def test_usage_error_exits_two(self, capsys):
        assert run([]) == 2
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify", "--checks", "thm1", "--primes", "5..7"], 0),
            (["verify", "--checks", "lemma_sun1_printed", "--primes", "5..7"], 1),
            (["verify", "--primes", "11..7"], 2),
        ],
    )
    def test_console_entry_point_exits_with_the_run_code(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code

    @pytest.mark.parametrize(
        "command,shown",
        [
            ("verify", "prime range lo..hi (default 5..199)"),
            ("verify", "worker processes (default 1; at most the CPUs this process may run on)"),
            ("lemma", "n range lo..hi (default 2..50)"),
            ("table", "n range lo..hi (default 2..10)"),
            ("discover", "power of p in the truncation depth (default 1)"),
        ],
    )
    def test_help_shows_each_default(self, capsys, command, shown):
        assert run([command, "--help"]) == 0
        assert shown in " ".join(capsys.readouterr().out.split())


# (check_id, p) tasks in task order: thm2 and van_hamme at 5, 7, 11, 13.
FORK_ARGV = ["verify", "--checks", "thm2,van_hamme", "--primes", "5..13", "--format", "json"]
FORK_TASKS = [(c, p) for c in ("thm2", "van_hamme") for p in (5, 7, 11, 13)]
# discover's tasks are its primes' walks, in ascending order: at two workers
# the parent walks 5 and 11 and the child 7 and 13.
DISCOVER_ARGV = ["discover", "--family", "c", "--m", "1,3,5", "--primes", "5..13", "--format", "json"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # this process has no child, running or dead
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """At two workers, the parent runs the even tasks and a forked child the
    odd ones; a monkeypatch made here is inherited by the child."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        yield
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [conjectures.ValuationTooLow, ValueError])
    @pytest.mark.parametrize("failing", [[0], [1], [5], [2, 5], [3, 6], [1, 2]])
    def test_earliest_failing_task_decides_stderr_and_exit_code(
        self, capsys, monkeypatch, error, failing
    ):
        def check(check_id, p, informational=False, _real=cli.check):
            i = FORK_TASKS.index((check_id, p))
            if i in failing:
                raise error(f"task {i} fails")
            return _real(check_id, p, informational=informational)

        monkeypatch.setattr(cli, "check", check)
        serial = run_cli(capsys, *FORK_ARGV, "--jobs", "1")
        assert run_cli(capsys, *FORK_ARGV, "--jobs", "2") == serial
        code, out, err = serial
        assert (code, out) == ((1 if error is conjectures.ValuationTooLow else 2), "")
        assert err.endswith(f"task {min(failing)} fails\n")

    @pytest.mark.parametrize("error,shown,code", [
        (conjectures.ValuationTooLow, "counterexample candidate", 1),
        (conjectures.InconsistentInput, "counterexample candidate", 1),
        (PreconditionViolated, "error", 2),
    ])
    @pytest.mark.parametrize("failing", [
        [(1, 5)], [(3, 7)], [(5, 13), (3, 11)], [(3, 13), (3, 7)], [(5, 5), (1, 13)],
        [(1, 7), (1, 5)],
    ])
    def test_earliest_failing_discovery_cell_decides_stderr_and_exit_code(
        self, capsys, monkeypatch, error, shown, code, failing
    ):
        """Failed cells at (m, p), walked by either worker, end the run with
        the error of the first failing weight, in sorted order, at its first
        failing prime: the cell a run of one task per weight stopped on."""
        def walk(family, ms, p, r, variant, _real=cli.residue_table):
            table = _real(family, ms, p, r, variant)
            for m in ms:
                if (m, p) in failing:
                    table[m] = error(f"cell m={m} p={p} fails")
            return table

        monkeypatch.setattr(cli, "residue_table", walk)
        serial = run_cli(capsys, *DISCOVER_ARGV, "--jobs", "1")
        assert run_cli(capsys, *DISCOVER_ARGV, "--jobs", "2") == serial
        m, p = min(failing)
        assert serial == (code, "", f"{shown}: cell m={m} p={p} fails\n")

    @pytest.mark.parametrize("argv", [
        DISCOVER_ARGV, ["discover", "--family", "d", "--primes", "5..60"],
    ])
    def test_discover_forks_once_for_its_walks(self, capsys, monkeypatch, argv):
        """At two workers discover forks one child for its walks and lifts
        every weight in the parent, with the bytes and exit code of one
        worker, a failing discovery included."""
        forks = []

        def counting_fork(_real=os.fork):
            forks.append(os.getpid())
            return _real()

        monkeypatch.setattr(cli.os, "fork", counting_fork)
        serial = run_cli(capsys, *argv, "--jobs", "1")
        assert forks == []
        assert run_cli(capsys, *argv, "--jobs", "2") == serial
        assert forks == [os.getpid()]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_of_any_picklable_kind_come_back_in_task_order(self, monkeypatch, jobs):
        _usable_cpus(monkeypatch, 3)
        values = [7, "seven", Fraction(-7, 3), None, (7, [7.5]), {"p": 7}, check("thm1", 7),
                  float("inf"), 10**50, b"\x07"]
        assert cli._map_tasks([functools.partial(lambda v: v, v) for v in values], jobs) == values

    def test_worker_j_runs_every_task_j_mod_n_and_the_parent_is_worker_0(self, monkeypatch):
        _usable_cpus(monkeypatch, 3)
        pids = cli._map_tasks([os.getpid] * 7, 3)
        assert pids == pids[:3] * 2 + pids[:1]
        assert pids[0] == os.getpid() and len(set(pids)) == 3

    @pytest.mark.parametrize("die,status", [
        (lambda: os._exit(3), 3 << 8),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), int(signal.SIGKILL)),
    ])
    def test_a_child_that_dies_without_a_result_names_its_wait_status(
        self, monkeypatch, die, status
    ):
        parent = os.getpid()

        def check(check_id, p, informational=False, _real=cli.check):
            if os.getpid() != parent:
                die()
            return _real(check_id, p, informational=informational)

        monkeypatch.setattr(cli, "check", check)
        tasks = [functools.partial(cli.check, c, p) for c, p in FORK_TASKS]
        with pytest.raises(ChildProcessError, match=f"wait status {status}\\)"):
            cli._map_tasks(tasks, 2)

    def test_an_interrupt_in_the_parent_kills_and_reaps_the_child(self, monkeypatch):
        parent = os.getpid()

        def check(check_id, p, informational=False):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child left running would hold up the reaping

        monkeypatch.setattr(cli, "check", check)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli._map_tasks([functools.partial(cli.check, c, p) for c, p in FORK_TASKS], 2)
        assert time.monotonic() - start < 30


def _python(code, *flags):
    """The last stdout line of a fresh interpreter, started with flags,
    running code with this checkout's supercong importable."""
    src = os.path.dirname(os.path.dirname(supercong.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.splitlines()[-1]


def test_importing_the_cli_never_imports_dataclasses_or_inspect():
    code = ("import sys; import supercong.cli; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert _python(code) == "[]"
    # the stdlib-only contract: with no site hooks (-S), nothing outside the
    # standard library is loaded but supercong itself
    code = ("import sys; import supercong.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} - sys.stdlib_module_names))")
    assert _python(code, "-S") == "['__main__', 'supercong']"


def test_every_name_the_benchmark_tracer_wraps_resolves_after_importing_the_cli():
    # perfbench/tracer.py looks up each of its TIMED and COUNTED names, as
    # "<layer>.<function>", in sys.modules["supercong.<layer>"] right after
    # `import supercong.cli`: a lazily imported layer, or a renamed or
    # deleted function, fails every traced benchmark run
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {perfbench!r})
        import tracer
        import supercong.cli
        names = tracer.TIMED + tracer.COUNTED
        missing = [name for name in names if not callable(getattr(
            sys.modules.get("supercong." + name.split(".")[0]), name.split(".")[1], None))]
        if not missing:
            tracer.Tracer().install()
        print(json.dumps([len(names), missing]))
    """)
    count, missing = json.loads(_python(code))
    assert count > 0 and missing == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_run_never_imports_the_process_pool(jobs):
    code = (
        "import os, sys; from supercong import cli; os.sched_getaffinity = lambda pid: {0, 1}; "
        f"code = cli.run(['verify', '--primes', '5..13', '--jobs', '{jobs}']); "
        "print(code, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert _python(code) == "0 []"


def test_no_run_imports_json():
    # JSON rows are rendered from templates, so not even a JSON run loads json
    code = (
        "import sys; from supercong import cli; loaded = []; "
        "runs = (['wz', '--grid', '2', '--telescope', '3..5', '--boundary', '3..5'], "
        "['lemma', '--n', '2..4', '--format', 'csv'], ['--help'], "
        "['table', '--n', '2..3', '--format', 'json'], "
        "['verify', '--primes', '3..13', '--include-p3', '--format', 'json']); "
        "[loaded.append((cli.run(argv), 'json' in sys.modules)) for argv in runs]; "
        "print(loaded)"
    )
    assert _python(code) == "[(0, False), (0, False), (0, False), (0, False), (0, False)]"


def test_a_closed_stdout_ends_the_run_with_exit_1_and_no_traceback():
    # the json records of 5..199 (about 270 KB) outgrow a 64 KiB pipe
    # buffer, so the run is still writing when its reader goes away
    src = os.path.dirname(os.path.dirname(supercong.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["verify", "--primes", "5..199", "--format", "json"]
    proc = subprocess.Popen([sys.executable, "-m", "supercong.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
