"""Command-line surface: record schemas, exit codes, determinism."""

import ast
import contextlib
import csv
import functools
import hashlib
import io
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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import supercong
from supercong.arith import INFINITE, CongruenceReport, make_report
from supercong.checks import check
from supercong import arith, checks, cli, conjectures, lemma, series, special
from supercong.cli import (
    CONGRUENCE_CSV_HEADER,
    DISCOVERY_CSV_HEADER,
    run,
    serialize_report,
)
from supercong.conjectures import DiscoveryResult, discover_constant, residue_table
from supercong.series import PreconditionViolated


# How a child interpreter starts the CLI: as `python -m supercong.cli` does
# (through runpy when code runs first), or by calling cli.main itself.
ENTRIES = ("-m", "main")


def _console(entry, argv, prelude="", env=None):
    """(exit code, stdout, stderr) of a child interpreter that runs the
    statements of prelude and then the CLI on argv through entry, with this
    checkout's supercong importable and env (default os.environ)."""
    if entry == "main":
        args = ["-c", f"{prelude}\nfrom supercong.cli import main\nmain({list(argv)!r})"]
    elif prelude:
        args = ["-c", f"{prelude}\nimport runpy, sys\nsys.argv[1:] = {list(argv)!r}\n"
                "runpy.run_module('supercong.cli', run_name='__main__', alter_sys=True)"]
    else:
        args = ["-m", "supercong.cli", *argv]
    env = dict(os.environ if env is None else env)
    src = os.path.dirname(os.path.dirname(supercong.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usable_cpus(monkeypatch, n):
    """Let this process run on n CPUs, as the --jobs clamp counts them."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _ci_jobs_argvs():
    """The argvs that the CI workflow runs at --jobs 1 and --jobs 2 and
    compares byte for byte, but verify --primes 5..2000, which is too slow
    for tier-1 and runs in CI alone."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, ".github", "workflows", "tests.yml")) as workflow:
        loop = workflow.read().split('for pin in "" "taskset -c 0"; do', 1)[1].split("; do", 1)[0]
    argvs = [args.split() for args in loop.split('"')[1::2]]
    argvs.remove(["verify", "--primes", "5..2000", "--format", "json"])
    return argvs


# The affinity set as the kernel reports it, whatever a test fakes.
_AFFINITY = getattr(os, "sched_getaffinity", None)


@pytest.fixture(autouse=True)
def _cpus_kept():
    """Each test ends on the CPUs it started on: a run under a faked
    affinity set gives this process the faked set back at its end."""
    before = _AFFINITY(0) if _AFFINITY else None
    yield
    if before is not None and _AFFINITY(0) != before:
        os.sched_setaffinity(0, before)


def _own_cpus(monkeypatch):
    """This process's affinity set as the kernel reports it, with any fake
    undone; the test is skipped where that set has fewer than two CPUs."""
    if _AFFINITY is None or not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity mask")
    monkeypatch.setattr(os, "sched_getaffinity", _AFFINITY)
    if len(_AFFINITY(0)) < 2:
        pytest.skip("one CPU to run on")
    return _AFFINITY(0)


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


@settings(max_examples=300, deadline=None)
@given(RECORDS)
@example(cli.ScanRecord("x", "a\rb", 1, None))
@example(cli.ScanRecord('a,"b"', "\r\n", 1, "c\rd"))
@example(DiscoveryResult("\r", 15, 1, 138480, ((5, 30, 125),), True))
def test_csv_rows_read_back_cell_for_cell(record):
    """csv.reader reads a CSV row back as one row, as wide as its kind's
    columns, and each string field of the record comes back unchanged."""
    row = serialize_report(record, "csv")
    assume("\0" not in row or sys.version_info >= (3, 11))  # the reader refuses NUL before 3.11
    columns = cli._KINDS[type(record).__name__].csv
    [cells] = csv.reader([row])
    assert len(cells) == len(columns)
    fields = record._asdict()
    for name, cell in zip(columns, cells):
        if isinstance(fields.get(name), str):
            assert cell == fields[name]



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
        monkeypatch.setattr(conjectures, "discover_constant", discover)
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

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
    @pytest.mark.parametrize("argv", [
        ["verify", "--primes", "5..61", "--format", "json"],
        ["discover", "--family", "d", "--primes", "5..60"],
    ])
    def test_under_a_one_cpu_affinity_set_jobs_2_forks_nothing(self, argv):
        """As `taskset -c 0` runs it: the same stdout, stderr and exit code
        as --jobs 1, a failing discovery included, and no fork."""
        prelude = ("import atexit, os, sys\nforks = []\n"
                   "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                   "os.fork = lambda _fork=os.fork: forks.append(1) or _fork()\n"
                   "atexit.register(lambda: print('forks', len(forks), file=sys.stderr))")
        serial = _console("main", [*argv, "--jobs", "1"])
        code, out, err = _console("main", [*argv, "--jobs", "2"], prelude)
        assert (code, out, err) == (serial[0], serial[1], serial[2] + b"forks 0\n")

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

        monkeypatch.setattr(arith, "primes_in_range", no_sieve)
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

        monkeypatch.setattr(arith, "primes_in_range", no_sieve)
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
            raise conjectures.ValuationTooLow(f"stub reached at p={p}, r={r}")

        monkeypatch.setattr(conjectures, "residue_table", stub)
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
        (["table", "--m", "5", "--n", "2..4"], lemma),
        (["lemma", "--m", "3,5", "--n", "2..4"], lemma),
    ])
    def test_a_failing_table_or_lemma_task_ends_the_run(
        self, capsys, monkeypatch, error, code, shown, argv, module
    ):
        # table1_g and the weighted lemma cells both read table1_g_parts
        def fails_at_3(m, n, _real=module.table1_g_parts):
            if n == 3:
                raise error(f"n={n} fails")
            return _real(m, n)

        monkeypatch.setattr(module, "table1_g_parts", fails_at_3)
        assert run_cli(capsys, *argv) == (code, "", shown)

    @pytest.mark.parametrize("base", [conjectures.ValuationTooLow, conjectures.InconsistentInput])
    def test_a_counterexample_is_known_by_its_class_chain(self, capsys, monkeypatch, base):
        class Shortfall(base):
            pass

        def fails(m, n):
            raise Shortfall(f"n={n} fails")

        monkeypatch.setattr(lemma, "table1_g_parts", fails)
        assert run_cli(capsys, "table", "--m", "5", "--n", "2..4") == (
            1, "", "counterexample candidate: n=2 fails\n")

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

    @pytest.mark.parametrize("depth", ["1", "2", "3"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_discover_prints_the_same_bytes_for_every_variant(self, capsys, monkeypatch, jobs, depth):
        _usable_cpus(monkeypatch, 2)
        args = ("discover", "--family", "c", "--m", "1,3,5", "--primes", "5..31", "--r", depth,
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

        monkeypatch.setattr(conjectures, "residue_table", walking)
        monkeypatch.setattr(conjectures, "discover_constant", lifting)
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
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_console_entry_point_exits_with_the_run_code(self, argv, code, entry):
        # main ends its process by os._exit, so it runs in a child interpreter
        assert _console(entry, argv)[0] == code

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
# discover's tasks are its primes' walks, in ascending order, dealt by their
# cost p: at two workers the parent walks 13 and 5 and the child 11 and 7.
DISCOVER_ARGV = ["discover", "--family", "c", "--m", "1,3,5", "--primes", "5..13", "--format", "json"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # this process has no child, running or dead
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """At two workers, the parent runs the (check, p) tasks of FORK_ARGV at
    5 and 11 (the even tasks) and a forked child those at 7 and 13 (the odd
    ones); a monkeypatch made here is inherited by the child."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        yield
        _assert_no_child_left()

    @pytest.mark.parametrize("argv", _ci_jobs_argvs(), ids=" ".join)
    def test_a_ci_argv_prints_the_same_at_one_and_two_workers(self, capsys, argv):
        serial = run_cli(capsys, *argv, "--jobs", "1")
        assert serial[0] == 0 and serial[1]
        assert run_cli(capsys, *argv, "--jobs", "2")[:2] == serial[:2]

    @pytest.mark.parametrize("via", ["check", "values"])
    @pytest.mark.parametrize("error", [conjectures.ValuationTooLow, ValueError])
    @pytest.mark.parametrize("failing", [
        [0], [1], [5], [2, 5], [3, 6], [1, 2], [1, 3], [0, 7], [2, 3, 7], [7],
    ])
    def test_earliest_failing_task_decides_stderr_and_exit_code(
        self, capsys, monkeypatch, via, error, failing
    ):
        """Tasks 3 and 7 are at the window's top prime, which the parent runs
        before it forks.  Each keeps its outcome, a failure too, which is
        raised again at its task's place: a failing task at the top prime
        decides the error only when no earlier task fails."""
        def fail(check_id, p):
            i = FORK_TASKS.index((check_id, p))
            if i in failing:
                raise error(f"task {i} fails")

        if via == "check":
            def check(check_id, p, informational=False, _real=checks.check):
                fail(check_id, p)
                return _real(check_id, p, informational=informational)

            monkeypatch.setattr(checks, "check", check)
        else:
            for check_id in {c for c, _ in FORK_TASKS}:
                spec = checks.CHECKS[check_id]

                def values(p, check_id=check_id, _real=spec.values):
                    fail(check_id, p)
                    return _real(p)

                monkeypatch.setitem(checks.CHECKS, check_id, spec._replace(values=values))
        serial = run_cli(capsys, *FORK_ARGV, "--jobs", "1")
        assert run_cli(capsys, *FORK_ARGV, "--jobs", "2") == serial
        code, out, err = serial
        assert (code, out) == ((1 if error is conjectures.ValuationTooLow else 2), "")
        assert err.endswith(f"task {min(failing)} fails\n")

    @pytest.mark.parametrize("lo", [5, 7])
    def test_forked_workers_inherit_the_tables_filled_up_to_the_top_prime(
        self, capsys, monkeypatch, tmp_path, lo
    ):
        """From cold caches, a forked worker of `verify --primes 5..61` or
        `7..61` starts no special._CACHE sequence that tasks at two primes
        read: only the worst-k walk of one prime below the top, which no
        other prime's task reads, and which one process alone starts, even
        over the odd number of primes of 7..61.  The parent runs each task at
        the top once before it forks, and then the tasks of every other prime
        from the first, less the top, which neither worker evaluates again;
        at one worker each values call is a task's."""
        parent, started = os.getpid(), tmp_path / "started"

        class Cache(dict):
            def setdefault(self, key, default):
                if key not in self:
                    with open(started, "a") as log:
                        log.write(f"{os.getpid()} {key!r}\n")
                return super().setdefault(key, default)

        calls = []
        for check_id in checks.DEFAULT_CHECK_IDS:
            spec = checks.CHECKS[check_id]

            def values(p, _real=spec.values):
                calls.append(p)
                return _real(p)

            monkeypatch.setitem(checks.CHECKS, check_id, spec._replace(values=values))
        argv = ["verify", "--primes", f"{lo}..61", "--format", "json"]
        monkeypatch.setattr(special, "_CACHE", Cache())
        serial = run_cli(capsys, *argv, "--jobs", "1")
        rows = [json.loads(row)["p"] for row in serial[1].splitlines()]
        assert serial[0] == 0 and calls == rows
        calls.clear()
        started.unlink()
        monkeypatch.setattr(special, "_CACHE", Cache())
        assert run_cli(capsys, *argv, "--jobs", "2") == serial
        top_calls = len(checks.DEFAULT_CHECK_IDS)
        assert calls[:top_calls] == [61] * top_calls
        # the warm-up, then worker 0's tasks but those at the top
        worker_0 = arith.primes_in_range(lo, 61)[::2]
        assert calls[top_calls:] == [p for p in rows if p in worker_0 and p != 61]
        starts = [line.split(" ", 1) for line in started.read_text().splitlines()]
        keys = [ast.literal_eval(key) for pid, key in starts if int(pid) != parent]
        assert keys and all(key[0] == "ratio_expansion" and key[1] < 61 for key in keys)
        walks = [key for _, key in starts if key.startswith("('ratio_expansion'")]
        assert len(walks) == len(set(walks)) == len(set(rows))

    @pytest.mark.parametrize("lo", [5, 7])
    def test_each_top_prime_value_runs_once_across_the_workers(
        self, capsys, monkeypatch, tmp_path, lo
    ):
        """The parent runs the top prime's tasks before it forks, and the
        worker that owns them, the child over the 16 primes of
        `verify --primes 5..61` and the parent over the 15 of `7..61`, runs
        none again: each check's values at 61 run once in all, in the
        parent."""
        log = tmp_path / "values"
        for check_id in checks.DEFAULT_CHECK_IDS:
            spec = checks.CHECKS[check_id]

            def values(p, check_id=check_id, _real=spec.values):
                with open(log, "a") as out:
                    out.write(f"{os.getpid()} {check_id} {p}\n")
                return _real(p)

            monkeypatch.setitem(checks.CHECKS, check_id, spec._replace(values=values))
        assert run_cli(capsys, "verify", "--primes", f"{lo}..61", "--jobs", "2")[0] == 0
        calls = [line.split() for line in log.read_text().splitlines()]
        assert len({pid for pid, _, _ in calls}) == 2  # the parent and one child
        top = [(int(pid), check_id) for pid, check_id, p in calls if p == "61"]
        assert sorted(top) == [(os.getpid(), c) for c in sorted(checks.DEFAULT_CHECK_IDS)]

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
        def walk(family, ms, p, r, variant, _real=conjectures.residue_table):
            table = _real(family, ms, p, r, variant)
            for m in ms:
                if (m, p) in failing:
                    table[m] = error(f"cell m={m} p={p} fails")
            return table

        monkeypatch.setattr(conjectures, "residue_table", walk)
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

    def test_a_lot_goes_whole_to_one_worker_and_the_costliest_lots_first(self, monkeypatch):
        """Verify's lots are its primes, one per task at cost 1, so every
        check at one prime runs on one worker and the primes go out by
        stride; discover's are its primes at cost p^r, largest first, each
        to the least loaded worker.  Each worker runs its tasks in task
        order."""
        _usable_cpus(monkeypatch, 3)
        verify = [(p, 1) for _ in ("thm2", "van_hamme") for p in (5, 7, 11, 13, 17)]
        assert cli._deal(verify, 2) == [[0, 2, 4, 5, 7, 9], [1, 3, 6, 8]]
        assert cli._deal(verify, 3) == [[0, 3, 5, 8], [1, 4, 6, 9], [2, 7]]
        assert cli._deal([(p, p) for p in (5, 7, 11, 13)], 2) == [[0, 3], [1, 2]]
        # over 5..61 at r = 2 the workers walk the same number of summands,
        # where the stride gave one of them 54.6% of them
        primes = arith.primes_in_range(5, 61)
        shares = cli._deal([(p, p**2) for p in primes], 2)
        assert [sum(primes[i] ** 2 for i in share) for share in shares] == [10232, 10232]
        assert sorted(shares[0] + shares[1]) == list(range(len(primes)))
        assert all(share == sorted(share) for share in shares)
        assert cli._deal([], 2) == [[]] and cli._deal([("p", 1)] * 5, 2) == [[0, 1, 2, 3, 4]]

    def test_each_worker_runs_on_its_own_cpu_of_the_affinity_set(self, monkeypatch):
        """Worker j runs on the j-th CPU of the parent's affinity set alone,
        and the parent has its whole set back when the run ends."""
        mask = _own_cpus(monkeypatch)
        cpus, n = sorted(mask), min(len(mask), 3)
        seen = cli._map_tasks([functools.partial(os.sched_getaffinity, 0)] * (2 * n), n)
        assert seen == [{cpus[i % n]} for i in range(2 * n)]
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.parametrize("ending", ["pass", "parent fails", "child fails", "interrupt"])
    def test_the_parent_gets_its_affinity_set_back(self, monkeypatch, ending):
        mask, parent = _own_cpus(monkeypatch), os.getpid()

        def task(i):
            if i == 0 and ending == "interrupt":
                raise KeyboardInterrupt
            if ending == "parent fails" and os.getpid() == parent:
                raise ValueError(f"task {i} fails")
            if ending == "child fails" and os.getpid() != parent:
                raise ValueError(f"task {i} fails")
            return os.sched_getaffinity(0)

        tasks = [functools.partial(task, i) for i in range(4)]
        expected = {"pass": contextlib.nullcontext(), "interrupt": pytest.raises(KeyboardInterrupt),
                    "parent fails": pytest.raises(ValueError, match="task 0 fails"),
                    "child fails": pytest.raises(ValueError, match="task 1 fails")}[ending]
        with expected:
            assert cli._map_tasks(tasks, 2) == [{min(mask)}, {sorted(mask)[1]}] * 2
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.parametrize("argv,code", [
        (FORK_ARGV, 0), (DISCOVER_ARGV, 0), (["discover", "--family", "d", "--primes", "5..60"], 1),
    ])
    def test_an_affinity_set_with_cpus_the_machine_lacks_gives_the_same_bytes(
        self, capsys, monkeypatch, argv, code
    ):
        """Workers 1 and 2 get CPUs the machine does not have: each runs
        where it may."""
        serial = run_cli(capsys, *argv, "--jobs", "1")
        assert serial[0] == code
        n = os.cpu_count() or 1
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, n, n + 1}, raising=False)
        assert run_cli(capsys, *argv, "--jobs", "3") == serial

    @pytest.mark.parametrize("die,status", [
        (lambda: os._exit(3), 3 << 8),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), int(signal.SIGKILL)),
    ])
    def test_a_child_that_dies_without_a_result_names_its_wait_status(
        self, monkeypatch, die, status
    ):
        parent = os.getpid()

        def check(check_id, p, informational=False, _real=checks.check):
            if os.getpid() != parent:
                die()
            return _real(check_id, p, informational=informational)

        monkeypatch.setattr(checks, "check", check)
        tasks = [functools.partial(checks.check, c, p) for c, p in FORK_TASKS]
        with pytest.raises(ChildProcessError, match=f"wait status {status}\\)"):
            cli._map_tasks(tasks, 2)

    def test_an_interrupt_in_the_parent_kills_and_reaps_the_child(self, monkeypatch):
        parent = os.getpid()

        def check(check_id, p, informational=False):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child left running would hold up the reaping

        monkeypatch.setattr(checks, "check", check)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli._map_tasks([functools.partial(checks.check, c, p) for c, p in FORK_TASKS], 2)
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


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_passing_forked_run_imports_neither_pickle_nor_signal(entry):
    # the rows of a passing run come back by marshal, and only a run that
    # kills its workers imports signal
    prelude = ("import atexit, os, sys\nforks = []\n"
               "os.sched_getaffinity = lambda pid: {0, 1}\n"
               "os.fork = lambda _fork=os.fork: forks.append(1) or _fork()\n"
               "atexit.register(lambda: print(len(forks), [m for m in ('pickle', 'signal') "
               "if m in sys.modules], file=sys.stderr))")
    code, out, err = _console(entry, ["verify", "--primes", "5..61", "--jobs", "2"], prelude)
    assert (code, err.decode()) == (0, "1 []\n") and out.startswith(b"check_id")


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


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_atexit_handler_registered_before_main_runs_once(entry):
    prelude = "import atexit, sys\natexit.register(lambda: print('handler ran', file=sys.stderr))"
    argv = ["verify", "--checks", "thm1", "--primes", "5..7"]
    code, out, err = _console(entry, argv, prelude)
    assert (code, err.decode()) == (0, "handler ran\n") and out.startswith(b"check_id")


@pytest.mark.parametrize("case,fmt", [("worst_k", "json"), ("verify", "text"), ("discover", "csv")])
@pytest.mark.parametrize("entry", ENTRIES)
def test_buffered_stdout_to_a_pipe_is_written_whole(entry, case, fmt):
    # without PYTHONUNBUFFERED stdout is block-buffered, and what is still
    # in its buffer when main ends must reach the pipe
    from test_output_bytes import CASES, EXPECTED

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    code, out, err = _console(entry, CASES[case] + ["--format", fmt], env=env)
    assert (code, hashlib.sha256(out).hexdigest(), err) == (*EXPECTED[case, fmt], b"")


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_exception_inside_run_prints_its_traceback(entry):
    # a check that raises what run does not catch: main does not end the
    # process itself, and the interpreter's own exit path reports it
    prelude = ("from supercong import checks\n"
               "checks.CHECKS['thm1'] = checks.CHECKS['thm1']._replace(values=lambda p: 1 // 0)")
    code, _, err = _console(entry, ["verify", "--checks", "thm1", "--primes", "5..7"], prelude)
    assert code == 1
    assert err.startswith(b"Traceback") and b"ZeroDivisionError" in err.splitlines()[-1]


# The names the package root re-exported before its layers ran lazily, and
# the layer modules it bound then: every one still resolves from the root.
ROOT_NAMES = (
    "CHECKS", "CongruenceReport", "DEFAULT_CHECK_IDS", "DiscoveryResult", "INFINITE",
    "InconsistentInput", "IndexOutOfRange", "InvalidPrime", "NonInvertibleDenominator",
    "PreconditionViolated", "PrimePower", "PrimeTooSmall", "SumSpec", "ValuationTooLow",
    "boundary_closed_form", "check", "check_boundary_closed_form", "check_lemma_f",
    "check_lemma_g", "check_lemma_sun3", "check_ratio_expansion", "check_telescoped_identity",
    "check_wz_relation", "congruent", "conj_sum", "crt_lift", "discover_constant", "euler_number",
    "extract_residue", "h2", "inv_pochhammer_int", "is_odd_prime", "make_report", "partial_sum",
    "pochhammer", "pochhammer_ratio_product", "primes_in_range", "reduce_mod", "residue_table",
    "table1_f", "table1_g", "table1_g_parts", "term_value", "verify_conjecture", "vp", "wz_F",
    "wz_G",
)
ROOT_LAYERS = ("arith", "checks", "conjectures", "series", "special")
# Names once bound a second time where they lived before they moved, and
# the hook that served two of them: each name now has one home alone.
RETIRED = (
    ("checks", "PrimeTooSmall"), ("checks", "_lemma_walk"), ("checks", "lemma_scans"),
    ("checks", "table1_g"), ("checks", "table1_g_parts"), ("series", "_Family"),
    ("series", "walk_total"), ("conjectures", "SumSpec"), ("conjectures", "partial_sum"),
    ("conjectures", "__getattr__"),
)
# The layers a discovery runs: not series or special, whatever its flags.
DISCOVER_LAYERS = ["arith", "conjectures", "families"]


class TestLazyLayers:
    # An atexit handler, which main runs before it ends the process, lists
    # the supercong layers that ran: a layer not yet run is still an
    # instance of LazyLoader's module subclass.
    PRELUDE = ("import atexit, sys, types\n"
               "atexit.register(lambda: print(sorted(name.partition('.')[2] for name, module in "
               "list(sys.modules.items()) if name.startswith('supercong.') and name != "
               "'supercong.cli' and type(module) is types.ModuleType), file=sys.stderr))")

    @pytest.mark.parametrize("argv,layers", [
        (["verify", "--primes", "5..13"],
         ["arith", "checks", "families", "lemma", "series", "special"]),
        (["discover", "--family", "c", "--m", "1,3,5", "--primes", "5..13"], DISCOVER_LAYERS),
        (["lemma", "--n", "2..5"], ["lemma", "special"]),
        (["table", "--n", "2..4"], ["lemma", "special"]),
        (["wz", "--grid", "3", "--telescope", "3..7", "--boundary", "3..9"],
         ["arith", "families", "series", "special"]),
        (["--help"], []),
        (["discover", "--family", "c", "--m", "1,3", "--primes", "5..31", "--jobs", "2"],
         DISCOVER_LAYERS),
        (["discover", "--family", "c", "--r", "2", "--primes", "5..13", "--variant", "half"],
         DISCOVER_LAYERS),
    ])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_command_runs_the_layers_it_uses_and_no_other(self, entry, argv, layers):
        code, _, err = _console(entry, argv, self.PRELUDE)
        assert (code, err.decode()) == (0, f"{layers}\n")

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_failing_discovery_runs_the_discovery_layers_alone(self, entry):
        code, out, err = _console(entry, ["discover", "--family", "d", "--primes", "5..60"],
                                  self.PRELUDE)
        assert (code, err.decode()) == (1, f"{DISCOVER_LAYERS}\n")
        assert out.splitlines()[-1].startswith(b"family D  m=15 r=1") and b"consistent=FALSE" in out

    # An error exit tells a counterexample by its class's module and name,
    # so it runs no layer to do so.
    @pytest.mark.parametrize("argv,message,layers", [
        (["verify", "--primes", "200..210"], "no selected check applies to a prime in 200..210",
         ["arith", "checks", "families", "lemma", "series", "special"]),
        (["wz", "--telescope", "24..28"], "wz_telescoped: no instances in primes 24..28",
         ["arith", "families", "series", "special"]),
        (["discover", "--family", "c", "--primes", "3..3"], "no usable primes in 3..3", ["arith"]),
    ])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_an_error_exit_leaves_conjectures_unrun(self, entry, argv, message, layers):
        code, out, err = _console(entry, argv, self.PRELUDE)
        assert (code, out, err.decode()) == (2, b"", f"error: {message}\n{layers}\n")

    def test_every_name_of_the_package_root_resolves_from_its_layer(self):
        namespace = {}
        exec("from supercong import *", namespace)
        layers = [sys.modules[f"supercong.{layer}"] for layer in (*ROOT_LAYERS, "lemma")]
        for name in ROOT_NAMES:
            value = getattr(supercong, name)
            assert namespace[name] is value
            assert any(vars(layer).get(name) is value for layer in layers)
        for layer in ROOT_LAYERS:
            assert namespace[layer] is getattr(supercong, layer) is sys.modules[f"supercong.{layer}"]
        assert set(dir(supercong)) >= {*ROOT_NAMES, *ROOT_LAYERS}
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            supercong.no_such_name

    @pytest.mark.parametrize("layer,name", RETIRED)
    def test_a_retired_binding_is_gone(self, layer, name):
        assert not hasattr(getattr(supercong, layer), name)

    def test_importing_the_package_registers_every_layer_and_runs_none(self):
        code = ("import sys, types, supercong; print(sorted((name, type(module) is types.ModuleType) "
                "for name, module in list(sys.modules.items()) if name.startswith('supercong.')))")
        layers = ("arith", "checks", "conjectures", "families", "lemma", "series", "special")
        assert _python(code) == repr([(f"supercong.{layer}", False) for layer in layers])

    def test_the_domain_error_from_the_package_root_runs_arith_alone(self):
        code = ("import sys, types; from supercong import PreconditionViolated; print(sorted("
                "name for name, module in list(sys.modules.items()) if name.startswith('supercong.') "
                "and type(module) is types.ModuleType), PreconditionViolated.__module__)")
        assert _python(code) == "['supercong.arith'] supercong.arith"


class TestSubcommandParser:
    """run() builds the arguments of the subcommand argv names alone; its
    help, usage errors and exit codes are those of the parser that declares
    every subcommand's arguments."""

    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in cli.COMMANDS),
        [], ["bogus"], ["-h", "verify"], ["--", "verify"], ["--format", "json", "verify"],
        ["verify", "--primes", "9..1"], ["verify", "--primes", "5..x"], ["verify", "--checks", "nope"],
        ["verify", "--jobs", "0"], ["verify", "--format", "xml"], ["verify", "--include-p3=1"],
        ["verify", "--bogus"], ["verify", "extra"],
        ["lemma", "--m", "4"], ["lemma", "--n", "1..3"], ["lemma", "--format", "x"],
        ["wz", "--grid", "0"], ["wz", "--telescope", "9..1"], ["wz", "--boundary", "3..x"],
        ["discover"], ["discover", "--family", "x"], ["discover", "--family", "c", "--m", "2"],
        ["discover", "--family", "c", "--primes", "9..1"], ["discover", "--family", "c", "--r", "0"],
        ["discover", "--family", "c", "--variant", "x"], ["discover", "--family", "c", "--jobs", "x"],
        ["table", "--m", "4"], ["table", "--n", "9..3"], ["table", "--jobs", "2"],
    ])
    def test_help_and_usage_errors_match_the_full_parser(self, capsys, argv):
        got = run_cli(capsys, *argv)
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
        else:
            code = None
        assert got == (code, *capsys.readouterr())

    def test_the_commands_run_dispatches_on_are_the_parsers_subcommands(self, capsys):
        assert run_cli(capsys, "bogus")[2].endswith(
            f"(choose from {', '.join(map(repr, cli.COMMANDS))})\n")

    def test_the_family_choices_are_the_discovery_families(self, capsys):
        families = ", ".join(repr(family.lower()) for family in conjectures.FAMILIES)
        assert run_cli(capsys, "discover", "--family", "x")[2].endswith(
            f"(choose from {families})\n")


class _RawStdout(io.RawIOBase):
    """A raw, unbuffered file as stdout sits on under PYTHONUNBUFFERED: each
    write takes at most `take` bytes (None takes nothing, as a full
    non-blocking file does) and is counted."""

    def __init__(self, take):
        self.take, self.data, self.writes = take, bytearray(), 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        if self.take is None:
            return None
        taken = bytes(b[:self.take])
        self.data += taken
        return len(taken)


class TestUnbufferedOutput:
    ARGV = ["verify", "--primes", "5..199", "--format", "json"]

    def _run_on(self, monkeypatch, raw):
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, "utf-8", write_through=True))
        return cli.run(self.ARGV)

    @pytest.mark.parametrize("take", [10**9, 4096, 1])
    def test_short_writes_lose_nothing_and_slices_are_few(self, capsys, monkeypatch, take):
        code, out, _ = run_cli(capsys, *self.ARGV)
        raw = _RawStdout(take)
        assert self._run_on(monkeypatch, raw) == code
        assert bytes(raw.data) == out.encode()
        if take == 10**9:  # one write per 64 KiB of output, not one per row
            assert raw.writes == -(-len(out) // 2**16) < len(out.splitlines())

    @pytest.mark.parametrize("take", [0, None])
    def test_a_write_that_takes_nothing_raises(self, monkeypatch, take):
        with pytest.raises(OSError, match="stdout took none of"):
            self._run_on(monkeypatch, _RawStdout(take))
