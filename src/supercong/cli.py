"""Command-line surface: congruence verification scans, exact lemma and
telescoping-identity scans, closed-form tables, and constant discovery, with
deterministic text/CSV/JSON output.

Exit codes: 0 when every emitted record passes, 1 when any record fails (a
genuine valuation shortfall or broken identity), 2 on usage errors.
Informational rows (pass = null) never fail a run.  Output is sorted by
(check_id, p, m) and is byte-identical across worker counts.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .arith import CongruenceReport, primes_in_range
from .checks import (
    CHECKS,
    DEFAULT_CHECK_IDS,
    check,
    check_lemma_f,
    check_lemma_g,
    require_lemma_args,
    table1_f,
    table1_g,
)
from .conjectures import (
    DiscoveryResult,
    InconsistentInput,
    ValuationTooLow,
    discover_constant,
)
from .series import boundary_closed_form, check_telescoped_identity, check_wz_relation

FORMATS = ("text", "csv", "json")

#: Largest upper end accepted for --primes: the prime sieve allocates one
#: byte per integer up to it.  It also caps discover's work, the sum of p^r
#: over the window, the summand count of one weight.
PRIME_CAP = 10**7
#: Work caps, each set where its largest accepted input takes a few seconds
#: (see the README): `wz --grid`, the upper end of `lemma`/`table --n`, of
#: `wz --boundary`, of `wz --telescope` and of `verify --primes`.
GRID_CAP = 200
N_CAP = 300
BOUNDARY_CAP = 3001
TELESCOPE_CAP = 1500
VERIFY_CAP = 1000

DISCOVER_DEFAULT_M = {"C": (1, 3, 5, 7, 9, 11), "D": (1, 3, 5, 7, 9, 11, 13, 15)}


class ScanRecord(NamedTuple):
    """Summary of an exact-identity scan (lemma / telescoping commands)."""

    check_id: str
    scope: str
    instances: int
    passed: bool
    first_failure: str | None


class _TableRow(NamedTuple):
    """One row of the closed-form table: f and g at weight m and index n."""

    m: int
    n: int
    f: Fraction
    g: Fraction


def _plain(value):
    """A field value as every format shows it: a rational as exact "num/den",
    an infinite valuation as "inf"."""
    if type(value) is Fraction:  # not isinstance: Fraction's ABC check is slow
        return f"{value.numerator}/{value.denominator}"
    if type(value) is float and math.isinf(value):
        return "inf"
    return value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ',"\n'):  # RFC 4180: quote only where needed
        return '"' + text.replace('"', '""') + '"'
    return text


def _short(s: str, width: int = 30) -> str:
    if len(s) <= width:
        return s
    keep = (width - 2) // 2
    return f"{s[:keep]}..{s[-keep:]}"


class _Kind(NamedTuple):
    """How one record kind renders.  Its named fields are the record's own
    attributes, as _plain shows them, followed by those derived from them;
    json and csv name the fields each format carries, in order (the JSON
    object leaves out a json_optional field that is false), and text is the
    str.format template of a text row, where None shows as "-".  A run's
    text output starts with text_header, if any, and passes when every
    record does."""

    json: tuple[str, ...]
    csv: tuple[str, ...]
    text: str
    derived: Callable[[dict[str, Any]], dict[str, object]] = lambda fields: {}
    json_optional: frozenset[str] = frozenset()
    passes: Callable[[Any], bool] = lambda record: True
    text_header: str | None = None


_CONGRUENCE_TEXT = (
    "{check_id:<22} {p:>5} {m:>3} {r:>3} {lhs_short:<32} {rhs_short:<28} "
    "{required_valuation:>3} {achieved_valuation:>4} {status}"
)
CONGRUENCE_TEXT_HEADER = _CONGRUENCE_TEXT.format(
    check_id="check_id", p="p", m="m", r="r", lhs_short="lhs", rhs_short="rhs",
    required_valuation="req", achieved_valuation="ach", status="status",
)
_CONGRUENCE_COLUMNS = ("check_id", "p", "m", "r", "lhs", "rhs", "required_valuation",
                       "achieved_valuation", "pass")
_CONGRUENCE = _Kind(
    json=_CONGRUENCE_COLUMNS + ("informational",),
    csv=_CONGRUENCE_COLUMNS,
    text=_CONGRUENCE_TEXT,
    derived=lambda f: {
        "pass": f["passed"],
        "lhs_short": _short(f["lhs"]),
        "rhs_short": _short(f["rhs"]),
        "status": "info" if f["passed"] is None else ("pass" if f["passed"] else "FAIL"),
    },
    json_optional=frozenset({"informational"}),
    passes=lambda rep: rep.passed is not False,  # informational rows never fail
    text_header=CONGRUENCE_TEXT_HEADER,
)
_DISCOVERY = _Kind(
    json=("family", "m", "r", "constant", "consistent", "primes", "evidence"),
    csv=("family", "m", "r", "constant", "consistent", "n_primes", "prime_min", "prime_max"),
    text="family {family}  m={m:<2} r={r}  constant = {constant:<10} "
    "consistent={consistent_text}  primes {prime_min}..{prime_max} ({n_primes})",
    derived=lambda f: {
        "primes": [p for p, _, _ in f["evidence"]],
        "n_primes": len(f["evidence"]),
        "prime_min": min(f["evidence"])[0],
        "prime_max": max(f["evidence"])[0],
        "consistent_text": "true" if f["consistent"] else "FALSE",
    },
    passes=lambda res: res.consistent,
)
_SCAN_COLUMNS = ("check_id", "scope", "instances", "pass", "first_failure")
_SCAN = _Kind(
    json=_SCAN_COLUMNS,
    csv=_SCAN_COLUMNS,
    text="{check_id:<16} {scope:<16} {instances:>6} instances  {status}",
    derived=lambda f: {
        "pass": f["passed"],
        "status": "pass" if f["passed"] else f"FAIL at {f['first_failure']}",
    },
    passes=lambda rec: rec.passed,
)
_TABLE_COLUMNS = ("m", "n", "f", "g")
_TABLE = _Kind(json=_TABLE_COLUMNS, csv=_TABLE_COLUMNS, text="m={m} n={n:<3} f={f:<20} g={g}")
_KINDS = {
    CongruenceReport: _CONGRUENCE,
    DiscoveryResult: _DISCOVERY,
    ScanRecord: _SCAN,
    _TableRow: _TABLE,
}

CONGRUENCE_CSV_HEADER = ",".join(_CONGRUENCE.csv)
DISCOVERY_CSV_HEADER = ",".join(_DISCOVERY.csv)


def serialize_report(report: CongruenceReport | DiscoveryResult | ScanRecord, fmt: str = "json") -> str:
    """One serialized record, without trailing newline.

    JSON records are single-line objects; rationals render as exact "num/den"
    strings and an infinite valuation renders as "inf".  CSV and text rows
    use the same column order as their stream headers (emitted separately);
    a CSV field holding a comma, quote or newline is quoted as in RFC 4180.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    kind = _KINDS[type(report)]
    fields = {name: _plain(value) for name, value in report._asdict().items()}
    fields.update(kind.derived(fields))
    if fmt == "json":
        shown = {k: fields[k] for k in kind.json if fields[k] or k not in kind.json_optional}
        return json.dumps(shown, separators=(",", ":"))
    if fmt == "csv":
        return ",".join(_csv_cell(fields[c]) for c in kind.csv)
    return kind.text.format_map({k: "-" if v is None else v for k, v in fields.items()})


def _usage_type(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse type from parse: its ValueError, an int() failure included,
    becomes the usage error that argparse reports under the flag's name."""
    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _int_range(
    name: str, flag: str, cap: int, least: int | None = None
) -> Callable[[str], tuple[int, int]]:
    """Type of a `lo..hi` (or single integer) flag: rejects lo > hi, a lo
    below least and an upper end above cap."""
    def parse(text: str) -> tuple[int, int]:
        lo, dots, hi = text.partition("..")
        lo, hi = int(lo), int(hi if dots else lo)
        if lo > hi:
            raise ValueError(f"empty {name} range {lo}..{hi}")
        if least is not None and lo < least:
            raise ValueError(f"{name} must be >= {least}, got {lo}")
        if hi > cap:
            raise ValueError(f"{flag} upper end {hi} exceeds the cap {cap}")
        return lo, hi
    return _usage_type(parse)


def _at_least_one(flag: str, cap: int | None = None) -> Callable[[str], int]:
    """Type of an integer flag that must be >= 1 and at most cap, if any."""
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
        if cap is not None and value > cap:
            raise ValueError(f"{flag} {value} exceeds the cap {cap}")
        return value
    return _usage_type(parse)


@_usage_type
def _weights(text: str) -> tuple[int, ...]:
    """Type of --m: comma-separated odd positive weights, at least one; a
    repeated weight counts once."""
    m_values = tuple(dict.fromkeys(int(x) for x in text.split(",") if x.strip()))
    if not m_values:
        raise ValueError("no m values given")
    for m in m_values:
        if m < 1 or m % 2 == 0:
            raise ValueError(f"m values must be odd positive integers, got {m}")
    return m_values


@_usage_type
def _table_weights(text: str) -> tuple[int, ...]:
    """Type of lemma/table --m: _weights with a closed form each."""
    m_values = _weights(text)
    for m in m_values:
        require_lemma_args(m)
    return m_values


@_usage_type
def _check_ids(text: str) -> tuple[str, ...]:
    """Type of --checks: comma-separated registered ids, or 'all'; a repeated
    id counts once."""
    if text == "all":
        return DEFAULT_CHECK_IDS
    ids = tuple(dict.fromkeys(x.strip() for x in text.split(",") if x.strip()))
    if not ids:
        raise ValueError("no check ids given")
    unknown = [c for c in ids if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    return ids


def _worker_count(jobs: int, tasks: int) -> int:
    """--jobs clamped to the machine's CPU count and to the number of tasks,
    so no worker is idle; 1 where the platform has no os.fork, so --jobs
    runs serially there."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def _row(record, fmt: str) -> tuple[str, bool]:
    """The record's output line in fmt and whether it passes: the one
    renderer, run by whichever worker made the record."""
    return serialize_report(record, fmt), _KINDS[type(record)].passes(record)


def _rows(records: Iterable, fmt: str) -> list[tuple[str, bool]]:
    return [_row(record, fmt) for record in records]


def _render_share(
    fn: Callable, tasks: Sequence, start: int, step: int, fmt: str
) -> tuple[list[tuple[str, bool]], tuple[int, Exception] | None]:
    """(rows, failure) of the share tasks[start::step]: the row of each task
    in order up to the first that raises, and failure = (its index, the
    exception), or None when every task succeeds."""
    rows = []
    for i in range(start, len(tasks), step):
        try:
            rows.append(_row(fn(tasks[i]), fmt))
        except Exception as exc:  # re-raised by _map_tasks in the parent
            return rows, (i, exc)
    return rows, None


def _map_tasks(fn: Callable, tasks: Sequence, jobs: int, fmt: str) -> list[tuple[str, bool]]:
    """_row(fn(task), fmt) for every task, in task order.

    Up to `jobs` workers share the tasks by stride: this process runs
    tasks[0::n] and each of n - 1 forked children runs tasks[j::n], renders
    its rows and pickles them back through its own pipe.  Each worker stops
    at its first failing task, so the failing task that comes first in task
    order is the one raised here, as it is at one worker.  Every child is
    reaped before this returns or raises; on an exception in this process,
    including KeyboardInterrupt, the children are killed first.
    """
    n = _worker_count(jobs, len(tasks))
    if n > 1:  # only a parallel run pays for these imports
        import pickle
        import signal
    pids, read_ends, payloads = [], [], []
    try:
        for j in range(1, n):
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write_end, fn, tasks, j, n, fmt)
            finally:
                os.close(write_end)
            pids.append(pid)
        shares = [_render_share(fn, tasks, 0, n, fmt)]
        for read_end in read_ends:
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read_end in read_ends:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, payload in zip(pids, statuses, payloads):
        if status:
            raise ChildProcessError(f"worker {pid} ended without a result (wait status {status})")
        shares.append(pickle.loads(payload))
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    rows: list = [None] * len(tasks)
    for j, (share, _) in enumerate(shares):
        rows[j::n] = share
    return rows


def _child(write_end: int, fn: Callable, tasks: Sequence, start: int, step: int, fmt: str) -> None:
    """A forked worker's whole life: pickle _render_share's result for its
    share into write_end and leave by os._exit, with exit status 0 only if
    the result was written whole.  os._exit runs none of the parent's
    cleanup (finally blocks, atexit handlers, buffered stdout) a second time."""
    import pickle

    status = 1
    try:
        with open(write_end, "wb") as pipe:
            pickle.dump(_render_share(fn, tasks, start, step, fmt), pipe)
        status = 0
    finally:
        os._exit(status)


def _verify_task(task: tuple[str, int, bool]) -> CongruenceReport:
    check_id, p, informational = task
    return check(check_id, p, informational=informational)


def _discover_task(task: tuple[str, int, tuple[int, ...], int, str]) -> DiscoveryResult:
    family, m, primes, r, variant = task
    return discover_constant(family, m, list(primes), r=r, variant=variant)


def _scan(
    check_id: str, scope: str, holds: Callable[..., bool], cases: Iterable[tuple], label: str
) -> ScanRecord:
    """One record for holds(*case) over every case.  Every case is counted;
    evaluation stops at the first failure, named label.format(*case)."""
    count, first_failure = 0, None
    for case in cases:
        count += 1
        if first_failure is None and not holds(*case):
            first_failure = label.format(*case)
    if not count:
        raise ValueError(f"{check_id}: no instances in {scope}")
    return ScanRecord(check_id, scope, count, first_failure is None, first_failure)


def _cmd_verify(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.primes
    primes = primes_in_range(lo, hi)
    # (check_id, p, informational): a p = 3 row below the check's floor is informational.
    tasks = [
        (check_id, p, p < CHECKS[check_id].floor)
        for check_id in sorted(args.checks) for p in primes
        if p >= CHECKS[check_id].floor or (args.include_p3 and p == 3)
    ]
    if not tasks:
        raise ValueError(f"no selected check applies to a prime in {lo}..{hi}")
    # tasks run in (check_id, p) order, the order of the output
    return _map_tasks(_verify_task, tasks, args.jobs, args.format)


def _cmd_lemma(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.n
    return _rows([
        _scan(check_id, f"m={m},n={lo}..{hi}", functools.partial(fn, m),
              ((n,) for n in range(lo, hi + 1)), "n={}")
        for check_id, fn in (("lemma_f", check_lemma_f), ("lemma_g", check_lemma_g))
        for m in sorted(args.m)
    ], args.format)


def _cmd_wz(args: argparse.Namespace) -> list[tuple[str, bool]]:
    (t_lo, t_hi), (b_lo, b_hi) = args.telescope, args.boundary
    grid = range(1, args.grid + 1)
    odd = range(max(b_lo | 1, 3), b_hi + 1, 2)
    return _rows([
        _scan("wz_relation", f"1<=k<=n<={args.grid}", check_wz_relation,
              ((n, k) for n in grid for k in range(1, n + 1)), "n={},k={}"),
        _scan("wz_telescoped", f"primes {t_lo}..{t_hi}", check_telescoped_identity,
              ((p,) for p in primes_in_range(t_lo, t_hi)), "p={}"),
        _scan("wz_boundary", f"odd p {b_lo}..{b_hi}",
              lambda p: operator.eq(*boundary_closed_form(p)), ((p,) for p in odd), "p={}"),
    ], args.format)


def _cmd_discover(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.primes
    primes = tuple(primes_in_range(max(lo, 5), hi))
    if not primes:
        raise ValueError(f"no usable primes in {lo}..{hi}")
    # One weight walks p^r summands per prime.  2^bit_length > PRIME_CAP, so a
    # larger exponent cannot change the verdict, and any() stops at the cap.
    r = min(args.r, PRIME_CAP.bit_length())
    if any(total > PRIME_CAP for total in itertools.accumulate(p**r for p in primes)):
        raise ValueError(
            f"the summand count of --primes {lo}..{hi} at --r {args.r}, the sum of p^r,"
            f" exceeds the cap {PRIME_CAP}"
        )
    family = args.family.upper()
    m_values = args.m or DISCOVER_DEFAULT_M[family]  # None: --m all
    tasks = [(family, m, primes, args.r, args.variant) for m in sorted(m_values)]
    return _map_tasks(_discover_task, tasks, args.jobs, args.format)


def _cmd_table(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.n
    return _rows([_TableRow(m, n, table1_f(m, n), table1_g(m, n))
                  for m in sorted(args.m) for n in range(lo, hi + 1)], args.format)


def _declare(
    sub, name: str, handler: Callable, kind: _Kind, help: str, *arguments: tuple[str, dict],
    jobs: bool = False,
) -> None:
    """One subcommand: its (flag, add_argument options) pairs, then --format
    and, for a handler that fans out to processes, --jobs; run() calls
    handler(args) for the rendered rows of its records, all of this kind."""
    cmd = sub.add_parser(name, help=help)
    for flag, options in arguments:
        cmd.add_argument(flag, **options)
    cmd.add_argument("--format", choices=FORMATS, default="text")
    if jobs:
        cmd.add_argument("--jobs", type=_at_least_one("--jobs"), default=1,
                         help="worker processes (default %(default)s; at most the CPU count)")
    cmd.set_defaults(handler=handler, kind=kind)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Exact-arithmetic congruence verification and constant discovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    primes = ("--primes", dict(type=_int_range("prime", "--primes", PRIME_CAP), default="5..199",
                               help="prime range lo..hi (default %(default)s)"))
    verify_primes = ("--primes", dict(primes[1], type=_int_range("prime", "--primes", VERIFY_CAP)))
    weights = ("--m", dict(type=_table_weights, default="3,5,7",
                           help="comma-separated weights (subset of 3,5,7)"))
    n_range = dict(type=_int_range("n", "--n", N_CAP, least=2),
                   help="n range lo..hi (default %(default)s)")

    _declare(sub, "verify", _cmd_verify, _CONGRUENCE,
             "scan named congruence checks over a prime range",
             ("--checks", dict(type=_check_ids, default="all", help="comma-separated check ids,"
                               " or 'all' (default; excludes lemma_sun1_printed)")),
             verify_primes,
             ("--include-p3", dict(action="store_true", help="emit informational p=3 rows"
                                   " (pass=null) for checks floored at p>=5")),
             jobs=True)
    _declare(sub, "lemma", _cmd_lemma, _SCAN, "exact closed-form lemma scans",
             weights, ("--n", dict(n_range, default="2..50")))
    _declare(sub, "wz", _cmd_wz, _SCAN,
             "telescoping pair relation, telescoped identity, boundary form",
             ("--grid", dict(type=_at_least_one("--grid", GRID_CAP), default=60,
                             help="check the pair relation for 1<=k<=n<=GRID")),
             ("--telescope", dict(type=_int_range("telescope", "--telescope", TELESCOPE_CAP),
                                  default="3..97",
                                  help="prime range for the telescoped identity")),
             ("--boundary", dict(type=_int_range("boundary", "--boundary", BOUNDARY_CAP),
                                 default="3..199",
                                 help="odd range for the boundary closed form")))
    _declare(sub, "discover", _cmd_discover, _DISCOVERY,
             "rediscover family constants via CRT over a prime range",
             ("--family", dict(choices=("c", "d"), required=True)),
             ("--m", dict(type=lambda text: None if text == "all" else _weights(text),
                          default="all", help="comma-separated odd weights, or 'all'")),
             primes,
             ("--r", dict(type=_at_least_one("--r"), default=1,
                          help="power of p in the truncation depth (default %(default)s)")),
             ("--variant", dict(choices=("half", "full", "both"), default="both")),
             jobs=True)
    _declare(sub, "table", _cmd_table, _TABLE, "print the closed-form table values",
             weights, ("--n", dict(n_range, default="2..10")))
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run one command and write its records to stdout;
    returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already reported the usage error
        return 0 if exc.code in (0, None) else 2
    try:
        rows = args.handler(args)
    except (ValuationTooLow, InconsistentInput) as exc:  # ValueErrors, so caught first
        print(f"counterexample candidate: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = {"csv": ",".join(args.kind.csv), "text": args.kind.text_header}.get(args.format)
    if header is not None:
        sys.stdout.write(header + "\n")
    for line, _ in rows:
        sys.stdout.write(line + "\n")
    return 0 if all(passes for _, passes in rows) else 1


def main(argv: Sequence[str] | None = None) -> None:
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the flush at exit
        # cannot fail again, and end with exit 1 and no traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
