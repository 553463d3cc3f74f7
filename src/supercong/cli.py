"""Command-line surface: congruence verification scans, exact lemma and
telescoping-identity scans, closed-form tables, and constant discovery, with
deterministic text/CSV/JSON output.

Exit codes: 0 when every emitted record passes, 1 when any record fails (a
genuine valuation shortfall or broken identity), 2 on usage errors.
Informational rows (pass = null) never fail a run.  Records come in a fixed
order, byte-identical across worker counts: verify by (check_id, p), lemma
by (check_id, m), wz as wz_relation, wz_telescoped, wz_boundary, discover
by m and table by (m, n).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import operator
import os
import sys
import threading
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .arith import CongruenceReport, primes_in_range
from .checks import (
    CHECKS,
    DEFAULT_CHECK_IDS,
    check,
    lemma_scans,
    require_lemma_args,
    table1_f,
    table1_g,
)
from .conjectures import (
    FAMILIES,
    DiscoveryResult,
    InconsistentInput,
    ValuationTooLow,
    discover_constant,
    residue_table,
)
from .series import boundary_scan, check_telescoped_identity, wz_relation_scan

FORMATS = ("text", "csv", "json")

#: Largest upper end accepted for --primes: the prime sieve allocates one
#: byte per integer up to it.  It also caps discover's work, the sum of p^r
#: over the window: the summands of its walks, one per prime, each shared by
#: every weight.
PRIME_CAP = 10**7
#: Work caps, each set where its largest accepted input takes a few seconds
#: (see the README): `wz --grid`, the upper end of `lemma`/`table --n`, of
#: `wz --boundary`, of `wz --telescope` and of `verify --primes`.
GRID_CAP = 200
N_CAP = 300
BOUNDARY_CAP = 3001
TELESCOPE_CAP = 1500
VERIFY_CAP = 2000


class ScanRecord(NamedTuple):
    """Summary of an exact-identity scan (lemma / telescoping commands)."""

    check_id: str
    scope: str
    instances: int
    first_failure: str | None


class _TableRow(NamedTuple):
    """One row of the closed-form table: f and g at weight m and index n."""

    m: int
    n: int
    f: Fraction
    g: Fraction


def _table_row(m: int, n: int) -> _TableRow:
    return _TableRow(m, n, table1_f(m, n), table1_g(m, n))


def _plain(value):
    """A field value as every format shows it (JSON rows in quotes): a
    rational as exact "num/den", an infinite valuation as "inf"."""
    if type(value) is Fraction:  # not isinstance: Fraction's ABC check is slow
        return f"{value.numerator}/{value.denominator}"
    if type(value) is float and math.isinf(value):
        return "inf"
    return value


class _JsonEscapes(dict):
    """str.translate's table of JSON text: printable ASCII as itself but for
    the short escapes, and any other character as one \\uXXXX per UTF-16
    code unit."""

    def __missing__(self, code: int) -> str:
        utf16 = chr(code).encode("utf-16-be", "surrogatepass")
        return "".join(f"\\u{utf16[i:i + 2].hex()}" for i in range(0, len(utf16), 2))


_JSON_ESCAPES = _JsonEscapes({n: chr(n) for n in range(32, 127)}
                             | {ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


# A record's field value as JSON text, by its type: byte for byte as
# json.JSONEncoder with separators (",", ":") writes _plain(value), ASCII
# only, and integers of any length while the digit limit is lifted.
_JSON_TEXT: dict[type, Callable[[Any], str]] = {
    type(None): {None: "null"}.__getitem__,
    bool: {False: "false", True: "true"}.__getitem__,
    int: int.__repr__,
    float: {math.inf: '"inf"'}.__getitem__,  # the one float a record holds
    Fraction: lambda value: f'"{value.numerator}/{value.denominator}"',  # nothing to escape
    str: lambda value: '"' + value.translate(_JSON_ESCAPES) + '"',
    list: lambda values: "[" + ",".join([_JSON_TEXT[type(v)](v) for v in values]) + "]",
}
_JSON_TEXT[tuple] = _JSON_TEXT[list]


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
    attributes followed by those derived from them, and for text rows alone
    by text_derived's; json and csv name the fields each format carries, in
    order (JSON rows as _JSON_TEXT shows them, then json_tail's text, and
    the others as _plain does), and text is the str.format template of a
    text row, where None shows as "-".  A run's text output starts with
    text_header, if any, and passes when every record does."""

    json: tuple[str, ...]
    csv: tuple[str, ...]
    text: str
    derived: Callable[[dict[str, Any]], dict[str, object]] = lambda fields: {}
    text_derived: Callable[[dict[str, Any]], dict[str, object]] = lambda fields: {}
    json_tail: Callable[[dict[str, Any]], str] = lambda fields: ""
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
    json=_CONGRUENCE_COLUMNS,
    csv=_CONGRUENCE_COLUMNS,
    text=_CONGRUENCE_TEXT,
    derived=lambda f: {"pass": f["passed"]},
    text_derived=lambda f: {
        "lhs_short": _short(f["lhs"]),
        "rhs_short": _short(f["rhs"]),
        "status": "info" if f["passed"] is None else ("pass" if f["passed"] else "FAIL"),
    },
    json_tail=lambda f: ',"informational":true' if f["passed"] is None else "",
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
    },
    text_derived=lambda f: {"consistent_text": "true" if f["consistent"] else "FALSE"},
    passes=lambda res: res.consistent,
)
_SCAN_COLUMNS = ("check_id", "scope", "instances", "pass", "first_failure")
_SCAN = _Kind(
    json=_SCAN_COLUMNS,
    csv=_SCAN_COLUMNS,
    text="{check_id:<16} {scope:<16} {instances:>6} instances  {status}",
    derived=lambda f: {"pass": f["first_failure"] is None},
    text_derived=lambda f: {
        "status": "pass" if f["first_failure"] is None else f"FAIL at {f['first_failure']}",
    },
    passes=lambda rec: rec.first_failure is None,
)
_TABLE_COLUMNS = ("m", "n", "f", "g")
_TABLE = _Kind(json=_TABLE_COLUMNS, csv=_TABLE_COLUMNS, text="m={m} n={n:<3} f={f:<20} g={g}")
_KINDS = {
    CongruenceReport: _CONGRUENCE,
    DiscoveryResult: _DISCOVERY,
    ScanRecord: _SCAN,
    _TableRow: _TABLE,
}
# the %-template of each kind's JSON rows: a slot for each json field, then json_tail's
_JSON_ROWS = {record_type: "{" + ",".join(f'"{name}":%s' for name in kind.json) + "%s}"
              for record_type, kind in _KINDS.items()}

CONGRUENCE_CSV_HEADER = ",".join(_CONGRUENCE.csv)
DISCOVERY_CSV_HEADER = ",".join(_DISCOVERY.csv)
_digit_limit_lock = threading.Lock()


def serialize_report(report: CongruenceReport | DiscoveryResult | ScanRecord, fmt: str = "json") -> str:
    """One serialized record, without trailing newline.

    JSON records are single-line objects; rationals render as exact "num/den"
    strings and an infinite valuation renders as "inf".  CSV and text rows
    use the same column order as their stream headers (emitted separately);
    a CSV field holding a comma, quote or newline is quoted as in RFC 4180.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    with _digit_limit_lock:  # the limit is process-wide: one rendering lifts it at a time
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:  # lifted so that integers of any length print, and restored on return
            sys.set_int_max_str_digits(0)
        try:
            kind = _KINDS[type(report)]
            fields = report._asdict()
            fields.update(kind.derived(fields))
            if fmt == "json":
                texts = [_JSON_TEXT[type(v)](v) for v in map(fields.__getitem__, kind.json)]
                return _JSON_ROWS[type(report)] % (*texts, kind.json_tail(fields))
            fields = {name: _plain(value) for name, value in fields.items()}
            if fmt == "csv":
                return ",".join(_csv_cell(fields[c]) for c in kind.csv)
            fields.update(kind.text_derived(fields))
            return kind.text.format_map({k: "-" if v is None else v for k, v in fields.items()})
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


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
    """--jobs clamped to the CPUs this process may run on (its affinity set,
    where the platform has one) and to the number of tasks, so no worker is
    idle; 1 where the platform has no os.fork, so --jobs runs serially there."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks)) if hasattr(os, "fork") else 1


def _row(task: Callable[[], Any], fmt: str) -> tuple[str, bool]:
    """task()'s record as its output line in fmt and whether it passes: the
    one renderer, run by whichever worker runs the task."""
    record = task()
    return serialize_report(record, fmt), _KINDS[type(record)].passes(record)


def _share(tasks: Sequence[Callable[[], Any]], start: int, step: int) -> tuple[list, tuple | None]:
    """(results, failure) of the share tasks[start::step]: the result of each
    task in order up to the first that raises, and failure = (its index, the
    exception), or None when every task succeeds."""
    results = []
    for i in range(start, len(tasks), step):
        try:
            results.append(tasks[i]())
        except Exception as exc:  # re-raised by _map_tasks in the parent
            return results, (i, exc)
    return results, None


def _map_tasks(tasks: Sequence[Callable[[], Any]], jobs: int) -> list:
    """task() for every zero-argument task, in task order.

    Up to `jobs` workers share the tasks by stride: this process runs
    tasks[0::n] and each of n - 1 forked children runs tasks[j::n] and
    pickles its results back through its own pipe.  Each worker stops at its
    first failing task, so the failing task that comes first in task order
    is the one raised here, as it is at one worker.  Every child is reaped
    before this returns or raises; on an exception in this process,
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
                    _child(write_end, tasks, j, n)
            finally:
                os.close(write_end)
            pids.append(pid)
        shares = [_share(tasks, 0, n)]
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
    results: list = [None] * len(tasks)
    for j, (share, _) in enumerate(shares):
        results[j::n] = share
    return results


def _child(write_end: int, tasks: Sequence[Callable[[], Any]], start: int, step: int) -> None:
    """A forked worker's whole life: pickle _share's result for its share
    into write_end and leave by os._exit, with exit status 0 only if the
    result was written whole.  os._exit runs none of the parent's cleanup
    (finally blocks, atexit handlers, buffered stdout) a second time."""
    import pickle

    status = 1
    try:
        with open(write_end, "wb") as pipe:
            pickle.dump(_share(tasks, start, step), pipe)
        status = 0
    finally:
        os._exit(status)


def _scan(
    check_id: str, scope: str, results: Iterable[tuple[tuple, bool]], count: int, label: str
) -> ScanRecord:
    """One record for a scan of count cases, given as its (case, holds)
    results in case order: every case is counted, and the results are read
    up to the first case that fails, named label.format(*case), and no
    further."""
    if not count:
        raise ValueError(f"{check_id}: no instances in {scope}")
    first_failure = next((label.format(*case) for case, holds in results if not holds), None)
    return ScanRecord(check_id, scope, count, first_failure)


def _cmd_verify(args: argparse.Namespace) -> list[Callable[[], CongruenceReport]]:
    lo, hi = args.primes
    primes = primes_in_range(lo, hi)
    # in (check_id, p) order, the output order; check marks informational only p below the floor
    tasks = [
        functools.partial(check, check_id, p, informational=args.include_p3)
        for check_id in sorted(args.checks) for p in primes
        if p >= CHECKS[check_id].floor or (args.include_p3 and p == 3)
    ]
    if not tasks:
        raise ValueError(f"no selected check applies to a prime in {lo}..{hi}")
    return tasks


def _cmd_lemma(args: argparse.Namespace) -> list[Callable[[], ScanRecord]]:
    lo, hi = args.n
    # the six scans of --m 3,5,7 share one walk per n
    return [
        functools.partial(_scan, check_id, f"m={m},n={lo}..{hi}", scan, hi - lo + 1, "n={}")
        for check_id, m, scan in lemma_scans(tuple(sorted(args.m)), lo, hi)
    ]


def _cmd_wz(args: argparse.Namespace) -> list[Callable[[], ScanRecord]]:
    (t_lo, t_hi), (b_lo, b_hi) = args.telescope, args.boundary
    primes = primes_in_range(t_lo, t_hi)
    return [functools.partial(_scan, *scan) for scan in (
        ("wz_relation", f"1<=k<=n<={args.grid}", wz_relation_scan(args.grid),
         args.grid * (args.grid + 1) // 2, "n={},k={}"),
        ("wz_telescoped", f"primes {t_lo}..{t_hi}",
         (((p,), check_telescoped_identity(p)) for p in primes), len(primes), "p={}"),
        ("wz_boundary", f"odd p {b_lo}..{b_hi}", boundary_scan(b_lo, b_hi),
         len(range(max(b_lo | 1, 3), b_hi + 1, 2)), "p={}"),
    )]


def _cmd_discover(args: argparse.Namespace) -> list[Callable[[], DiscoveryResult]]:
    lo, hi = args.primes
    primes = primes_in_range(max(lo, 5), hi)
    if not primes:
        raise ValueError(f"no usable primes in {lo}..{hi}")
    # One walk of p^r summands per prime serves every weight.  2^bit_length >
    # PRIME_CAP, so a larger exponent cannot change the verdict, and any()
    # stops at the cap.
    r = min(args.r, PRIME_CAP.bit_length())
    if any(total > PRIME_CAP for total in itertools.accumulate(p**r for p in primes)):
        raise ValueError(
            f"the summand count of --primes {lo}..{hi} at --r {args.r}, the sum of p^r,"
            f" exceeds the cap {PRIME_CAP}"
        )
    family = args.family.upper()
    ms = sorted(args.m or FAMILIES[family].default_m)  # args.m None: --m all
    # The walks are the work: one task per prime, ascending, so the stride
    # puts neighbouring primes, the costly top ones too, on different
    # workers.  A failed cell is held in its table, not raised, so the lift
    # of the first failing weight raises its first failing prime's error.
    walks = [functools.partial(residue_table, family, ms, p, args.r, args.variant) for p in primes]
    tables = dict(zip(primes, _map_tasks(walks, args.jobs)))
    # Each lift takes well under a millisecond: run() lifts and renders them
    # in this process, with no second round of forks.
    args.jobs = 1
    return [functools.partial(discover_constant, family, m, primes, r=args.r,
                              variant=args.variant, tables=tables) for m in ms]


def _cmd_table(args: argparse.Namespace) -> list[Callable[[], _TableRow]]:
    lo, hi = args.n
    return [functools.partial(_table_row, m, n) for m in sorted(args.m) for n in range(lo, hi + 1)]


def _declare(
    sub, name: str, handler: Callable, kind: _Kind, help: str, *arguments: tuple[str, dict],
    jobs: bool = False,
) -> None:
    """One subcommand: its (flag, add_argument options) pairs, then --format
    and, where its tasks may fan out to processes, --jobs; run() runs and
    renders the tasks handler(args) returns, one per record of this kind."""
    cmd = sub.add_parser(name, help=help)
    for flag, options in arguments:
        cmd.add_argument(flag, **options)
    cmd.add_argument("--format", choices=FORMATS, default="text")
    if jobs:
        cmd.add_argument("--jobs", type=_at_least_one("--jobs"), default=1, help="worker processes "
                         "(default %(default)s; at most the CPUs this process may run on)")
    cmd.set_defaults(handler=handler, kind=kind, jobs=1)


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
                               " or 'all' (default; excludes lemma_sun1_printed, morley"
                               " and wolstenholme)")),
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
             ("--family", dict(choices=[f.lower() for f in FAMILIES], required=True)),
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
        tasks = args.handler(args)  # discover's handler forks itself and sets jobs to 1
        rows = _map_tasks([functools.partial(_row, task, args.format) for task in tasks], args.jobs)
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
