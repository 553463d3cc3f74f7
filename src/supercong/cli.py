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
import atexit
import functools
import io
import itertools
import marshal
import math
import operator
import os
import sys
import threading
from fractions import Fraction
from typing import Any, Callable, Collection, Iterable, NamedTuple, Sequence

# Each layer runs on the first read of one of its attributes (see the
# package root), so a command runs the layers it uses and no other.
from . import arith, checks, conjectures, lemma, series

FORMATS = ("text", "csv", "json")
COMMANDS = ("verify", "lemma", "wz", "discover", "table")

#: Largest upper end accepted for --primes: the prime sieve allocates one
#: byte per integer up to it.  It also caps discover's window by the sum of
#: p^r over it, the summands of its truncations.
PRIME_CAP = 10**7
#: Work caps, each set where its largest accepted input takes a few seconds
#: (see the README): `wz --grid`, the upper end of `lemma`/`table --n`, of
#: `wz --boundary`, of `wz --telescope` and of `verify --primes`.
GRID_CAP = 200
N_CAP = 300
BOUNDARY_CAP = 3001
TELESCOPE_CAP = 1500
VERIFY_CAP = 2000
#: The errors that end a run as a counterexample candidate (exit 1), by
#: (module, class name): ValuationTooLow and InconsistentInput.
_COUNTEREXAMPLES = {(f"{__package__}.conjectures", "ValuationTooLow"),
                    (f"{__package__}.arith", "InconsistentInput")}
#: run() writes its output in slices of this many characters.
_BATCH = 1 << 16


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
    return _TableRow(m, n, lemma.table1_f(m, n), lemma.table1_g(m, n))


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
    Fraction: lambda value: f'"{value.numerator}/{value.denominator}"',  # nothing to escape
    str: lambda value: '"' + value.translate(_JSON_ESCAPES) + '"',
    list: lambda values: "[" + ",".join(map(_json, values)) + "]",
}
_JSON_TEXT[tuple] = _JSON_TEXT[list]


def _json(value) -> str:
    """value as JSON text, as _JSON_TEXT writes its type."""
    return _JSON_TEXT[type(value)](value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ',"\r\n'):  # RFC 4180: quote only where needed
        return '"' + text.replace('"', '""') + '"'
    return text


def _short(s: str, width: int = 30) -> str:
    if len(s) <= width:
        return s
    keep = (width - 2) // 2
    return f"{s[:keep]}..{s[-keep:]}"


class _Kind(NamedTuple):
    """How one record kind renders.  Its named fields are the record's own
    attributes, as _plain shows them, and those derived from them; json and csv
    name the fields each format carries, in order (JSON rows as _JSON_TEXT shows
    them, or as json_slots fills them from the record), and text is the
    str.format template of a text row, where None shows as "-".  A run's text
    output starts with text_header, if any, and passes when every record does."""

    json: tuple[str, ...]
    csv: tuple[str, ...]
    text: str
    derived: Callable[[dict[str, Any]], dict[str, object]] = lambda fields: {}
    json_slots: Callable[[Any], tuple] | None = None
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
# the last slot of a congruence row: an informational row ends in one more field
_PASS_JSON = {True: "true", False: "false", None: 'null,"informational":true'}


def _congruence_json(rep: arith.CongruenceReport) -> tuple:
    """The slots of a congruence record's JSON row, filled straight from the record."""
    check_id, p, lhs, rhs, required, achieved, passed, m, r, _ = rep
    return (_json(check_id), p, "null" if m is None else m, "null" if r is None else r,
            _json(lhs), _json(rhs), required, _json(_plain(achieved)), _PASS_JSON[passed])


_CONGRUENCE = _Kind(
    json=_CONGRUENCE_COLUMNS,
    csv=_CONGRUENCE_COLUMNS,
    text=_CONGRUENCE_TEXT,
    derived=lambda f: {
        "pass": f["passed"],
        "lhs_short": _short(f["lhs"]),
        "rhs_short": _short(f["rhs"]),
        "status": "info" if f["passed"] is None else ("pass" if f["passed"] else "FAIL"),
    },
    json_slots=_congruence_json,
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
        "pass": f["first_failure"] is None,
        "status": "pass" if f["first_failure"] is None else f"FAIL at {f['first_failure']}",
    },
    passes=lambda rec: rec.first_failure is None,
)
_TABLE_COLUMNS = ("m", "n", "f", "g")
_TABLE = _Kind(json=_TABLE_COLUMNS, csv=_TABLE_COLUMNS, text="m={m} n={n:<3} f={f:<20} g={g}")
# by the name of the record's type, so that no layer runs to key them
_KINDS = {
    "CongruenceReport": _CONGRUENCE,
    "DiscoveryResult": _DISCOVERY,
    "ScanRecord": _SCAN,
    "_TableRow": _TABLE,
}
# the %-template of each kind's JSON rows: a slot for each json field
_JSON_ROWS = {type_name: "{" + ",".join(f'"{name}":%s' for name in kind.json) + "}"
              for type_name, kind in _KINDS.items()}

CONGRUENCE_CSV_HEADER = ",".join(_CONGRUENCE.csv)
DISCOVERY_CSV_HEADER = ",".join(_DISCOVERY.csv)
_digit_limit_lock = threading.Lock()


def serialize_report(
    report: arith.CongruenceReport | conjectures.DiscoveryResult | ScanRecord, fmt: str = "json"
) -> str:
    """One serialized record, without trailing newline.

    JSON records are single-line objects; rationals render as exact "num/den"
    strings and an infinite valuation renders as "inf".  CSV and text rows
    use the same column order as their stream headers (emitted separately);
    a CSV field holding a comma, quote, CR or LF is quoted as in RFC 4180.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    with _digit_limit_lock:  # the limit is process-wide: one rendering lifts it at a time
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:  # lifted so that integers of any length print, and restored on return
            sys.set_int_max_str_digits(0)
        try:
            type_name = type(report).__name__
            kind = _KINDS[type_name]
            if fmt == "json" and kind.json_slots:
                return _JSON_ROWS[type_name] % kind.json_slots(report)
            fields = report._asdict()
            if fmt != "json":  # JSON writes the record's own fields by their types
                fields = {name: _plain(value) for name, value in fields.items()}
            fields.update(kind.derived(fields))
            if fmt == "json":
                return _JSON_ROWS[type_name] % tuple(_json(fields[name]) for name in kind.json)
            if fmt == "csv":
                return ",".join(_csv_cell(fields[c]) for c in kind.csv)
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
        lemma.require_lemma_args(m)
    return m_values


@_usage_type
def _check_ids(text: str) -> tuple[str, ...]:
    """Type of --checks: comma-separated registered ids, or 'all'; a repeated
    id counts once."""
    if text == "all":
        return checks.DEFAULT_CHECK_IDS
    ids = tuple(dict.fromkeys(x.strip() for x in text.split(",") if x.strip()))
    if not ids:
        raise ValueError("no check ids given")
    unknown = [c for c in ids if c not in checks.CHECKS]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    return ids


def _worker_count(jobs: int, tasks: int) -> int:
    """--jobs clamped to the CPUs this process may run on (its affinity set,
    where the platform has one) and to tasks, the number of lots to deal
    (see _deal), so no worker is idle; 1 where the platform has no os.fork,
    so --jobs runs serially there."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks)) if hasattr(os, "fork") else 1


def _rows(tasks: Sequence[Callable[[], Any]], fmt: str, jobs: int = 1,
          lots: Sequence[tuple[Any, int]] | None = None) -> list[tuple[str, bool]]:
    """Each task()'s record as its output line in fmt and whether it passes,
    in task order, as _map_tasks runs the tasks at jobs workers dealt by
    lots: the one renderer, run by whichever worker runs a task, and what
    each command's handler hands run()."""
    def row(task: Callable[[], Any]) -> tuple[str, bool]:
        record = task()
        return serialize_report(record, fmt), _KINDS[type(record).__name__].passes(record)
    return _map_tasks([functools.partial(row, task) for task in tasks], jobs, lots)


def _deal(lots: Sequence[tuple[Any, int]], jobs: int) -> list[list[int]]:
    """The task indices each worker runs, in task order, where lots[i] is the
    (lot, cost) of task i: the tasks of one lot go to one worker, and a
    lot's cost is its tasks' sum.  There are as many workers as
    _worker_count gives for jobs and the number of lots, and the lots go
    out largest cost first (in task order among equals), each to the least
    loaded worker (the lowest-numbered among equals): Graham's LPT rule.
    Lots of equal cost are dealt by stride."""
    costs: dict[Any, int] = {}
    for lot, cost in lots:
        costs[lot] = costs.get(lot, 0) + cost
    loads = [0] * _worker_count(jobs, len(costs))
    worker = {}
    for lot in sorted(costs, key=costs.__getitem__, reverse=True):  # stable
        worker[lot] = j = loads.index(min(loads))
        loads[j] += costs[lot]
    shares: list[list[int]] = [[] for _ in loads]
    for i, (lot, _) in enumerate(lots):
        shares[worker[lot]].append(i)
    return shares


def _share(tasks: Sequence[Callable[[], Any]], indices: list[int]) -> tuple[list, tuple | None]:
    """(results, failure) of the tasks at indices, run in that order: the
    result of each task up to the first that raises, and failure = (its
    index, the exception), or None when every task succeeds."""
    results = []
    for i in indices:
        try:
            results.append(tasks[i]())
        except Exception as exc:  # re-raised by _map_tasks in the parent
            return results, (i, exc)
    return results, None


def _pin(cpus: Collection[int]) -> None:
    """Let this process run on cpus alone, if any; where the platform has no
    os.sched_setaffinity or refuses the set (OSError), it runs on as before."""
    if cpus and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _map_tasks(tasks: Sequence[Callable[[], Any]], jobs: int,
               lots: Sequence[tuple[Any, int]] | None = None) -> list:
    """task() for every zero-argument task, in task order.

    Up to `jobs` workers share the tasks as _deal deals them by lots, one
    (lot, cost) per task; without lots each task is a lot of its own and
    equal cost, so worker j of n runs tasks j, j + n, j + 2n, ...  This
    process is worker 0, and each of the n - 1 forked children sends its
    results back through its own pipe (see _child).  Each worker runs its
    tasks in task order and stops at its first failing task, so the failing
    task that comes first in task order is the one raised here, as it is at
    one worker.

    With n > 1 workers, worker j runs on the j-th CPU of this process's
    affinity set alone: where the kernel balances no load across CPUs (a
    cpuset with sched_load_balance = 0), a forked child would otherwise
    share its parent's CPU.  This process gets its affinity set back before
    this returns or raises.  Every child is reaped before then too; on an
    exception in this process, including KeyboardInterrupt, the children
    are killed first.
    """
    shares = _deal([(i, 1) for i in range(len(tasks))] if lots is None else lots, jobs)
    mask = os.sched_getaffinity(0) if len(shares) > 1 and hasattr(os, "sched_getaffinity") else ()
    cpus = sorted(mask)
    pids, read_ends, payloads = [], [], []
    try:
        for j in range(1, len(shares)):
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write_end, tasks, shares[j], cpus[j:j + 1])
            finally:
                os.close(write_end)
            pids.append(pid)
        _pin(cpus[:1])
        done = [_share(tasks, shares[0])]
        for read_end in read_ends:
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    except BaseException:
        if pids:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _pin(mask)
        for read_end in read_ends:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, payload in zip(pids, statuses, payloads):
        if status:
            raise ChildProcessError(f"worker {pid} ended without a result (wait status {status})")
        done.append(_loads(payload))
    failures = [failure for _, failure in done if failure is not None]
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    results: list = [None] * len(tasks)
    for indices, (share, _) in zip(shares, done):
        for i, result in zip(indices, share):
            results[i] = result
    return results


def _dumps(share: tuple[list, tuple | None]) -> bytes:
    """share as bytes for _loads: by marshal, which the import system has
    already loaded, or by pickle where marshal refuses a value (any instance
    of a class of its own, such as a Fraction, a NamedTuple or an exception),
    each behind a byte that names it."""
    try:
        return b"m" + marshal.dumps(share)
    except ValueError:
        import pickle

        return b"p" + pickle.dumps(share)


def _loads(payload: bytes) -> tuple[list, tuple | None]:
    """The share that _dumps wrote as payload."""
    data = memoryview(payload)[1:]
    if payload[:1] == b"m":
        return marshal.loads(data)
    import pickle

    return pickle.loads(data)


def _child(write_end: int, tasks: Sequence[Callable[[], Any]], indices: list[int],
           cpus: Sequence[int]) -> None:
    """A forked worker's whole life: pin itself to cpus, write _share's
    result for the tasks at indices into write_end, as _dumps gives it, and
    leave by os._exit, with exit status 0 only if the result was written
    whole.  os._exit runs none of the parent's cleanup (finally blocks,
    atexit handlers, buffered stdout) a second time."""
    status = 1
    try:
        _pin(cpus)
        with open(write_end, "wb") as pipe:
            pipe.write(_dumps(_share(tasks, indices)))
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


def _cmd_verify(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.primes
    primes = arith.primes_in_range(lo, hi)
    # in (check_id, p) order, the output order; check marks informational only p below the floor
    tasks = [
        functools.partial(checks.check, check_id, p, informational=args.include_p3)
        for check_id in sorted(args.checks) for p in primes
        if p >= checks.CHECKS[check_id].floor or (args.include_p3 and p == 3)
    ]
    if not tasks:
        raise ValueError(f"no selected check applies to a prime in {lo}..{hi}")
    # Every check at one prime runs on one worker, so a walk that a prime's
    # checks share (the two ratio-expansion orders read one) runs once.
    lots = [(task.args[1], 1) for task in tasks]
    if _worker_count(args.jobs, len(dict(lots))) > 1:
        # Run the top prime's tasks before the workers fork: they fill the
        # shared tables (family sums, Euler numbers, harmonic sums and the
        # like) to the window's top, so every worker inherits them whole, and
        # each keeps its outcome, so the worker that owns the top runs none again.
        tasks = [_settled(task) if p == primes[-1] else task for task, (p, _) in zip(tasks, lots)]
    return _rows(tasks, args.format, args.jobs, lots)


def _settled(task: Callable[[], Any]) -> Callable[[], Any]:
    """task, run now, as a task that returns its result or raises its error
    again, so the error still comes at its place in task order."""
    try:
        result = task()
    except Exception as exc:
        error = exc  # the name exc is unbound when this block ends

        def fail():
            raise error
        return fail
    return lambda: result


def _cmd_lemma(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.n
    # the six scans of --m 3,5,7 share one walk per n
    return _rows([
        functools.partial(_scan, check_id, f"m={m},n={lo}..{hi}", scan, hi - lo + 1, "n={}")
        for check_id, m, scan in lemma.lemma_scans(tuple(sorted(args.m)), lo, hi)
    ], args.format)


def _cmd_wz(args: argparse.Namespace) -> list[tuple[str, bool]]:
    (t_lo, t_hi), (b_lo, b_hi) = args.telescope, args.boundary
    primes = arith.primes_in_range(t_lo, t_hi)
    return _rows([functools.partial(_scan, *scan) for scan in (
        ("wz_relation", f"1<=k<=n<={args.grid}", series.wz_relation_scan(args.grid),
         args.grid * (args.grid + 1) // 2, "n={},k={}"),
        ("wz_telescoped", f"primes {t_lo}..{t_hi}",
         series.telescoped_scan(primes), len(primes), "p={}"),
        ("wz_boundary", f"odd p {b_lo}..{b_hi}", series.boundary_scan(b_lo, b_hi),
         len(range(max(b_lo | 1, 3), b_hi + 1, 2)), "p={}"),
    )], args.format)


def _cmd_discover(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.primes
    primes = arith.primes_in_range(max(lo, 5), hi)
    if not primes:
        raise ValueError(f"no usable primes in {lo}..{hi}")
    # One walk per prime serves every weight; the cap bounds the sum of p^r,
    # the truncations' summand counts.  2^bit_length > PRIME_CAP, so a larger
    # exponent cannot change the verdict, and any() stops at the cap.
    r = min(args.r, PRIME_CAP.bit_length())
    if any(total > PRIME_CAP for total in itertools.accumulate(p**r for p in primes)):
        raise ValueError(
            f"the summand count of --primes {lo}..{hi} at --r {args.r}, the sum of p^r,"
            f" exceeds the cap {PRIME_CAP}"
        )
    family = args.family.upper()
    ms = sorted(args.m or conjectures.FAMILIES[family].default_m)  # args.m None: --m all
    # The walks are the work: one task per prime, dealt to the workers by p^r,
    # which ranks them as their cost does.  A failed cell is held in its table,
    # not raised, so the lift of the first failing weight raises its first error.
    walks = [functools.partial(conjectures.residue_table, family, ms, p, args.r, args.variant)
             for p in primes]
    tables = dict(zip(primes, _map_tasks(walks, args.jobs, [(p, p**r) for p in primes])))
    # Each lift is one running CRT pass over the primes: this process lifts
    # and renders them all, with no second round of forks.
    return _rows([functools.partial(conjectures.discover_constant, family, m, primes, r=args.r,
                                    variant=args.variant, tables=tables) for m in ms], args.format)


def _cmd_table(args: argparse.Namespace) -> list[tuple[str, bool]]:
    lo, hi = args.n
    return _rows([functools.partial(_table_row, m, n) for m in sorted(args.m)
                  for n in range(lo, hi + 1)], args.format)


def _declare(
    sub, command: str | None, name: str, handler: Callable, kind: _Kind, help: str,
    *arguments: tuple[str, dict], jobs: bool = False,
) -> None:
    """One subcommand: its (flag, add_argument options) pairs, then --format
    and, where its tasks may fan out to processes, --jobs; handler(args)
    returns its _rows, one per record of this kind, and run() writes them.
    Unless it is command, or command is None, it is declared with its name
    and help alone."""
    cmd = sub.add_parser(name, help=help)
    if command not in (None, name):
        return
    for flag, options in arguments:
        cmd.add_argument(flag, **options)
    cmd.add_argument("--format", choices=FORMATS, default="text")
    if jobs:
        cmd.add_argument("--jobs", type=_at_least_one("--jobs"), default=1, help="worker processes "
                         "(default %(default)s; at most the CPUs this process may run on)")
    cmd.set_defaults(handler=handler, kind=kind)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the arguments of command alone,
    or of each subcommand when command is None."""
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Exact-arithmetic congruence verification and constant discovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    declare = functools.partial(_declare, sub, command)
    primes = ("--primes", dict(type=_int_range("prime", "--primes", PRIME_CAP), default="5..199",
                               help="prime range lo..hi (default %(default)s)"))
    verify_primes = ("--primes", dict(primes[1], type=_int_range("prime", "--primes", VERIFY_CAP)))
    weights = ("--m", dict(type=_table_weights, default="3,5,7",
                           help="comma-separated weights (subset of 3,5,7)"))
    n_range = dict(type=_int_range("n", "--n", N_CAP, least=2),
                   help="n range lo..hi (default %(default)s)")

    declare("verify", _cmd_verify, _CONGRUENCE,
            "scan named congruence checks over a prime range",
            ("--checks", dict(type=_check_ids, default="all", help="comma-separated check ids,"
                              " or 'all' (default; excludes lemma_sun1_printed, morley"
                              " and wolstenholme)")),
            verify_primes,
            ("--include-p3", dict(action="store_true", help="emit informational p=3 rows"
                                  " (pass=null) for checks floored at p>=5")),
            jobs=True)
    declare("lemma", _cmd_lemma, _SCAN, "exact closed-form lemma scans",
            weights, ("--n", dict(n_range, default="2..50")))
    declare("wz", _cmd_wz, _SCAN,
            "telescoping pair relation, telescoped identity, boundary form",
            ("--grid", dict(type=_at_least_one("--grid", GRID_CAP), default=60,
                            help="check the pair relation for 1<=k<=n<=GRID")),
            ("--telescope", dict(type=_int_range("telescope", "--telescope", TELESCOPE_CAP),
                                 default="3..97",
                                 help="prime range for the telescoped identity")),
            ("--boundary", dict(type=_int_range("boundary", "--boundary", BOUNDARY_CAP),
                                default="3..199",
                                help="odd range for the boundary closed form")))
    declare("discover", _cmd_discover, _DISCOVERY,
            "rediscover family constants via CRT over a prime range",
            # conjectures.FAMILIES' keys, lower-cased: a literal, so that
            # declaring the flag runs no layer (a test holds the two equal)
            ("--family", dict(choices=("c", "d"), required=True)),
            ("--m", dict(type=lambda text: None if text == "all" else _weights(text),
                         default="all", help="comma-separated odd weights, or 'all'")),
            primes,
            ("--r", dict(type=_at_least_one("--r"), default=1,
                         help="power of p in the truncation depth (default %(default)s)")),
            ("--variant", dict(choices=("half", "full", "both"), default="both")),
            jobs=True)
    declare("table", _cmd_table, _TABLE, "print the closed-form table values",
            weights, ("--n", dict(n_range, default="2..10")))
    return parser


def _write(text: str) -> None:
    """text to stdout in slices of _BATCH characters.  Where stdout's text
    layer sits on a raw, unbuffered file (as under PYTHONUNBUFFERED), which
    takes what the kernel takes and drops the rest unreported, each slice is
    encoded and written to the file itself, the rest again after a short
    write, and a write that takes nothing raises."""
    out = sys.stdout
    unbuffered = isinstance(getattr(out, "buffer", None), io.RawIOBase) and os.linesep == "\n"
    out.flush()
    for start in range(0, len(text), _BATCH):
        batch = text[start:start + _BATCH]
        if not unbuffered:
            out.write(batch)
            continue
        data = memoryview(batch.encode(out.encoding, out.errors))
        while data:
            written = out.buffer.write(data)
            if not written:  # None: a non-blocking stdout is full
                raise OSError(f"stdout took none of {len(data)} bytes")
            data = data[written:]


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run one command and write its records to stdout;
    returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    # only the named subcommand gets its arguments; an argv that names none
    # (a help, a missing or unknown subcommand) is parsed with every one's
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse already reported the usage error
        return 0 if exc.code in (0, None) else 2
    try:
        rows = args.handler(args)
    except ValueError as exc:
        # known by name, so an error exit runs no layer to recognise them
        if any((cls.__module__, cls.__qualname__) in _COUNTEREXAMPLES for cls in type(exc).__mro__):
            print(f"counterexample candidate: {exc}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = {"csv": ",".join(args.kind.csv), "text": args.kind.text_header}.get(args.format)
    text = "".join(f"{line}\n" for line, _ in rows)
    _write(text if header is None else f"{header}\n{text}")
    return 0 if all(passes for _, passes in rows) else 1


def main(argv: Sequence[str] | None = None) -> None:
    """The console script: run(argv), the atexit handlers, a flush of stdout and stderr,
    then os._exit(code) with no interpreter teardown; an exception in run ends as usual."""
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so no later flush
        # can fail again, and end with exit 1 and no traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
