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
import json
import math
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TextIO

from .arith import CongruenceReport, primes_in_range
from .checks import (
    CHECKS,
    DEFAULT_CHECK_IDS,
    TABLE1_WEIGHTS,
    check,
    check_lemma_f,
    check_lemma_g,
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

#: Largest upper end accepted for --primes, --telescope and --boundary: the
#: prime sieve allocates one byte per integer up to it.  It also caps
#: prime_max^r for discover, the number of summands of one cell.
PRIME_CAP = 10**7

DISCOVER_DEFAULT_M = {"C": (1, 3, 5, 7, 9, 11), "D": (1, 3, 5, 7, 9, 11, 13, 15)}


@dataclass(frozen=True)
class ScanRecord:
    """Summary of an exact-identity scan (lemma / telescoping commands)."""

    check_id: str
    scope: str
    instances: int
    passed: bool
    first_failure: str | None


class _TableRow:
    """One row of the closed-form table: f and g at weight m and index n."""

    def __init__(self, m: int, n: int, f: Fraction, g: Fraction) -> None:
        self.m, self.n, self.f, self.g = m, n, f, g


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
    return str(value)


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
    str.format template of a text row, where None shows as "-"."""

    json: tuple[str, ...]
    csv: tuple[str, ...]
    text: str
    derived: Callable[[dict[str, Any]], dict[str, object]] = lambda fields: {}
    json_optional: frozenset[str] = frozenset()


_CONGRUENCE = _Kind(
    json=("check_id", "p", "m", "r", "lhs", "rhs", "required_valuation",
          "achieved_valuation", "pass", "informational"),
    csv=("check_id", "p", "m", "r", "lhs", "rhs", "required_valuation",
         "achieved_valuation", "pass"),
    text="{check_id:<22} {p:>5} {m:>3} {r:>3} {lhs_short:<32} {rhs_short:<28} "
    "{required_valuation:>3} {achieved_valuation:>4} {status}",
    derived=lambda f: {
        "pass": f["passed"],
        "lhs_short": _short(f["lhs"]),
        "rhs_short": _short(f["rhs"]),
        "status": "info" if f["passed"] is None else ("pass" if f["passed"] else "FAIL"),
    },
    json_optional=frozenset({"informational"}),
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
CONGRUENCE_TEXT_HEADER = _CONGRUENCE.text.format(
    check_id="check_id", p="p", m="m", r="r", lhs_short="lhs", rhs_short="rhs",
    required_valuation="req", achieved_valuation="ach", status="status",
)


def serialize_report(report: CongruenceReport | DiscoveryResult | ScanRecord, fmt: str = "json") -> str:
    """One serialized record, without trailing newline.

    JSON records are single-line objects; rationals render as exact "num/den"
    strings and an infinite valuation renders as "inf".  CSV and text rows
    use the same column order as their stream headers (emitted separately).
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    kind = _KINDS[type(report)]
    fields = {name: _plain(value) for name, value in vars(report).items()}
    fields.update(kind.derived(fields))
    if fmt == "json":
        shown = {k: fields[k] for k in kind.json if fields[k] or k not in kind.json_optional}
        return json.dumps(shown, separators=(",", ":"))
    if fmt == "csv":
        return ",".join(_csv_cell(fields[c]) for c in kind.csv)
    return kind.text.format_map({k: "-" if v is None else v for k, v in fields.items()})


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments for one CLI invocation."""

    command: str
    format: str = "text"
    jobs: int = 1
    prime_min: int = 5
    prime_max: int = 199
    check_ids: tuple[str, ...] = DEFAULT_CHECK_IDS
    include_p3: bool = False
    m_values: tuple[int, ...] = TABLE1_WEIGHTS
    n_min: int = 2
    n_max: int = 50
    family: str = "C"
    r: int = 1
    variant: str = "both"
    grid_max: int = 60
    telescope_min: int = 3
    telescope_max: int = 97
    boundary_min: int = 3
    boundary_max: int = 199

    def validate(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        ranges = (
            ("--primes", "prime", self.prime_min, self.prime_max),
            ("--telescope", "telescope", self.telescope_min, self.telescope_max),
            ("--boundary", "boundary", self.boundary_min, self.boundary_max),
            ("--n", "n", self.n_min, self.n_max),
        )
        for flag, name, lo, hi in ranges:
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}..{hi}")
            if flag != "--n" and hi > PRIME_CAP:
                raise ValueError(f"{flag} upper end {hi} exceeds the cap {PRIME_CAP}")
        if self.grid_max < 1:
            raise ValueError(f"--grid must be >= 1, got {self.grid_max}")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        # 2^bit_length > PRIME_CAP, so a larger exponent cannot change the verdict.
        if (self.command == "discover"
                and max(self.prime_max, 1) ** min(self.r, PRIME_CAP.bit_length()) > PRIME_CAP):
            raise ValueError(
                f"--primes upper end {self.prime_max} to the power --r {self.r} "
                f"exceeds the cap {PRIME_CAP}"
            )
        if not self.m_values:
            raise ValueError("no m values given")
        for m in self.m_values:
            if m < 1 or m % 2 == 0:
                raise ValueError(f"m values must be odd positive integers, got {m}")
        unknown = [c for c in self.check_ids if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _worker_count(jobs: int) -> int:
    """--jobs clamped to the machine's CPU count."""
    return min(jobs, os.cpu_count() or 1)


def _map_tasks(fn: Callable, tasks: Sequence, jobs: int) -> list:
    jobs = _worker_count(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _verify_task(task: tuple[str, int, bool]) -> CongruenceReport:
    check_id, p, informational = task
    return check(check_id, p, informational=informational)


def _discover_task(task: tuple[str, int, tuple[int, ...], int, str]) -> DiscoveryResult:
    family, m, primes, r, variant = task
    return discover_constant(family, m, list(primes), r=r, variant=variant)


def _emit(
    out: TextIO, fmt: str, records: list, kind: _Kind, text_header: str | None = None
) -> None:
    header = {"csv": ",".join(kind.csv), "text": text_header}.get(fmt)
    if header is not None:
        out.write(header + "\n")
    for record in records:
        out.write(serialize_report(record, fmt) + "\n")


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


def _cmd_verify(cfg: RunConfig, out: TextIO) -> int:
    primes = primes_in_range(cfg.prime_min, cfg.prime_max)
    tasks: list[tuple[str, int, bool]] = []
    for check_id in sorted(cfg.check_ids):
        floor = CHECKS[check_id].floor
        for p in primes:
            if p >= floor:
                tasks.append((check_id, p, False))
            elif cfg.include_p3 and p == 3:
                tasks.append((check_id, p, True))
    if not tasks:
        raise ValueError(
            f"no selected check applies to a prime in {cfg.prime_min}..{cfg.prime_max}"
        )
    reports = _map_tasks(_verify_task, tasks, cfg.jobs)
    reports.sort(key=lambda rep: (rep.check_id, rep.p))
    _emit(out, cfg.format, reports, _CONGRUENCE, CONGRUENCE_TEXT_HEADER)
    return 1 if any(rep.passed is False for rep in reports) else 0


def _cmd_lemma(cfg: RunConfig, out: TextIO) -> int:
    scope = f"n={cfg.n_min}..{cfg.n_max}"
    records = [
        _scan(check_id, f"m={m},{scope}", functools.partial(fn, m),
              ((n,) for n in range(cfg.n_min, cfg.n_max + 1)), "n={}")
        for check_id, fn in (("lemma_f", check_lemma_f), ("lemma_g", check_lemma_g))
        for m in sorted(cfg.m_values)
    ]
    _emit(out, cfg.format, records, _SCAN)
    return 1 if any(not rec.passed for rec in records) else 0


def _cmd_wz(cfg: RunConfig, out: TextIO) -> int:
    grid = range(1, cfg.grid_max + 1)
    tele_primes = primes_in_range(cfg.telescope_min, cfg.telescope_max)
    odd = range(max(cfg.boundary_min | 1, 3), cfg.boundary_max + 1, 2)
    records = [
        _scan("wz_relation", f"1<=k<=n<={cfg.grid_max}", check_wz_relation,
              ((n, k) for n in grid for k in range(1, n + 1)), "n={},k={}"),
        _scan("wz_telescoped", f"primes {cfg.telescope_min}..{cfg.telescope_max}",
              check_telescoped_identity, ((p,) for p in tele_primes), "p={}"),
        _scan("wz_boundary", f"odd p {cfg.boundary_min}..{cfg.boundary_max}",
              lambda p: operator.eq(*boundary_closed_form(p)), ((p,) for p in odd), "p={}"),
    ]
    _emit(out, cfg.format, records, _SCAN)
    return 1 if any(not rec.passed for rec in records) else 0


def _cmd_discover(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    primes = tuple(primes_in_range(max(cfg.prime_min, 5), cfg.prime_max))
    if not primes:
        raise ValueError(f"no usable primes in {cfg.prime_min}..{cfg.prime_max}")
    tasks = [(cfg.family, m, primes, cfg.r, cfg.variant) for m in sorted(cfg.m_values)]
    try:
        results = _map_tasks(_discover_task, tasks, cfg.jobs)
    except (ValuationTooLow, InconsistentInput) as exc:
        print(f"counterexample candidate: {exc}", file=err)
        return 1
    _emit(out, cfg.format, results, _DISCOVERY)
    return 1 if any(not res.consistent for res in results) else 0


def _cmd_table(cfg: RunConfig, out: TextIO) -> int:
    rows = []
    for m in sorted(cfg.m_values):
        if m not in TABLE1_WEIGHTS:
            raise ValueError(f"closed forms exist for m in {TABLE1_WEIGHTS}, got {m}")
        for n in range(max(cfg.n_min, 2), cfg.n_max + 1):
            rows.append(_TableRow(m, n, table1_f(m, n), table1_g(m, n)))
    if not rows:
        raise ValueError(f"no table row for n={cfg.n_min}..{cfg.n_max}: the table starts at n = 2")
    _emit(out, cfg.format, rows, _TABLE)
    return 0


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="text")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default 1; at most the CPU count)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Exact-arithmetic congruence verification and constant discovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="scan named congruence checks over a prime range")
    pv.add_argument("--checks", default="all",
                    help="comma-separated check ids, or 'all' (default; excludes lemma_sun1_printed)")
    pv.add_argument("--primes", default="5..199", help="prime range lo..hi (default 5..199)")
    pv.add_argument("--include-p3", action="store_true",
                    help="emit informational p=3 rows (pass=null) for checks floored at p>=5")
    _add_output_args(pv)

    pl = sub.add_parser("lemma", help="exact closed-form lemma scans")
    pl.add_argument("--m", default="3,5,7", help="comma-separated weights (subset of 3,5,7)")
    pl.add_argument("--n", default="2..50", help="n range lo..hi (default 2..50)")
    _add_output_args(pl)

    pw = sub.add_parser("wz", help="telescoping pair relation, telescoped identity, boundary form")
    pw.add_argument("--grid", type=int, default=60, help="check the pair relation for 1<=k<=n<=GRID")
    pw.add_argument("--telescope", default="3..97", help="prime range for the telescoped identity")
    pw.add_argument("--boundary", default="3..199", help="odd range for the boundary closed form")
    _add_output_args(pw)

    pd = sub.add_parser("discover", help="rediscover family constants via CRT over a prime range")
    pd.add_argument("--family", choices=("c", "d"), required=True)
    pd.add_argument("--m", default="all", help="comma-separated odd weights, or 'all'")
    pd.add_argument("--primes", default="5..199", help="prime range lo..hi (default 5..199)")
    pd.add_argument("--r", type=int, default=1, help="power of p in the truncation depth (default 1)")
    pd.add_argument("--variant", choices=("half", "full", "both"), default="both")
    _add_output_args(pd)

    pt = sub.add_parser("table", help="print the closed-form table values")
    pt.add_argument("--m", default="3,5,7", help="comma-separated weights (subset of 3,5,7)")
    pt.add_argument("--n", default="2..10", help="n range lo..hi (default 2..10)")
    _add_output_args(pt)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs = {"command": args.command, "format": args.format, "jobs": args.jobs}
    if args.command == "verify":
        lo, hi = _parse_range(args.primes)
        ids = DEFAULT_CHECK_IDS if args.checks == "all" else _split_ids(args.checks)
        kwargs.update(prime_min=lo, prime_max=hi, check_ids=ids, include_p3=args.include_p3)
    elif args.command in ("lemma", "table"):
        n_lo, n_hi = _parse_range(args.n)
        kwargs.update(m_values=_parse_ints(args.m), n_min=n_lo, n_max=n_hi)
    elif args.command == "wz":
        t_lo, t_hi = _parse_range(args.telescope)
        b_lo, b_hi = _parse_range(args.boundary)
        kwargs.update(grid_max=args.grid, telescope_min=t_lo, telescope_max=t_hi,
                      boundary_min=b_lo, boundary_max=b_hi)
    elif args.command == "discover":
        lo, hi = _parse_range(args.primes)
        family = args.family.upper()
        m_values = DISCOVER_DEFAULT_M[family] if args.m == "all" else _parse_ints(args.m)
        kwargs.update(prime_min=lo, prime_max=hi, family=family, m_values=m_values,
                      r=args.r, variant=args.variant)
    return RunConfig(**kwargs)


def _split_ids(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported the usage error
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        if cfg.command == "verify":
            return _cmd_verify(cfg, sys.stdout)
        if cfg.command == "lemma":
            return _cmd_lemma(cfg, sys.stdout)
        if cfg.command == "wz":
            return _cmd_wz(cfg, sys.stdout)
        if cfg.command == "discover":
            return _cmd_discover(cfg, sys.stdout, sys.stderr)
        return _cmd_table(cfg, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
