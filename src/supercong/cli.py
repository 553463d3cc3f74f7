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
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, TextIO

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

CONGRUENCE_CSV_HEADER = "check_id,p,m,r,lhs,rhs,required_valuation,achieved_valuation,pass"
DISCOVERY_CSV_HEADER = "family,m,r,constant,consistent,n_primes,prime_min,prime_max"
SCAN_CSV_HEADER = "check_id,scope,instances,pass,first_failure"
TABLE_CSV_HEADER = "m,n,f,g"

#: Largest upper end accepted for --primes and --telescope: the prime sieve
#: allocates one byte per integer up to it.
PRIME_CAP = 10**7

DISCOVER_DEFAULT_M = {"C": (1, 3, 5, 7, 9, 11), "D": (1, 3, 5, 7, 9, 11, 13, 15)}


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _valuation_str(v) -> str:
    return "inf" if math.isinf(v) else str(int(v))


def _opt(v) -> str:
    return "" if v is None else str(v)


def _bool_str(v: bool | None) -> str:
    return "" if v is None else ("true" if v else "false")


def _short(s: str, width: int = 30) -> str:
    if len(s) <= width:
        return s
    keep = (width - 2) // 2
    return f"{s[:keep]}..{s[-keep:]}"


def serialize_report(report: CongruenceReport | DiscoveryResult, fmt: str = "json") -> str:
    """One serialized record, without trailing newline.

    JSON records are single-line objects; rationals render as exact "num/den"
    strings and an infinite valuation renders as "inf".  CSV and text rows
    use the same column order as their stream headers (emitted separately).
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if isinstance(report, CongruenceReport):
        return _serialize_congruence(report, fmt)
    return _serialize_discovery(report, fmt)


def _serialize_congruence(rep: CongruenceReport, fmt: str) -> str:
    ach = rep.achieved_valuation
    if fmt == "json":
        rec = {
            "check_id": rep.check_id,
            "p": rep.p,
            "m": rep.m,
            "r": rep.r,
            "lhs": _rat(rep.lhs),
            "rhs": _rat(rep.rhs),
            "required_valuation": rep.required_valuation,
            "achieved_valuation": "inf" if math.isinf(ach) else int(ach),
            "pass": rep.passed,
        }
        if rep.informational:
            rec["informational"] = True
        return json.dumps(rec, separators=(",", ":"))
    if fmt == "csv":
        return ",".join(
            [
                rep.check_id,
                str(rep.p),
                _opt(rep.m),
                _opt(rep.r),
                _rat(rep.lhs),
                _rat(rep.rhs),
                str(rep.required_valuation),
                _valuation_str(ach),
                _bool_str(rep.passed),
            ]
        )
    status = "info" if rep.passed is None else ("pass" if rep.passed else "FAIL")
    return (
        f"{rep.check_id:<22} {rep.p:>5} {_opt(rep.m) or '-':>3} {_opt(rep.r) or '-':>3} "
        f"{_short(_rat(rep.lhs)):<32} {_short(_rat(rep.rhs)):<28} "
        f"{rep.required_valuation:>3} {_valuation_str(ach):>4} {status}"
    )


def _serialize_discovery(res: DiscoveryResult, fmt: str) -> str:
    primes = [p for p, _, _ in res.evidence]
    if fmt == "json":
        rec = {
            "family": res.family,
            "m": res.m,
            "r": res.r,
            "constant": res.constant,
            "consistent": res.consistent,
            "primes": primes,
            "evidence": [[p, rem, mod] for p, rem, mod in res.evidence],
        }
        return json.dumps(rec, separators=(",", ":"))
    if fmt == "csv":
        return ",".join(
            [
                res.family,
                str(res.m),
                str(res.r),
                str(res.constant),
                _bool_str(res.consistent),
                str(len(primes)),
                str(min(primes)),
                str(max(primes)),
            ]
        )
    return (
        f"family {res.family}  m={res.m:<2} r={res.r}  constant = {res.constant:<10} "
        f"consistent={'true' if res.consistent else 'FALSE'}  "
        f"primes {min(primes)}..{max(primes)} ({len(primes)})"
    )


@dataclass(frozen=True)
class ScanRecord:
    """Summary of an exact-identity scan (lemma / telescoping commands)."""

    check_id: str
    scope: str
    instances: int
    passed: bool
    first_failure: str | None


def _serialize_scan(rec: ScanRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "check_id": rec.check_id,
                "scope": rec.scope,
                "instances": rec.instances,
                "pass": rec.passed,
                "first_failure": rec.first_failure,
            },
            separators=(",", ":"),
        )
    if fmt == "csv":
        return ",".join(
            [
                rec.check_id,
                rec.scope,
                str(rec.instances),
                _bool_str(rec.passed),
                _opt(rec.first_failure),
            ]
        )
    status = "pass" if rec.passed else f"FAIL at {rec.first_failure}"
    return f"{rec.check_id:<16} {rec.scope:<16} {rec.instances:>6} instances  {status}"


CONGRUENCE_TEXT_HEADER = (
    f"{'check_id':<22} {'p':>5} {'m':>3} {'r':>3} {'lhs':<32} {'rhs':<28} "
    f"{'req':>3} {'ach':>4} status"
)


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
        if self.prime_min > self.prime_max:
            raise ValueError(f"empty prime range {self.prime_min}..{self.prime_max}")
        for flag, hi in (("--primes", self.prime_max), ("--telescope", self.telescope_max)):
            if hi > PRIME_CAP:
                raise ValueError(f"{flag} upper end {hi} exceeds the cap {PRIME_CAP}")
        if self.r < 1:
            raise ValueError("r must be >= 1")
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


def _emit(out: TextIO, fmt: str, header: str | None, lines: list[str]) -> None:
    if fmt in ("csv", "text") and header is not None:
        out.write(header + "\n")
    for line in lines:
        out.write(line + "\n")


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
    reports = _map_tasks(_verify_task, tasks, cfg.jobs)
    reports.sort(key=lambda rep: (rep.check_id, rep.p))
    header = CONGRUENCE_CSV_HEADER if cfg.format == "csv" else CONGRUENCE_TEXT_HEADER
    _emit(out, cfg.format, header, [serialize_report(rep, cfg.format) for rep in reports])
    return 1 if any(rep.passed is False for rep in reports) else 0


def _cmd_lemma(cfg: RunConfig, out: TextIO) -> int:
    records = []
    scope = f"n={cfg.n_min}..{cfg.n_max}"
    for check_id, fn in (("lemma_f", check_lemma_f), ("lemma_g", check_lemma_g)):
        for m in sorted(cfg.m_values):
            first_failure = None
            count = 0
            for n in range(cfg.n_min, cfg.n_max + 1):
                count += 1
                if first_failure is None and not fn(m, n):
                    first_failure = f"n={n}"
            records.append(
                ScanRecord(check_id, f"m={m},{scope}", count, first_failure is None, first_failure)
            )
    _emit(out, cfg.format, SCAN_CSV_HEADER if cfg.format == "csv" else None,
          [_serialize_scan(rec, cfg.format) for rec in records])
    return 1 if any(not rec.passed for rec in records) else 0


def _cmd_wz(cfg: RunConfig, out: TextIO) -> int:
    records = []

    first_failure = None
    count = 0
    for n in range(1, cfg.grid_max + 1):
        for k in range(1, n + 1):
            count += 1
            if first_failure is None and not check_wz_relation(n, k):
                first_failure = f"n={n},k={k}"
    records.append(
        ScanRecord("wz_relation", f"1<=k<=n<={cfg.grid_max}", count, first_failure is None, first_failure)
    )

    first_failure = None
    tele_primes = primes_in_range(cfg.telescope_min, cfg.telescope_max)
    for p in tele_primes:
        if first_failure is None and not check_telescoped_identity(p):
            first_failure = f"p={p}"
    records.append(
        ScanRecord(
            "wz_telescoped",
            f"primes {cfg.telescope_min}..{cfg.telescope_max}",
            len(tele_primes),
            first_failure is None,
            first_failure,
        )
    )

    first_failure = None
    count = 0
    for p in range(cfg.boundary_min | 1, cfg.boundary_max + 1, 2):
        if p < 3:
            continue
        count += 1
        direct, closed = boundary_closed_form(p)
        if first_failure is None and direct != closed:
            first_failure = f"p={p}"
    records.append(
        ScanRecord(
            "wz_boundary",
            f"odd p {cfg.boundary_min}..{cfg.boundary_max}",
            count,
            first_failure is None,
            first_failure,
        )
    )

    _emit(out, cfg.format, SCAN_CSV_HEADER if cfg.format == "csv" else None,
          [_serialize_scan(rec, cfg.format) for rec in records])
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
    header = DISCOVERY_CSV_HEADER if cfg.format == "csv" else None
    _emit(out, cfg.format, header, [serialize_report(res, cfg.format) for res in results])
    return 1 if any(not res.consistent for res in results) else 0


def _cmd_table(cfg: RunConfig, out: TextIO) -> int:
    lines = []
    for m in sorted(cfg.m_values):
        if m not in TABLE1_WEIGHTS:
            raise ValueError(f"closed forms exist for m in {TABLE1_WEIGHTS}, got {m}")
        for n in range(max(cfg.n_min, 2), cfg.n_max + 1):
            f, g = table1_f(m, n), table1_g(m, n)
            if cfg.format == "json":
                lines.append(json.dumps(
                    {"m": m, "n": n, "f": _rat(f), "g": _rat(g)}, separators=(",", ":")
                ))
            elif cfg.format == "csv":
                lines.append(f"{m},{n},{_rat(f)},{_rat(g)}")
            else:
                lines.append(f"m={m} n={n:<3} f={_rat(f):<20} g={_rat(g)}")
    _emit(out, cfg.format, TABLE_CSV_HEADER if cfg.format == "csv" else None, lines)
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
    elif args.command == "lemma":
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
    elif args.command == "table":
        n_lo, n_hi = _parse_range(args.n)
        kwargs.update(m_values=_parse_ints(args.m), n_min=n_lo, n_max=n_hi)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
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
