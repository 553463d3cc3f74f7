"""Workload inputs and the output oracle of the supercong benchmark.

Each workload is one or more `supercong` command lines.  The seed picks a
window from a small set of similar cost, so a change cannot be tuned to one
window (discovery excepted, see below); the program only ever sees the
resulting arguments.

The oracle judges one command's output on its own: the exit code, the
stdout hash recorded in golden.json, and the paper's invariants, which are
worked out here from the arguments alone, without asking the program.
Golden hashes are keyed by the command line without `--jobs`, so the
verify-wide and verify-jobs2 outputs of one seed must be byte-identical.

Run this file to record golden.json again from the current program; each
output is accepted only if it meets the invariants:

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = {
    "verify-wide": "all 18 default checks at --jobs 1: the paper's main surface, dominated by checks and series",
    "verify-jobs2": "the verify-wide inputs at --jobs 2: (check, p) tasks on cold-cache workers, Fractions pickled back",
    "discover-deep": "family c at r=2: few very long exact sums through extract_residue; never enters checks",
    "identities": "exact lemma and WZ identity scans on the prefix caches; never calls vp, partial_sum or conjectures",
}

# The top prime of a window is its costliest: one twin prime more at the top
# of a verify window costs 8% more, and one more at the top of an r=2
# discovery window 20-30%.  So the seed moves only cheap parts: the low end
# of the verify window (one prime fewer drops 18 of ~790 records) and the
# telescope range of the identity scans.  Discovery has no such part: one
# prime fewer at the bottom drops 11% of its residue cells, so every seed
# gets the same discovery window.
VERIFY_LOWS = (5, 7)
VERIFY_TOP = 199
DISCOVER_PRIMES = "5..31"
TELESCOPE_TOPS = (191, 193, 197, 199)
LEMMA_N = 100
WZ_GRID = 80

DEFAULT_CHECK_IDS = (
    "boundary_mod", "combined_m3", "combined_m5", "combined_m7", "gs0", "h2_cong",
    "lemma_sun1", "lemma_sun3", "ratio_expansion_mod2", "ratio_expansion_mod4",
    "sun_refinement", "tail_congruence", "thm1", "thm2", "thm3_m3", "thm3_m5",
    "thm3_m7", "van_hamme",
)
# Every default check's floor is 3 or 5 and verify windows start at 5 or
# above, so each check has one record per prime of the window.

# README: c_1..c_11 over the discovery primes.
C_CONSTANTS = {1: -1, 3: 3, 5: 23, 7: -5, 9: 1647, 11: -96973}
LEMMA_WEIGHTS = (3, 5, 7)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The command lines one iteration of the workload runs, in order."""
    if workload in ("verify-wide", "verify-jobs2"):
        lo = VERIFY_LOWS[seed % len(VERIFY_LOWS)]
        jobs = "1" if workload == "verify-wide" else "2"
        return [["verify", "--primes", f"{lo}..{VERIFY_TOP}", "--format", "json", "--jobs", jobs]]
    if workload == "discover-deep":
        return [["discover", "--family", "c", "--r", "2", "--primes", DISCOVER_PRIMES]]
    if workload == "identities":
        top = TELESCOPE_TOPS[seed % len(TELESCOPE_TOPS)]
        return [
            ["lemma", "--m", "3,5,7", "--n", f"2..{LEMMA_N}"],
            ["wz", "--grid", str(WZ_GRID), "--telescope", f"3..{top}", "--boundary", f"3..{2 * top + 1}"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def jobs(argv: list[str]) -> int:
    return int(_opt(argv, "--jobs", "1"))


def golden_key(argv: list[str]) -> str:
    """The command line without `--jobs N`: output must not depend on it."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--jobs":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def _opt(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _range(text: str) -> tuple[int, int]:
    lo, hi = text.split("..")
    return int(lo), int(hi)


def odd_primes(lo: int, hi: int) -> list[int]:
    def prime(n: int) -> bool:
        return n > 2 and n % 2 == 1 and all(n % d for d in range(3, int(n**0.5) + 1, 2))

    return [n for n in range(max(lo, 3), hi + 1) if prime(n)]


def _verify_expected(argv):
    primes = odd_primes(*_range(_opt(argv, "--primes", "5..199")))
    return [(c, p) for c in DEFAULT_CHECK_IDS for p in primes]


def _discover_primes(argv):
    lo, hi = _range(_opt(argv, "--primes", "5..199"))
    return odd_primes(max(lo, 5), hi)


def _wz_counts(argv):
    grid = int(_opt(argv, "--grid", "60"))
    b_lo, b_hi = _range(_opt(argv, "--boundary", "3..199"))
    return {
        "wz_relation": grid * (grid + 1) // 2,
        "wz_telescoped": len(odd_primes(*_range(_opt(argv, "--telescope", "3..97")))),
        "wz_boundary": len(range(max(b_lo | 1, 3), b_hi + 1, 2)),
    }


def _lemma_counts(argv):
    lo, hi = _range(_opt(argv, "--n", "2..50"))
    return {(c, m): hi - lo + 1 for c in ("lemma_f", "lemma_g") for m in LEMMA_WEIGHTS}


def items(argv: list[str]) -> int:
    """Work items the command does: verify records, (m, p, variant) residue
    cells, or scanned identity instances."""
    cmd = argv[0]
    if cmd == "verify":
        return len(_verify_expected(argv))
    if cmd == "discover":
        return len(C_CONSTANTS) * len(_discover_primes(argv)) * 2
    if cmd == "lemma":
        return sum(_lemma_counts(argv).values())
    if cmd == "wz":
        return sum(_wz_counts(argv).values())
    raise ValueError(f"no item count for {cmd!r}")


def _verify_invariants(argv, stdout):
    records = [json.loads(line) for line in stdout.splitlines()]
    if any(rec["pass"] is not True for rec in records):
        return "a verify record does not pass"
    pairs = [(rec["check_id"], rec["p"]) for rec in records]
    if pairs != _verify_expected(argv):
        return f"verify emitted {len(pairs)} (check, p) records, not the sorted expected set"
    return None


_DISCOVERY = re.compile(
    r"family C\s+m=(\d+)\s+r=(\d+)\s+constant = (-?\d+)\s+consistent=(\S+)\s+"
    r"primes (\d+)\.\.(\d+) \((\d+)\)"
)


def _discover_invariants(argv, stdout):
    primes = _discover_primes(argv)
    r = _opt(argv, "--r", "1")
    want = [
        (str(m), r, str(c), "true", str(primes[0]), str(primes[-1]), str(len(primes)))
        for m, c in C_CONSTANTS.items()
    ]
    got = [_DISCOVERY.fullmatch(line.rstrip()) for line in stdout.splitlines()]
    if [g.groups() if g else None for g in got] != want:
        return "discover constants differ from c_1..c_11 = -1, 3, 23, -5, 1647, -96973"
    return None


_SCAN = re.compile(r"(\S+)\s+(.+?)\s+(\d+) instances  (pass|FAIL at \S+)")


def _scans(stdout):
    rows = [_SCAN.fullmatch(line.rstrip()) for line in stdout.splitlines()]
    return None if None in rows else [row.groups() for row in rows]


def _lemma_invariants(argv, stdout):
    rows = _scans(stdout)
    lo, hi = _range(_opt(argv, "--n", "2..50"))
    want = [(c, f"m={m},n={lo}..{hi}", str(n), "pass") for (c, m), n in _lemma_counts(argv).items()]
    return None if rows == want else "a lemma scan fails or has the wrong instance count"


def _wz_invariants(argv, stdout):
    rows = _scans(stdout)
    want = [(c, str(n), "pass") for c, n in _wz_counts(argv).items()]
    if rows is None or [(c, n, s) for c, _, n, s in rows] != want:
        return "a wz scan fails or has the wrong instance count"
    return None


INVARIANTS = {
    "verify": _verify_invariants,
    "discover": _discover_invariants,
    "lemma": _lemma_invariants,
    "wz": _wz_invariants,
}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def failure(argv: list[str], rc: int, stdout: str, golden: dict[str, str]) -> str | None:
    """Why one command's run fails the oracle, or None when it passes."""
    if rc != 0:
        return f"exit code {rc}"
    want = golden.get(golden_key(argv))
    if want is None:
        return f"no golden hash for {golden_key(argv)!r}"
    if digest(stdout) != want:
        return "stdout differs from the golden hash"
    try:
        return INVARIANTS[argv[0]](argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


def _all_windows() -> dict[str, list[str]]:
    """Every distinct command line any seed can produce, by golden key."""
    out = {}
    for workload in WORKLOADS:
        for seed in range(12):  # 12 is a multiple of every window-set size
            for argv in commands(workload, seed):
                out.setdefault(golden_key(argv), argv)
    return out


def record_golden() -> int:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    golden = {}
    for key, argv in sorted(_all_windows().items()):
        proc = subprocess.run(
            [sys.executable, "-m", "supercong.cli", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
        )
        why = f"exit code {proc.returncode}" if proc.returncode else INVARIANTS[argv[0]](argv, proc.stdout)
        if why:
            print(f"{key}: {why}", file=sys.stderr)
            return 1
        golden[key] = digest(proc.stdout)
        print(f"{key}: {golden[key]}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(record_golden())
