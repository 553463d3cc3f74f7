"""In-process runs of the supercong CLI, traced layer by layer from outside.

run.py starts this file as a fresh interpreter for each traced or untraced
iteration, so every iteration starts with cold caches, as a CLI user does:

    python3 perfbench/tracer.py --commands '[["verify", ...]]' --trace 1 \
        --workload verify-wide --run 0 --spans perfbench/out/spans.jsonl

It imports supercong from the checkout's src/, and with --trace 1 wraps each
layer's public functions (TIMED, COUNTED) at every module attribute that
holds them, including the names other modules imported, so nothing under
src/ changes.  It then calls supercong.cli.run(argv) for each command with
stdout captured and prints one JSON object: exit codes, stdouts, wall time
and, with tracing, the per-layer metrics and self times.  Spans stay in
memory and are appended to --spans when the iteration ends.  Pool workers
are separate processes; their inner spans are not collected.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import DEFAULT_CHECK_IDS as CHECK_IDS
from workloads import jobs

SRC = Path(__file__).resolve().parent.parent / "src"

# Layer functions wrapped as spans; a span's name is "<module>.<function>".
TIMED = (
    "cli.run",
    "checks.check",
    "checks.check_lemma_f",
    "checks.check_lemma_g",
    "series.pochhammer_ratio_product",
    "series.partial_sum",
    "series.wz_F",
    "series.wz_G",
    "series.check_wz_relation",
    "series.check_telescoped_identity",
    "special.h2",
    "special.euler_number",
    "arith.vp",
    "arith.make_report",
    "arith.crt_lift",
    "conjectures.extract_residue",
    "conjectures.discover_constant",
)
# Called too often and too briefly to time: counted only.
COUNTED = ("arith.is_odd_prime",)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{n}_s", "s", "lower") for n in TIMED]
    + [(f"{n}.calls", "count", "lower") for n in TIMED + COUNTED]
    + [(f"checks.check.{c}_s", "s", "lower") for c in CHECK_IDS]
    + [
        ("series.pochhammer_ratio_product.factors", "count", "lower"),
        ("series.partial_sum.terms", "count", "lower"),
        ("series.partial_sum.peak_bits", "bits", "lower"),
        ("conjectures.extract_residue.cell_max_s", "s", "lower"),
        ("conjectures.lift_primes", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.pool_busy_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# Counts a later change may rest a count-based claim on: they must repeat
# exactly across traced runs of one seed.
EXACT_COUNTS = (
    "series.partial_sum.terms",
    "series.partial_sum.peak_bits",
    "series.pochhammer_ratio_product.factors",
    "arith.vp.calls",
    "arith.is_odd_prime.calls",
    "conjectures.lift_primes",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# What a span keeps besides its times: the check id, the product length k,
# or the sum's (terms, bit length of the result).
NOTES = {
    "checks.check": lambda a, kw, r: _arg(a, kw, 0, "check_id"),
    "series.pochhammer_ratio_product": lambda a, kw, r: _arg(a, kw, 1, "k"),
    "series.partial_sum": lambda a, kw, r: (_arg(a, kw, 0, "spec").upper + 1, _bits(r)),
}


class Tracer:
    """Spans [id, parent, name, start, end, note] and call counts of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)

    def timed(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock, note = time.perf_counter, NOTES.get(name)

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append([sid, parent, name, start, end, None])
            if note is not None:
                spans[-1][5] = note(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every TIMED and COUNTED function at each supercong module
        attribute bound to it."""
        import supercong.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items() if n == "supercong" or n.startswith("supercong.")]
        for name in TIMED + COUNTED:
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"supercong.{layer}"], fn_name)
            wrapped = self.timed(name, original) if name in TIMED else self.counted(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        children = defaultdict(float)
        for sid, parent, name, start, end, _ in self.spans:
            children[parent] += end - start
        out = defaultdict(float)
        for sid, parent, name, start, end, _ in self.spans:
            out[name] += end - start - children[sid]
        return dict(out)

    def metrics(self, busy_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s, which needs an
        untraced run to compare with."""
        total, calls, by_check = defaultdict(float), Counter(self.counts), defaultdict(float)
        names = {span[0]: span[2] for span in self.spans}
        factors = terms = peak_bits = lift_primes = 0
        cell_max = 0.0
        for sid, parent, name, start, end, note in self.spans:
            d = end - start
            total[name] += d
            calls[name] += 1
            if name == "checks.check":
                by_check[note] += d
            elif name == "series.pochhammer_ratio_product":
                factors += note
            elif name == "series.partial_sum":
                terms += note[0]
                peak_bits = max(peak_bits, note[1])
            elif name == "conjectures.extract_residue":
                cell_max = max(cell_max, d)
            elif name == "arith.crt_lift" and names.get(parent) == "conjectures.discover_constant":
                lift_primes += 1
        out = {f"{n}_s": total[n] for n in TIMED}
        out.update({f"{n}.calls": calls[n] for n in TIMED + COUNTED})
        out.update({f"checks.check.{c}_s": by_check[c] for c in CHECK_IDS})
        out.update({
            "series.pochhammer_ratio_product.factors": factors,
            "series.partial_sum.terms": terms,
            "series.partial_sum.peak_bits": peak_bits,
            "conjectures.extract_residue.cell_max_s": cell_max,
            "conjectures.lift_primes": lift_primes,
            "cli.self_s": self.self_times().get("cli.run", 0.0),
            "cli.pool_busy_ratio": busy_ratio,
            "trace.spans": len(self.spans),
        })
        return out

    def write(self, path: Path, workload: str, run: int) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        with path.open("a") as f:
            for sid, parent, name, start, end, _ in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start - t0,
                    "end": end - t0, "workload": workload, "run": run,
                }, separators=(",", ":")) + "\n")


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_commands(commands: list[list[str]], tracer: Tracer | None) -> dict:
    """Call supercong.cli.run(argv) for each command with stdout captured."""
    sys.path.insert(0, str(SRC))
    import supercong.cli

    if tracer is not None:
        tracer.install()
    rcs, stdouts, wall = [], [], 0.0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    # Pool workers are this fresh process's only children.
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rcs.append(supercong.cli.run(argv))
            wall += time.perf_counter() - start
        stdouts.append(buf.getvalue())
    cpu = (_cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self0)
           + _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(kids0))
    out = {"rc": rcs, "stdout": stdouts, "wall_s": wall}
    if tracer is not None:
        out["metrics"] = tracer.metrics(cpu / (max(map(jobs, commands)) * wall))
        out["self_s"] = tracer.self_times()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="One in-process iteration of a benchmark workload.")
    ap.add_argument("--commands", required=True, help="JSON list of CLI argument lists")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--run", type=int, required=True)
    ap.add_argument("--spans", type=Path, required=True, help="file the spans are appended to")
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    result = run_commands(json.loads(args.commands), tracer)
    if tracer is not None:
        tracer.write(args.spans, args.workload, args.run)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
