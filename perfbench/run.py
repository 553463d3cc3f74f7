"""Benchmark of the supercong CLI: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload verify-wide --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's src/; nothing is installed.

--trace 0 measures what a user of the CLI sees.  It first times set-up, a
fresh interpreter importing supercong.cli and parsing arguments, several
times.  Then, for --seconds, it runs the workload's commands as CLI child
processes, one at a time (a closed loop with one client).  CPU time and
memory come from each child's own rusage (os.wait4), which covers the pool
workers it reaped and nothing else.

The shared host alternates between quiet spells and spells about 1.5x slower
that last 30-60 s, so a raw time depends mostly on the spell a run lands in.
A fixed reference task (REFERENCE) therefore runs before and after every
measured child, and each time is divided by the host's slowdown over that
child: the reference's mean time around it over REFERENCE_S.  The reported
times are the medians of these host-normalised times, in seconds of a host on
which the reference takes REFERENCE_S; the raw times are printed beside them.
Peak resident memory is the plain median.

--trace 1 alternates traced and untraced in-process iterations (tracer.py,
a fresh interpreter each) for --seconds.  The per-layer metrics are those of
the fastest traced iteration; the tracing overhead is its supercong.cli.run
wall time minus the fastest untraced one.  Spans go to
perfbench/out/spans-<workload>.jsonl.

Every iteration's output goes through the oracle in workloads.py.  The last
line of stdout is one JSON object: correct, attempted, failed (iterations
that failed the oracle; failed/attempted is the fail ratio) and metrics.
Without src/supercong the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import EXACT_COUNTS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_RUNS = 7
SETUP_CODE = "import sys; from supercong.cli import run; sys.exit(run(['--help']))"
# A fixed exact-arithmetic task in the program's style (an alternating sum of
# cubed rising-factorial ratios) that imports nothing from the program.  Its
# wall and CPU time, taken right before and after each measured child, give
# the host's slowdown at that moment; REFERENCE_S is its time on a quiet host.
REFERENCE = """\
from fractions import Fraction
s, u = Fraction(0), Fraction(1)
for k in range(1, 1400):
    u *= Fraction(2 * k - 3, 2 * k)
    s += (-1) ** k * (4 * k - 1) * u**3
"""
REFERENCE_S = 0.2
CHILD_TIMEOUT_S = 120.0


def _env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def spawn(
    argv: list[str], timeout: float = CHILD_TIMEOUT_S
) -> tuple[int, str, float, resource.struct_rusage]:
    """Run one child to exit: (exit code, stdout, wall seconds, its rusage).

    The rusage comes from os.wait4 on this child alone, so it covers the
    child and the pool workers it reaped, and no other process.  A child
    still running at the timeout is killed with its process group.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=_env(), cwd=ROOT, start_new_session=True)
    out = bytearray()
    fd = proc.stdout.fileno()
    deadline = start + timeout
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            os.killpg(proc.pid, signal.SIGKILL)
            break
        if select.select([fd], [], [], left)[0]:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, out.decode(errors="replace"), wall, usage


class Host:
    """Slowdown of the shared host around each measured child, from the
    reference task run before and after it."""

    def __init__(self) -> None:
        self.refs = [self._reference()]

    @staticmethod
    def _reference() -> tuple[float, float]:
        rc, _, wall, usage = spawn([sys.executable, "-c", REFERENCE])
        if rc != 0:
            raise RuntimeError(f"reference task exited {rc}")
        return wall, usage.ru_utime + usage.ru_stime

    def slowdown(self) -> tuple[float, float]:
        """(wall, CPU) slowdown over the child measured since the last call."""
        self.refs.append(self._reference())
        (w0, c0), (w1, c1) = self.refs[-2:]
        return (w0 + w1) / (2 * REFERENCE_S), (c0 + c1) / (2 * REFERENCE_S)


def cli_iteration(commands, golden) -> tuple[dict, str | None]:
    """Run the workload's commands as CLI children, one after another."""
    sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
    why = None
    for argv in commands:
        rc, stdout, wall, usage = spawn([sys.executable, "-m", "supercong.cli", *argv])
        sample["wall_s"] += wall
        sample["cpu_s"] += usage.ru_utime + usage.ru_stime
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], usage.ru_maxrss / 1024)
        why = why or wl.failure(argv, rc, stdout, golden)
    sample["items_per_s"] = sum(map(wl.items, commands)) / sample["wall_s"]
    return sample, why


def traced_iteration(commands, golden, trace, workload, run, spans) -> tuple[dict, str | None]:
    """One in-process iteration in a fresh interpreter, with or without tracing."""
    argv = [sys.executable, str(HERE / "tracer.py"), "--commands", json.dumps(commands),
            "--trace", str(trace), "--workload", workload, "--run", str(run), "--spans", str(spans)]
    rc, stdout, _, _ = spawn(argv)
    if rc != 0:
        return {}, f"tracer child exited {rc}"
    result = json.loads(stdout)
    whys = [wl.failure(a, r, o, golden) for a, r, o in zip(commands, result["rc"], result["stdout"])]
    return result, next(filter(None, whys), None)


def _spread(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"min={min(values):.4g} q1={q1:.4g} median={median:.4g} q3={q3:.4g} max={max(values):.4g}"


def commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_cli(workload, commands, golden, seconds):
    host = Host()
    spawn([sys.executable, "-c", SETUP_CODE])  # warm-up: fills the bytecode cache
    setup = []
    for _ in range(SETUP_RUNS):
        rc, _, wall, _ = spawn([sys.executable, "-c", SETUP_CODE])
        if rc != 0:
            raise RuntimeError(f"set-up child exited {rc}")
        setup.append({"raw": {"setup_s": wall}, "setup_s": wall / host.slowdown()[0]})
    samples, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        raw, why = cli_iteration(commands, golden)
        wall_x, cpu_x = host.slowdown()
        samples.append({
            "raw": raw,
            "wall_s": raw["wall_s"] / wall_x,
            "items_per_s": raw["items_per_s"] * wall_x,
            "cpu_s": raw["cpu_s"] / cpu_x,
            "peak_rss_mb": raw["peak_rss_mb"],
        })
        if why:
            failed += 1
            print(f"iteration {len(samples)} failed the oracle: {why}")
    metrics = {key: statistics.median(s[key] for s in samples)
               for key in ("wall_s", "items_per_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
    for key, unit in END_TO_END:
        rows = setup if key == "setup_s" else samples
        raw = [s["raw"][key] for s in rows]
        print(f"{key:<13} {metrics[key]:12.6g} {unit:<4} median of {len(rows)}: "
              f"{_spread([s[key] for s in rows])}"
              + ("" if key == "peak_rss_mb" else f"; before host normalisation {_spread(raw)}"))
    slow = [w / REFERENCE_S for w, _ in host.refs]
    print(f"host slowdown (reference wall / {REFERENCE_S} s): {_spread(slow)}")
    return metrics, len(samples), failed


def run_traced(workload, commands, golden, seconds):
    spans = OUT / f"spans-{workload}.jsonl"
    spans.write_text("")
    results = {0: [], 1: []}
    failed = 0
    deadline = time.perf_counter() + seconds
    run = 0
    while run < 2 or time.perf_counter() < deadline:
        trace = 1 - run % 2
        result, why = traced_iteration(commands, golden, trace, workload, run, spans)
        run += 1
        if why:
            failed += 1
            print(f"iteration {run} (trace {trace}) failed the oracle: {why}")
            continue
        results[trace].append(result)
    traced, untraced = results[1], results[0]
    if not traced:
        return {name: 0.0 for name, _, _ in PER_LAYER}, run, failed
    for name in EXACT_COUNTS:
        if len({r["metrics"][name] for r in traced}) > 1:
            failed += 1
            print(f"count {name} differs between traced iterations of one seed")
    # The per-layer figures all come from the fastest traced iteration, so
    # they add up within one run.
    best = min(traced, key=lambda r: r["wall_s"])
    untraced_wall = min((r["wall_s"] for r in untraced), default=0.0)
    metrics = {**best["metrics"], "trace.overhead_s": best["wall_s"] - untraced_wall}
    _print_breakdown(metrics, best["self_s"], untraced_wall, len(traced), len(untraced))
    return metrics, run, failed


def _print_breakdown(metrics, self_s, untraced_wall, n_traced, n_untraced):
    run_s = metrics["cli.run_s"]
    print(f"cli.run: traced {run_s:.4f} s (best of {n_traced}), untraced {untraced_wall:.4f} s "
          f"(best of {n_untraced}), overhead {metrics['trace.overhead_s']:.4f} s")
    print(f"{'span':<36} {'calls':>8} {'total_s':>9} {'self_s':>9} {'self%':>6}")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"{name:<36} {metrics[name + '.calls']:>8.0f} {metrics[name + '_s']:>9.4f} "
              f"{self_s[name]:>9.4f} {100 * self_s[name] / run_s:>6.1f}")
    check_s = metrics["checks.check_s"]
    if check_s:
        print("checks.check_s by check id:")
        by_id = [(n, v) for n, v in metrics.items() if n.startswith("checks.check.") and n.endswith("_s")]
        for name, value in sorted(by_id, key=lambda kv: kv[1], reverse=True):
            print(f"  {name[len('checks.check.'):-2]:<22} {value:9.4f} s {100 * value / check_s:5.1f}%")
    for name, unit, _ in PER_LAYER:
        print(f"{name:<44} {metrics[name]:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the supercong CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "supercong" / "cli.py").is_file():
        print(f"error: no supercong source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    golden = wl.load_golden()
    commands = wl.commands(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: "
          + " ; ".join("supercong " + " ".join(a) for a in commands))
    load_before = os.getloadavg()
    if args.trace:
        metrics, attempted, failed = run_traced(args.workload, commands, golden, args.seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, attempted, failed = run_cli(args.workload, commands, golden, args.seconds)
        units = dict(END_TO_END)
    env = {
        "nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu_model(),
        "commit": commit(), "load_before": load_before, "load_after": os.getloadavg(),
    }
    print(f"fail_ratio    {failed}/{attempted} = {failed / attempted:g}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "commands": commands, "env": env, **result}
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
