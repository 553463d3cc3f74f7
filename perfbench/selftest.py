"""Tests of the benchmark itself, kept out of the repository's test suite.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import EXACT_COUNTS, PER_LAYER  # noqa: E402


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(workload, tmp_path):
    commands = wl.commands(workload, 1)
    golden = wl.load_golden()
    runs = [run.traced_iteration(commands, golden, 1, workload, i, tmp_path / "spans.jsonl") for i in (0, 1)]
    for result, why in runs:
        assert why is None
    first, second = (result["metrics"] for result, _ in runs)
    assert {n: first[n] for n in EXACT_COUNTS} == {n: second[n] for n in EXACT_COUNTS}
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_every_seed_window_has_a_golden_hash():
    golden = wl.load_golden()
    for workload in wl.WORKLOADS:
        for seed in range(-3, 30):
            for argv in wl.commands(workload, seed):
                assert wl.golden_key(argv) in golden


def test_item_counts_match_the_paper_sized_runs():
    assert wl.items(["verify", "--primes", "5..499", "--format", "json", "--jobs", "1"]) == 1674
    assert wl.items(["discover", "--family", "c", "--r", "2", "--primes", "5..43"]) == 144
    assert wl.items(["lemma", "--m", "3,5,7", "--n", "2..200"]) == 6 * 199
    wz = ["wz", "--grid", "150", "--telescope", "3..199", "--boundary", "3..399"]
    assert wl.items(wz) == 11325 + 45 + 199


def test_oracle_rejects_wrong_exit_code_and_altered_output():
    golden = wl.load_golden()
    argv = wl.commands("identities", 0)[0]
    rc, stdout, _, _ = run.spawn([sys.executable, "-m", "supercong.cli", *argv])
    assert wl.failure(argv, rc, stdout, golden) is None
    assert wl.failure(argv, 1, stdout, golden) == "exit code 1"
    assert wl.failure(argv, rc, stdout.replace("pass", "FAIL at n=2", 1), golden) is not None
    assert wl.failure(argv, rc, stdout, {}) is not None
    # A failing scan is caught by the invariants even with a matching hash.
    broken = stdout.replace("pass", "FAIL at n=2", 1)
    assert wl.failure(argv, rc, broken, {wl.golden_key(argv): wl.digest(broken)}) is not None


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
