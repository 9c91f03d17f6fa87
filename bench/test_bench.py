"""Tests of the benchmark itself: determinism of its counters and its output contract.

    python3 -m pytest -q bench/test_bench.py

They take about two minutes: each builds real inputs and runs real passes.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

# Counters that another seed sets to another value, per workload. Sample
# counts of waterbed and cli-batch are fixed by their grids, and two seeds'
# bisections can take the same number of steps.
SEEDED_COUNTERS = {
    "waterbed": ("robustness.panels_outer.velocity", "robustness.panels_inner"),
    "locus": ("stability.locus_points", "zalg.poly_roots_calls", "loops.build_calls"),
    "timedomain": ("sim.steps",),
    "cli-batch": ("cli.csv_bytes",),
}


def _counts(workload, seed, workdir):
    ops = run.build_ops(workload, seed, workdir)
    if workload == "cli-batch":
        # Only simulate output depends on the seed's scenario; skip the rest for speed.
        ops = [op for op in ops if op.label.startswith("simulate")]
    result = run.run_pass(ops, Tracer(False), 0)
    assert result.failures == []
    return result.tally.counts


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat_for_a_seed_and_change_with_it(workload, tmp_path):
    first = _counts(workload, 3, tmp_path / "a")
    again = _counts(workload, 3, tmp_path / "b")
    other = _counts(workload, 4, tmp_path / "c")
    assert first == again
    for key in SEEDED_COUNTERS[workload]:
        assert first[key] != other[key], key


def test_known_defects_stay_in_the_inputs(tmp_path):
    counts = _counts("waterbed", 5, tmp_path)
    # The position regulation point: analytic 9.5e-8 instead of 0, ~159k panels.
    assert 9e-8 < counts["robustness.abs_error_max"] < 1e-3
    assert counts["robustness.panels_outer.position"] > 100_000
    # The criterion-5 case: position kind at alpha = 3.9 diverges.
    assert _counts("timedomain", 5, tmp_path)["sim.diverged_runs"] >= 1


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "locus", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace:
        assert result["metrics"]["stability.share"]["value"] > 0.5


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "locus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaling_follows_the_reference_kernel(tmp_path):
    ref = run.hostspeed.REF_S
    with run.hostspeed.Sampler(tmp_path / "samples.txt") as sampler:
        time.sleep(0.3)
    assert sampler.proc.returncode is not None and len(sampler.times) >= 4
    # Kernel times at the reference speed, then twice and four times as long.
    sampler.ends, sampler.times = [0.0, 1.0, 1.2, 9.0], [ref, 2 * ref, 4 * ref, 8 * ref]
    p = run.Pass([(0.0, 0.5), (1.0, 1.2)], run.Tally(), [])
    # The first op has one sample near it; the second has two, whose median is 3 REF_S.
    assert p.scaled(sampler) == pytest.approx([0.5, 0.2 / 3])
    assert p.wall == pytest.approx(0.7)
