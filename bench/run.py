"""dobkit benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload waterbed --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from ``src/`` beside this
directory. The run repeats the workload's fixed op list ("a pass"), one op
at a time, until ``--seconds`` is spent, checking each op's result. The
in-process workloads split that time over three fresh worker processes, run
one after another, and each worker's start-up (import and input building)
is one set-up sample; for cli-batch, whose ops are processes already, nine
fresh processes write the configs. With ``--trace 1`` half of the time goes
to untraced passes and half to traced ones, and the run reports per-layer
times, deterministic counters and the tracing overhead instead of the
end-to-end metrics. A sampler process times a reference kernel all through
the run, and reported times are scaled to the reference host speed (see
``hostspeed``); the report also prints the measured ones. A
human-readable report comes first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(BENCH), str(SRC)]

import cli_batch  # noqa: E402
import hostspeed  # noqa: E402
from ops import KINDS, CheckFailed, Tally  # noqa: E402
from tracing import LAYERS, Tracer, summarize  # noqa: E402

WORKLOADS = ("cli-batch", "waterbed", "locus", "timedomain")
# Set-up samples per run; in-process workloads run one worker process per sample.
WORKERS = 3
# A cli-batch set-up is a 0.1-second process, so its median takes more samples.
CLI_SETUPS = 9
CLI_COMMANDS = ("analyze", "sweep", "simulate", "bode")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
    ("samples_per_s", "1/s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"cli.{cmd}.{kind}_s", "s") for cmd in CLI_COMMANDS for kind in KINDS]
    + [("cli.csv_bytes", "B"), ("cli.exit_mismatch", "count"),
       ("loops.build_s", "s"), ("loops.build_calls", "count"),
       ("robustness.bode_inner_s", "s"), ("robustness.bode_outer_s", "s"),
       ("robustness.panels_inner", "count")]
    + [(f"robustness.panels_outer.{kind}", "count") for kind in KINDS]
    + [("robustness.freq_sweep_s", "s"), ("robustness.abs_error_max", "1"),
       ("robustness.ill_posed", "count"),
       ("stability.root_locus_s", "s"), ("stability.locus_points", "count"),
       ("stability.exits_found", "count"), ("stability.bisect_s", "s"),
       ("stability.bisect_evals", "count"), ("stability.classify_poles_s", "s"),
       ("stability.constraint_check_s", "s"),
       ("zalg.poly_roots_s", "s"), ("zalg.poly_roots_calls", "count"),
       ("zalg.root_residual_max", "1"),
       ("sim.simulate_s", "s"), ("sim.steps", "count"), ("sim.ns_per_step", "ns"),
       ("sim.oracle_s", "s"), ("sim.oracle_to_sim_ratio", "1"),
       ("sim.oracle_max_diff", "1"), ("sim.diverged_runs", "count"),
       ("sim.metrics_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS + ("bench",)]
    + [(f"{layer}.share", "1") for layer in LAYERS + ("bench",)]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
)
# Counters read straight from a pass's tally.
TALLIED = {
    "cli.csv_bytes", "cli.exit_mismatch", "loops.build_calls", "robustness.panels_inner",
    "robustness.abs_error_max", "robustness.ill_posed", "stability.locus_points",
    "stability.exits_found", "stability.bisect_evals", "zalg.poly_roots_calls",
    "zalg.root_residual_max", "sim.steps", "sim.oracle_max_diff", "sim.diverged_runs",
} | {f"robustness.panels_outer.{kind}" for kind in KINDS}
# Per-layer times: the total duration of the spans with these names (any tag), per pass.
SPAN_TIMES = {
    "loops.build_s": ("loops.make_inner_loop", "loops.make_outer_loop", "loops.make_pd"),
    "robustness.bode_inner_s": ("robustness.bode_integral_discrete[inner]",),
    "robustness.bode_outer_s": ("robustness.bode_integral_discrete[outer]",),
    "robustness.freq_sweep_s": ("robustness.freq_sweep",),
    "stability.root_locus_s": ("stability.root_locus",),
    "stability.bisect_s": ("stability.bisect_threshold",),
    "stability.classify_poles_s": ("stability.classify_poles",),
    "stability.constraint_check_s": ("stability.constraint_check",),
    "zalg.poly_roots_s": ("zalg.poly_roots",),
    "sim.simulate_s": ("sim.simulate",),
    "sim.oracle_s": ("sim.simulate_linear_oracle",),
    "sim.metrics_s": ("sim.disturbance_rejection_metrics",),
} | {f"cli.{cmd}.{kind}_s": (f"cli.main[{cmd}.{kind}]",) for cmd in CLI_COMMANDS for kind in KINDS}


def build_ops(workload: str, seed: int, workdir: Path):
    """The workload's inputs for ``seed``, as the op list of one pass."""
    if workload == "cli-batch":
        return cli_batch.build(seed, workdir)
    import inprocess

    return getattr(inprocess, "build_" + workload)(seed)


def run_python(code: str, log: Path) -> tuple[float, float]:
    """Run ``python -c code`` with ``src`` and ``bench`` importable; return
    when it started and ended, on the monotonic clock."""
    start = time.monotonic()
    status, _ = cli_batch.run_child(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{str(BENCH)!r}]; " + code], log)
    end = time.monotonic()
    if status != 0:
        raise RuntimeError(f"child exited {status}: " + log.read_text(errors="replace")[-800:])
    return start, end


@dataclass
class Pass:
    # Per op, when it started and ended, on the monotonic clock.
    intervals: list
    tally: Tally
    failures: list

    @property
    def latencies(self) -> list:
        return [end - start for start, end in self.intervals]

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def scaled(self, sampler: hostspeed.Sampler) -> list:
        """Op latencies at the reference host speed."""
        return [sampler.scale(end - start, start, end) for start, end in self.intervals]


def run_pass(ops, tr: Tracer, first_op_id: int) -> Pass:
    tally = Tally()
    intervals, failures = [], []
    for i, op in enumerate(ops):
        start = time.monotonic()
        try:
            with tr.op(first_op_id + i, op.label):
                op.run(tr, tally)
        except CheckFailed as exc:
            failures.append(f"{op.label}: {exc}")
        except Exception:  # an unexpected error fails the op; the run goes on
            failures.append(f"{op.label}: {traceback.format_exc()}")
        intervals.append((start, time.monotonic()))
    return Pass(intervals, tally, failures)


def run_passes(ops, tr: Tracer, budget: float, first_op_id: int = 0) -> list[Pass]:
    """At least one pass; another only while it is expected to end within ``budget``."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(ops, tr, first_op_id + len(passes) * len(ops)))
        if time.monotonic() - start + passes[-1].wall > budget:
            return passes


def measure(ops, budget: float, trace: bool, trace_path: Path) -> dict:
    """Untraced passes; with ``trace``, half the budget each for untraced and traced ones."""
    untraced = run_passes(ops, Tracer(False), budget / 2 if trace else budget)
    out = {"untraced": untraced, "traced": [], "summary": None, "spans": 0}
    if trace:
        tracer = Tracer(True)
        out["traced"] = run_passes(ops, tracer, budget / 2, first_op_id=len(untraced) * len(ops))
        tracer.write(trace_path)
        out.update(summary=summarize(tracer.spans), spans=len(tracer.spans))
    return out


def worker(workload: str, seed: int, budget: float, trace: bool, workdir: str,
           index: int) -> None:
    """One fresh process of an in-process workload: build the inputs, note
    when that set-up ended, measure, dump JSON."""
    ops = build_ops(workload, seed, Path(workdir))
    setup_end = time.monotonic()
    out = measure(ops, budget, trace, OUT / f"trace-{workload}-seed{seed}-w{index}.jsonl")
    out.update(setup_end=setup_end, rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               untraced=[asdict(p) for p in out["untraced"]],
               traced=[asdict(p) for p in out["traced"]])
    (Path(workdir) / f"worker{index}.json").write_text(json.dumps(out))


def run_workers(args, workdir: Path) -> list[dict]:
    """Split the run over WORKERS fresh processes, one after another.

    Passes from several processes keep one slow process from deciding the
    run; each process's start, import and input building is one set-up sample.
    """
    results = []
    for i in range(WORKERS):
        spawned, _ = run_python(f"import run; run.worker({args.workload!r}, {args.seed}, "
                                f"{args.seconds / WORKERS!r}, {bool(args.trace)}, "
                                f"{str(workdir)!r}, {i})", workdir / f"worker{i}.log")
        result = json.loads((workdir / f"worker{i}.json").read_text())
        result["setup"] = (spawned, result["setup_end"])
        results.append(result)
    return results


def cli_setups(seed: int, workdir: Path) -> list:
    """Start and end of CLI_SETUPS fresh processes writing the cli-batch configs."""
    return [run_python(f"import cli_batch; from pathlib import Path; "
                       f"cli_batch.build({seed}, Path({str(workdir)!r}))", workdir / "setup.log")
            for _ in range(CLI_SETUPS)]


def _passes(dicts) -> list[Pass]:
    return [Pass(d["intervals"], Tally(**d["tally"]), d["failures"]) for d in dicts]


def end_to_end(setups, pass_latencies, samples: int, rss_kb: int) -> dict:
    """The end-to-end metrics, from set-up times and each pass's op latencies."""
    wall = statistics.median(sum(latencies) for latencies in pass_latencies)
    latencies = [t for each in pass_latencies for t in each]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "samples_per_s": samples / wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(untraced, traced, summaries, spans: int, import_s: float,
              sampler: hostspeed.Sampler) -> dict:
    """Per-layer metrics of the traced passes. Times are per pass and scaled to
    the reference host speed by the run's median reference kernel time."""
    self_time, total = defaultdict(float), defaultdict(float)
    for summary in summaries:
        for layer, value in summary["self"].items():
            self_time[layer] += value
        for name, value in summary["total"].items():
            total[name] += value
    n = len(traced)
    counts = traced[0].tally.counts
    mean_wall = sum(p.wall for p in traced) / n
    factor = sampler.factor()

    def span_time(names) -> float:
        """Per-pass time in spans with one of ``names``; a name without a tag matches any tag."""
        spent = sum(v for k, v in total.items() if k in names or k.split("[", 1)[0] in names)
        return spent / n / factor

    out = {"cli.import_s": import_s / factor}
    out.update({name: counts.get(name, 0) for name in TALLIED})
    out.update({name: span_time(names) for name, names in SPAN_TIMES.items()})
    steps = counts.get("sim.steps", 0)
    out["sim.ns_per_step"] = 1e9 * out["sim.simulate_s"] / steps if steps else 0.0
    sim_s = out["sim.simulate_s"]
    out["sim.oracle_to_sim_ratio"] = out["sim.oracle_s"] / sim_s if sim_s else 0.0
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = self_time[layer] / n / factor
        out[f"{layer}.share"] = self_time[layer] / n / mean_wall
    traced_wall = statistics.median(sum(p.scaled(sampler)) for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(sum(p.scaled(sampler))
                                                              for p in untraced)
    out["trace.spans"] = spans // n
    return out


def report(workload, seed, e2e, measured, factor, n_setups, layers, untraced, attempted,
           failed) -> None:
    """The human-readable part of the output: every metric with its unit and
    sample count, scaled and as measured."""
    n_ops = sum(len(p.latencies) for p in untraced)
    counts = {"setup_s": n_setups, "wall_s": len(untraced), "op_p50_s": n_ops,
              "op_p90_s": n_ops, "samples_per_s": len(untraced), "peak_rss_mb": 1}
    walls = sorted(p.wall for p in untraced)
    print(f"# dobkit benchmark: workload={workload} seed={seed} "
          f"ops/pass={len(untraced[0].latencies)} untraced passes={len(untraced)} "
          f"(measured wall {walls[0]:.6g}-{walls[-1]:.6g} s)")
    print(f"# host speed: reference kernel {factor:.4g} x REF_S = {hostspeed.REF_S} s "
          f"(above 1: slower host); times are scaled to REF_S, measured ones on the right")
    for name, unit in END_TO_END:
        print(f"{name:34s} {e2e[name]:>16.6g} {unit:5s} n={counts[name]:<6d} "
              f"measured {measured[name]:.6g}")
    print(f"{'fail_ratio':34s} {failed / attempted:>16.6g} ({failed} failed / {attempted} attempted)")
    if layers is None:
        return
    for name, unit in PER_LAYER:
        print(f"{name:34s} {layers[name]:>16.6g} {unit}")
    print(f"# sim.oracle_to_sim_ratio = sim.oracle_s {layers['sim.oracle_s']:.6g} s"
          f" / sim.simulate_s {layers['sim.simulate_s']:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dobkit" / "__init__.py").is_file():
        print(f"dobkit sources not found under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: a running child and the sampler are stopped and
    # waited for, the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with hostspeed.Sampler(workdir / "hostspeed.txt") as sampler:
            if args.workload == "cli-batch":
                # Every op is a fresh process already; set-up writes the configs.
                setup_intervals = cli_setups(args.seed, workdir)
                ops = build_ops(args.workload, args.seed, workdir)
                result = measure(ops, args.seconds, bool(args.trace),
                                 OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
                untraced, traced = result["untraced"], result["traced"]
                summaries = [result["summary"]] if args.trace else []
                spans = result["spans"]
                rss_kb = max(p.tally.child_rss_kb for p in untraced)
            else:
                results = run_workers(args, workdir)
                setup_intervals = [r["setup"] for r in results]
                untraced = [p for r in results for p in _passes(r["untraced"])]
                traced = [p for r in results for p in _passes(r["traced"])]
                summaries = [r["summary"] for r in results if r["summary"]]
                spans = sum(r["spans"] for r in results)
                rss_kb = max(r["rss_kb"] for r in results)
            import_s = cli_batch.import_probe(workdir) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = sum(len(p.latencies) for p in passes)
    samples = untraced[0].tally.counts.get("samples", 0)
    setups = [sampler.scale(end - start, start, end) for start, end in setup_intervals]
    e2e = end_to_end(setups, [p.scaled(sampler) for p in untraced], samples, rss_kb)
    measured = end_to_end([end - start for start, end in setup_intervals],
                          [p.latencies for p in untraced], samples, rss_kb)
    layers = None
    if args.trace:
        layers = per_layer(untraced, traced, summaries, spans, import_s, sampler)
    report(args.workload, args.seed, e2e, measured, sampler.factor(), len(setups), layers,
           untraced, attempted, len(failures))
    chosen = layers if args.trace else e2e
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
