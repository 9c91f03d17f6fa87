"""cli-batch: a batch design study through cold ``dobkit`` processes.

One op is one cold process. A pass runs ``analyze``, ``sweep`` (16 points),
``simulate`` (10 s at Ts = 0.5 ms) and ``bode`` (512 points) for each
measurement kind. ``analyze``, ``sweep`` and ``simulate`` read a seeded design
config. ``bode`` reads the README regulation configuration: the cost of the
outer-loop ln|S| quadrature jumps by 2-3x under a 1e-5 relative change of a
loop parameter, so a seeded ``bode`` config would make the pass time follow
the seed rather than the code. The position row of that configuration is the
known 159k-panel integral. This module does not import dobkit, so that set-up
(writing the configs) does not pay for the import.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import (J_M, K_T, KINDS, REG_G_DOB, REG_G_V, REG_KD, REG_KP, REG_TS,
                 CheckFailed, Op, Tally, rng_for)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIM_DURATION = 10.0
SIM_ROWS = int(SIM_DURATION / REG_TS) + 1
SWEEP_ARGS = ["--param", "alpha", "--from", "0.5", "--to", "8", "--points", "16",
              "--spacing", "linear"]
SWEEP_ROWS = 16
BODE_POINTS = 512
# CLI exit statuses: 0 ok/stable, 2 unstable verdict.
EXIT_OK, EXIT_UNSTABLE = 0, 2


def _config_text(kind, alpha, g_dob, g_v, K_p, K_d, scenario=()) -> str:
    lines = [
        f"plant.J_m = {J_M!r}", f"plant.K_t = {K_T!r}",
        f"plant.J_mn = {alpha * J_M!r}", f"plant.K_tn = {K_T!r}",
        f"dob.kind = {kind}", f"dob.g_dob = {g_dob!r}", f"dob.Ts = {REG_TS!r}",
    ]
    if kind == "position":
        lines.append(f"dob.g_v = {g_v!r}")
    lines += [f"outer.Kp = {K_p!r}", f"outer.Kd = {K_d!r}"]
    lines += [f"{key} = {value}" for key, value in scenario]
    return "\n".join(lines) + "\n"


def _scenario(rng, seed: int) -> list:
    items = [("scenario.duration", repr(SIM_DURATION)), ("scenario.seed", str(seed))]
    if rng.random() < 0.5:
        items += [("scenario.reference.type", "step"),
                  ("scenario.reference.amplitude", repr(rng.uniform(0.05, 0.15)))]
    else:
        items += [("scenario.reference.type", "sinusoid"),
                  ("scenario.reference.amplitude", repr(rng.uniform(0.01, 0.1))),
                  ("scenario.reference.freq", repr(rng.uniform(2.0, 30.0)))]
    start = rng.uniform(1.0, 4.0)
    items += [("scenario.disturbance.1.start", repr(start)),
              ("scenario.disturbance.1.end", repr(start + rng.uniform(0.5, 3.0))),
              ("scenario.disturbance.1.force", repr(rng.uniform(-8.0, 8.0)))]
    if rng.random() < 0.5:
        items.append(("scenario.noise.eta_p", repr(rng.uniform(1e-8, 1e-6))))
    return items


def run_child(argv, log_path: Path) -> tuple[int, int]:
    """Run one process with ``src`` on its path; return (exit status, peak RSS in KiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def import_probe(workdir: Path, repeats: int = 3) -> float:
    """Median wall time of a cold ``import dobkit.cli`` process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", "import dobkit.cli"], workdir / "probe.log")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise CheckFailed(f"import dobkit.cli exited {code}")
    return statistics.median(times)


def _check_csv(path: Path) -> tuple[list, int]:
    """Data rows of a CLI CSV; every float must read back to the same text."""
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    width = lines[0].count(",") + 1
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise CheckFailed(f"{path.name}: {len(fields)} fields, header has {width}")
        for text in fields:
            try:
                back = format(float(text), ".17g")
            except ValueError:
                raise CheckFailed(f"{path.name}: {text!r} is not a number") from None
            if back != text:
                raise CheckFailed(f"{path.name}: {text!r} reads back as {back!r}")
        rows.append(fields)
    return rows, len(data)


def _cli_op(workdir: Path, cmd: str, kind: str, args: list, expected_exit: int) -> Op:
    out = workdir / f"{cmd}-{kind}.csv"
    log = workdir / f"{cmd}-{kind}.log"
    argv = [sys.executable, "-m", "dobkit.cli", cmd, *args, "--out", str(out)]

    def run(tr, tally: Tally) -> None:
        out.unlink(missing_ok=True)
        with tr.span("cli.main", tag=f"{cmd}.{kind}"):
            code, rss_kb = run_child(argv, log)
        tally.child_rss_kb = max(tally.child_rss_kb, rss_kb)
        if code != expected_exit:
            tally.add("cli.exit_mismatch")
            tail = log.read_text(errors="replace")[-400:]
            raise CheckFailed(f"{cmd} {kind}: exit {code}, expected {expected_exit}: {tail}")
        rows, nbytes = _check_csv(out)
        tally.add("cli.csv_bytes", nbytes)
        if cmd == "simulate":
            # A diverged trace is a result: it ends early with diverged = 1.
            if len(rows) != SIM_ROWS and rows[-1][-1] != "1":
                raise CheckFailed(f"simulate {kind}: {len(rows)} rows, expected {SIM_ROWS}")
            tally.add("samples", len(rows))
        else:
            expected = {"analyze": 1, "sweep": SWEEP_ROWS, "bode": BODE_POINTS}[cmd]
            if len(rows) != expected:
                raise CheckFailed(f"{cmd} {kind}: {len(rows)} rows, expected {expected}")

    return Op(f"{cmd}.{kind}", run)


def build(seed: int, workdir: Path) -> list[Op]:
    """Write the seeded configs into ``workdir`` and return the pass's ops."""
    rng = rng_for("cli-batch", seed)
    workdir.mkdir(parents=True, exist_ok=True)
    commands = {"analyze": [], "sweep": [], "simulate": [], "bode": []}
    for kind in KINDS:
        alpha = rng.uniform(0.8, 1.25)
        g_dob = rng.uniform(800.0, 1200.0)
        design = workdir / f"design-{kind}.cfg"
        design.write_text(_config_text(
            kind, alpha, g_dob, g_v=rng.uniform(1500.0, 2500.0),
            K_p=rng.uniform(3000.0, 5000.0), K_d=rng.uniform(150.0, 250.0),
            scenario=_scenario(rng, seed)))
        regulation = workdir / f"regulation-{kind}.cfg"
        regulation.write_text(_config_text(kind, 1.0, REG_G_DOB, REG_G_V, REG_KP, REG_KD))
        # Closed-form inner-loop verdict: velocity and position need alpha*g_dob*Ts < 2.
        stable = kind == "acceleration" or alpha * g_dob * REG_TS < 2.0
        commands["analyze"].append(_cli_op(workdir, "analyze", kind, [str(design)],
                                           EXIT_OK if stable else EXIT_UNSTABLE))
        commands["sweep"].append(_cli_op(workdir, "sweep", kind, [str(design), *SWEEP_ARGS],
                                         EXIT_OK))
        commands["simulate"].append(_cli_op(workdir, "simulate", kind, [str(design)], EXIT_OK))
        commands["bode"].append(_cli_op(workdir, "bode", kind,
                                        [str(regulation), "--points", str(BODE_POINTS)],
                                        EXIT_OK))
    return [op for ops in commands.values() for op in ops]
