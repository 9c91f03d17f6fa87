"""Batch command-line front end: analyze, sweep, simulate, bode.

Each command imports the analysis layers it runs when it runs: ``simulate``
never loads ``robustness`` or ``stability``, and the others never load
``sim``.

Configs are flat ``key = value`` text files (``#`` comments and blank lines
ignored); unknown or duplicate keys are rejected with the offending line
number. All numeric output is serialized with 17 significant digits so CSV
values round-trip exactly. Exit statuses: 0 ok/stable, 1 usage or config
error, 2 analysis verdict unstable.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .loops import (
    DobConfig,
    MeasurementKind,
    OuterGains,
    PlantParams,
    classify_compensator,
    make_inner_loop,
    make_outer_loop,
    make_pd,
)

__all__ = ["ConfigError", "ParsedConfig", "parse_config", "main"]

# Upper bound on --points for sweep and bode: larger grids are refused rather
# than allocated.
MAX_POINTS = 10**5
# _write_csv formats this many rows at a time, so that no column is ever held
# as a whole list of Python floats.
CSV_BLOCK_ROWS = 4096


class ConfigError(Exception):
    """Malformed configuration; carries the 1-based line number (0 = file level)."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        return f"line {self.line}: {base}" if self.line else base


_SIMPLE_KEYS = {
    "plant.J_m", "plant.K_t", "plant.J_mn", "plant.K_tn",
    "dob.kind", "dob.g_dob", "dob.g_v", "dob.Ts",
    "outer.Kp", "outer.Kd",
    "scenario.duration", "scenario.seed",
    "scenario.reference.type", "scenario.reference.amplitude",
    "scenario.reference.freq",
    "scenario.noise.eta_p", "scenario.noise.eta_v", "scenario.noise.eta_a",
}
_PULSE_KEY = re.compile(r"^scenario\.disturbance\.(\d+)\.(start|end|force)$")


@dataclass
class ParsedConfig:
    """Raw key/value items plus the line each key came from."""

    items: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)

    def line_of(self, key: str) -> int:
        return self.lines.get(key, 0)


def parse_config(text: str) -> ParsedConfig:
    pc = ParsedConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"empty key or value in {line!r}", lineno)
        if key not in _SIMPLE_KEYS and not _PULSE_KEY.match(key):
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in pc.items:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        pc.items[key] = value
        pc.lines[key] = lineno
    return pc


def _need(pc: ParsedConfig, key: str) -> str:
    if key not in pc.items:
        raise ConfigError(f"missing required key {key!r}")
    return pc.items[key]


def _as_float(pc: ParsedConfig, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {value!r}", pc.line_of(key)) from None


def _get_float(pc: ParsedConfig, key: str) -> float:
    return _as_float(pc, key, _need(pc, key))


def _get_float_opt(pc: ParsedConfig, key: str, default: float = 0.0) -> float:
    if key not in pc.items:
        return default
    return _as_float(pc, key, pc.items[key])


def build_dob_config(pc: ParsedConfig) -> DobConfig:
    kind_raw = _need(pc, "dob.kind")
    try:
        kind = MeasurementKind(kind_raw)
    except ValueError:
        raise ConfigError(
            f"dob.kind must be one of acceleration/velocity/position, got {kind_raw!r}",
            pc.line_of("dob.kind"),
        ) from None
    g_v = None
    if "dob.g_v" in pc.items:
        g_v = _get_float(pc, "dob.g_v")
    try:
        plant = PlantParams(
            J_m=_get_float(pc, "plant.J_m"),
            K_t=_get_float(pc, "plant.K_t"),
            J_mn=_get_float(pc, "plant.J_mn"),
            K_tn=_get_float(pc, "plant.K_tn"),
        )
        return DobConfig(kind=kind, plant=plant, g_dob=_get_float(pc, "dob.g_dob"),
                         Ts=_get_float(pc, "dob.Ts"), g_v=g_v)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_gains(pc: ParsedConfig) -> OuterGains:
    try:
        return OuterGains(K_p=_get_float(pc, "outer.Kp"), K_d=_get_float(pc, "outer.Kd"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_scenario(pc: ParsedConfig, cfg: DobConfig, gains: OuterGains) -> Scenario:
    from .sim import DisturbancePulse, NoiseSpec, Reference, Scenario

    ref_kind = _need(pc, "scenario.reference.type")
    seed_raw = pc.items.get("scenario.seed", "0")
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"scenario.seed must be an integer, got {seed_raw!r}",
                          pc.line_of("scenario.seed")) from None
    indices = sorted(
        {int(m.group(1)) for key in pc.items if (m := _PULSE_KEY.match(key))}
    )
    # A reference key the type does not read must still be a number.
    for key in ("scenario.reference.amplitude", "scenario.reference.freq"):
        _get_float_opt(pc, key)
    try:
        if ref_kind == "step":
            reference = Reference.step(_get_float(pc, "scenario.reference.amplitude"))
        elif ref_kind == "sinusoid":
            reference = Reference.sinusoid(
                _get_float(pc, "scenario.reference.amplitude"),
                _get_float(pc, "scenario.reference.freq"),
            )
        elif ref_kind == "hold_zero":
            reference = Reference.hold_zero()
        else:
            raise ConfigError(
                f"scenario.reference.type must be step/sinusoid/hold_zero, got {ref_kind!r}",
                pc.line_of("scenario.reference.type"),
            )
        pulses = tuple(
            DisturbancePulse(
                t_start=_get_float(pc, f"scenario.disturbance.{idx}.start"),
                t_end=_get_float(pc, f"scenario.disturbance.{idx}.end"),
                force=_get_float(pc, f"scenario.disturbance.{idx}.force"),
            )
            for idx in indices
        )
        noise = NoiseSpec(
            eta_p=_get_float_opt(pc, "scenario.noise.eta_p"),
            eta_v=_get_float_opt(pc, "scenario.noise.eta_v"),
            eta_a=_get_float_opt(pc, "scenario.noise.eta_a"),
        )
        return Scenario(
            duration=_get_float(pc, "scenario.duration"),
            cfg=cfg,
            gains=gains,
            reference=reference,
            disturbances=pulses,
            noise=noise,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, header, columns, footer_comments=()):
    """One row per index of the equal-length ``columns``: integer columns as %d,
    the rest as %.17g (what ``_fmt`` prints), formatted ``CSV_BLOCK_ROWS`` at a time."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    n = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = (c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns)
            fh.write("".join([row % values for values in zip(*block)]))
        for comment in footer_comments:
            fh.write(f"# {comment}\n")


def _db(x: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(x, 1e-300))


def _report_line(report) -> str:
    """A discrete integral's values, trapezoid point count and last doubling difference."""
    return (
        f"numeric={_fmt(report.numeric_value)} analytic={_fmt(report.analytic_value)} "
        f"abs_error={_fmt(report.abs_error)} points={report.panels} "
        f"last_difference={_fmt(report.last_difference)}"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _check_points(points: int) -> None:
    if points > MAX_POINTS:
        raise ConfigError(f"--points must be at most {MAX_POINTS}")


def cmd_analyze(args) -> int:
    from .robustness import IllPosedIntegralError, bode_integral_discrete, freq_sweep
    from .stability import constraint_check

    pc = load_config(args.config)
    cfg = build_dob_config(pc)
    build_gains(pc)  # validated even though analyze reports the inner loop
    inner = make_inner_loop(cfg)
    verdict = constraint_check(cfg)
    sweep = freq_sweep(inner, n_points=512)
    report = None
    report_note = ""
    try:
        report = bode_integral_discrete(inner)
    except IllPosedIntegralError as exc:
        report_note = f"sensitivity integral ill-posed: {exc}"

    print(f"kind              : {cfg.kind.value}")
    print(f"alpha             : {_fmt(cfg.alpha)}")
    print(f"alpha*g_dob       : {_fmt(cfg.alpha_g)} rad/s")
    if cfg.kind is MeasurementKind.POSITION:
        print(f"beta              : {_fmt(cfg.beta)}")
    print(f"compensator       : {classify_compensator(cfg)}")
    print(f"stable            : {verdict.stable}")
    print(f"non_oscillatory   : {verdict.non_oscillatory}")
    print(f"binding_constraint: {verdict.binding_constraint.value}")
    print(f"margin            : {_fmt(verdict.margin)} rad/s")
    if report is not None:
        print(f"bode_integral     : {_report_line(report)}")
    else:
        print(f"bode_integral     : {report_note}")
    print(f"peak_S            : {_fmt(sweep.peak_S.value)} at {_fmt(sweep.peak_S.freq)} rad/s")
    print(f"peak_T            : {_fmt(sweep.peak_T.value)} at {_fmt(sweep.peak_T.freq)} rad/s")

    if args.out:
        header = ["alpha", "alpha_g", "stable", "non_oscillatory", "margin",
                  "peak_S", "peak_T", "bode_numeric", "bode_analytic"]
        row = [cfg.alpha, cfg.alpha_g, int(verdict.stable), int(verdict.non_oscillatory),
               verdict.margin, sweep.peak_S.value, sweep.peak_T.value,
               report.numeric_value if report else math.nan,
               report.analytic_value if report else math.nan]
        _write_csv(args.out, header, [[v] for v in row])
    return 0 if verdict.stable else 2


def cmd_sweep(args) -> int:
    from .robustness import IllPosedIntegralError, bode_integral_discrete, freq_sweep
    from .stability import config_for_sweep, root_locus

    pc = load_config(args.config)
    cfg = build_dob_config(pc)
    gains = build_gains(pc)
    # false too when --to - --from overflows, where numpy's grids would warn
    if not math.isfinite(args.stop - args.start):
        raise ConfigError("--from, --to and their difference must be finite")
    _check_points(args.points)
    if args.spacing == "log":
        if min(args.start, args.stop) <= 0:
            raise ConfigError("log spacing requires positive --from and --to")
        values = np.geomspace(args.start, args.stop, args.points)
    else:
        values = np.linspace(args.start, args.stop, args.points)

    branch = root_locus(cfg, gains, args.param, values)

    n_poles = len(branch.pole_sets[0])
    header = (["param_value"]
              + [f"pole_re_{i+1}" for i in range(n_poles)]
              + [f"pole_im_{i+1}" for i in range(n_poles)]
              + ["max_pole_mag", "peak_S", "bode_numeric", "bode_analytic"])
    rows = []
    for value, poles, mag in zip(branch.param_values, branch.pole_sets, branch.max_mags):
        cfg_v = config_for_sweep(cfg, args.param, value)
        inner = make_inner_loop(cfg_v)
        peak = freq_sweep(inner, n_points=256).peak_S.value
        try:
            rep = bode_integral_discrete(inner)
            numeric, analytic = rep.numeric_value, rep.analytic_value
        except IllPosedIntegralError:
            numeric, analytic = math.nan, math.nan
        rows.append([value]
                    + [p.real for p in poles]
                    + [p.imag for p in poles]
                    + [mag, peak, numeric, analytic])
    _write_csv(args.out, header, zip(*rows))
    if branch.exit_value is not None:
        print(f"unit-circle exit at {args.param} = {_fmt(branch.exit_value)}", file=sys.stderr)
    else:
        print("no unit-circle exit in sweep range", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    from .sim import disturbance_rejection_metrics, simulate

    pc = load_config(args.config)
    cfg = build_dob_config(pc)
    gains = build_gains(pc)
    sc = build_scenario(pc, cfg, gains)
    trace = simulate(sc)

    n = trace.t.size
    diverged_col = np.zeros(n, dtype=int)
    if trace.diverged:
        diverged_col[-1] = 1
    header = ["t", "q_ref", "q", "qdot", "qddot", "I", "tau_d", "tau_dis_hat", "diverged"]
    _write_csv(args.out, header, [trace.t, trace.q_ref, trace.q, trace.qd, trace.qdd,
                                  trace.I, trace.tau_d, trace.tau_dis_hat, diverged_col])

    windows = [("full", 0.0, float(trace.t[-1]))] if trace.t.size > 1 else []
    for i, pulse in enumerate(sc.disturbances, start=1):
        windows.append((f"pulse_{i}", pulse.t_start, min(pulse.t_end, float(trace.t[-1]))))
    for name, t_a, t_b in windows:
        if t_b <= t_a:
            continue
        m = disturbance_rejection_metrics(trace, (t_a, t_b))
        print(f"[{name}] max_abs_error={_fmt(m.max_abs_error)} m "
              f"settle_time={_fmt(m.settle_time)} s "
              f"est_error_rms={_fmt(m.est_error_rms)} N diverged={m.diverged}")
    if trace.diverged:
        print(f"trace diverged at t={_fmt(float(trace.t[-1]))} s")
    return 0


def cmd_bode(args) -> int:
    from .robustness import IllPosedIntegralError, bode_integral_discrete, freq_sweep

    pc = load_config(args.config)
    cfg = build_dob_config(pc)
    gains = build_gains(pc)
    _check_points(args.points)
    inner = make_inner_loop(cfg)
    outer = make_outer_loop(inner, make_pd(gains, cfg.Ts))
    sw_i = freq_sweep(inner, n_points=args.points)
    sw_o = freq_sweep(outer, n_points=args.points)

    footer = []
    for name, loop in (("inner", inner), ("outer", outer)):
        try:
            footer.append(f"bode_integral {name}: {_report_line(bode_integral_discrete(loop))}")
        except IllPosedIntegralError as exc:
            footer.append(f"bode_integral {name}: ill-posed ({exc})")

    header = ["omega_rad_s", "mag_S_i_dB", "mag_T_i_dB", "mag_S_o_dB", "mag_T_o_dB"]
    columns = [sw_i.freqs, _db(sw_i.mag_S), _db(sw_i.mag_T), _db(sw_o.mag_S), _db(sw_o.mag_T)]
    _write_csv(args.out, header, columns, footer_comments=footer)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dobkit",
        description="Observer-based digital motion-control analysis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="constraint checks, sensitivity integral, peaks")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="optional summary CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="root locus plus per-value inner-loop analysis")
    p.add_argument("config")
    p.add_argument("--param", choices=["alpha", "g_dob"], required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="time-domain closed-loop simulation")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bode", help="frequency responses of inner and outer loops")
    p.add_argument("config")
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bode)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        # The library raises ValueError for any input it rejects.
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # Valid but extreme inputs (say Ts = 1e300) can still break the numerics.
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
