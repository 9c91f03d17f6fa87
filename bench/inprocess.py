"""The in-process workloads: waterbed, locus and timedomain.

Each ``build_<workload>(seed)`` turns the seed into inputs and returns the
pass's ops. An op calls dobkit's public functions through the tracer, so that
a traced run records a span around each call, and checks its own result.
"""
from __future__ import annotations

import numpy as np

from dobkit import (
    DisturbancePulse,
    DobConfig,
    IllPosedIntegralError,
    MeasurementKind,
    NoiseSpec,
    OuterGains,
    PlantParams,
    Reference,
    Scenario,
    bisect_threshold,
    bode_integral_discrete,
    classify_poles,
    config_for_sweep,
    constraint_check,
    disturbance_rejection_metrics,
    freq_sweep,
    make_inner_loop,
    make_outer_loop,
    make_pd,
    poly_roots,
    root_locus,
    simulate,
    simulate_linear_oracle,
)
from ops import (J_M, K_T, KINDS, LOCUS_KD, LOCUS_KP, REG_G_DOB, REG_G_V, REG_KD, REG_KP,
                 REG_TS, CheckFailed, Op, Tally, rng_for)

REG_GAINS = OuterGains(K_p=REG_KP, K_d=REG_KD)
LOCUS_GAINS = OuterGains(K_p=LOCUS_KP, K_d=LOCUS_KD)

# Tolerances of the acceptance suite: ln|S| integrals (criteria 1-3), bisected
# bounds (criterion 4), sensitivity peaks (criterion 7), oracle (criterion 8).
BODE_TOL = 1e-3
BISECT_TOL = 1e-4
PEAK_TOL = 1e-9
ORACLE_TOL = 1e-9
FREQ_POINTS = 512
ORACLE_CHANNELS = ("q", "qd", "qdd", "I", "I_des", "tau_dis_hat")


def dob_config(kind: str, alpha: float, g_dob: float, Ts: float, g_v: float | None = None):
    return DobConfig(kind=MeasurementKind(kind), plant=PlantParams.from_alpha(alpha, J_M, K_T),
                     g_dob=g_dob, Ts=Ts, g_v=g_v if kind == "position" else None)


# ---------------------------------------------------------------------------
# waterbed
# ---------------------------------------------------------------------------

def _waterbed_op(cfg: DobConfig) -> Op:
    kind = cfg.kind.value

    def run(tr, tally: Tally) -> None:
        verdict = tr.call(constraint_check, cfg)
        expect_stable = kind == "acceleration" or cfg.alpha_g * cfg.Ts < 2.0
        if verdict.stable != expect_stable:
            raise CheckFailed(f"{cfg}: constraint_check stable={verdict.stable}")
        inner = tr.call(make_inner_loop, cfg)
        outer = tr.call(make_outer_loop, inner, tr.call(make_pd, REG_GAINS, cfg.Ts))
        tally.add("loops.build_calls", 3)
        for tag, loop in (("inner", inner), ("outer", outer)):
            sweep = tr.call(freq_sweep, loop, n_points=FREQ_POINTS, tag=tag)
            tally.add("samples", FREQ_POINTS)
            if tag == "inner" and kind != "position":
                # |S| peaks at z = -1: 2/(2 - a) for velocity, 2/(2 + a) for acceleration.
                a = cfg.alpha_g * cfg.Ts
                expected = 2.0 / (2.0 - a) if kind == "velocity" else 2.0 / (2.0 + a)
                if abs(sweep.peak_S.value - expected) > PEAK_TOL:
                    raise CheckFailed(f"{cfg}: peak_S {sweep.peak_S.value} != {expected}")
            try:
                report = tr.call(bode_integral_discrete, loop, tag=tag)
            except IllPosedIntegralError:
                tally.add("robustness.ill_posed")
                continue
            key = "robustness.panels_inner" if tag == "inner" else f"robustness.panels_outer.{kind}"
            tally.add(key, report.panels)
            tally.peak("robustness.abs_error_max", report.abs_error)
            if not report.abs_error <= BODE_TOL:
                raise CheckFailed(f"{cfg} {tag}: |numeric - analytic| = {report.abs_error}")

    return Op(f"point.{kind}", run)


# (kind, Ts, range of x = alpha*g_dob*Ts) of the seeded waterbed points.
WATERBED_GRID = (
    ("velocity", 1e-3, 0.6, 0.8),
    ("velocity", 0.5e-3, 0.6, 0.8),
)


def build_waterbed(seed: int) -> list[Op]:
    """The README regulation configuration for each kind, then seeded points.

    Every point is closed with the regulation gains. The outer-loop quadrature
    cost changes by 2-3x under a 1e-5 relative change of any loop parameter;
    a seeded acceleration point costs 0.01-5 s and a position point 0.5-24 s.
    So the three fixed regulation points carry the pass, and the two seeded
    points (alpha, g_dob, Ts = 1 and 0.5 ms) are velocity points, whose outer
    integrals take 1k-16k panels against the velocity regulation point's 23k.
    The median op is then the velocity regulation point for every seed. The
    position regulation point is the known 159k-panel integral whose
    analytic value is 9.5e-8 instead of 0.
    """
    rng = rng_for("waterbed", seed)
    cfgs = [dob_config(kind, 1.0, REG_G_DOB, REG_TS, REG_G_V) for kind in KINDS]
    for kind, Ts, x_lo, x_hi in WATERBED_GRID:
        alpha = rng.uniform(0.7, 1.5)
        x = rng.uniform(x_lo, x_hi)
        cfgs.append(dob_config(kind, alpha, x / (alpha * Ts), Ts))
    return [_waterbed_op(cfg) for cfg in cfgs]


# ---------------------------------------------------------------------------
# locus
# ---------------------------------------------------------------------------

def _sweep_op(base: DobConfig, gains: OuterGains, param: str, values: np.ndarray) -> Op:
    def run(tr, tally: Tally) -> None:
        branch = tr.call(root_locus, base, gains, param, values)
        tally.add("stability.locus_points", len(values))
        tally.add("samples", len(values))
        # Pole audit: rebuild each closed loop and root its characteristic polynomial.
        mags = []
        for value, reported in zip(values, branch.max_mags):
            cfg = tr.call(config_for_sweep, base, param, float(value))
            inner = tr.call(make_inner_loop, cfg)
            outer = tr.call(make_outer_loop, inner, tr.call(make_pd, gains, cfg.Ts))
            roots = tr.call(poly_roots, outer.L.den + outer.L.num)
            tally.add("loops.build_calls", 3)
            tally.add("zalg.poly_roots_calls")
            tally.peak("zalg.root_residual_max", roots.residual)
            mag = max(abs(p) for p in roots.roots)
            if abs(mag - reported) > 1e-9 * max(1.0, mag):
                raise CheckFailed(f"{param}={value}: audited |p|max {mag} != locus {reported}")
            mags.append(mag)
        crossing = next((i for i in range(len(mags) - 1) if mags[i] < 1.0 <= mags[i + 1]), None)
        if crossing is None:
            if branch.exit_value is not None:
                raise CheckFailed(f"exit {branch.exit_value} with no crossing on the grid")
            return
        tally.add("stability.exits_found")
        exit_value = branch.exit_value
        if exit_value is None or not values[crossing] <= exit_value <= values[crossing + 1]:
            raise CheckFailed(f"exit {exit_value} outside the crossing interval "
                              f"[{values[crossing]}, {values[crossing + 1]}]")

    return Op(f"sweep.{base.kind.value}.{param}", run)


def _bisect_op(bound: str, Ts: float, lo: float, hi: float) -> Op:
    """Criterion 4: bisect the velocity inner loop's stability or monotone bound."""
    expected = 2.0 / Ts if bound == "stable" else 1.0 / Ts

    def run(tr, tally: Tally) -> None:
        def holds(alpha_g: float) -> bool:
            tally.add("stability.bisect_evals")
            tally.add("loops.build_calls")
            inner = tr.call(make_inner_loop, dob_config("velocity", 1.0, alpha_g, Ts))
            poles = tr.call(classify_poles, inner.T)
            return poles.all_in_unit if bound == "stable" else poles.all_real_in_0_1

        found = tr.call(bisect_threshold, holds, lo, hi, rel_tol=1e-7)
        if abs(found - expected) / expected >= BISECT_TOL:
            raise CheckFailed(f"{bound} bound at Ts={Ts}: found {found}, expected {expected}")

    return Op(f"bisect.{bound}", run)


def build_locus(seed: int) -> list[Op]:
    """Root-locus sweeps over alpha and g_dob for each kind and both gain sets,
    with seeded base points and grid sizes, then inner-bound bisections.

    The grids are wide enough that velocity and position always leave the
    unit circle on them, so every seed runs the exit bisection equally often.
    """
    rng = rng_for("locus", seed)
    ops = []
    for gains, Ts, g_dob, g_v, alphas, g_dobs in (
        (LOCUS_GAINS, 1e-3, 500.0, 1000.0, (0.01, 100.0), (20.0, 20000.0)),
        (REG_GAINS, REG_TS, REG_G_DOB, REG_G_V, (0.1, 10.0), (50.0, 50000.0)),
    ):
        for kind in KINDS:
            base_g = g_dob * rng.uniform(0.8, 1.2)
            base_gv = g_v * rng.uniform(0.8, 1.2)
            n = rng.randint(36, 46)
            ops.append(_sweep_op(dob_config(kind, 1.0, base_g, Ts, base_gv), gains, "alpha",
                                 np.geomspace(*alphas, n)))
            n = rng.randint(36, 46)
            ops.append(_sweep_op(dob_config(kind, rng.uniform(0.8, 1.25), base_g, Ts, base_gv),
                                 gains, "g_dob", np.geomspace(*g_dobs, n)))
    for _ in range(2):
        Ts = rng.uniform(0.4e-3, 1.2e-3)
        ops.append(_bisect_op("stable", Ts, rng.uniform(0.5, 0.9) * 2.0 / Ts,
                              rng.uniform(1.1, 1.5) * 2.0 / Ts))
        ops.append(_bisect_op("monotone", Ts, rng.uniform(0.5, 0.9) / Ts,
                              rng.uniform(1.1, 1.5) / Ts))
    return ops


# ---------------------------------------------------------------------------
# timedomain
# ---------------------------------------------------------------------------

def _scenario_op(sc: Scenario, label: str) -> Op:
    def run(tr, tally: Tally) -> None:
        trace = tr.call(simulate, sc)
        steps = trace.t.size
        tally.add("sim.steps", steps)
        tally.add("samples", steps)
        if trace.diverged:
            tally.add("sim.diverged_runs")
        if sc.noise.silent:
            with np.errstate(over="ignore", invalid="ignore"):
                oracle = tr.call(simulate_linear_oracle, sc)
            # A diverged trace is a result, but the oracle cannot check it.
            if not trace.diverged:
                diff = max(float(np.max(np.abs(getattr(trace, ch) - getattr(oracle, ch))))
                           for ch in ORACLE_CHANNELS)
                tally.peak("sim.oracle_max_diff", diff)
                if not diff <= ORACLE_TOL:
                    raise CheckFailed(f"{sc}: simulator and oracle differ by {diff}")
        metrics = tr.call(disturbance_rejection_metrics, trace, (0.0, float(trace.t[-1])))
        if metrics.diverged != trace.diverged:
            raise CheckFailed(f"{sc}: metrics lost the diverged flag")

    return Op(label, run)


def _random_scenario(rng, kind: str, Ts: float, noise: NoiseSpec) -> Scenario:
    """A scenario in the style of acceptance criterion 8, at a near-fixed length."""
    alpha = rng.uniform(0.5, 2.0)
    cfg = dob_config(kind, alpha, rng.uniform(200.0, 0.8 / (alpha * Ts)), Ts,
                     rng.uniform(500.0, 2000.0))
    gains = OuterGains(K_p=rng.uniform(800.0, 6000.0), K_d=rng.uniform(10.0, 120.0))
    duration = rng.uniform(1.5, 1.7)
    if rng.random() < 0.5:
        reference = Reference.step(rng.uniform(0.02, 0.2))
    else:
        reference = Reference.sinusoid(rng.uniform(0.01, 0.2), rng.uniform(2.0, 60.0))
    pulses = []
    t0 = 0.05
    for _ in range(rng.randint(0, 2)):
        start = rng.uniform(t0, duration - 0.1)
        end = rng.uniform(start + 0.02, min(start + 0.8, duration))
        pulses.append(DisturbancePulse(start, end, rng.uniform(-8.0, 8.0)))
        t0 = end
        if t0 >= duration - 0.15:
            break
    return Scenario(duration=duration, cfg=cfg, gains=gains, reference=reference,
                    disturbances=tuple(pulses), noise=noise, seed=rng.randint(0, 2**31))


def build_timedomain(seed: int) -> list[Op]:
    """Noise-free scenarios checked against the oracle, noisy ones it cannot
    check, and the divergent criterion-5 case (position kind, alpha = 3.9)."""
    rng = rng_for("timedomain", seed)
    ops = []
    for kind in KINDS:
        for Ts in (1e-3, 0.5e-3):
            for _ in range(2):
                ops.append(_scenario_op(_random_scenario(rng, kind, Ts, NoiseSpec()),
                                        f"clean.{kind}"))
    for kind in KINDS + ("position",):
        noise = NoiseSpec(eta_p=rng.uniform(1e-8, 1e-6), eta_v=rng.uniform(1e-6, 1e-4),
                          eta_a=rng.uniform(1e-4, 1e-2))
        ops.append(_scenario_op(_random_scenario(rng, kind, 1e-3, noise), f"noisy.{kind}"))
    divergent = Scenario(duration=3.0, cfg=dob_config("position", 3.9, REG_G_DOB, REG_TS, REG_G_V),
                         gains=REG_GAINS, reference=Reference.step(0.1))
    ops.append(_scenario_op(divergent, "divergent.position"))
    return ops
