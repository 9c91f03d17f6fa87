import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dobkit
from dobkit.loops import (
    DobConfig,
    MeasurementKind,
    OuterGains,
    PlantParams,
    discrete_position_plant,
    discrete_velocity_plant,
    make_inner_loop,
    make_outer_loop,
    make_pd,
)
from dobkit.sim import (
    MAX_SAMPLES,
    DisturbancePulse,
    NoiseSpec,
    Reference,
    Scenario,
    SimTrace,
    UnsupportedScenarioError,
    _order2,
    disturbance_rejection_metrics,
    simulate,
    simulate_linear_oracle,
)
from dobkit.stability import bisect_threshold
from dobkit.zalg import RationalTF

from conftest import at, make_cfg

ALL_KINDS = list(MeasurementKind)

REG_GAINS = OuterGains(K_p=4000.0, K_d=200.0)


def _regulation_scenario(kind, alpha=1.0, duration=10.0, **kw):
    cfg = make_cfg(kind, alpha=alpha, g_dob=1000.0, Ts=0.5e-3, g_v=2000.0)
    return Scenario(
        duration=duration,
        cfg=cfg,
        gains=REG_GAINS,
        reference=Reference.step(0.1),
        disturbances=(DisturbancePulse(4.0, 6.0, 4.0),) if duration > 6.0 else (),
        **kw,
    )


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------

def test_trace_length_is_floor_plus_one():
    cfg = make_cfg("velocity", Ts=0.0005)
    sc = Scenario(duration=0.001, cfg=cfg, gains=REG_GAINS)
    assert sc.n_samples == 3
    assert simulate(sc).t.size == 3


def test_scenario_validation():
    cfg = make_cfg("velocity")
    with pytest.raises(ValueError):
        Scenario(duration=0.0, cfg=cfg, gains=REG_GAINS)
    with pytest.raises(ValueError):
        Scenario(duration=1.0, cfg=cfg, gains=REG_GAINS,
                  disturbances=(DisturbancePulse(0.5, 2.0, 1.0),))
    with pytest.raises(ValueError):
        Scenario(duration=1.0, cfg=cfg, gains=REG_GAINS,
                  disturbances=(DisturbancePulse(0.1, 0.5, 1.0),
                                DisturbancePulse(0.4, 0.8, 1.0),))
    with pytest.raises(ValueError):
        DisturbancePulse(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        Reference.sinusoid(1.0, 0.0)


@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite_duration(duration):
    with pytest.raises(ValueError):
        Scenario(duration=duration, cfg=make_cfg("velocity"), gains=REG_GAINS)


@pytest.mark.parametrize("cls, args", [
    (Reference, ("ramp",)),
    (Reference, ("step", math.nan)),
    (Reference, ("step", math.inf)),
    (Reference, ("hold_zero", 0.0, math.nan)),
    (Reference, ("sinusoid", 0.1, 0.0)),
    (Reference, ("sinusoid", 0.1, -1.0)),
    (Reference, ("sinusoid", 0.1, math.nan)),
    (Reference, ("sinusoid", 0.1, math.inf)),
    (Reference, ("sinusoid", -math.inf, 1.0)),
    (Reference, ("sinusoid", 0.1, 1e200)),      # freq**2 overflows
    (Reference, ("sinusoid", 1e300, 1e10)),     # amplitude * freq**2 overflows
    (DisturbancePulse, (math.nan, 0.5, 2.0)),
    (DisturbancePulse, (0.1, math.nan, 2.0)),
    (DisturbancePulse, (-math.inf, 0.5, 2.0)),
    (DisturbancePulse, (0.1, math.inf, 2.0)),
    (DisturbancePulse, (0.1, 0.5, math.nan)),
    (DisturbancePulse, (0.1, 0.5, -math.inf)),
    (DisturbancePulse, (0.5, 0.1, 2.0)),
    (NoiseSpec, (-1e-6, 0.0, 0.0)),
    (NoiseSpec, (math.nan, 0.0, 0.0)),
    (NoiseSpec, (0.0, -math.inf, 0.0)),
    (NoiseSpec, (0.0, math.nan, 0.0)),
    (NoiseSpec, (0.0, 0.0, math.inf)),
    (NoiseSpec, (0.0, 0.0, -0.01)),
])
def test_scenario_parts_reject_invalid_fields(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


@pytest.mark.parametrize("duration, Ts, seed", [
    (1.0, 1e-3, -1),                 # negative seed
    (1.0, 1e-3, 1.5),                # non-integer seeds, which numpy's generator
    (1.0, 1e-3, math.nan),           # would refuse with TypeError at the first draw
    (1.0, 1e-3, 2.0),
    (1.0, 1e-3, "3"),
    (1e13, 1e-3, 0),                 # 1e16 samples
    (MAX_SAMPLES * 1e-3, 1e-3, 0),   # one period past the cap
    (1e10, 1e-300, 0),               # duration / Ts overflows to inf
])
def test_scenario_rejects_seed_and_sample_count(duration, Ts, seed):
    with pytest.raises(ValueError):
        Scenario(duration=duration, cfg=make_cfg("velocity", Ts=Ts), gains=REG_GAINS, seed=seed)


def test_scenario_takes_a_numpy_integer_seed():
    noise = NoiseSpec(eta_p=1e-6)
    a, b = (simulate(_regulation_scenario("velocity", duration=0.1, noise=noise, seed=seed))
            for seed in (np.int64(7), 7))
    assert np.array_equal(a.q_meas, b.q_meas)


def test_scenario_rejects_a_sinusoid_whose_phase_overflows():
    # freq * t reaches 1e313 at the last of 1001 samples, whose sin is NaN
    cfg = make_cfg("velocity", g_dob=1e-300, Ts=1e300)
    with pytest.raises(ValueError, match="phase"):
        Scenario(duration=1e303, cfg=cfg, gains=OuterGains(1e-300, 0.0),
                 reference=Reference.sinusoid(1.0, 1e10))
    # a lower freq keeps the phase finite
    Scenario(duration=1e303, cfg=cfg, gains=OuterGains(1e-300, 0.0),
             reference=Reference.sinusoid(1.0, 1e5))


def test_scenario_at_sample_cap_is_accepted():
    sc = Scenario(duration=(MAX_SAMPLES - 1) * 1e-3, cfg=make_cfg("velocity"), gains=REG_GAINS)
    assert sc.n_samples == MAX_SAMPLES


def test_measured_channels_are_truth_plus_seeded_noise():
    # one generator draws the position, velocity and acceleration noise in turn
    noise = NoiseSpec(eta_p=1e-6, eta_v=1e-4, eta_a=1e-2)
    for kind in ALL_KINDS:
        sc = Scenario(duration=0.05, cfg=make_cfg(kind), gains=REG_GAINS,
                      reference=Reference.step(0.1), noise=noise, seed=5)
        trace = simulate(sc)
        rng = np.random.default_rng(5)
        eta_p, eta_v, eta_a = (std * rng.standard_normal(sc.n_samples)
                               for std in (noise.eta_p, noise.eta_v, noise.eta_a))
        assert np.array_equal(trace.q_meas, trace.q + eta_p)
        if kind is MeasurementKind.VELOCITY:
            assert np.array_equal(trace.qd_meas, trace.qd + eta_v)
        if kind is MeasurementKind.ACCELERATION:
            assert np.array_equal(trace.qdd_meas, trace.qdd + eta_a)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_noisy_estimate_obeys_observer_equations(kind):
    # checks the noisy loop against the observer's defining equations on the
    # recorded channels, where the noise-free oracle cannot reach
    cfg = make_cfg(kind, alpha=1.3, g_dob=800.0, Ts=1e-3, g_v=1500.0)
    sc = Scenario(duration=0.3, cfg=cfg, gains=REG_GAINS, reference=Reference.step(0.05),
                  disturbances=(DisturbancePulse(0.1, 0.2, 2.0),),
                  noise=NoiseSpec(eta_p=1e-6, eta_v=1e-3, eta_a=0.05), seed=11)
    tr = simulate(sc)
    J_mn, K_tn, gTs = cfg.plant.J_mn, cfg.plant.K_tn, cfg.g_dob * cfg.Ts
    if kind is MeasurementKind.ACCELERATION:
        # tau_hat = Q(z) [K_tn I - J_mn qdd_meas], Q = gTs z / ((1 + gTs) z - 1)
        expected, y = [], 0.0
        for x in K_tn * tr.I - J_mn * tr.qdd_meas:
            y = (gTs * x + y) / (1.0 + gTs)
            expected.append(y)
        got = tr.tau_dis_hat
    else:
        if kind is MeasurementKind.VELOCITY:
            v = tr.qd_meas
        else:  # pseudo-velocity g_v (z - 1) / ((1 + g_v Ts) z - 1) of q_meas
            v, y, prev = [], 0.0, 0.0
            for qn in tr.q_meas:
                y = (y + cfg.g_v * (qn - prev)) / (1.0 + cfg.g_v * cfg.Ts)
                prev = qn
                v.append(y)
        # tau_hat + J_mn g v = gTs K_tn sum_{j <= k} I_des_j
        expected = gTs * K_tn * np.cumsum(tr.I_des)
        got = tr.tau_dis_hat + J_mn * cfg.g_dob * np.asarray(v)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-9)


def test_zero_scenario_gives_zero_trace():
    sc = Scenario(duration=0.5, cfg=make_cfg("position"), gains=REG_GAINS)
    trace = simulate(sc)
    for name in ("q", "qd", "qdd", "I", "I_des", "tau_dis_hat"):
        assert not np.any(getattr(trace, name))
    assert not trace.diverged


def test_measured_channels_by_kind():
    for kind, qd_m, qdd_m in (("acceleration", False, True),
                              ("velocity", True, False),
                              ("position", False, False)):
        sc = Scenario(duration=0.01, cfg=make_cfg(kind), gains=REG_GAINS)
        tr = simulate(sc)
        assert (tr.qd_meas is not None) is qd_m
        assert (tr.qdd_meas is not None) is qdd_m
        assert tr.q_meas is not None


# ---------------------------------------------------------------------------
# regulation behaviour
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_disturbance_regulation(kind):
    trace = simulate(_regulation_scenario(kind))
    ts = trace.t[1] - trace.t[0]
    k5 = int(round(5.0 / ts))
    k59 = int(round(5.9 / ts))
    # estimate locks onto the injected force well before t = 5 s
    assert trace.tau_dis_hat[k5] == pytest.approx(4.0, rel=0.05)
    assert abs(trace.q_ref[k59] - trace.q[k59]) < 1e-6
    assert abs(trace.q_ref[-1] - trace.q[-1]) < 1e-6
    assert not trace.diverged


def test_disturbance_estimate_settles_to_step():
    # pure inner loop driven open-outer still reconstructs a constant force
    cfg = make_cfg("velocity", alpha=1.0, g_dob=500.0, Ts=1e-3)
    sc = Scenario(duration=1.0, cfg=cfg, gains=None,
                  disturbances=(DisturbancePulse(0.0, 1.0, 2.5),))
    trace = simulate(sc)
    assert trace.tau_dis_hat[-1] == pytest.approx(2.5, rel=1e-6)


def test_dc_disturbance_rejection_after_fifty_time_constants():
    sc = Scenario(duration=3.0, cfg=make_cfg("velocity", g_dob=1000.0, Ts=0.5e-3),
                  gains=REG_GAINS,
                  disturbances=(DisturbancePulse(0.0, 3.0, 4.0),))
    trace = simulate(sc)
    # dominant closed-loop pole 0.9889 -> time constant ~45 ms; 50 of them ~2.2 s
    assert abs(trace.q_ref[-1] - trace.q[-1]) < 1e-8


def test_sinusoid_tracking_error_matches_sensitivity_prediction():
    freq = 4.0 * math.pi  # rad/s
    cfg = make_cfg("velocity", alpha=1.0, g_dob=1000.0, Ts=0.5e-3)
    sc = Scenario(duration=8.0, cfg=cfg, gains=REG_GAINS,
                  reference=Reference.sinusoid(0.1, freq))
    trace = simulate(sc)
    inner = make_inner_loop(cfg)
    outer = make_outer_loop(inner, make_pd(REG_GAINS, cfg.Ts))
    gp = discrete_position_plant(cfg.Ts)
    # e = S_out*(1 + w^2 * C_in * G_pos) applied to the reference sinusoid
    z = cmath.exp(1j * freq * cfg.Ts)
    h = at(outer.S)(z) * (1.0 + freq**2 * at(inner.C)(z) * at(gp)(z))
    predicted = 0.1 * abs(h)
    tail = slice(-int(round(2 * math.pi / freq / cfg.Ts)), None)
    measured = np.max(np.abs(trace.q_ref[tail] - trace.q[tail]))
    assert measured == pytest.approx(predicted, rel=1e-2)
    assert measured < 0.1  # reference itself is far larger than the residual


# ---------------------------------------------------------------------------
# divergence thresholds
# ---------------------------------------------------------------------------

def test_velocity_threshold_reproduced():
    bounded = simulate(_regulation_scenario("velocity", alpha=3.9, duration=3.0))
    assert not bounded.diverged
    diverged = simulate(_regulation_scenario("velocity", alpha=4.05, duration=3.0))
    assert diverged.diverged
    assert diverged.t.size < bounded.t.size


def test_divergence_truncates_all_channels():
    trace = simulate(_regulation_scenario("velocity", alpha=4.05, duration=3.0))
    n = trace.t.size
    for name in ("q", "qd", "qdd", "I", "I_des", "tau_d", "tau_dis_hat", "q_ref"):
        assert getattr(trace, name).size == n
    assert abs(trace.q[-1]) > 1e6


def test_oracle_truncates_where_the_simulator_diverges():
    # criterion 5's divergent position case: the oracle used to step all 6001
    # samples, to |q| ~ 1.6e187, with diverged=False
    sc = _regulation_scenario("position", alpha=3.9, duration=3.0)
    trace, oracle = simulate(sc), simulate_linear_oracle(sc)
    assert trace.diverged and oracle.diverged
    assert oracle.t.size == trace.t.size == 242
    assert abs(oracle.q[-1]) > 1e6 and np.all(np.abs(oracle.q[:-1]) <= 1e6)
    for name in CHANNELS:
        a, b = getattr(trace, name), getattr(oracle, name)
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) <= 1e-9, name


def _nan_scenario():
    """Finite, positive but extreme values: q is NaN from the second sample on."""
    cfg = DobConfig(kind=MeasurementKind.VELOCITY, g_dob=1.3e18, Ts=7.4e-228,
                    plant=PlantParams(J_m=1.5e57, K_t=5.2e131, J_mn=2.9e69, K_tn=8.7e104))
    return Scenario(duration=2.2e-226, cfg=cfg, gains=OuterGains(3.4e100, 1.7e140),
                    reference=Reference.step(1.4e19))


def test_a_nan_position_diverges_in_simulator_and_oracle():
    # a NaN position must stop the run (abs(nan) > limit is False)
    sc = _nan_scenario()
    for run in (simulate, simulate_linear_oracle):
        trace = run(sc)
        assert trace.diverged, run
        assert trace.t.size == 2 and math.isnan(trace.q[-1]), run


# ---------------------------------------------------------------------------
# exact identities of the recorded motion
# ---------------------------------------------------------------------------

NOISE = NoiseSpec(eta_p=1e-6, eta_v=1e-3, eta_a=0.05)


def _identity_scenarios():
    """(id, scenario): every kind clean and noisy, with and without outer
    gains, then diverged runs, one of them NaN from its second sample."""
    for kind in ALL_KINDS:
        cfg = make_cfg(kind, alpha=1.3, g_dob=800.0, Ts=1e-3, g_v=1500.0)
        for name, noise, gains in (("clean", NoiseSpec(), REG_GAINS),
                                   ("clean-open", NoiseSpec(), None),
                                   ("noisy", NOISE, REG_GAINS)):
            yield f"{kind.value}-{name}", Scenario(
                duration=0.3, cfg=cfg, gains=gains, reference=Reference.sinusoid(0.05, 20.0),
                disturbances=(DisturbancePulse(0.1, 0.2, 2.0),), noise=noise, seed=11)
    yield "velocity-diverged", _regulation_scenario("velocity", alpha=4.05, duration=3.0)
    yield "position-diverged", _regulation_scenario("position", alpha=3.9, duration=3.0)
    yield "nan", _nan_scenario()


IDENTITY_SCENARIOS = dict(_identity_scenarios())


@pytest.mark.parametrize("name", IDENTITY_SCENARIOS)
def test_simulated_motion_is_the_exact_zoh_step(name):
    # the loop's own float operations, every sample up to a diverged run's last
    sc = IDENTITY_SCENARIOS[name]
    tr = simulate(sc)
    assert tr.diverged is (name in ("velocity-diverged", "position-diverged", "nan"))
    Ts, plant = sc.cfg.Ts, sc.cfg.plant
    q, qd, qdd = tr.q, tr.qd, tr.qdd
    assert q[0] == 0.0 and qd[0] == 0.0
    with np.errstate(all="ignore"):
        assert np.array_equal(qdd, (plant.K_t * tr.I - tr.tau_d) / plant.J_m, equal_nan=True)
        assert np.array_equal(qd[1:], qd[:-1] + Ts * qdd[:-1], equal_nan=True)
        assert np.array_equal(q[1:], q[:-1] + Ts * qd[:-1] + Ts * Ts / 2 * qdd[:-1],
                              equal_nan=True)


def _held_output(section, x):
    """Output of a strictly proper ``_order2`` section from zero state driven
    by x: its first state, updated as the oracle updates its plant sections."""
    _, b1, b2, a1, a2 = section
    s1 = s2 = 0.0
    out = []
    for x_k in x.tolist():
        y = s1
        s1 = b1 * x_k - a1 * y + s2
        s2 = b2 * x_k - a2 * y
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("name", [n for n, sc in IDENTITY_SCENARIOS.items() if sc.noise.silent])
def test_oracle_velocity_is_the_running_sum_of_its_acceleration(name):
    # the oracle forms qd after its loop; the values are those of the velocity
    # plant Ts / (z - 1) stepped on the oracle's acceleration, bit for bit
    sc = IDENTITY_SCENARIOS[name]
    oracle = simulate_linear_oracle(sc)
    Ts = sc.cfg.Ts
    assert oracle.qd[0] == 0.0
    with np.errstate(all="ignore"):
        assert np.array_equal(oracle.qd[1:], oracle.qd[:-1] + Ts * oracle.qdd[:-1],
                              equal_nan=True)
        stepped = _held_output(_order2(discrete_velocity_plant(Ts)), oracle.qdd)
    assert oracle.qd.tobytes() == stepped.tobytes()


def test_pulse_window_is_placed_by_sample_index():
    # at Ts = 1e-13 an absolute 1e-12 s tolerance is 10 periods: the pulse on
    # [5e-12, 1e-11) used to land on samples 40-89
    for Ts, window, samples in ((1e-13, (5e-12, 1e-11), range(50, 100)),
                                (1e-3, (0.05, 0.1), range(50, 100))):
        sc = Scenario(duration=200 * Ts, cfg=make_cfg("velocity", Ts=Ts), gains=REG_GAINS,
                      disturbances=(DisturbancePulse(*window, 2.0),))
        for run in (simulate, simulate_linear_oracle):
            tau_d = run(sc).tau_d
            assert np.array_equal(np.flatnonzero(tau_d), samples), (Ts, run)
            assert np.all(tau_d[samples.start:samples.stop] == 2.0)


def test_divergence_boundary_matches_sampling_limit():
    # open-outer velocity loop, forced by a constant load; the divergence flag
    # flips within 1% of alpha*g_dob = 2/Ts
    Ts = 1e-3

    def bounded_at(alpha_g):
        cfg = make_cfg("velocity", alpha=1.0, g_dob=alpha_g, Ts=Ts)
        sc = Scenario(duration=4.0, cfg=cfg, gains=None,
                      disturbances=(DisturbancePulse(0.1, 4.0, 2.0),))
        return not simulate(sc).diverged

    flip = bisect_threshold(bounded_at, 1900.0, 2100.0, rel_tol=1e-5)
    assert abs(flip - 2000.0) / 2000.0 < 0.01


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def _random_scenario(rng):
    kind = rng.choice(["acceleration", "velocity", "position"])
    Ts = float(rng.choice([1e-3, 5e-4]))
    alpha = float(rng.uniform(0.5, 2.0))
    g_dob = float(rng.uniform(200.0, 0.8 / (alpha * Ts)))
    g_v = float(rng.uniform(500.0, 2000.0))
    cfg = make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
    gains = OuterGains(K_p=float(rng.uniform(800.0, 6000.0)),
                       K_d=float(rng.uniform(10.0, 120.0)))
    duration = float(rng.uniform(0.8, 2.5))
    if rng.random() < 0.5:
        reference = Reference.step(float(rng.uniform(-0.2, 0.2)) or 0.05)
    else:
        reference = Reference.sinusoid(float(rng.uniform(0.01, 0.2)),
                                       float(rng.uniform(2.0, 60.0)))
    pulses = []
    t0 = 0.05
    for _ in range(int(rng.integers(0, 3))):
        start = float(rng.uniform(t0, duration - 0.1))
        end = float(rng.uniform(start + 0.02, min(start + 0.8, duration)))
        pulses.append(DisturbancePulse(start, end, float(rng.uniform(-8.0, 8.0))))
        t0 = end
        if t0 >= duration - 0.15:
            break
    return Scenario(duration=duration, cfg=cfg, gains=gains, reference=reference,
                    disturbances=tuple(pulses))


CHANNELS = ("q", "qd", "qdd", "I", "I_des", "tau_dis_hat")


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        sc = _random_scenario(rng)
        trace = simulate(sc)
        assert not trace.diverged, sc
        oracle = simulate_linear_oracle(sc)
        for name in CHANNELS:
            diff = float(np.max(np.abs(getattr(trace, name) - getattr(oracle, name))))
            assert diff <= 1e-9, (name, diff, sc)


def test_oracle_equivalence_open_outer():
    cfg = make_cfg("position", alpha=1.3, g_dob=400.0, Ts=1e-3, g_v=900.0)
    sc = Scenario(duration=1.5, cfg=cfg, gains=None,
                  reference=Reference.sinusoid(0.05, 15.0),
                  disturbances=(DisturbancePulse(0.4, 0.9, 3.0),))
    trace, oracle = simulate(sc), simulate_linear_oracle(sc)
    for name in CHANNELS:
        assert np.max(np.abs(getattr(trace, name) - getattr(oracle, name))) <= 1e-9


@st.composite
def _stable_scenarios(draw):
    """Short criterion-8-style scenarios: every kind, with and without outer gains."""
    kind = draw(st.sampled_from(ALL_KINDS))
    Ts = draw(st.sampled_from([1e-3, 5e-4]))
    alpha = draw(st.floats(0.5, 2.0))
    cfg = make_cfg(kind, alpha=alpha, g_dob=draw(st.floats(200.0, 0.8 / (alpha * Ts))),
                   Ts=Ts, g_v=draw(st.floats(500.0, 2000.0)))
    gains = draw(st.none() | st.builds(OuterGains, K_p=st.floats(800.0, 6000.0),
                                       K_d=st.floats(10.0, 120.0)))
    duration = draw(st.floats(0.05, 0.25))
    reference = draw(st.builds(Reference.step, st.floats(-0.2, 0.2))
                     | st.builds(Reference.sinusoid, st.floats(0.01, 0.2), st.floats(2.0, 60.0)))
    n_pulses = draw(st.integers(0, 2))
    pulses = []
    for i in range(n_pulses):
        # pulse i lies in the i-th of n_pulses equal slots, so windows never overlap
        slot = duration / n_pulses
        start = draw(st.floats(i * slot, (i + 0.5) * slot))
        width = draw(st.floats(Ts, 0.5 * slot))
        pulses.append(DisturbancePulse(start, start + width, draw(st.floats(-8.0, 8.0))))
    return Scenario(duration=duration, cfg=cfg, gains=gains, reference=reference,
                    disturbances=tuple(pulses))


@settings(max_examples=150, deadline=None)
@given(_stable_scenarios())
def test_oracle_equivalence_on_generated_scenarios(sc):
    trace = simulate(sc)
    assume(not trace.diverged)
    oracle = simulate_linear_oracle(sc)
    for name in CHANNELS:
        diff = float(np.max(np.abs(getattr(trace, name) - getattr(oracle, name))))
        assert diff <= 1e-9, (name, diff, sc)


def test_order2_sections_zero_padded():
    Ts = 1e-3
    assert _order2(RationalTF.constant(0.0, Ts)) == (0.0, 0.0, 0.0, 0.0, 0.0)
    kd = REG_GAINS.K_d / Ts
    assert _order2(make_pd(REG_GAINS, Ts)) == (REG_GAINS.K_p + kd, -kd, 0.0, 0.0, 0.0)
    h = 0.5 * Ts * Ts
    assert _order2(discrete_position_plant(Ts)) == (0.0, h, h, -2.0, 1.0)
    # the oracle's velocity, Ts / (z - 1) stepped from zero state, is the running sum of Ts * acc
    assert _order2(discrete_velocity_plant(Ts)) == (0.0, Ts, 0.0, -1.0, 0.0)
    # the leading denominator coefficient is divided out
    assert _order2(RationalTF([1.0, 4.0], [2.0, 4.0], Ts)) == (1.0, 0.25, 0.0, 0.5, 0.0)


@pytest.mark.parametrize("tf", [
    RationalTF([0.0, 0.0, 1.0], [0.5, 1.0], 1e-3),          # z^2 / (z + 0.5): improper
    RationalTF([1.0], [0.1, 0.0, 0.0, 1.0], 1e-3),          # order 3
], ids=["improper", "order3"])
def test_order2_rejects_what_it_cannot_realize(tf):
    with pytest.raises(ValueError):
        _order2(tf)


def test_oracle_zero_inputs_zero_trace():
    sc = Scenario(duration=0.3, cfg=make_cfg("acceleration"), gains=REG_GAINS)
    oracle = simulate_linear_oracle(sc)
    assert not np.any(oracle.q) and not np.any(oracle.tau_dis_hat)


_NO_SCIPY_PROBE = """
import sys
import dobkit.cli
from dobkit import DobConfig, OuterGains, PlantParams, Reference, Scenario
from dobkit import simulate_linear_oracle
cfg = DobConfig(kind="velocity", plant=PlantParams.from_alpha(1.0), g_dob=500.0, Ts=1e-3)
sc = Scenario(duration=0.05, cfg=cfg, gains=OuterGains(K_p=4000.0, K_d=200.0),
              reference=Reference.step(0.1))
assert simulate_linear_oracle(sc).q.size == sc.n_samples
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_and_oracle_import_no_scipy():
    src = str(Path(dobkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]", proc.stdout


def test_oracle_rejects_noise():
    sc = Scenario(duration=0.1, cfg=make_cfg("velocity"), gains=REG_GAINS,
                  noise=NoiseSpec(eta_v=1e-4))
    with pytest.raises(UnsupportedScenarioError):
        simulate_linear_oracle(sc)


# ---------------------------------------------------------------------------
# noise behaviour
# ---------------------------------------------------------------------------

def test_identical_seed_bit_identical():
    sc = Scenario(duration=0.4, cfg=make_cfg("acceleration"), gains=REG_GAINS,
                  reference=Reference.step(0.05),
                  noise=NoiseSpec(eta_p=1e-6, eta_a=0.01), seed=99)
    a, b = simulate(sc), simulate(sc)
    for name in CHANNELS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = simulate(Scenario(duration=0.4, cfg=sc.cfg, gains=sc.gains,
                          reference=sc.reference, noise=sc.noise, seed=100))
    assert not np.array_equal(a.q, c.q)


def _binomial_tail(n, k):
    """P[X >= k] for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(k, n + 1)) / 2.0**n


def test_estimate_noise_grows_with_bandwidth():
    # acceleration-measurement observer: wider bandwidth passes more sensor
    # noise into the force estimate; paired per-seed sign test
    Ts = 1e-3
    grid = [100.0, 300.0, 900.0]
    seeds = range(20)
    rms = np.zeros((len(grid), len(seeds)))
    for i, g in enumerate(grid):
        cfg = make_cfg("acceleration", alpha=1.0, g_dob=g, Ts=Ts)
        for j, seed in enumerate(seeds):
            sc = Scenario(duration=1.0, cfg=cfg, gains=REG_GAINS,
                          noise=NoiseSpec(eta_a=0.05), seed=seed)
            trace = simulate(sc)
            rms[i, j] = math.sqrt(float(np.mean(trace.tau_dis_hat**2)))
    for lo, hi in ((0, 1), (1, 2)):
        wins = int(np.sum(rms[hi] > rms[lo]))
        assert _binomial_tail(len(list(seeds)), wins) < 0.01, (lo, hi, wins)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_zero_trace():
    sc = Scenario(duration=0.5, cfg=make_cfg("velocity"), gains=REG_GAINS)
    m = disturbance_rejection_metrics(simulate(sc), (0.0, 0.5))
    assert m.max_abs_error == 0.0
    assert m.settle_time == 0.0
    assert m.est_error_rms == 0.0
    assert not m.diverged


def test_metrics_on_disturbance_window():
    trace = simulate(_regulation_scenario("velocity"))
    m = disturbance_rejection_metrics(trace, (5.0, 6.0))
    assert m.est_error_rms < 0.05 * 4.0
    assert m.max_abs_error < 1e-4


def test_metrics_validation_and_divergence():
    trace = simulate(_regulation_scenario("velocity", alpha=4.05, duration=3.0))
    with pytest.raises(ValueError):
        disturbance_rejection_metrics(trace, (1.0, 1.0))
    m = disturbance_rejection_metrics(trace, (0.0, 3.0))
    assert m.diverged
    assert math.isfinite(m.max_abs_error)
    beyond = disturbance_rejection_metrics(trace, (2.0, 3.0))
    assert beyond.diverged and math.isnan(beyond.max_abs_error)


def test_metrics_settle_time_relative_to_window():
    trace = simulate(_regulation_scenario("velocity"))
    m = disturbance_rejection_metrics(trace, (6.0, 10.0))
    assert 0.0 < m.settle_time < 1.0  # recovers within a second of release


def _error_trace(err, Ts=1e-3):
    """A trace whose position error is ``err`` and whose estimate is exact."""
    err = np.asarray(err, dtype=float)
    zero = np.zeros_like(err)
    return SimTrace(t=np.arange(err.size) * Ts, q_ref=err, q=zero, qd=zero, qdd=zero,
                    q_meas=zero, qd_meas=None, qdd_meas=None, I_des=zero, I=zero,
                    tau_d=zero, tau_dis_hat=zero, diverged=False)


@pytest.mark.parametrize("err, window, settle", [
    ([0.0, 1e-7, 0.0, 1e-7], (0.0, 0.003), 0.0),            # below everywhere
    ([1e-5, 1e-5, 1e-5, 1e-5], (0.0, 0.003), math.nan),     # above everywhere
    ([0.0, 0.0, 0.0, 1e-5], (0.0, 0.003), math.nan),        # above at the last sample only
    ([1e-5, 1e-5, 0.0, 0.0], (0.0, 0.003), 0.002),          # settles inside the window
    ([1e-5, 1e-5, 0.0, 1e-5], (0.001, 0.002), 0.001),       # window ends before the rise
    ([1e-5, 0.0, 1e-5], (0.001, 0.0015), 0.0),              # one sample, below
    ([0.0, 1e-5, 0.0], (0.001, 0.0015), math.nan),          # one sample, above
])
def test_metrics_settle_time_edges(err, window, settle):
    m = disturbance_rejection_metrics(_error_trace(err), window)
    if math.isnan(settle):
        assert math.isnan(m.settle_time)
    else:
        assert m.settle_time == pytest.approx(settle, abs=1e-15)


@pytest.mark.parametrize("est_err, rms", [
    ([3.0, -4.0], math.sqrt(12.5)),
    ([3e200, -4e200], math.sqrt(12.5) * 1e200),  # the squares overflow
    ([1e300, math.inf], math.inf),
    ([1e300, math.nan], math.nan),
])
def test_metrics_estimate_rms_without_overflow(est_err, rms):
    trace = _error_trace(np.zeros(len(est_err)))
    trace.tau_d = np.array(est_err)
    m = disturbance_rejection_metrics(trace, (0.0, 0.001))
    assert m.est_error_rms == pytest.approx(rms, rel=1e-15, nan_ok=True)


def test_metrics_settle_time_matches_reverse_scan():
    # reference: walk back from the window's end while the error stays below
    rng = np.random.default_rng(11)
    for _ in range(200):
        err = rng.choice([0.0, 1e-7, 1e-5], size=int(rng.integers(1, 30)), p=[0.5, 0.3, 0.2])
        trace = _error_trace(err)
        ok_from = None
        for i in range(err.size - 1, -1, -1):
            if not err[i] < 1e-6:
                break
            ok_from = i
        expected = math.nan if ok_from is None else float(trace.t[ok_from])
        got = disturbance_rejection_metrics(trace, (0.0, err.size * 1e-3)).settle_time
        assert got == expected or (math.isnan(got) and math.isnan(expected)), (err, got)
