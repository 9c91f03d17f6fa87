"""Time-domain simulation of the observer-based digital position control loop.

``simulate`` advances the true rigid body by its exact zero-order-hold
discretization at the controller rate and realizes every digital block
(observer low-pass, pseudo-velocity filter, backward-Euler PD) as the
difference equation of its z-domain form with zero initial state, in one
loop over samples on Python floats. The observer low-pass has direct
feedthrough, so the motor current at each step satisfies a scalar linear
equation that is solved exactly rather than broken with an artificial
one-step delay.

``simulate_linear_oracle`` recomputes the same noise-free trace through the
closed-form transfer functions, giving an independent second implementation
path for cross-validation: one loop over samples runs the PD controller, the
inner loop's closed-form C and S and the two sampled plants as five separate
order-2 direct-form sections on scalar states, and closes the outer loop once
per sample.

Both draw their inputs from ``_inputs`` and assemble their output with
``_trace``, which holds the measured-channel rule and the disturbance
estimate identity tau_dis_hat = K_tn * (I - I_des).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .loops import (
    DobConfig,
    MeasurementKind,
    OuterGains,
    discrete_position_plant,
    discrete_velocity_plant,
    make_inner_loop,
    make_pd,
)
from .zalg import RationalTF

__all__ = [
    "UnsupportedScenarioError",
    "Reference",
    "DisturbancePulse",
    "NoiseSpec",
    "Scenario",
    "SimTrace",
    "RejectionMetrics",
    "simulate",
    "simulate_linear_oracle",
    "disturbance_rejection_metrics",
]

DIVERGENCE_LIMIT = 1e6  # metres; beyond this the trace truncates with a flag
# Longest run, in sample periods. A ``dobkit simulate`` run, CSV included, holds
# about 125 B per sample at its peak under tracemalloc.
MAX_SAMPLES = 1_000_000
# Position error (metres) below which a run counts as settled.
SETTLE_THRESHOLD = 1e-6


class UnsupportedScenarioError(ValueError):
    """The requested scenario lies outside this routine's contract."""


@dataclass(frozen=True)
class Reference:
    """Position reference with analytically known acceleration feedforward."""

    kind: str                 # "step" | "sinusoid" | "hold_zero"
    amplitude: float = 0.0
    freq: float = 0.0         # rad/s, sinusoid only

    def __post_init__(self):
        if self.kind not in ("step", "sinusoid", "hold_zero"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.freq)):
            raise ValueError("reference amplitude and freq must be finite")
        if self.kind == "sinusoid":
            if not self.freq > 0.0:
                raise ValueError("sinusoid frequency must be positive")
            if not math.isfinite(self.amplitude * (self.freq * self.freq)):
                raise ValueError("sinusoid acceleration amplitude * freq**2 must be finite")

    @classmethod
    def step(cls, amplitude: float) -> "Reference":
        return cls("step", amplitude=amplitude)

    @classmethod
    def sinusoid(cls, amplitude: float, freq: float) -> "Reference":
        return cls("sinusoid", amplitude=amplitude, freq=freq)

    @classmethod
    def hold_zero(cls) -> "Reference":
        return cls("hold_zero")

    def position(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "step":
            return np.full_like(t, self.amplitude)
        if self.kind == "sinusoid":
            return self.amplitude * np.sin(self.freq * t)
        return np.zeros_like(t)

    def accel(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "sinusoid":
            return -self.amplitude * self.freq**2 * np.sin(self.freq * t)
        return np.zeros_like(t)


@dataclass(frozen=True)
class DisturbancePulse:
    """Constant external force on the half-open window [t_start, t_end)."""

    t_start: float
    t_end: float
    force: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.t_start, self.t_end, self.force)):
            raise ValueError("pulse start, end and force must be finite")
        if not self.t_end > self.t_start:
            raise ValueError("pulse must have t_end > t_start")


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian standard deviations for the three sensors."""

    eta_p: float = 0.0
    eta_v: float = 0.0
    eta_a: float = 0.0

    def __post_init__(self):
        for name in ("eta_p", "eta_v", "eta_a"):
            std = getattr(self, name)
            if not (math.isfinite(std) and std >= 0.0):
                raise ValueError(f"noise {name} must be finite and non-negative")

    @property
    def silent(self) -> bool:
        return self.eta_p == 0.0 and self.eta_v == 0.0 and self.eta_a == 0.0


@dataclass(frozen=True)
class Scenario:
    """One complete simulation setup; gains=None drives the inner loop open-outer."""

    duration: float
    cfg: DobConfig
    gains: OuterGains | None
    reference: Reference = field(default_factory=Reference.hold_zero)
    disturbances: tuple = ()
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError("duration must be finite and positive")
        # A ratio that overflows to inf fails this test too.
        if not self.duration / self.cfg.Ts < MAX_SAMPLES:
            raise ValueError(f"duration / Ts must stay below {MAX_SAMPLES} samples")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        pulses = tuple(sorted(self.disturbances, key=lambda p: p.t_start))
        for p in pulses:
            if p.t_start < 0.0 or p.t_end > self.duration + 1e-12:
                raise ValueError("disturbance window outside [0, duration]")
        for a, b in zip(pulses, pulses[1:]):
            if b.t_start < a.t_end:
                raise ValueError("disturbance windows overlap")
        object.__setattr__(self, "disturbances", pulses)

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.duration / self.cfg.Ts + 1e-9)) + 1


@dataclass
class SimTrace:
    """Uniformly sampled record of one closed-loop run.

    Measured channels not produced by the configured sensor set are None.
    A diverged trace is truncated at the first sample with |q| beyond the
    guard limit; the flag is data, not an error.
    """

    t: np.ndarray
    q_ref: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    q_meas: np.ndarray
    qd_meas: np.ndarray | None
    qdd_meas: np.ndarray | None
    I_des: np.ndarray
    I: np.ndarray
    tau_d: np.ndarray
    tau_dis_hat: np.ndarray
    diverged: bool

    def __repr__(self) -> str:
        return (f"SimTrace(n={self.t.size}, t_end={self.t[-1]:.6g}, "
                f"diverged={self.diverged})")


class RejectionMetrics(NamedTuple):
    max_abs_error: float
    settle_time: float
    est_error_rms: float
    diverged: bool


def _inputs(sc: Scenario):
    """Sample times and the reference position, acceleration and disturbance series.

    The step loops read these through memoryviews, which yield the same
    Python floats as ``tolist`` without a list per series.
    """
    t = np.arange(sc.n_samples) * sc.cfg.Ts
    d = np.zeros_like(t)
    for p in sc.disturbances:
        d[(t >= p.t_start - 1e-12) & (t < p.t_end - 1e-12)] += p.force
    return t, sc.reference.position(t), sc.reference.accel(t), d


def _trace(sc: Scenario, t, r, d, q, qd, qdd, I_des, I, noise=None,
           diverged: bool = False) -> SimTrace:
    """The trace of the first ``len(q)`` samples of a run.

    Each measured channel is the true motion plus its sensor noise (``noise``
    holds the full position, velocity and acceleration series; None is
    noise-free). The velocity sensor is recorded only for velocity
    measurement, the acceleration sensor only for acceleration measurement.
    """
    n = len(q)
    q, qd, qdd, I_des, I = (np.asarray(x, dtype=float) for x in (q, qd, qdd, I_des, I))
    eta_p, eta_v, eta_a = (0.0, 0.0, 0.0) if noise is None else (e[:n] for e in noise)
    kind = sc.cfg.kind
    # Extreme gains can overflow both currents to the same infinity at a
    # diverged run's last sample; the estimate there is NaN, undefined.
    with np.errstate(invalid="ignore"):
        tau_dis_hat = sc.cfg.plant.K_tn * (I - I_des)
    return SimTrace(
        t=t[:n], q_ref=r[:n], q=q, qd=qd, qdd=qdd,
        q_meas=q + eta_p,
        qd_meas=qd + eta_v if kind is MeasurementKind.VELOCITY else None,
        qdd_meas=qdd + eta_a if kind is MeasurementKind.ACCELERATION else None,
        I_des=I_des, I=I, tau_d=d[:n], tau_dis_hat=tau_dis_hat, diverged=diverged,
    )


def simulate(sc: Scenario) -> SimTrace:
    """Run the full digital loop step by step.

    The plant state advances by the exact zero-order-hold map of the double
    integrator; current and sampled disturbance are held over each period.
    The measurement taken at t_k feeds the control current applied over
    [t_k, t_{k+1}) with no computation delay. One loop over Python floats
    serves every configuration: without outer gains the PD terms are zero, so
    only the feedforward drives; velocity and position measurement share one
    observer update and differ only in the velocity fed back (the noisy
    sensor or the pseudo-velocity filter); acceleration measurement solves
    its current/observer algebraic loop exactly. Each sensor reads the true
    motion plus zero-mean Gaussian noise, drawn from
    ``np.random.default_rng(seed)`` as one series per sensor (position,
    velocity, acceleration); a silent scenario draws nothing and its sensors
    read the true motion. Instability is a legitimate outcome: the run stops
    with ``diverged=True`` at the first sample whose |q| exceeds the guard
    limit, and that sample is the trace's last.
    """
    cfg = sc.cfg
    plant = cfg.plant
    Ts, g = cfg.Ts, cfg.g_dob
    t, r, aref, d = _inputs(sc)

    if sc.noise.silent:  # no draws: zeros feed the sensors, as in the oracle
        noise, samples = None, (repeat(0.0),) * 3
    else:
        rng = np.random.default_rng(sc.seed)
        noise = tuple(std * rng.standard_normal(t.size)
                      for std in (sc.noise.eta_p, sc.noise.eta_v, sc.noise.eta_a))
        samples = map(memoryview, noise)

    J_m, K_t, J_mn, K_tn = plant.J_m, plant.K_t, plant.J_mn, plant.K_tn
    gTs = g * Ts
    qden = 1.0 + gTs
    dQ = gTs / qden                      # observer filter direct feedthrough, < 1
    kff = J_mn / K_tn                    # desired acceleration -> nominal current
    kg, Jg = kff * g, J_mn * g           # velocity feedback into current and observer
    hTs2 = 0.5 * Ts * Ts
    if sc.gains is None:                 # open outer loop: only the feedforward drives
        c1 = c0 = 0.0
    else:
        c1 = sc.gains.K_p + sc.gains.K_d / Ts
        c0 = sc.gains.K_d / Ts
    accel = cfg.kind is MeasurementKind.ACCELERATION
    pseudo = cfg.kind is MeasurementKind.POSITION
    if accel:
        denom = 1.0 - dQ * (1.0 - (J_mn * K_t) / (J_m * K_tn))
        wI, dJ, JK = qden * K_tn, dQ * J_mn, J_m * K_tn
    if pseudo:
        g_v = cfg.g_v
        vden = 1.0 + g_v * Ts

    out_q, out_qd, out_qdd, out_I_des, out_I = (array("d") for _ in range(5))
    q = qd = 0.0
    w = 0.0          # observer low-pass state (previous output)
    e_prev = 0.0     # PD backward-difference state
    vhat = 0.0       # pseudo-velocity filter state
    qn_prev = 0.0    # previous position sample seen by the pseudo-velocity filter
    diverged = False
    for r_k, a_k, d_k, ep, ev, ea in zip(*map(memoryview, (r, aref, d)), *samples):
        q_n = q + ep
        e = r_k - q_n
        I_des = kff * (a_k + c1 * e - c0 * e_prev)
        e_prev = e
        if accel:
            # Acceleration at t_k depends on I_k, so the algebraic loop couples
            # plant and observer; still scalar linear in I_k.
            I = (I_des + w / wI + dJ * d_k / JK - dJ * ea / K_tn) / denom
            u = (K_t * I - d_k) / J_m
            y = -J_mn * (u + ea)
        else:
            if pseudo:
                vhat = (vhat + g_v * (q_n - qn_prev)) / vden
                qn_prev = q_n
                v = vhat
            else:
                v = qd + ev
            I = qden * I_des + w / K_tn - kg * v
            u = (K_t * I - d_k) / J_m
            y = Jg * v
        # observer low-pass input: nominal thrust plus the measured motion term y
        w = w / qden + dQ * (K_tn * I + y)

        out_q.append(q)
        out_qd.append(qd)
        out_qdd.append(u)
        out_I_des.append(I_des)
        out_I.append(I)
        if abs(q) > DIVERGENCE_LIMIT:
            diverged = True
            break
        q = q + Ts * qd + hTs2 * u
        qd = qd + Ts * u

    return _trace(sc, t, r, d, out_q, out_qd, out_qdd, out_I_des, out_I, noise, diverged)


# ---------------------------------------------------------------------------
# closed-form oracle
# ---------------------------------------------------------------------------

def _order2(tf: RationalTF) -> tuple[float, float, float, float, float]:
    """``(b0, b1, b2, a1, a2)`` of a proper section of order 2 or less.

    Coefficients run in descending powers of z, divided by the leading
    denominator coefficient and zero-padded to order 2, so that
    y = b0*x + s1, s1 <- b1*x - a1*y + s2, s2 <- b2*x - a2*y is the section's
    direct-form II transposed update from zero initial state.
    """
    b = [float(c) for c in tf.num.coeffs[::-1]]
    a = [float(c) for c in tf.den.coeffs[::-1]]
    if len(b) > len(a):
        raise ValueError("improper transfer function cannot be realized causally")
    if len(a) > 3:
        raise ValueError("section order above 2")
    a0 = a[0]
    b = [0.0] * (len(a) - len(b)) + [c / a0 for c in b] + [0.0] * (3 - len(a))
    a = [c / a0 for c in a] + [0.0] * (3 - len(a))
    return b[0], b[1], b[2], a[1], a[2]


def simulate_linear_oracle(sc: Scenario) -> SimTrace:
    """Noise-free trace obtained by stepping the closed-form blocks.

    Independent of ``simulate``: the PD controller, the inner loop's
    closed-form compensator C and sensitivity S (the observer enters only
    through these), and the sampled position and velocity plants each keep
    their own coefficients (``_order2``) and two scalar states, updated inline
    once per sample. The outer loop is closed on the plants' held outputs,
    their first states, which needs no algebraic solve because both plants
    are strictly proper. Without outer gains the PD block is the zero gain.
    The current and disturbance-estimate channels are recovered from exact
    per-sample identities. A run that diverges stops as ``simulate`` does,
    at the first sample with |q| beyond the guard limit, with ``diverged=True``.
    """
    if not sc.noise.silent:
        raise UnsupportedScenarioError("the linear oracle covers noise-free scenarios only")
    cfg = sc.cfg
    plant = cfg.plant
    Ts = cfg.Ts
    t, r, aref, d = _inputs(sc)

    inner = make_inner_loop(cfg)
    pb0, pb1, pb2, pa1, pa2 = _order2(
        RationalTF.constant(0.0, Ts) if sc.gains is None else make_pd(sc.gains, Ts))
    cb0, cb1, cb2, ca1, ca2 = _order2(inner.C)
    sb0, sb1, sb2, sa1, sa2 = _order2(inner.S)
    # strictly proper plants: b0 = 0, so the output is the first state
    _, gb1, gb2, ga1, ga2 = _order2(discrete_position_plant(Ts))
    _, vb1, vb2, va1, va2 = _order2(discrete_velocity_plant(Ts))
    J_m = plant.J_m

    q, qd, qdd, qdd_des = (array("d") for _ in range(4))
    p1 = p2 = c1 = c2 = s1 = s2 = g1 = g2 = v1 = v2 = 0.0
    diverged = False
    for r_k, a_k, d_k in zip(*map(memoryview, (r, aref, d))):
        q_k, qd_k = g1, v1
        e = r_k - q_k
        y = pb0 * e + p1
        p1 = pb1 * e - pa1 * y + p2
        p2 = pb2 * e - pa2 * y
        des_k = a_k + y
        y = cb0 * des_k + c1
        c1 = cb1 * des_k - ca1 * y + c2
        c2 = cb2 * des_k - ca2 * y
        y_s = sb0 * d_k + s1
        s1 = sb1 * d_k - sa1 * y_s + s2
        s2 = sb2 * d_k - sa2 * y_s
        acc_k = y - y_s / J_m
        g1 = gb1 * acc_k - ga1 * q_k + g2
        g2 = gb2 * acc_k - ga2 * q_k
        v1 = vb1 * acc_k - va1 * qd_k + v2
        v2 = vb2 * acc_k - va2 * qd_k
        q.append(q_k)
        qd.append(qd_k)
        qdd.append(acc_k)
        qdd_des.append(des_k)
        if abs(q_k) > DIVERGENCE_LIMIT:
            diverged = True
            break
    qdd = np.asarray(qdd)

    current = (J_m * qdd + d[:qdd.size]) / plant.K_t
    I_des = (plant.J_mn / plant.K_tn) * np.asarray(qdd_des)
    return _trace(sc, t, r, d, q, qd, qdd, I_des, current, diverged=diverged)


def disturbance_rejection_metrics(trace: SimTrace,
                                  window: tuple[float, float]) -> RejectionMetrics:
    """Tracking-error and estimation metrics over [t_a, t_b].

    ``settle_time`` is the time after the window start from which the
    position error stays below ``SETTLE_THRESHOLD`` for the rest of the window
    (NaN if it never does). On a diverged trace the metrics cover the
    pre-divergence prefix and the flag is propagated; a window the trace
    never reaches yields NaN metrics.
    """
    t_a, t_b = window
    if not (t_b > t_a) or t_a < -1e-12:
        raise ValueError("window must satisfy 0 <= t_a < t_b")
    mask = (trace.t >= t_a - 1e-12) & (trace.t <= t_b + 1e-12)
    if not mask.any():
        return RejectionMetrics(math.nan, math.nan, math.nan, trace.diverged)
    err = np.abs(trace.q_ref[mask] - trace.q[mask])
    est_err = trace.tau_d[mask] - trace.tau_dis_hat[mask]
    # first index from which the error stays below the threshold; past the end: never
    above = np.flatnonzero(~(err < SETTLE_THRESHOLD))
    ok_from = int(above[-1]) + 1 if above.size else 0
    settle = float(trace.t[mask][ok_from] - t_a) if ok_from < err.size else math.nan
    return RejectionMetrics(
        max_abs_error=float(err.max()),
        settle_time=settle,
        est_error_rms=_rms(est_err),
        diverged=trace.diverged,
    )


def _rms(x: np.ndarray) -> float:
    """Root mean square of x; values beyond 1e150, whose squares may overflow, are scaled first."""
    big = float(np.max(np.abs(x)))
    if big <= 1e150:
        return float(np.sqrt(np.mean(x**2)))
    if big < math.inf:
        return big * float(np.sqrt(np.mean((x / big) ** 2)))
    return big  # inf or NaN, as the mean of the squares would be
