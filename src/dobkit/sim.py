"""Time-domain simulation of the observer-based digital position control loop.

``simulate`` advances the true rigid body by its exact zero-order-hold
discretization at the controller rate and realizes every digital block
(observer low-pass, pseudo-velocity filter, backward-Euler PD) as the
difference equation of its z-domain form with zero initial state. The
observer low-pass has direct feedthrough, so the motor current at each step
satisfies a scalar linear equation that is solved exactly rather than broken
with an artificial one-step delay.

``simulate_linear_oracle`` recomputes the same noise-free trace through the
closed-form transfer functions, giving an independent second implementation
path for cross-validation: one loop over samples steps the PD controller, the
inner loop's closed-form C and S and the two sampled plants, each realized as
a direct-form section, and closes the outer loop once per sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


class UnsupportedScenarioError(ValueError):
    """The requested scenario lies outside this routine's contract."""


@dataclass(frozen=True)
class Reference:
    """Position reference with analytically known acceleration feedforward."""

    kind: str                 # "step" | "sinusoid" | "hold_zero"
    amplitude: float = 0.0
    freq: float = 0.0         # rad/s, sinusoid only

    @classmethod
    def step(cls, amplitude: float) -> "Reference":
        return cls("step", amplitude=amplitude)

    @classmethod
    def sinusoid(cls, amplitude: float, freq: float) -> "Reference":
        if freq <= 0.0:
            raise ValueError("sinusoid frequency must be positive")
        return cls("sinusoid", amplitude=amplitude, freq=freq)

    @classmethod
    def hold_zero(cls) -> "Reference":
        return cls("hold_zero")

    def position(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "step":
            return np.full_like(t, self.amplitude)
        if self.kind == "sinusoid":
            return self.amplitude * np.sin(self.freq * t)
        if self.kind == "hold_zero":
            return np.zeros_like(t)
        raise ValueError(f"unknown reference kind {self.kind!r}")

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
        if self.t_end <= self.t_start:
            raise ValueError("pulse must have t_end > t_start")


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian standard deviations for the three sensors."""

    eta_p: float = 0.0
    eta_v: float = 0.0
    eta_a: float = 0.0

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


@dataclass(frozen=True)
class RejectionMetrics:
    max_abs_error: float
    settle_time: float
    est_error_rms: float
    diverged: bool


def _disturbance_series(pulses, t: np.ndarray) -> np.ndarray:
    d = np.zeros_like(t)
    for p in pulses:
        d[(t >= p.t_start - 1e-12) & (t < p.t_end - 1e-12)] += p.force
    return d


def _truncate(trace: SimTrace, k: int) -> SimTrace:
    n = k + 1

    def cut(a):
        return None if a is None else a[:n]

    return SimTrace(
        t=cut(trace.t), q_ref=cut(trace.q_ref), q=cut(trace.q), qd=cut(trace.qd),
        qdd=cut(trace.qdd), q_meas=cut(trace.q_meas), qd_meas=cut(trace.qd_meas),
        qdd_meas=cut(trace.qdd_meas), I_des=cut(trace.I_des), I=cut(trace.I),
        tau_d=cut(trace.tau_d), tau_dis_hat=cut(trace.tau_dis_hat), diverged=True,
    )


def simulate(sc: Scenario) -> SimTrace:
    """Run the full digital loop step by step.

    The plant state advances by the exact zero-order-hold map of the double
    integrator; current and sampled disturbance are held over each period.
    The measurement taken at t_k feeds the control current applied over
    [t_k, t_{k+1}) with no computation delay, and the current/observer
    algebraic loop is solved exactly at every step. Instability is a
    legitimate outcome: the trace truncates with ``diverged=True`` once |q|
    exceeds the guard limit.
    """
    cfg = sc.cfg
    plant = cfg.plant
    Ts, g = cfg.Ts, cfg.g_dob
    n = sc.n_samples
    t = np.arange(n) * Ts

    r = sc.reference.position(t)
    aref = sc.reference.accel(t)
    d = _disturbance_series(sc.disturbances, t)

    rng = np.random.default_rng(sc.seed)
    eta_p = sc.noise.eta_p * rng.standard_normal(n)
    eta_v = sc.noise.eta_v * rng.standard_normal(n)
    eta_a = sc.noise.eta_a * rng.standard_normal(n)

    J_m, K_t, J_mn, K_tn = plant.J_m, plant.K_t, plant.J_mn, plant.K_tn
    gTs = g * Ts
    qden = 1.0 + gTs
    dQ = gTs / qden                      # observer filter direct feedthrough, < 1
    kff = J_mn / K_tn                    # desired acceleration -> nominal current
    loop_ratio = (J_mn * K_t) / (J_m * K_tn)
    if sc.gains is not None:
        c1 = sc.gains.K_p + sc.gains.K_d / Ts
        c0 = sc.gains.K_d / Ts
    kind = cfg.kind
    if kind is MeasurementKind.POSITION:
        g_v = cfg.g_v
        vden = 1.0 + g_v * Ts

    out = SimTrace(
        t=t, q_ref=r, q=np.zeros(n), qd=np.zeros(n), qdd=np.zeros(n),
        q_meas=np.zeros(n),
        qd_meas=np.zeros(n) if kind is MeasurementKind.VELOCITY else None,
        qdd_meas=np.zeros(n) if kind is MeasurementKind.ACCELERATION else None,
        I_des=np.zeros(n), I=np.zeros(n), tau_d=d, tau_dis_hat=np.zeros(n),
        diverged=False,
    )

    q = 0.0
    qd = 0.0
    w = 0.0          # observer low-pass state (previous output)
    e_prev = 0.0     # PD backward-difference state
    vhat = 0.0       # pseudo-velocity filter state
    qn_prev = 0.0    # previous position sample seen by the pseudo-velocity filter

    for k in range(n):
        q_n = q + eta_p[k]
        if sc.gains is not None:
            e = r[k] - q_n
            qdd_des = aref[k] + c1 * e - c0 * e_prev
            e_prev = e
        else:
            qdd_des = aref[k]
        I_des = kff * qdd_des

        if kind is MeasurementKind.ACCELERATION:
            # Acceleration at t_k depends on I_k, so the algebraic loop couples
            # plant and observer; still scalar linear in I_k.
            denom = 1.0 - dQ * (1.0 - loop_ratio)
            I = (
                I_des
                + w / (qden * K_tn)
                + dQ * J_mn * d[k] / (J_m * K_tn)
                - dQ * J_mn * eta_a[k] / K_tn
            ) / denom
            u = (K_t * I - d[k]) / J_m
            meas = u + eta_a[k]
            w = w / qden + dQ * (K_tn * I - J_mn * meas)
            out.qdd_meas[k] = meas
        elif kind is MeasurementKind.VELOCITY:
            meas = qd + eta_v[k]
            I = qden * I_des + w / K_tn - (J_mn / K_tn) * g * meas
            w = w / qden + dQ * (K_tn * I + J_mn * g * meas)
            u = (K_t * I - d[k]) / J_m
            out.qd_meas[k] = meas
        else:
            vhat = (vhat + g_v * (q_n - qn_prev)) / vden
            qn_prev = q_n
            I = qden * I_des + w / K_tn - (J_mn / K_tn) * g * vhat
            w = w / qden + dQ * (K_tn * I + J_mn * g * vhat)
            u = (K_t * I - d[k]) / J_m

        out.q[k] = q
        out.qd[k] = qd
        out.qdd[k] = u
        out.q_meas[k] = q_n
        out.I_des[k] = I_des
        out.I[k] = I
        out.tau_dis_hat[k] = K_tn * (I - I_des)

        if abs(q) > DIVERGENCE_LIMIT:
            return _truncate(out, k)

        q = q + Ts * qd + 0.5 * Ts * Ts * u
        qd = qd + Ts * u

    return out


# ---------------------------------------------------------------------------
# closed-form oracle
# ---------------------------------------------------------------------------

class _Df2t:
    """Direct-form II transposed single section, any order, zero initial state."""

    def __init__(self, tf: RationalTF):
        num = tf.num.coeffs[::-1]
        den = tf.den.coeffs[::-1]
        pad = den.size - num.size
        if pad < 0:
            raise ValueError("improper transfer function cannot be realized causally")
        a0 = float(den[0])
        self.b = [0.0] * pad + [float(c) / a0 for c in num]
        self.a = [float(c) / a0 for c in den]
        self.s = [0.0] * (den.size - 1)

    @property
    def output_before_input(self) -> float:
        """Current output when the section has no direct feedthrough."""
        return self.s[0] if self.s else 0.0

    def step(self, x: float) -> float:
        b, a, s = self.b, self.a, self.s
        y = b[0] * x + (s[0] if s else 0.0)
        last = len(s) - 1
        for i in range(last):
            s[i] = b[i + 1] * x - a[i + 1] * y + s[i + 1]
        if s:
            s[last] = b[-1] * x - a[-1] * y
        return y


def simulate_linear_oracle(sc: Scenario) -> SimTrace:
    """Noise-free trace obtained by stepping the closed-form blocks.

    Independent of ``simulate``: the PD controller, the inner loop's
    closed-form compensator C and sensitivity S (the observer enters only
    through these), and the sampled position and velocity plants each run as
    one direct-form section. The outer loop is closed once per sample on the
    plants' held outputs, which needs no algebraic solve because both plants
    are strictly proper. Without outer gains the PD block is the zero gain.
    The current and disturbance-estimate channels are recovered from exact
    per-sample identities.
    """
    if not sc.noise.silent:
        raise UnsupportedScenarioError("the linear oracle covers noise-free scenarios only")
    cfg = sc.cfg
    plant = cfg.plant
    Ts = cfg.Ts
    n = sc.n_samples
    t = np.arange(n) * Ts
    r = sc.reference.position(t)
    aref = sc.reference.accel(t)
    d = _disturbance_series(sc.disturbances, t)

    inner = make_inner_loop(cfg)
    pd = _Df2t(RationalTF.constant(0.0, Ts) if sc.gains is None else make_pd(sc.gains, Ts))
    Ci, Si = _Df2t(inner.C), _Df2t(inner.S)
    G_p, G_v = _Df2t(discrete_position_plant(Ts)), _Df2t(discrete_velocity_plant(Ts))
    J_m = plant.J_m

    q, qd, qdd, qdd_des = [], [], [], []
    for r_k, a_k, d_k in zip(r.tolist(), aref.tolist(), d.tolist()):
        q_k = G_p.output_before_input
        des_k = a_k + pd.step(r_k - q_k)
        acc_k = Ci.step(des_k) - Si.step(d_k) / J_m
        q.append(q_k)
        qd.append(G_v.output_before_input)
        qdd.append(acc_k)
        qdd_des.append(des_k)
        G_p.step(acc_k)
        G_v.step(acc_k)
    q, qd, qdd, qdd_des = (np.array(x) for x in (q, qd, qdd, qdd_des))

    current = (J_m * qdd + d) / plant.K_t
    I_des = (plant.J_mn / plant.K_tn) * qdd_des
    tau_hat = plant.K_tn * (current - I_des)

    kind = cfg.kind
    return SimTrace(
        t=t, q_ref=r, q=q, qd=qd, qdd=qdd,
        q_meas=q.copy(),
        qd_meas=qd.copy() if kind is MeasurementKind.VELOCITY else None,
        qdd_meas=qdd.copy() if kind is MeasurementKind.ACCELERATION else None,
        I_des=I_des, I=current, tau_d=d, tau_dis_hat=tau_hat,
        diverged=False,
    )


def disturbance_rejection_metrics(
    trace: SimTrace,
    window: tuple[float, float],
    settle_threshold: float = 1e-6,
) -> RejectionMetrics:
    """Tracking-error and estimation metrics over [t_a, t_b].

    ``settle_time`` is the time after the window start from which the
    position error stays below the threshold for the rest of the window
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
    below = err < settle_threshold
    settle = math.nan
    # last index after which the error never rises above the threshold again
    ok_from = None
    for i in range(below.size - 1, -1, -1):
        if not below[i]:
            break
        ok_from = i
    if ok_from is not None:
        settle = float(trace.t[mask][ok_from] - t_a)
    return RejectionMetrics(
        max_abs_error=float(err.max()),
        settle_time=settle,
        est_error_rms=float(np.sqrt(np.mean(est_err**2))),
        diverged=trace.diverged,
    )
