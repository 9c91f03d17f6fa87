"""Closed-form loop transfer functions for observer-based digital motion control.

Builds the discrete inner loop for the three measurement choices
(acceleration, velocity, position), the continuous-time inner-loop baseline,
the backward-Euler PD position controller and the closed outer loop. Every
sensitivity/complementary pair is constructed over a shared closed-loop
denominator so that S + T = 1 holds as an exact polynomial identity.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .zalg import DomainMismatchError, Polynomial, RationalTF, tf_eval

__all__ = [
    "MeasurementKind",
    "PlantParams",
    "DobConfig",
    "OuterGains",
    "LoopSet",
    "q_filter",
    "velocity_estimator",
    "discrete_velocity_plant",
    "discrete_position_plant",
    "make_inner_loop",
    "make_continuous_inner",
    "make_pd",
    "make_outer_loop",
    "classify_compensator",
]


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


class MeasurementKind(str, enum.Enum):
    """Which motion state feeds the disturbance observer."""

    ACCELERATION = "acceleration"
    VELOCITY = "velocity"
    POSITION = "position"


@dataclass(frozen=True)
class PlantParams:
    """True and nominal rigid-body parameters of the servo system.

    J_m / K_t are the true inertia (kg m^2) and thrust coefficient (N m/A);
    J_mn / K_tn their nominal counterparts used inside the observer. The
    mismatch ratio alpha = (J_mn*K_tn)/(J_m*K_t) is derived, never stored.
    """

    J_m: float
    K_t: float
    J_mn: float
    K_tn: float

    def __post_init__(self):
        for name in ("J_m", "K_t", "J_mn", "K_tn"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and strictly positive")
        true, nominal = self.J_m * self.K_t, self.J_mn * self.K_tn
        if not (_finite_positive(true) and _finite_positive(nominal / true)):
            raise ValueError("J_m*K_t and alpha = J_mn*K_tn/(J_m*K_t) must be finite and positive")

    @property
    def alpha(self) -> float:
        return (self.J_mn * self.K_tn) / (self.J_m * self.K_t)

    @classmethod
    def from_alpha(cls, alpha: float, J_m: float = 0.003, K_t: float = 0.25) -> "PlantParams":
        """Realize a mismatch ratio through the nominal inertia, K_tn = K_t.

        This is the tuning route used throughout: the thrust coefficient is
        assumed known and alpha is swept by scaling the nominal inertia.
        """
        if alpha <= 0.0:
            raise ValueError("alpha must be strictly positive")
        return cls(J_m=J_m, K_t=K_t, J_mn=alpha * J_m, K_tn=K_t)


@dataclass(frozen=True)
class DobConfig:
    """Observer configuration: measurement kind, plant, bandwidths, sampling time."""

    kind: MeasurementKind
    plant: PlantParams
    g_dob: float
    Ts: float
    g_v: float | None = None

    def __post_init__(self):
        kind = MeasurementKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if not _finite_positive(self.g_dob):
            raise ValueError("g_dob must be finite and strictly positive")
        if not _finite_positive(self.Ts):
            raise ValueError("Ts must be finite and strictly positive")
        if self.g_v is not None and not _finite_positive(self.g_v):
            raise ValueError("g_v must be finite and strictly positive")
        if kind is MeasurementKind.POSITION and self.g_v is None:
            raise ValueError("position measurement requires g_v")

    @property
    def alpha(self) -> float:
        return self.plant.alpha

    @property
    def alpha_g(self) -> float:
        """The product alpha * g_dob, the quantity every design bound constrains."""
        return self.plant.alpha * self.g_dob

    @property
    def beta(self) -> float:
        """Effective gain 0.5 * alpha * Ts**2 of the position-measurement loop."""
        return 0.5 * self.plant.alpha * self.Ts * self.Ts


@dataclass(frozen=True)
class OuterGains:
    """Outer-loop PD gains: K_p in 1/s^2, K_d in 1/s."""

    K_p: float
    K_d: float

    def __post_init__(self):
        if not _finite_positive(self.K_p):
            raise ValueError("K_p must be finite and strictly positive")
        if not (math.isfinite(self.K_d) and self.K_d >= 0.0):
            raise ValueError("K_d must be finite and non-negative")


@dataclass(frozen=True)
class LoopSet:
    """Open loop L, sensitivities S and T, series compensator C, plant model G.

    S and T share one denominator polynomial (den(L) + num(L)), so S + T = 1
    is exact by construction.
    """

    L: RationalTF
    S: RationalTF
    T: RationalTF
    C: RationalTF
    G: RationalTF

    @property
    def ts(self) -> float | None:
        return self.L.ts

    @classmethod
    def from_open_loop(cls, L: RationalTF, C: RationalTF, G: RationalTF) -> "LoopSet":
        """The loop set of L; raises ``OverflowError`` when a coefficient is not finite.

        Finite but extreme parameters (say Ts = 1e300) can overflow the
        coefficients; no result computed from such a loop would mean anything.
        """
        closed = L.den + L.num
        for poly in (L.num, closed, C.num, C.den):
            if not poly.is_finite:
                raise OverflowError(f"loop coefficients overflow: {poly!r}")
        S = RationalTF(L.den, closed, L.ts)
        T = RationalTF(L.num, closed, L.ts)
        return cls(L=L, S=S, T=T, C=C, G=G)


# ---------------------------------------------------------------------------
# elementary blocks
# ---------------------------------------------------------------------------

def q_filter(g_dob: float, Ts: float) -> RationalTF:
    """First-order observer low-pass g*Ts*z / ((1+g*Ts) z - 1)."""
    a = g_dob * Ts
    return RationalTF([0.0, a], [-1.0, 1.0 + a], Ts)


def velocity_estimator(g_v: float, Ts: float) -> RationalTF:
    """Pseudo-velocity filter g_v (z-1) / ((1+g_v*Ts) z - 1) on measured position."""
    b = g_v * Ts
    return RationalTF([-g_v, g_v], [-1.0, 1.0 + b], Ts)


def discrete_velocity_plant(Ts: float) -> RationalTF:
    """Sampled rigid-body map from acceleration to velocity: Ts / (z-1)."""
    return RationalTF([Ts], [-1.0, 1.0], Ts)


def discrete_position_plant(Ts: float) -> RationalTF:
    """Sampled rigid-body map from acceleration to position: Ts^2 (z+1) / (2 (z-1)^2)."""
    h = 0.5 * Ts * Ts
    return RationalTF([h, h], [1.0, -2.0, 1.0], Ts)


# ---------------------------------------------------------------------------
# loop constructors
# ---------------------------------------------------------------------------

def make_inner_loop(cfg: DobConfig) -> LoopSet:
    """Inner observer loop for the configured measurement kind.

    Returns the closed forms: for acceleration measurement
    L = a*z/(z-1) with a = alpha*g_dob*Ts and G the identity; for velocity
    measurement L = a/(z-1) with G = Ts/(z-1); for position measurement
    L = beta*g_v*g_dob (z+1) / ((z-1)((1+g_v Ts) z - 1)) with the
    half-sample-average position plant as G.
    """
    alpha = cfg.plant.alpha
    g, Ts = cfg.g_dob, cfg.Ts
    a = alpha * g * Ts
    gq = g * Ts  # observer filter gain

    if cfg.kind is MeasurementKind.ACCELERATION:
        L = RationalTF([0.0, a], [-1.0, 1.0], Ts)
        C = RationalTF([-alpha, alpha * (1.0 + gq)], [-1.0, 1.0 + a], Ts)
        G = RationalTF.one(Ts)
    elif cfg.kind is MeasurementKind.VELOCITY:
        L = RationalTF([a], [-1.0, 1.0], Ts)
        C = RationalTF([-alpha, alpha * (1.0 + gq)], [a - 1.0, 1.0], Ts)
        G = discrete_velocity_plant(Ts)
    else:
        gv = cfg.g_v
        b = cfg.beta * gv * g
        gvTs = gv * Ts
        den_L = Polynomial([-1.0, 1.0]) * Polynomial([-1.0, 1.0 + gvTs])
        L = RationalTF([b, b], den_L, Ts)
        num_C = alpha * (
            Polynomial([-1.0, 1.0 + gq]) * Polynomial([-1.0, 1.0 + gvTs])
        )
        C = RationalTF(num_C, den_L + L.num, Ts)
        G = discrete_position_plant(Ts)
    return LoopSet.from_open_loop(L, C, G)


def make_continuous_inner(plant: PlantParams, g_dob: float) -> LoopSet:
    """Continuous-time inner-loop baseline: L(s) = alpha*g_dob/s."""
    if not _finite_positive(g_dob):
        raise ValueError("g_dob must be finite and strictly positive")
    alpha = plant.alpha
    ag = alpha * g_dob
    L = RationalTF([ag], [0.0, 1.0], None)
    C = RationalTF([alpha * g_dob, alpha], [ag, 1.0], None)
    G = RationalTF.one(None)
    return LoopSet.from_open_loop(L, C, G)


def make_pd(gains: OuterGains, Ts: float) -> RationalTF:
    """Backward-Euler PD on position error: K_p + K_d (z-1)/(Ts z)."""
    if not _finite_positive(Ts):
        raise ValueError("Ts must be finite and strictly positive")
    kd_over_ts = gains.K_d / Ts
    return RationalTF([-kd_over_ts, gains.K_p + kd_over_ts], [0.0, 1.0], Ts)


def make_outer_loop(inner: LoopSet, pd: RationalTF) -> LoopSet:
    """Close the position loop: L = pd * C_inner * G_position.

    The outer loop is always closed on position, so the open loop composes the
    PD controller, the inner-loop compensator and the sampled position plant,
    whatever measurement the observer itself uses.
    """
    if not inner.L.is_discrete or not pd.is_discrete:
        raise DomainMismatchError("outer loop requires discrete inner loop and PD")
    if pd.ts != inner.ts:
        raise DomainMismatchError("inner loop and PD must share the sampling time")
    ts = pd.ts
    G_p = discrete_position_plant(ts)
    L = pd * inner.C * G_p
    return LoopSet.from_open_loop(L, RationalTF.one(ts), G_p)


def classify_compensator(cfg: DobConfig, omega_frac: float = 1e-4) -> str:
    """Lead/lag/neutral classification of the inner-loop compensator.

    Decided by the sign of the compensator phase at a frequency well below
    Nyquist (omega = omega_frac * pi / Ts). For the acceleration kind this
    reduces to alpha > 1, for the velocity kind to alpha > 1/(1 + g_dob*Ts).
    """
    inner = make_inner_loop(cfg)
    phase = cmath.phase(tf_eval(inner.C, omega=omega_frac * math.pi / cfg.Ts))
    if phase > 1e-12:
        return "lead"
    if phase < -1e-12:
        return "lag"
    return "neutral"
