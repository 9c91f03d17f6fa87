"""Closed-form loop transfer functions for observer-based digital motion control.

Builds the discrete inner loop for the three measurement choices
(acceleration, velocity, position), the continuous-time inner-loop baseline,
the backward-Euler PD position controller and the closed outer loop. Every
sensitivity/complementary pair is constructed over a shared closed-loop
denominator so that S + T = 1 holds as an exact polynomial identity.

``classify_compensator`` names C lead or lag by the exact sign of its phase
slope in the low-frequency limit (theta -> 0). With alpha =
(J_mn*K_tn)/(J_m*K_t), C leads iff alpha > 1 (acceleration),
alpha*(1 + g_dob*Ts) > 1 (velocity) or alpha*(g_dob + g_v +
1.5*g_dob*g_v*Ts) > g_v (position).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .zalg import _TS_MESSAGE, DomainMismatchError, Polynomial, RationalTF, _sign_of_sum

__all__ = [
    "MeasurementKind",
    "PlantParams",
    "DobConfig",
    "OuterGains",
    "LoopSet",
    "discrete_velocity_plant",
    "discrete_position_plant",
    "make_inner_loop",
    "make_continuous_inner",
    "make_pd",
    "make_outer_loop",
    "classify_compensator",
]

# A Polynomial is immutable, so the fixed factors are shared.
_UNIT = Polynomial._of([1.0])
_Z = Polynomial._of([0.0, 1.0])  # z, or s
_INTEGRATOR = Polynomial._of([-1.0, 1.0])  # z - 1
_DOUBLE_INTEGRATOR = Polynomial._of([1.0, -2.0, 1.0])  # (z - 1)**2


def _positive(name: str, value: float) -> float:
    """``value``; a ``ValueError`` naming it unless it is finite and strictly positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and strictly positive")
    return value


def _mismatch(true: float, nominal: float) -> float:
    """alpha = nominal/true from true = J_m*K_t and nominal = J_mn*K_tn.

    A ``ValueError`` unless true and alpha are finite and positive.
    """
    alpha = nominal / true if math.isfinite(true) and true > 0.0 else math.nan
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("J_m*K_t and alpha = J_mn*K_tn/(J_m*K_t) must be finite and positive")
    return alpha


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
        _positive("J_m", self.J_m)
        _positive("K_t", self.K_t)
        _positive("J_mn", self.J_mn)
        _positive("K_tn", self.K_tn)
        _mismatch(self.J_m * self.K_t, self.J_mn * self.K_tn)

    @property
    def alpha(self) -> float:
        return (self.J_mn * self.K_tn) / (self.J_m * self.K_t)

    @classmethod
    def from_alpha(cls, alpha: float, J_m: float = 0.003, K_t: float = 0.25) -> "PlantParams":
        """Realize a mismatch ratio through the nominal inertia, K_tn = K_t.

        This is the tuning route used throughout: the thrust coefficient is
        assumed known and alpha is swept by scaling the nominal inertia.
        """
        return cls(J_m=J_m, K_t=K_t, J_mn=_positive("alpha", alpha) * J_m, K_tn=K_t)


@dataclass(frozen=True)
class DobConfig:
    """Observer configuration: measurement kind, plant, bandwidths, sampling time."""

    kind: MeasurementKind
    plant: PlantParams
    g_dob: float
    Ts: float
    g_v: float | None = None

    def __post_init__(self):
        kind = self.kind
        if not isinstance(kind, MeasurementKind):
            kind = MeasurementKind(kind)
            object.__setattr__(self, "kind", kind)
        _positive("g_dob", self.g_dob)
        _positive("Ts", self.Ts)
        if self.g_v is not None:
            _positive("g_v", self.g_v)
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
        _positive("K_p", self.K_p)
        if not (math.isfinite(self.K_d) and self.K_d >= 0.0):
            raise ValueError("K_d must be finite and non-negative")


class LoopSet(NamedTuple):
    """Open loop L, sensitivities S and T and series compensator C.

    S and T share one denominator polynomial (den(L) + num(L)), so S + T = 1
    is exact by construction. ``poles`` are the roots of den(L), written from
    the factors the constructor multiplied: those at z = 1 (s = 0), one per
    integrator, are exact, and complex ones come in exact conjugate pairs.
    """

    L: RationalTF
    S: RationalTF
    T: RationalTF
    C: RationalTF
    poles: tuple

    @property
    def ts(self) -> float | None:
        return self.L.ts

    @classmethod
    def from_open_loop(cls, L: RationalTF, C: RationalTF, poles: tuple) -> "LoopSet":
        """The loop set of L; raises ``OverflowError`` when a coefficient is not finite.

        Finite but extreme parameters (say Ts = 1e300) can overflow the
        coefficients; no result computed from such a loop would mean anything.
        """
        return cls._of(L, L.den + L.num, C, poles)

    @classmethod
    def _of(cls, L: RationalTF, closed: Polynomial, C: RationalTF, poles: tuple) -> "LoopSet":
        """``from_open_loop`` with closed = den(L) + num(L) already formed."""
        degree = len(L.den._c) - 1  # L.den is not the zero polynomial
        if len(poles) != degree:
            raise ValueError(f"{len(poles)} poles given for a denominator of degree {degree}")
        # closed is not finite unless L.num and L.den are
        if not all(map(math.isfinite, closed._c + C.num._c + C.den._c)):
            poly = next(p for p in (closed, C.num, C.den) if not p.is_finite)
            raise OverflowError(f"loop coefficients overflow: {poly!r}")
        ts = L.ts
        return cls(L, RationalTF._of(L.den, closed, ts), RationalTF._of(L.num, closed, ts), C,
                   tuple(poles))


def _roots(p: Polynomial) -> tuple:
    """Roots of a real polynomial of degree at most 2, in closed form.

    Real roots come from the formula that does not cancel -b against the root
    of the discriminant, scaled so that no square overflows; complex ones as an
    exact conjugate pair.
    """
    c = p._c  # the coefficient tuple; ``coeffs`` would build an array
    if len(c) <= 2:  # "0.0 -" makes a root at the origin +0.0, not -0.0
        return (0.0 - c[0] / c[1],) if len(c) == 2 else ()
    h, k = -0.5 * c[1] / c[2], c[0] / c[2]  # x**2 - 2 h x + k
    t = max(abs(h), math.sqrt(abs(k)))
    if t == 0.0:
        return (0.0, 0.0)
    d = (h / t) ** 2 - k / t / t  # (h*h - k) / t**2
    if d < 0.0:
        im = t * math.sqrt(-d)
        return (complex(h, im), complex(h, -im))
    q = h + math.copysign(t * math.sqrt(d), h)
    return (q, k / q)


# ---------------------------------------------------------------------------
# elementary blocks
# ---------------------------------------------------------------------------

def _lag(x: float) -> Polynomial:
    """(1 + x) z - 1 (x = gain*Ts), the denominator of both first-order filters:
    the observer low-pass Q = x*z / ((1 + x) z - 1) and the pseudo-velocity
    filter g_v (z-1) / ((1 + x) z - 1) on measured position."""
    return Polynomial._of([-1.0, float(1.0 + x)])


def discrete_velocity_plant(Ts: float) -> RationalTF:
    """Sampled rigid-body map from acceleration to velocity: Ts / (z-1)."""
    return RationalTF(Polynomial._of([float(Ts)]), _INTEGRATOR, Ts)


def discrete_position_plant(Ts: float) -> RationalTF:
    """Sampled rigid-body map from acceleration to position: Ts^2 (z+1) / (2 (z-1)^2)."""
    if not 0.0 < Ts < math.inf:
        raise ValueError(_TS_MESSAGE)
    h = float(0.5 * Ts * Ts)
    return RationalTF._of(Polynomial._of([h, h]), _DOUBLE_INTEGRATOR, Ts)


# ---------------------------------------------------------------------------
# loop constructors
# ---------------------------------------------------------------------------

def _inner_num(cfg: DobConfig, alpha: float, g: float) -> Polynomial:
    """num(L) of the inner loop at (alpha, g_dob); at (1, 1) it is num(L) per unit alpha*g_dob."""
    Ts = cfg.Ts
    if cfg.kind is MeasurementKind.ACCELERATION:
        return Polynomial._of([0.0, float(alpha * g * Ts)])
    if cfg.kind is MeasurementKind.VELOCITY:
        return Polynomial._of([float(alpha * g * Ts)])
    b = float(0.5 * alpha * Ts * Ts * cfg.g_v * g)  # beta * g_v * g_dob
    return Polynomial._of([b, b])


def make_inner_loop(cfg: DobConfig) -> LoopSet:
    """Inner observer loop for the configured measurement kind.

    Returns the closed forms: for acceleration measurement L = a*z/(z-1)
    with a = alpha*g_dob*Ts; for velocity measurement L = a/(z-1); for
    position measurement L = beta*g_v*g_dob (z+1) / ((z-1)((1+g_v Ts) z - 1)).
    """
    alpha = cfg.plant.alpha
    g, Ts = cfg.g_dob, cfg.Ts
    num = _inner_num(cfg, alpha, g)
    den = _INTEGRATOR
    poles = (1.0,)  # the integrator's
    c_num = _lag(g * Ts)  # den(Q)

    if cfg.kind is MeasurementKind.POSITION:
        v_den = _lag(cfg.g_v * Ts)  # den(velocity estimator)
        den = den * v_den
        poles += _roots(v_den)
        c_num = c_num * v_den
    closed = den + num  # den(C) as well as den(S) and den(T)
    C = RationalTF._of(c_num * alpha, closed, Ts)
    return LoopSet._of(RationalTF._of(num, den, Ts), closed, C, poles)


def make_continuous_inner(plant: PlantParams, g_dob: float) -> LoopSet:
    """Continuous-time inner-loop baseline: L(s) = alpha*g_dob/s."""
    _positive("g_dob", g_dob)
    alpha = float(plant.alpha)
    ag = float(alpha * g_dob)
    L = RationalTF._of(Polynomial._of([ag]), _Z, None)
    C = RationalTF._of(Polynomial._of([ag, alpha]), Polynomial._of([ag, 1.0]), None)
    return LoopSet.from_open_loop(L, C, (0.0,))


def make_pd(gains: OuterGains, Ts: float) -> RationalTF:
    """Backward-Euler PD on position error: K_p + K_d (z-1)/(Ts z)."""
    _positive("Ts", Ts)
    kd_over_ts = gains.K_d / Ts
    return RationalTF._of(Polynomial._of([float(-kd_over_ts), float(gains.K_p + kd_over_ts)]),
                          _Z, Ts)


def make_outer_loop(inner: LoopSet, pd: RationalTF) -> LoopSet:
    """Close the position loop: L = pd * C_inner * G_position.

    The outer loop is always closed on position, so the open loop composes the
    PD controller, the inner-loop compensator and the sampled position plant,
    whatever measurement the observer itself uses. L's poles have closed forms
    as the PD's denominator has degree <= 2 (else ValueError), as C's has.
    """
    if not inner.L.is_discrete or not pd.is_discrete:
        raise DomainMismatchError("outer loop requires discrete inner loop and PD")
    ts = pd.ts
    G_p = discrete_position_plant(ts)
    L = pd * inner.C * G_p  # raises DomainMismatchError unless the sampling times agree
    poles = (*_roots(pd.den), *_roots(inner.C.den), 1.0, 1.0)  # G_p: h (z+1)/(z-1)**2
    return LoopSet.from_open_loop(L, RationalTF._of(_UNIT, _UNIT, ts), poles)


def _locus_pencil(cfg: DobConfig, gains: OuterGains, param: str) -> tuple:
    """(A, B) with T.den = A + v*B for the outer loop of cfg with ``param`` set to v.

    ``param`` is "alpha" or "g_dob"; the other parameters are cfg's. With
    P = den(pd)*den(G_p), N = num(pd)*num(G_p), D = den(L) of the inner loop,
    n its num(L) per unit alpha*g_dob and V the velocity estimator's
    denominator (1 unless position),
    T.den = P*(D + alpha*g_dob*n) + N*alpha*den(Q)*V, den(Q) = (z-1) + g_dob*Ts*z,
    affine in alpha and in g_dob. Raises ``OverflowError`` when a coefficient
    of A or B is not finite.
    """
    alpha, g, Ts = cfg.alpha, cfg.g_dob, cfg.Ts
    pd, G_p = make_pd(gains, Ts), discrete_position_plant(Ts)
    P, N = pd.den * G_p.den, pd.num * G_p.num
    D, n = _INTEGRATOR, _inner_num(cfg, 1.0, 1.0)
    if cfg.kind is MeasurementKind.POSITION:
        v_den = _lag(cfg.g_v * Ts)
        D, N = D * v_den, N * v_den
    if param == "alpha":
        A, B = P * D, P * (n * g) + N * _lag(g * Ts)
    else:  # den(Q) = _lag(g*Ts) = (z - 1) + g*Ts*z
        A = P * D + N * (_INTEGRATOR * alpha)
        B = (P * n + N * (_Z * Ts)) * alpha
    for poly in (A, B):
        if not poly.is_finite:
            raise OverflowError(f"locus pencil coefficients overflow: {poly!r}")
    return A, B


def classify_compensator(cfg: DobConfig) -> str:
    """Lead/lag/neutral class of the inner-loop compensator C = N/D at low frequency.

    It is the sign of C's phase slope as theta -> 0, N'(1) D(1) - N(1) D'(1).
    With alpha = (J_mn*K_tn)/(J_m*K_t), C leads iff alpha > 1 (acceleration),
    alpha*(1 + g_dob*Ts) > 1 (velocity) or alpha*(g_dob + g_v +
    1.5*g_dob*g_v*Ts) > g_v (position). The sign is exact on the float
    inputs, so "neutral" means an exact zero.
    """
    p = cfg.plant
    nominal, true = (p.J_mn, p.K_tn), (p.J_m, p.K_t)  # alpha = nominal / true
    g, Ts, g_v = cfg.g_dob, cfg.Ts, cfg.g_v
    if cfg.kind is MeasurementKind.ACCELERATION:
        sign = _sign_of_sum(nominal, (-1.0, *true))
    elif cfg.kind is MeasurementKind.VELOCITY:
        sign = _sign_of_sum(nominal, (*nominal, g, Ts), (-1.0, *true))
    else:
        sign = _sign_of_sum((*nominal, g), (*nominal, g_v), (1.5, *nominal, g, g_v, Ts),
                            (-1.0, *true, g_v))
    return ("neutral", "lead", "lag")[sign]  # index -1 is "lag"
