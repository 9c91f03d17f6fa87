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

from .zalg import DomainMismatchError, Polynomial, RationalTF

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

# A Polynomial is immutable, so the fixed factors are shared.
_UNIT = Polynomial._of([1.0])
_Z = Polynomial._of([0.0, 1.0])  # z, or s
_INTEGRATOR = Polynomial._of([-1.0, 1.0])  # z - 1
_DOUBLE_INTEGRATOR = Polynomial._of([1.0, -2.0, 1.0])  # (z - 1)**2


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
        kind = self.kind
        if not isinstance(kind, MeasurementKind):
            kind = MeasurementKind(kind)
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


class LoopSet(NamedTuple):
    """Open loop L, sensitivities S and T, series compensator C, plant model G.

    S and T share one denominator polynomial (den(L) + num(L)), so S + T = 1
    is exact by construction. ``poles`` are the roots of den(L), written from
    the factors the constructor multiplied: those at z = 1 (s = 0), one per
    integrator, are exact, and complex ones come in exact conjugate pairs.
    """

    L: RationalTF
    S: RationalTF
    T: RationalTF
    C: RationalTF
    G: RationalTF
    poles: tuple

    @property
    def ts(self) -> float | None:
        return self.L.ts

    @classmethod
    def from_open_loop(cls, L: RationalTF, C: RationalTF, G: RationalTF, poles: tuple) -> "LoopSet":
        """The loop set of L; raises ``OverflowError`` when a coefficient is not finite.

        Finite but extreme parameters (say Ts = 1e300) can overflow the
        coefficients; no result computed from such a loop would mean anything.
        """
        if len(poles) != L.den.degree:
            raise ValueError(f"{len(poles)} poles given for a denominator of degree {L.den.degree}")
        closed = L.den + L.num  # not finite unless L.num and L.den are
        for poly in (closed, C.num, C.den):
            if not poly.is_finite:
                raise OverflowError(f"loop coefficients overflow: {poly!r}")
        ts = L.ts
        return cls(L=L, S=RationalTF._of(L.den, closed, ts), T=RationalTF._of(L.num, closed, ts),
                   C=C, G=G, poles=tuple(poles))


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
    """(1 + x) z - 1, the denominator of both first-order filters below (x = gain*Ts)."""
    return Polynomial._of([-1.0, float(1.0 + x)])


def q_filter(g_dob: float, Ts: float) -> RationalTF:
    """First-order observer low-pass g*Ts*z / ((1+g*Ts) z - 1)."""
    a = g_dob * Ts
    return RationalTF([0.0, a], _lag(a), Ts)


def velocity_estimator(g_v: float, Ts: float) -> RationalTF:
    """Pseudo-velocity filter g_v (z-1) / ((1+g_v*Ts) z - 1) on measured position."""
    return RationalTF([-g_v, g_v], _lag(g_v * Ts), Ts)


def discrete_velocity_plant(Ts: float) -> RationalTF:
    """Sampled rigid-body map from acceleration to velocity: Ts / (z-1)."""
    return RationalTF(Polynomial._of([float(Ts)]), _INTEGRATOR, Ts)


def discrete_position_plant(Ts: float) -> RationalTF:
    """Sampled rigid-body map from acceleration to position: Ts^2 (z+1) / (2 (z-1)^2)."""
    h = float(0.5 * Ts * Ts)
    return RationalTF(Polynomial._of([h, h]), _DOUBLE_INTEGRATOR, Ts)


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

    Returns the closed forms: for acceleration measurement
    L = a*z/(z-1) with a = alpha*g_dob*Ts and G the identity; for velocity
    measurement L = a/(z-1) with G = Ts/(z-1); for position measurement
    L = beta*g_v*g_dob (z+1) / ((z-1)((1+g_v Ts) z - 1)) with the
    half-sample-average position plant as G.
    """
    alpha = cfg.plant.alpha
    g, Ts = cfg.g_dob, cfg.Ts
    num = _inner_num(cfg, alpha, g)
    den = _INTEGRATOR
    poles = (1.0,)  # the integrator's
    c_num = _lag(g * Ts)  # den(Q)

    if cfg.kind is MeasurementKind.ACCELERATION:
        G = RationalTF._of(_UNIT, _UNIT, Ts)
    elif cfg.kind is MeasurementKind.VELOCITY:
        G = discrete_velocity_plant(Ts)
    else:
        v_den = _lag(cfg.g_v * Ts)  # den(velocity estimator)
        den = den * v_den
        poles += _roots(v_den)
        c_num = c_num * v_den
        G = discrete_position_plant(Ts)
    C = RationalTF._of(alpha * c_num, den + num, Ts)
    return LoopSet.from_open_loop(RationalTF._of(num, den, Ts), C, G, poles)


def make_continuous_inner(plant: PlantParams, g_dob: float) -> LoopSet:
    """Continuous-time inner-loop baseline: L(s) = alpha*g_dob/s."""
    if not _finite_positive(g_dob):
        raise ValueError("g_dob must be finite and strictly positive")
    alpha = float(plant.alpha)
    ag = float(alpha * g_dob)
    L = RationalTF._of(Polynomial._of([ag]), _Z, None)
    C = RationalTF._of(Polynomial._of([ag, alpha]), Polynomial._of([ag, 1.0]), None)
    G = RationalTF._of(_UNIT, _UNIT, None)
    return LoopSet.from_open_loop(L, C, G, (0.0,))


def make_pd(gains: OuterGains, Ts: float) -> RationalTF:
    """Backward-Euler PD on position error: K_p + K_d (z-1)/(Ts z)."""
    if not _finite_positive(Ts):
        raise ValueError("Ts must be finite and strictly positive")
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
    return LoopSet.from_open_loop(L, RationalTF._of(_UNIT, _UNIT, ts), G_p, poles)


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
    else:  # den(Q) = _lag(g*Ts) = _lag(0) + g*Ts*(_lag(1) - _lag(0)), exactly
        lag0 = _lag(0.0)
        A = P * D + N * (lag0 * alpha)
        B = (P * n + N * ((_lag(1.0) + lag0 * -1.0) * Ts)) * alpha
    for poly in (A, B):
        if not poly.is_finite:
            raise OverflowError(f"locus pencil coefficients overflow: {poly!r}")
    return A, B


def _sign_of_sum(*products: tuple) -> int:
    """The exact sign (-1, 0 or 1) of a sum of products of floats.

    A float is n/d with d a power of two (``float.as_integer_ratio``), so a
    product is too, and the terms add over the largest denominator.
    """
    terms = []
    for factors in products:
        n = d = 1
        for x in factors:
            xn, xd = x.as_integer_ratio()
            n, d = n * xn, d * xd
        terms.append((n, d))
    big = max(d for _, d in terms)
    total = sum(n * (big // d) for n, d in terms)
    return (total > 0) - (total < 0)


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
