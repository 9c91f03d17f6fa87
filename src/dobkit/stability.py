"""Closed-form design-constraint checks, pole classification and root-locus sweeps.

The inner observer loop admits exact stability and non-oscillation bounds on
the product alpha * g_dob; this module evaluates them, classifies poles of any
discrete transfer function against the unit circle, and sweeps the closed
outer loop over alpha or g_dob to trace pole branches and locate the value at
which a branch first leaves the unit circle.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .loops import DobConfig, MeasurementKind, OuterGains, PlantParams, _locus_pencil
from .zalg import Polynomial, RationalTF, poly_roots, poly_roots_batch, schur_stable

__all__ = [
    "BindingConstraint",
    "StabilityVerdict",
    "PoleClassification",
    "LocusBranch",
    "position_non_osc_bound",
    "constraint_check",
    "classify_poles",
    "config_for_sweep",
    "root_locus",
    "bisect_threshold",
]

# Poles within this distance of the unit circle count as NOT inside (conservative).
UNIT_CIRCLE_TOL = 1e-9


class BindingConstraint(enum.Enum):
    NONE = "none"
    STABILITY_LIMIT = "stability_limit"           # alpha*g_dob < 2/Ts
    VELOCITY_NON_OSC = "velocity_non_oscillatory"  # alpha*g_dob < 1/Ts
    POSITION_NON_OSC = "position_non_oscillatory"  # closed-form real-pole bound


class StabilityVerdict(NamedTuple):
    """Outcome of the closed-form constraint checks for one configuration.

    ``margin`` is the signed distance (rad/s) from alpha*g_dob to the binding
    bound: positive inside, zero marginal, negative violated.
    """

    stable: bool
    non_oscillatory: bool
    binding_constraint: BindingConstraint
    margin: float


@dataclass(frozen=True)
class PoleClassification:
    """Poles of a discrete TF, the roots of ``den``, against the unit circle.

    ``all_in_unit`` is decided without roots; ``max_mag`` and
    ``all_real_in_0_1`` root ``den`` on the first read of either.
    """

    den: Polynomial
    all_in_unit: bool

    @cached_property
    def _roots(self) -> tuple:
        return poly_roots(self.den).roots if self.den.degree >= 1 else ()

    @property
    def max_mag(self) -> float:
        return max((abs(p) for p in self._roots), default=0.0)

    @property
    def all_real_in_0_1(self) -> bool:
        return all(
            abs(p.imag) <= UNIT_CIRCLE_TOL * max(1.0, abs(p))
            and 0.0 < p.real < 1.0 - UNIT_CIRCLE_TOL
            for p in self._roots
        )


class LocusBranch(NamedTuple):
    """Pole trajectories of the closed outer loop along a parameter sweep."""

    param: str
    param_values: tuple
    pole_sets: tuple            # one tuple of complex poles per value, branch-matched
    max_mags: tuple
    exit_value: float | None    # first inside-to-outside unit-circle crossing


def position_non_osc_bound(g_v: float, Ts: float) -> float:
    """Largest alpha*g_dob keeping both position-loop poles real inside (0, 1)."""
    gvTs = g_v * Ts
    return 6.0 / Ts + (8.0 - math.sqrt(32.0 * (2.0 + gvTs) * (1.0 + gvTs))) / (g_v * Ts * Ts)


def constraint_check(cfg: DobConfig) -> StabilityVerdict:
    """Evaluate the closed-form stability / non-oscillation bounds for cfg.

    Acceleration measurement is unconditionally stable and non-oscillatory
    (the single pole 1/(1 + alpha*g_dob*Ts) stays in (0, 1)). Velocity and
    position measurements lose stability at alpha*g_dob = 2/Ts; monotone
    response additionally requires alpha*g_dob < 1/Ts (velocity) or the
    closed-form position bound. Boundary values count as violated.
    """
    x = cfg.alpha_g
    if cfg.kind is MeasurementKind.ACCELERATION:
        return StabilityVerdict(True, True, BindingConstraint.NONE, math.inf)

    stability_bound = 2.0 / cfg.Ts
    if cfg.kind is MeasurementKind.VELOCITY:
        non_osc_bound = 1.0 / cfg.Ts
        non_osc_kind = BindingConstraint.VELOCITY_NON_OSC
    else:
        non_osc_bound = position_non_osc_bound(cfg.g_v, cfg.Ts)
        non_osc_kind = BindingConstraint.POSITION_NON_OSC

    stable = x < stability_bound
    non_osc = x < non_osc_bound
    if not stable:
        return StabilityVerdict(False, False, BindingConstraint.STABILITY_LIMIT,
                                stability_bound - x)
    return StabilityVerdict(True, non_osc, non_osc_kind, non_osc_bound - x)


def classify_poles(tf: RationalTF) -> PoleClassification:
    """Locate the denominator roots of a discrete TF against the unit circle.

    Poles within UNIT_CIRCLE_TOL of the circle are classified as not inside:
    ``all_in_unit`` is the Schur-Cohn verdict on the disc of radius
    1 - UNIT_CIRCLE_TOL, exact for the denominator as stored. ``max_mag`` and
    ``all_real_in_0_1`` come from the roots, taken when first read; the latter
    demands every pole real (tiny imaginary part allowed) and strictly between
    0 and 1. A constant denominator has no poles: all three hold trivially.
    """
    if not tf.is_discrete:
        raise ValueError("discrete transfer function required")
    all_in = tf.den.degree < 1 or schur_stable(tf.den, 1.0 - UNIT_CIRCLE_TOL)
    return PoleClassification(tf.den, all_in)


def config_for_sweep(base: DobConfig, param: str, value: float) -> DobConfig:
    """Rebuild a config at one sweep point.

    ``alpha`` is swept through the nominal inertia (the usual tuning knob),
    leaving true plant values and the nominal thrust coefficient untouched;
    ``g_dob`` is replaced directly.
    """
    plant, g_dob = base.plant, base.g_dob
    if param == "alpha":
        plant = PlantParams(
            J_m=plant.J_m,
            K_t=plant.K_t,
            J_mn=value * plant.J_m * plant.K_t / plant.K_tn,
            K_tn=plant.K_tn,
        )
    elif param == "g_dob":
        g_dob = value
    else:
        raise ValueError(f"unknown sweep parameter {param!r}")
    return DobConfig(base.kind, plant, g_dob, base.Ts, base.g_v)


def _match_branches(prev: tuple, new: tuple) -> tuple:
    """Greedy nearest-neighbour ordering of ``new`` against ``prev``."""
    remaining = list(new)
    ordered = []
    for p in prev:
        j, best = 0, abs(remaining[0] - p)
        for k in range(1, len(remaining)):
            d = abs(remaining[k] - p)
            if d < best:  # the first of equally near candidates wins
                j, best = k, d
        ordered.append(remaining.pop(j))
    return tuple(ordered)


def bisect_threshold(predicate, lo: float, hi: float, rel_tol: float = 1e-6) -> float:
    """Bisection boundary of a monotone predicate: True at lo, False at hi."""
    if not predicate(lo) or predicate(hi):
        raise ValueError("predicate must hold at lo and fail at hi")
    return _bisect(predicate, lo, hi, rel_tol)


def _bisect(predicate, lo: float, hi: float, rel_tol: float) -> float:
    """Bisect a bracket already known to hold at lo and fail at hi.

    Stops once the bracket is no wider than rel_tol*|hi|, or once its ends
    are adjacent floats, where the midpoint rounds to one of them.
    """
    while hi - lo > rel_tol * abs(hi):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def root_locus(
    base_cfg: DobConfig,
    gains: OuterGains,
    param: str,
    values,
) -> LocusBranch:
    """Closed outer-loop pole branches over an increasing parameter grid.

    The outer loop's characteristic polynomial is affine in the swept
    parameter, T.den = A + x*B (``loops._locus_pencil``), so A and B are
    formed once. Each value goes through ``config_for_sweep``, which
    validates it and gives the exact x the loop would carry, and the roots of
    A + x*B are its poles, taken for the whole grid in one
    ``poly_roots_batch`` call; consecutive pole sets are branch-matched by
    nearest neighbour. ``exit_value`` refines, by bisection to 1e-6
    relative, the first parameter value at which the largest pole magnitude
    crosses the unit circle from inside to outside; it is None when no such
    crossing occurs on the grid. The bisection trusts the grid's verdicts at
    the bracket's ends and decides each point strictly inside it by
    ``schur_stable(A + x*B)``, without roots. Raises ``ValueError`` for an
    invalid grid or value before any root is taken, and an
    ``ArithmeticError`` when a coefficient overflows.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("need at least 2 sweep values")
    for a, b in zip(values, values[1:]):
        if b <= a:
            what = f"{a!r} repeats" if b == a else f"{b!r} follows {a!r}"
            raise ValueError(f"sweep values must be strictly increasing: {what}")

    def carried(v: float) -> float:
        cfg = config_for_sweep(base_cfg, param, v)
        return cfg.alpha if param == "alpha" else cfg.g_dob

    xs = [carried(v) for v in values]
    A, B = _locus_pencil(base_cfg, gains, param)

    pole_sets = []
    for found in poly_roots_batch([A + B * x for x in xs]):
        poles = found.roots
        if pole_sets:
            poles = _match_branches(pole_sets[-1], poles)
        pole_sets.append(tuple(poles))
    max_mags = tuple(max(abs(p) for p in ps) for ps in pole_sets)

    exit_value = None
    for (v0, m0), (v1, m1) in zip(zip(values, max_mags), zip(values[1:], max_mags[1:])):
        if m0 < 1.0 <= m1:
            exit_value = _bisect(lambda v: schur_stable(A + B * carried(v)), v0, v1, 1e-6)
            break

    return LocusBranch(
        param=param,
        param_values=tuple(values),
        pole_sets=tuple(pole_sets),
        max_mags=max_mags,
        exit_value=exit_value,
    )
