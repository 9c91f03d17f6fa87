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
from itertools import zip_longest
from typing import NamedTuple

from .loops import (DobConfig, MeasurementKind, OuterGains, PlantParams, _locus_pencil,
                    _mismatch, _positive)
from .zalg import UNIT_CIRCLE_TOL, Polynomial, RationalTF, poly_roots_batch, schur_stable

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
    ``all_real_in_0_1`` root ``den`` on the first read of either, by
    ``poly_roots_batch``.
    """

    den: Polynomial
    all_in_unit: bool

    @cached_property
    def _roots(self) -> tuple:
        return poly_roots_batch((self.den,))[0] if self.den.degree >= 1 else ()

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
    """Largest alpha*g_dob keeping both position-loop poles real inside (0, 1).

    With u = g_v*Ts and r = sqrt(1 + 1.5u + 0.5u**2), it is
    g_v ((9 + 3u)/(1 + r) - 4)/(1 + r): the closed form
    6/Ts + (8 - 8r)/(g_v Ts**2) rearranged so that no near-equal terms
    cancel as u -> 0, where it tends to g_v/4. r is formed as
    sqrt(0.5 (1 + u)) sqrt(2 + u), the same product, so that it does not
    overflow for u past 1e154, where the bound tends to (6 - 4 sqrt(2))/Ts.
    """
    u = g_v * Ts
    r = math.sqrt(0.5 * (1.0 + u)) * math.sqrt(2.0 + u)
    return g_v * ((9.0 + 3.0 * u) / (1.0 + r) - 4.0) / (1.0 + r)


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
    swept, _ = _sweep_value(base, param, value)
    plant, g_dob = base.plant, base.g_dob
    if param == "alpha":
        plant = PlantParams(J_m=plant.J_m, K_t=plant.K_t, J_mn=swept, K_tn=plant.K_tn)
    else:
        g_dob = swept
    return DobConfig(base.kind, plant, g_dob, base.Ts, base.g_v)


def _sweep_value(base: DobConfig, param: str, value: float) -> tuple:
    """(swept, x): the J_mn or g_dob that ``config_for_sweep`` sets, and its alpha or g_dob.

    x is the value the config would carry, from the same float expressions,
    and the ``ValueError`` is the one its constructors would raise, but no
    config is built: of their checks only J_mn's and alpha's read an alpha
    value and only g_dob's a g_dob value, and base has passed the others.
    """
    if param == "alpha":
        p = base.plant
        J_mn = _positive("J_mn", value * p.J_m * p.K_t / p.K_tn)
        return J_mn, _mismatch(p.J_m * p.K_t, J_mn * p.K_tn)
    if param == "g_dob":
        return _positive("g_dob", value), value
    raise ValueError(f"unknown sweep parameter {param!r}")


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
    """Bisection boundary of a monotone predicate: True at lo, False at hi.

    Raises ``ValueError`` unless lo < hi are finite and rel_tol >= 0, before
    any call of the predicate.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    if not rel_tol >= 0.0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol!r}")
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
    formed once. Each value v gives the exact x that
    ``config_for_sweep(base_cfg, param, v)`` would carry, with its checks,
    but no config is built; the coefficients of A + x*B are a_k + b_k*x in
    one pass, rounded as ``A + B * x`` rounds them. Its roots are the poles
    of v, taken for the whole grid in one ``poly_roots_batch``; consecutive
    pole sets are branch-matched by nearest neighbour. ``exit_value``
    refines, by bisection to 1e-6 relative, the first parameter value at
    which the largest pole magnitude crosses the unit circle from inside to
    outside; it is None when no such crossing occurs on the grid. The
    bisection trusts the grid's verdicts at the bracket's ends and decides
    each point strictly inside it by ``schur_stable(A + x*B)``, without
    roots. Raises ``ValueError`` for an invalid grid or value before any
    root is taken, and an ``ArithmeticError`` when a coefficient overflows.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("need at least 2 sweep values")
    for a, b in zip(values, values[1:]):
        if b <= a:
            what = f"{a!r} repeats" if b == a else f"{b!r} follows {a!r}"
            raise ValueError(f"sweep values must be strictly increasing: {what}")

    def carried(v: float) -> float:
        # a Python float, as B * x converts it, whatever floats the plant holds
        return float(_sweep_value(base_cfg, param, v)[1])

    xs = [carried(v) for v in values]
    A, B = _locus_pencil(base_cfg, gains, param)
    # Zero-padded as Polynomial.__add__ pads. Where B * x trims an underflowed
    # b_k*x, A + B * x adds +0.0 instead, the same sum: A's coefficients are
    # sums from 0.0, so none is -0.0.
    pairs = tuple(zip_longest(A._c, B._c, fillvalue=0.0))

    def pencil(x: float) -> Polynomial:
        return Polynomial._of([a + b * x for a, b in pairs])

    pole_sets = []
    for poles in poly_roots_batch([pencil(x) for x in xs]):
        if pole_sets:
            poles = _match_branches(pole_sets[-1], poles)
        pole_sets.append(tuple(poles))
    max_mags = tuple(max(map(abs, ps)) for ps in pole_sets)

    exit_value = None
    for (v0, m0), (v1, m1) in zip(zip(values, max_mags), zip(values[1:], max_mags[1:])):
        if m0 < 1.0 <= m1:
            exit_value = _bisect(lambda v: schur_stable(pencil(carried(v))), v0, v1, 1e-6)
            break

    return LocusBranch(
        param=param,
        param_values=tuple(values),
        pole_sets=tuple(pole_sets),
        max_mags=max_mags,
        exit_value=exit_value,
    )
