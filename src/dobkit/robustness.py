"""Sensitivity-integral verification and frequency sweeps.

S is factored once per loop about z = 1: with w = z - 1 and m structural zeros
there (its open-loop poles at z = 1), S = w**m * q(w) / den(w). On the circle
w = -2 sin(theta/2)**2 + j sin(theta) and |w| = 2 sin(theta/2) are formed
without cancellation. T = num(L) / (den(L) + num(L)) shares S's den(w) and
has no zero at z = 1 (m = 0): this one form gives |S| and |T| for sweeps and
peaks. A sweep's band fixes only the arrays it returns, not where a peak may
lie: |F| is even and 2*pi-periodic in theta, so z = +-1 are interior points of
the circle that the peak search reaches and takes as exact candidates.

Both Bode integrals are smooth, periodic integrals over the unit circle, summed
by one periodic trapezoid rule that converges on them geometrically; a map of
the circle onto itself first crowds the points toward z = 1, where slow poles
come close to the circle. The map's width predicts the point count, so the
integrand is evaluated once, on that grid, and the doubling check runs on
nested subsets of its samples. What depends only on a grid's size is built
once per size and shared read-only: a sweep's angles, w and |w|**m for
m = 1 and 2, and a trapezoid grid's zeta - 1 and 1 + zeta. What depends only
on the loop, its factored S and T (three Taylor shifts), is built once per
loop, and a sweep and an integral of that loop share it. A call computes the
rest: a sweep |den(w)| and q(w), an integral the circle map and the
integrand.

- Discrete: the integral of ln|S| over the circle is that of g = ln|q / den|
  alone, since m*ln|w| integrates to exactly 0 (Jensen). The analytic side is
  2*pi*(sum of ln|p| over the open-loop poles outside the circle -
  ln|1 + lim L|), the poles the loop carries; the m at z = 1 are exact and
  on the circle. Only S's poles, the roots of den(L) + num(L), are rooted.
- Continuous: j*omega = c*w/(w + 2), i.e. omega = c*tan(theta/2) with
  c = |lim s*L|, takes [0, inf) onto half the circle. With
  m*ln sin(theta/2) split off (its integral is -m*c*pi/2), ln|S| times the
  Jacobian is smooth and even, with closed-form limits at z = +-1. The
  analytic side is pi*(sum of Re p over the open-loop right-half-plane poles)
  - (pi/2)*lim s*L.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .loops import LoopSet
from .zalg import UNIT_CIRCLE_TOL, Polynomial, poly_roots

__all__ = [
    "IllPosedIntegralError",
    "BodeIntegralReport",
    "Peak",
    "FreqSweep",
    "bode_integral_discrete",
    "bode_integral_continuous",
    "freq_sweep",
]

# Trapezoid rule: first point count, agreement of two successive estimates
# relative to max(1, |estimate|), and the point count that raises.
TRAPEZOID_START = 64
TRAPEZOID_REL_TOL = 1e-12
TRAPEZOID_MAX_POINTS = 2**20
# The finest grid sampled in one call. Past it a call's fixed cost is lost in
# its work, and one call would hold twice the samples of a level.
TRAPEZOID_GRID_POINTS = 2**16
# A peak's value is known once the values at its bracket's ends agree with the
# value inside to this, relative: a few ulps.
PEAK_RTOL = 16.0 * 2.0**-53
# The circle map's u = -ln(eps) is wanted to this: eps only places the
# samples, and the point count is a power of two.
MAP_UTOL = 1e-3

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden section of a segment, 0.382


class IllPosedIntegralError(ValueError):
    """The sensitivity integral is singular beyond the structural zero at z=1."""


class BodeIntegralReport(NamedTuple):
    """Numeric vs analytic value of the ln|S| integral, with grid diagnostics.

    ``panels`` counts the trapezoid points on the circle; ``last_difference``
    is the difference between the last two estimates of the integral.
    """

    numeric_value: float
    analytic_value: float
    abs_error: float
    panels: int
    last_difference: float


class Peak(NamedTuple):
    value: float
    freq: float


class FreqSweep(NamedTuple):
    """Magnitude responses of S and T on a frequency grid, with refined peaks."""

    freqs: np.ndarray
    mag_S: np.ndarray
    mag_T: np.ndarray
    peak_S: Peak
    peak_T: Peak


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

def _singular_points(loop: LoopSet, at: float, image, where: str):
    """The open-loop poles off ``at``, and the images of S's poles and of them.

    S = den(L) / (den(L) + num(L)): its zeros are the loop's open-loop poles,
    those exactly at ``at`` structural; its poles are rooted here. ``image``
    maps a point into the plane of the unit circle (None: far from it). Raises
    ``IllPosedIntegralError`` for an image on the circle (a point on ``where``).
    """
    poles = poly_roots(loop.S.den).roots
    open_loop_poles = [p for p in loop.poles if p != at]
    images = []
    for what, points in (("pole", poles), ("zero", open_loop_poles)):
        for p in points:
            z = image(p)
            if z is None:
                continue
            if abs(abs(z) - 1.0) < UNIT_CIRCLE_TOL:
                raise IllPosedIntegralError(f"sensitivity {what} on the {where}: {p}")
            images.append(z)
    return open_loop_poles, images


# ---------------------------------------------------------------------------
# rational functions on the unit circle
# ---------------------------------------------------------------------------

class _Factored:
    """F(z) = w**m * q(w) / den(w), w = z - 1: S or T of a loop, factored about z = 1.

    ``num`` is F's numerator in z, with m zeros at z = 1 that the Taylor shift
    divides out; ``den`` is den(L) + num(L) already shifted, shared by S and T.
    """

    __slots__ = ("m", "q", "den")

    def __init__(self, num: Polynomial, m: int, den: Polynomial):
        self.m = m
        self.q = Polynomial._of(list(num.shifted(1.0)._c[m:]))
        self.den = den

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """g = ln|q(w) / den(w)|, ln|F| without its m*ln|w| part."""
        with np.errstate(all="ignore"):
            return np.log(np.abs(self.q(w) / self.den(w)))

    def mag(self, circle: _Circle, positive: np.ndarray, divisor: np.ndarray) -> np.ndarray:
        """|F| over ``circle``, with den's mask and safe divisor from ``_den_on``; inf where den vanishes."""
        n = np.abs(self.q(circle.w))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(positive, n / divisor, np.inf)
            m = self.m
            if m == 0:
                return ratio
            return (circle.abs_w if m == 1 else circle.abs_w2 if m == 2 else circle.abs_w ** m) * ratio

    def mag_at(self, theta: float) -> float:
        """|F| at one angle in Python arithmetic, which numpy scalars make slow."""
        h = math.sin(0.5 * theta)
        return abs(2.0 * h) ** self.m * self._ratio(complex(-2.0 * h * h, math.sin(theta)))

    def nyquist(self) -> float:
        """|F| at z = -1 exactly, w = -2, not via exp(j*pi); inf for a pole there."""
        return 2.0 ** self.m * self._ratio(-2.0)

    def _ratio(self, w) -> float:
        d = abs(self.den(w))
        return abs(self.q(w)) / d if d > 0.0 else math.inf


class _Circle(NamedTuple):
    """Points z = exp(j theta) of the unit circle that no loop changes, all read-only.

    ``w`` = z - 1 = -2 sin(theta/2)**2 + j sin(theta) and ``abs_w`` =
    |w| = 2 sin(theta/2), formed without cancellation; ``abs_w2`` = |w|**2.
    They give a factored F's |w|**m for m = 1 and 2.
    """

    theta: np.ndarray
    w: np.ndarray
    abs_w: np.ndarray
    abs_w2: np.ndarray


def _circle_points(theta: np.ndarray) -> _Circle:
    """The ``_Circle`` at an array of angles, which it makes read-only with its own."""
    h = np.sin(0.5 * theta)
    abs_w = 2.0 * h
    circle = _Circle(theta, -2.0 * h * h + 1j * np.sin(theta), abs_w, abs_w ** 2)
    for a in circle:
        a.flags.writeable = False
    return circle


def _den_on(circle: _Circle, den: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """Where |den(w)| > 0 over ``circle``, and |den(w)| with 1 where it is 0.

    The mask and safe divisor are shared by S and T. Raises ``OverflowError``
    when |den(w)| is not finite at some angle.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.abs(den(circle.w))
    if not np.isfinite(d).all():
        raise OverflowError("|den(L) + num(L)| is not finite on the unit circle")
    positive = d > 0.0
    return positive, np.where(positive, d, 1.0)


# S and T of the last eight loops are kept, so that a loop's sweep and integral
# share them; a LoopSet key matches only the same transfer-function objects.
@functools.lru_cache(maxsize=8)
def _sensitivity(loop: LoopSet) -> _Factored:
    """S = den(L) / (den(L) + num(L)) factored; m counts the open-loop poles at z = 1."""
    return _Factored(loop.S.num, loop.poles.count(1.0), loop.S.den.shifted(1.0))


@functools.lru_cache(maxsize=8)
def _complementary(loop: LoopSet) -> _Factored:
    """T = num(L) / (den(L) + num(L)) factored over S's shifted denominator; m = 0."""
    return _Factored(loop.T.num, 0, _sensitivity(loop).den)


def _bracketed_max(f, a: float, x: float, b: float, fa: float, fx: float, fb: float,
                   rtol: float = 0.0, xtol: float = 0.0) -> tuple[float, float]:
    """Maximum of f from a bracket a < x < b with f(x) >= f(a), f(b); returns (x, f(x)).

    Each step evaluates f once: at the vertex of the parabola through the
    three bracket points or, when the bracket has not halved in two steps, at
    the golden-section point of its larger segment (safeguarded parabolic
    interpolation; Brent, *Algorithms for Minimization without Derivatives*,
    1973). A step is at least h from x, h the larger of xtol/2 and the
    distance at which the parabola falls by a quarter of rtol*|f(x)|: once x
    is that close to the vertex, the next steps close the bracket round it.
    The search stops when the values at the bracket's ends agree with f(x) to
    rtol*|f(x)|, so that the maximum is known to that precision, when the
    bracket is narrower than xtol, or when a step falls below rounding.
    """
    older = old = math.inf  # the bracket's width two steps and one step back
    while True:
        tol = rtol * abs(fx)
        da, db = fx - fa, fx - fb
        if b - a <= xtol or (da <= tol and db <= tol):
            return x, fx
        left, right = x - a, b - x
        if b - a <= 0.5 * older:
            den = right * da + left * db
            s = 0.5 * (right * right * da - left * left * db) / den  # vertex - x
            h = 0.5 * max(xtol, math.sqrt(tol * left * right * (left + right) / den))
            if abs(s) < h:  # close the end further below f(x)
                s = min(h, 0.5 * right) if db > da else -min(h, 0.5 * left)
        else:
            s = _GOLDEN * right if right > left else -_GOLDEN * left
        older, old = old, b - a
        u = x + s
        if u == x or not a < u < b:
            return x, fx
        fu = f(u)
        if fu > fx:
            if s > 0.0:
                a, fa = x, fx
            else:
                b, fb = x, fx
            x, fx = u, fu
        elif s > 0.0:
            b, fb = u, fu
        else:
            a, fa = u, fu


def _map_eps(singular) -> tuple[float, float]:
    """eps = 1 - r of the circle map z = (zeta + r) / (1 + r zeta), and its width.

    The trapezoid rule converges at the rate set by the width: the distance,
    in |ln|zeta||, of the nearest singularity of the mapped integrand, among
    the images of ``singular`` and the Jacobian's poles at -r and -1/r.
    eps = exp(-u) maximises the width over u in [0, 20], to ``MAP_UTOL`` in
    u; eps = 1 is the identity. Returns (eps, width at eps).
    """
    # width reads only |s - r| and |1 - r*s| for real r, which conj(s) gives
    # to the bit: each point is taken in the upper half-plane, a real one as a
    # float, and an exact conjugate pair once.
    singular = {z.real if z.imag == 0.0 else complex(z.real, abs(z.imag)) for z in singular}

    def width(u: float) -> float:
        eps = math.exp(-u)
        r = 1.0 - eps
        # the image of s lies at |zeta| = a/b; the ratio taken >= 1 cannot
        # underflow, and one log serves all of them
        low = math.inf
        for s in singular:
            a, b = abs(s - r), abs(1.0 - r * s)
            if a > 0.0 and b > 0.0:
                q = a / b if a > b else b / a
                if q < low:
                    low = q
        return min(math.log(low), -math.log1p(-eps) if eps < 1.0 else math.inf)

    # A bracket needs an inner point wider than the identity at u = 0; the
    # golden-section point of [0, hi] is tried, hi shrinking toward 0.
    hi, f_0, f_hi = 20.0, width(0.0), width(20.0)
    while hi > MAP_UTOL:
        x = _GOLDEN * hi
        fx = width(x)
        if fx > f_0:
            u, d = _bracketed_max(width, 0.0, x, hi, f_0, fx, f_hi, xtol=MAP_UTOL)
            return math.exp(-u), d
        hi, f_hi = x, fx
    return 1.0, f_0


def _zeta_points(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta - 1 and 1 + zeta at zeta = exp(j t), from half angles without cancellation."""
    h, c, s = np.sin(0.5 * t), np.cos(0.5 * t), np.sin(t)
    return -2.0 * h * h + 1j * s, 2.0 * c * c + 1j * s


@functools.lru_cache(maxsize=None)  # top is one of ten powers of two
def _trapezoid_grid(top: int) -> tuple[np.ndarray, np.ndarray]:
    """``_zeta_points`` at t_k = 2*pi*k/top, k = 0..top/2, read-only: shared by every integral.

    k*(2*pi/top) rounds as the coarser levels' angles do: they differ by
    powers of two, so every level's samples are those it would take alone.
    """
    points = _zeta_points(np.arange(top // 2 + 1) * (2.0 * math.pi / top))
    for a in points:
        a.flags.writeable = False
    return points


def _circle_integral(f, singular, ends=None) -> tuple[float, int, float]:
    """Integral of f(w), w = z - 1, over the unit circle by the periodic trapezoid rule.

    The circle is mapped onto itself first (``_map_eps``): z = +-1 stay put
    and points crowd toward z = 1, where slow poles sit near the circle. The
    singular points (the poles and zeros that make f singular) only place the
    samples; the value is a sum of samples of f on the circle. With
    zeta = exp(j t) the points are t_k = 2*pi*k/n; f must be even in t, so
    only [0, pi] is sampled, its interior twice. ``ends``, if given, holds
    the limits of f at z = 1 and z = -1, which replace its samples there.
    Doubling n adds the odd multiples of pi/n. Returns (value, n, last
    difference).

    The rule errs by about exp(-n*width) (Trefethen and Weideman, SIAM
    Review 56, 2014), so two estimates agree to ``TRAPEZOID_REL_TOL`` at
    about the n with (n/2)*width >= -ln(TRAPEZOID_REL_TOL), capped at
    ``TRAPEZOID_GRID_POINTS``. f is sampled once on that grid, and the
    doubling runs on nested strided subsets of those samples; only past it
    does each level sample f again. A sample that no estimate used is not
    checked for finiteness.
    """
    eps, width = _map_eps(singular)

    def g(points, ends=None):
        zeta_m1, one_p_zeta = points
        one_r_zeta = eps + (1.0 - eps) * one_p_zeta
        jacobian = eps * (2.0 - eps) / np.abs(one_r_zeta) ** 2
        vals = f(eps * zeta_m1 / one_r_zeta)
        if ends is not None:
            vals[0], vals[-1] = ends
        return vals * jacobian

    top, need = 2 * TRAPEZOID_START, -math.log(TRAPEZOID_REL_TOL)
    while top < TRAPEZOID_GRID_POINTS and 0.5 * top * width < need:
        top *= 2
    grid = g(_trapezoid_grid(top), ends)

    def checked(vals):
        if not np.isfinite(vals).all():
            raise IllPosedIntegralError("integrand is not finite on the unit circle")
        return vals

    n = TRAPEZOID_START
    stride = top // n
    first = checked(grid[::stride])
    total = 2.0 * float(np.sum(first)) - float(first[0]) - float(first[-1])
    estimate = 2.0 * math.pi * total / n
    while n < TRAPEZOID_MAX_POINTS:
        if n < top:
            stride //= 2
            odd = checked(grid[stride::2 * stride])
        else:
            odd = checked(g(_zeta_points((2.0 * np.arange(n // 2) + 1.0) * (math.pi / n))))
        total += 2.0 * float(np.sum(odd))
        n *= 2
        previous, estimate = estimate, 2.0 * math.pi * total / n
        difference = abs(estimate - previous)
        if difference <= TRAPEZOID_REL_TOL * max(1.0, abs(estimate)):
            return estimate, n, difference
    raise IllPosedIntegralError(
        f"trapezoid rule did not converge in {n} points (last difference {difference:.3g})"
    )


# ---------------------------------------------------------------------------
# sensitivity integrals
# ---------------------------------------------------------------------------

def bode_integral_discrete(loop: LoopSet) -> BodeIntegralReport:
    """Integral of ln|S| over the full unit circle versus its analytic value.

    The numeric side is the trapezoid rule on g (module docstring and
    ``_circle_integral``). The analytic side is 2*pi*(sum ln|p_u| -
    ln|1 + lim L|) with p_u the open-loop poles outside the unit circle; the
    limit term drops for strictly proper open loops. Those poles are the ones
    the loop carries; the m at z = 1 are exact and on the circle. Raises
    ``IllPosedIntegralError`` when S has poles on the unit circle or zeros on
    it away from z = 1, when g is not finite, or when the trapezoid rule
    reaches ``TRAPEZOID_MAX_POINTS`` without converging.
    """
    S, L = loop.S, loop.L
    if not S.is_discrete:
        raise ValueError("discrete loop required")

    fs = _sensitivity(loop)
    open_loop_poles, singular = _singular_points(loop, 1.0, lambda z: z, "unit circle")
    numeric, points, difference = _circle_integral(fs, singular)

    psi = L.limit_at_infinity()
    if abs(1.0 + psi) == 0.0:
        raise IllPosedIntegralError("1 + lim L vanishes")
    unstable = sum(math.log(abs(p)) for p in open_loop_poles if abs(p) > 1.0 + UNIT_CIRCLE_TOL)
    analytic = 2.0 * math.pi * (unstable - math.log(abs(1.0 + psi)))

    return BodeIntegralReport(
        numeric_value=numeric,
        analytic_value=analytic,
        abs_error=abs(numeric - analytic),
        panels=points,
        last_difference=difference,
    )


def bode_integral_continuous(loop: LoopSet) -> BodeIntegralReport:
    """Integral of ln|S(j w)| over [0, inf) for a relative-degree-one open loop.

    The numeric side is the trapezoid rule on the circle under
    j*omega = c*w/(w + 2), c = |a|, a = lim s*L (module docstring). The
    analytic value is pi*sum Re(p_u) - (pi/2)*a over the open-loop
    right-half-plane poles p_u, which the loop carries. Raises
    ``IllPosedIntegralError`` when S has poles on the imaginary axis or zeros
    on it away from s = 0, when the integrand is not finite, or when the
    trapezoid rule reaches ``TRAPEZOID_MAX_POINTS`` without converging.
    """
    S, L = loop.S, loop.L
    if S.is_discrete:
        raise ValueError("continuous loop required")
    if L.den.degree - L.num.degree != 1:
        raise ValueError("open loop must be strictly proper with relative degree 1")

    # L = a/s + b/s**2 + ...: a = lim s*L, b = lim s*(s*L - a)
    num, den = L.num.coeffs.tolist(), L.den.coeffs.tolist()
    n = len(den) - 1
    a = num[n - 1] / den[n]
    b = ((num[n - 2] if n >= 2 else 0.0) - a * den[n - 1]) / den[n]
    c = abs(a)

    # s = p maps to z = (c + p)/(c - p), the imaginary axis onto the circle;
    # p = c maps to z = inf, far from it.
    m = loop.poles.count(0.0)
    zeros, singular = _singular_points(
        loop, 0.0, lambda p: None if p == c else (c + p) / (c - p), "imaginary axis")

    def remainder(w):
        """(ln|S| - m*ln sin(theta/2)) * (1 + t**2)/2 at omega = c*t, in units of c."""
        with np.errstate(all="ignore"):
            t = (w / (w + 2.0)).imag
            s = 1j * c * t
            ell = L.num(s) / L.den(s)
            log_s = -0.5 * np.log1p(2.0 * ell.real + ell.real ** 2 + ell.imag ** 2)
            return (log_s + 0.5 * m * np.log1p(1.0 / (t * t))) * (0.5 * (1.0 + t * t))

    # limits: |S| ~ c_S*omega**m at omega = 0, ln|S| ~ (2b - a**2)/(2 omega**2) at inf
    c_s = abs(den[m] / S.den(0.0))
    ends = (0.5 * (math.log(c_s) + m * math.log(c)), (2.0 * b - a * a + m * c * c) / (4.0 * c * c))
    total, points, difference = _circle_integral(remainder, singular, ends)
    numeric = 0.5 * c * (total - m * math.pi)

    analytic = math.pi * sum(p.real for p in zeros if p.real > 0.0) - 0.5 * math.pi * a

    return BodeIntegralReport(
        numeric_value=numeric,
        analytic_value=analytic,
        abs_error=abs(numeric - analytic),
        panels=points,
        last_difference=0.5 * c * difference,
    )


# ---------------------------------------------------------------------------
# frequency sweeps and peaks
# ---------------------------------------------------------------------------

def _refined_peak(f: _Factored, thetas: np.ndarray, mags: np.ndarray, ts: float) -> Peak:
    """Grid argmax of |f| refined on its bracket by ``_bracketed_max``; z = +-1 exact candidates.

    f has real coefficients, so |f(exp(j theta))| is even and 2*pi-periodic:
    the whole circle is searched, and z = 1 and z = -1 are interior points.
    An argmax at an end of the grid takes its missing neighbour from the
    mirror image, -theta_0 or 2*pi - theta_(n-2). The search stops once the
    bracket's values agree to ``PEAK_RTOL``; the angle is folded into [0, pi].
    """
    i = int(np.argmax(mags))
    best_theta, best_val = float(thetas[i]), float(mags[i])
    if 0.0 < best_val < math.inf:
        last = thetas.size - 1
        a, fa = (float(thetas[i - 1]), float(mags[i - 1])) if i > 0 else (-best_theta, best_val)
        b, fb = ((float(thetas[i + 1]), float(mags[i + 1])) if i < last
                 else (2.0 * math.pi - float(thetas[last - 1]), float(mags[last - 1])))
        best_theta, best_val = _bracketed_max(
            f.mag_at, a, best_theta, b, fa, best_val, fb, PEAK_RTOL, 8.0 * 2.0**-53 * math.pi)
        best_theta = min(abs(best_theta), 2.0 * math.pi - best_theta)
    # |f| at z = 1 is 0 for m >= 1; a pole exactly at z = +-1 gives an
    # infinite peak. Ties at rounding level go to the end, whose location is exact.
    for theta, value in ((0.0, f._ratio(0.0) if f.m == 0 else 0.0), (math.pi, f.nyquist())):
        if value >= best_val * (1.0 - 1e-13):
            best_theta, best_val = theta, max(value, best_val)
    return Peak(value=best_val, freq=best_theta / ts)


@functools.lru_cache(maxsize=8)
def _sweep_circle(n_points: int) -> _Circle:
    """The circle points of a log grid of angles over [1e-4, 1]*pi: shared by every sweep."""
    return _circle_points(np.geomspace(math.pi * 1e-4, math.pi, n_points))


def freq_sweep(loop: LoopSet, n_points: int = 512) -> FreqSweep:
    """Sample |S| and |T| on a log grid over [1e-4, 1]*pi/Ts and locate the refined peaks.

    Both come from the factored form about z = 1 over the one shifted
    den(L) + num(L): S with its m zeros there, T = num(L) / (den(L) + num(L))
    with none. In z the terms of that denominator cancel near z = 1. The band
    fixes only the returned arrays: a peak may lie anywhere in [0, pi]/Ts,
    below the band or at 0 or pi/Ts exactly (``_refined_peak``). Raises
    ``OverflowError`` when a grid frequency theta/Ts or |den(w)| on the grid
    is not finite.
    """
    if not loop.L.is_discrete:
        raise ValueError("discrete loop required")
    if n_points < 16:
        raise ValueError("need at least 16 points")
    circle = _sweep_circle(n_points)
    thetas = circle.theta
    ts = loop.ts
    if not math.pi / ts < math.inf:  # the largest grid frequency
        raise OverflowError(f"sweep frequency pi/Ts overflows at Ts = {ts!r}")
    fs, ft = _sensitivity(loop), _complementary(loop)
    den = _den_on(circle, fs.den)
    mag_S, mag_T = fs.mag(circle, *den), ft.mag(circle, *den)
    return FreqSweep(
        freqs=thetas / ts,
        mag_S=mag_S,
        mag_T=mag_T,
        peak_S=_refined_peak(fs, thetas, mag_S, ts),
        peak_T=_refined_peak(ft, thetas, mag_T, ts),
    )
