"""Sensitivity-integral verification, frequency sweeps and waterbed reporting.

The discrete sensitivity integral of ln|S| over the unit circle is computed
with a singularity-aware scheme: ln|S| diverges logarithmically at the angle
where the open loop integrates (S has a zero of order m at z = 1), so [0, pi]
is split at a small cutoff; below it the integral is taken from the leading
asymptotic m*theta*ln(c*theta) form, above it by adaptive Simpson quadrature
on log-spaced seed panels. The m zeros at z = 1 are divided out of the
numerator exactly: with w = z - 1 and S.num(z) = w**m * q(w), the integrand
is m*ln|w| + ln|q(w)| - ln|S.den(z)|, so no Horner sum cancels near z = 1.
The analytic side comes from the discrete sensitivity trade-off identity:
2*pi*(sum of log-magnitudes of open-loop poles outside the unit circle minus
ln|1 + lim L|). The open-loop poles are the m exact ones at z = 1, which lie
on the circle and add nothing, plus 1 + roots(q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loops import DobConfig, LoopSet, make_inner_loop
from .zalg import Polynomial, RationalTF, poly_roots

__all__ = [
    "IllPosedIntegralError",
    "BodeIntegralReport",
    "Peak",
    "FreqSweep",
    "WaterbedRow",
    "bode_integral_discrete",
    "bode_integral_continuous",
    "freq_sweep",
    "waterbed_report",
]

# Pole-on-circle detection tolerance and default singularity cutoff.
CIRCLE_TOL = 1e-9
DEFAULT_CUTOFF = 1e-6
DEFAULT_REL_TOL = 1e-8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class IllPosedIntegralError(ValueError):
    """The sensitivity integral is singular beyond the structural zero at z=1."""


@dataclass(frozen=True)
class BodeIntegralReport:
    """Numeric vs analytic value of the ln|S| integral, with grid diagnostics."""

    numeric_value: float
    analytic_value: float
    abs_error: float
    panels: int
    cutoff: float
    # Panels closed at the depth cap without meeting their tolerance: a
    # non-zero count means the integrand is noise-limited there.
    depth_cap_hits: int


@dataclass(frozen=True)
class Peak:
    value: float
    freq: float


@dataclass(frozen=True)
class FreqSweep:
    """Magnitude responses of S and T on a frequency grid, with refined peaks."""

    freqs: np.ndarray
    mag_S: np.ndarray
    mag_T: np.ndarray
    peak_S: Peak
    peak_T: Peak


@dataclass(frozen=True)
class WaterbedRow:
    alpha_g: float
    peak_S: float
    peak_T: float
    flagged: bool


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 24):
    """Adaptive Simpson with Richardson correction; returns (value, panels, cap hits)."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    panels = 0
    cap_hits = 0

    def recurse(x0, x2, f0, f1, f2, whole, tol_here, depth):
        nonlocal panels, cap_hits
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        converged = abs(delta) <= 15.0 * tol_here
        if converged or depth >= max_depth:
            panels += 2
            if not converged:
                cap_hits += 1
            return left + right + delta / 15.0
        if not math.isfinite(delta):
            # NaN never meets the tolerance, so refining it would run to max_depth
            raise IllPosedIntegralError(f"integrand is not finite on [{x0}, {x2}]")
        half = 0.5 * tol_here
        return recurse(x0, xm, f0, fl, f1, left, half, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, half, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    value = recurse(a, b, fa, fm, fb, whole, tol, 0)
    return value, panels, cap_hits


def _seed_edges(a: float, b: float) -> list[float]:
    """Log-spaced panel edges between a and b (decade steps), endpoints included."""
    edges = [a]
    x = a
    while x * 10.0 < b:
        x *= 10.0
        edges.append(x)
    edges.append(b)
    return edges


def _integrate_log_magnitude(f, a: float, b: float, rel_tol: float):
    """Integrate f over [a, b] with decade seed panels; returns (value, panels, cap hits)."""
    total = 0.0
    panels = 0
    cap_hits = 0
    edges = _seed_edges(a, b)
    for x0, x1 in zip(edges, edges[1:]):
        rough = abs(f(0.5 * (x0 + x1))) * (x1 - x0)
        # The last term floors the tolerance at the float noise of the panel:
        # the integrand carries ~1e-16 absolute error (log of a ratio near 1),
        # which Simpson differences see amplified by the span.
        tol = max(rel_tol * max(rough, 1e-3), 1e-14, 8e-15 * (x1 - x0))
        val, n, hits = _adaptive_simpson(f, x0, x1, tol)
        total += val
        panels += n
        cap_hits += hits
    return total, panels, cap_hits


def _leading_zero_order(tf: RationalTF, at: float) -> tuple[int, float, np.ndarray]:
    """Order m and scale c with |tf| ~ (c*eps)**m for points eps away from ``at``.

    Taylor-expands the numerator about the point; m is the index of the first
    non-negligible coefficient, and c = |a_m / den(at)|**(1/m). The Taylor
    coefficients are returned too: ``taylor[m:]`` is the numerator with its
    m zeros at the point divided out, as a polynomial in x - at.
    """
    taylor = tf.num.shifted(at).coeffs
    scale = float(np.max(np.abs(taylor)))
    if scale == 0.0:
        raise IllPosedIntegralError("transfer function is identically zero")
    m = 0
    while m < taylor.size and abs(taylor[m]) <= 1e-9 * scale:
        m += 1
    den_at = float(tf.den(at))
    if den_at == 0.0:
        raise IllPosedIntegralError(f"denominator vanishes at {at}")
    if m == 0:
        return 0, abs(taylor[0] / den_at), taylor
    k = abs(taylor[m] / den_at)
    return m, k ** (1.0 / m), taylor


def _log_singular_tail(m: int, c: float, cutoff: float) -> float:
    """Exact integral of m*ln(c*theta) over [0, cutoff]."""
    return m * cutoff * (math.log(c * cutoff) - 1.0)


def _open_loop_instability_sum(poles) -> float:
    """Sum of ln|p| over the open-loop poles strictly outside the unit circle."""
    total = 0.0
    for p in poles:
        if abs(p) > 1.0 + CIRCLE_TOL:
            total += math.log(abs(p))
    return total


# ---------------------------------------------------------------------------
# sensitivity integrals
# ---------------------------------------------------------------------------

def bode_integral_discrete(
    loop: LoopSet,
    cutoff: float = DEFAULT_CUTOFF,
    rel_tol: float = DEFAULT_REL_TOL,
) -> BodeIntegralReport:
    """Integral of ln|S| over the full unit circle versus its analytic value.

    The numeric side doubles the [0, pi] integral (real coefficients make the
    integrand even). S.num is deflated once at z = 1: with w = z - 1 and
    S.num(z) = w**m * q(w), the integrand is m*ln|w| + ln|q(w)| - ln|S.den(z)|,
    and w = -2 sin(theta/2)**2 + j sin(theta) is formed without cancellation.
    The analytic side is 2*pi*(sum ln|p_u| - ln|1 + lim L|) with p_u the
    open-loop poles outside the unit circle; the limit term drops for strictly
    proper open loops. Those poles are the zeros of S: the m at z = 1, exact
    and on the circle, and 1 + roots(q), which alone are rooted.
    Raises ``IllPosedIntegralError`` when S has poles on the unit circle, or
    unit-circle zeros anywhere but the structural ones at z = 1.
    """
    S, L = loop.S, loop.L
    if not S.is_discrete:
        raise ValueError("discrete loop required")

    for p in poly_roots(S.den).roots:
        if abs(abs(p) - 1.0) < CIRCLE_TOL:
            raise IllPosedIntegralError(f"sensitivity pole on the unit circle: {p}")
    # S = den(L) / (den(L) + num(L)): its zeros are the open-loop poles.
    m, c, taylor = _leading_zero_order(S, 1.0)
    q = Polynomial(taylor[m:])
    open_loop_poles = [1.0 + w for w in poly_roots(q).roots] if q.degree >= 1 else []
    for z in open_loop_poles:
        if abs(abs(z) - 1.0) < CIRCLE_TOL:
            raise IllPosedIntegralError(
                f"sensitivity zero on the unit circle away from z=1: {z}"
            )

    def integrand(theta: float) -> float:
        h = math.sin(0.5 * theta)
        w = complex(-2.0 * h * h, math.sin(theta))
        val = abs(q(w) / S.den(1.0 + w))
        return m * math.log(2.0 * h) + math.log(max(val, 1e-300))

    half, panels, cap_hits = _integrate_log_magnitude(integrand, cutoff, math.pi, rel_tol)
    if m == 0:
        # No structural zero at z=1: continue |S| flatly across [0, cutoff].
        half += cutoff * math.log(max(c, 1e-300))
    else:
        half += _log_singular_tail(m, c, cutoff)
    numeric = 2.0 * half

    psi = L.limit_at_infinity()
    if abs(1.0 + psi) == 0.0:
        raise IllPosedIntegralError("1 + lim L vanishes")
    analytic = 2.0 * math.pi * (_open_loop_instability_sum(open_loop_poles)
                               - math.log(abs(1.0 + psi)))

    return BodeIntegralReport(
        numeric_value=numeric,
        analytic_value=analytic,
        abs_error=abs(numeric - analytic),
        panels=panels,
        cutoff=cutoff,
        depth_cap_hits=cap_hits,
    )


def bode_integral_continuous(
    loop: LoopSet,
    truncation: float | None = None,
    cutoff: float = DEFAULT_CUTOFF,
    rel_tol: float = DEFAULT_REL_TOL,
) -> BodeIntegralReport:
    """Integral of ln|S(j w)| over [0, inf) for a relative-degree-one open loop.

    Numerically integrates up to the truncation frequency (default 1e6 times
    the high-frequency loop gain a = lim s*L) and adds the exact tail estimate
    -a^2/(2*Omega). The analytic value is pi*sum Re(p_u) - (pi/2)*a over the
    open-loop right-half-plane poles.
    """
    S, L = loop.S, loop.L
    if S.is_discrete:
        raise ValueError("continuous loop required")
    if L.den.degree - L.num.degree != 1:
        raise ValueError("open loop must be strictly proper with relative degree 1")

    a = L.num.leading / L.den.leading
    omega_max = truncation if truncation is not None else 1e6 * abs(a)
    if omega_max <= cutoff:
        raise ValueError("truncation frequency must exceed the singularity cutoff")

    m, c, _ = _leading_zero_order(S, 0.0)

    def integrand(w: float) -> float:
        s = 1j * w
        val = abs(S.num(s) / S.den(s))
        return math.log(max(val, 1e-300))

    numeric, panels, cap_hits = _integrate_log_magnitude(integrand, cutoff, omega_max, rel_tol)
    if m > 0:
        numeric += _log_singular_tail(m, c, cutoff)
    else:
        numeric += cutoff * math.log(max(c, 1e-300))
    numeric += -a * a / (2.0 * omega_max)

    rhp_sum = 0.0
    for p in poly_roots(L.den).roots:
        if p.real > 0.0:
            rhp_sum += p.real
    analytic = math.pi * rhp_sum - 0.5 * math.pi * a

    return BodeIntegralReport(
        numeric_value=numeric,
        analytic_value=analytic,
        abs_error=abs(numeric - analytic),
        panels=panels,
        cutoff=cutoff,
        depth_cap_hits=cap_hits,
    )


# ---------------------------------------------------------------------------
# frequency sweeps and peaks
# ---------------------------------------------------------------------------

def _mag_on_circle(tf: RationalTF, theta):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    num = np.abs(np.asarray(tf.num(z)))
    den = np.abs(np.asarray(tf.den(z)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    return out


def _golden_max(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def _refined_peak(tf: RationalTF, thetas: np.ndarray, mags: np.ndarray) -> Peak:
    """Grid argmax refined by golden-section search; z = -1 always a candidate."""
    i = int(np.argmax(mags))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, thetas.size - 1)]
    best_theta, best_val = thetas[i], float(mags[i])
    if hi > lo and math.isfinite(best_val):
        t, v = _golden_max(lambda th: float(_mag_on_circle(tf, th)), lo, hi)
        if v > best_val:
            best_theta, best_val = t, v
    # z = -1 is always a candidate (evaluated exactly, not via exp(j*pi)); a
    # pole exactly there gives an infinite peak. Ties at rounding level go to
    # the endpoint, whose location is exact.
    den_nyq = complex(tf.den(-1.0 + 0.0j))
    nyq = math.inf if den_nyq == 0 else abs(complex(tf.num(-1.0 + 0.0j)) / den_nyq)
    if nyq >= best_val * (1.0 - 1e-13):
        best_theta, best_val = math.pi, max(nyq, best_val)
    return Peak(value=best_val, freq=best_theta / tf.ts)


def freq_sweep(loop: LoopSet, n_points: int = 512, spacing: str = "log") -> FreqSweep:
    """Sample |S| and |T| on (0, pi/Ts] and locate the refined magnitude peaks."""
    if not loop.L.is_discrete:
        raise ValueError("discrete loop required")
    if n_points < 16:
        raise ValueError("need at least 16 points")
    if spacing == "log":
        thetas = np.geomspace(math.pi * 1e-4, math.pi, n_points)
    elif spacing == "linear":
        thetas = np.linspace(math.pi / n_points, math.pi, n_points)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    ts = loop.ts
    mag_S = _mag_on_circle(loop.S, thetas)
    mag_T = _mag_on_circle(loop.T, thetas)
    return FreqSweep(
        freqs=thetas / ts,
        mag_S=mag_S,
        mag_T=mag_T,
        peak_S=_refined_peak(loop.S, thetas, mag_S),
        peak_T=_refined_peak(loop.T, thetas, mag_T),
    )


def waterbed_report(
    cfgs: list[DobConfig],
    threshold: float = 2.0,
    n_points: int = 256,
) -> list[WaterbedRow]:
    """Peak sensitivity versus alpha*g_dob across a shared-kind config grid.

    Rows are sorted by alpha*g_dob; rows whose sensitivity peak exceeds the
    threshold (default 2.0, about 6 dB) are flagged.
    """
    if not cfgs:
        return []
    kind = cfgs[0].kind
    ts = cfgs[0].Ts
    for cfg in cfgs:
        if cfg.kind is not kind or cfg.Ts != ts:
            raise ValueError("all configs must share measurement kind and Ts")
    rows = []
    for cfg in cfgs:
        sweep = freq_sweep(make_inner_loop(cfg), n_points=n_points, spacing="log")
        rows.append(
            WaterbedRow(
                alpha_g=cfg.alpha_g,
                peak_S=sweep.peak_S.value,
                peak_T=sweep.peak_T.value,
                flagged=sweep.peak_S.value > threshold,
            )
        )
    rows.sort(key=lambda r: r.alpha_g)
    return rows
