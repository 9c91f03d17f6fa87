import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dobkit.loops import (
    LoopSet,
    OuterGains,
    PlantParams,
    make_continuous_inner,
    make_inner_loop,
    make_outer_loop,
    make_pd,
)
from dobkit import robustness
from dobkit.robustness import (
    TRAPEZOID_GRID_POINTS,
    TRAPEZOID_MAX_POINTS,
    TRAPEZOID_REL_TOL,
    TRAPEZOID_START,
    FreqSweep,
    IllPosedIntegralError,
    _circle_integral,
    _circle_points,
    _complementary,
    _den_on,
    _Factored,
    _map_eps,
    _refined_peak,
    _sensitivity,
    _sweep_circle,
    _trapezoid_grid,
    bode_integral_continuous,
    bode_integral_discrete,
    freq_sweep,
)
from dobkit.stability import classify_poles, position_non_osc_bound
from dobkit.zalg import Polynomial, RationalTF, poly_roots

from conftest import make_cfg


# ---------------------------------------------------------------------------
# independent quadrature oracle: midpoint rule after a log substitution,
# doubled until two successive refinements agree
# ---------------------------------------------------------------------------

def _oracle_circle_integral(S, lo=1e-13, agree=1e-6):
    """2 * integral of ln|S(e^{j theta})| over [0, pi] via u = ln(theta)."""

    def g(u):
        theta = math.exp(u)
        z = complex(math.cos(theta), math.sin(theta))
        return math.log(abs(S.num(z) / S.den(z))) * theta

    a, b = math.log(lo), math.log(math.pi)
    n = 64
    prev = None
    while n <= 2**20:
        h = (b - a) / n
        total = h * sum(g(a + (i + 0.5) * h) for i in range(n))
        if prev is not None and abs(total - prev) < agree:
            return 2.0 * total
        prev = total
        n *= 2
    raise AssertionError("oracle quadrature did not converge")


def test_acceleration_integral_matches_closed_form_and_oracle():
    cfg = make_cfg("acceleration", alpha=1.5, g_dob=500.0, Ts=1e-3)
    loop = make_inner_loop(cfg)
    report = bode_integral_discrete(loop)
    expected = -2.0 * math.pi * math.log(1.75)
    assert report.analytic_value == pytest.approx(expected, abs=1e-12)
    assert abs(report.numeric_value - expected) < 1e-4
    oracle = _oracle_circle_integral(loop.S)
    assert abs(report.numeric_value - oracle) < 1e-4


def test_velocity_integral_is_zero_for_stable_loop():
    report = bode_integral_discrete(make_inner_loop(make_cfg("velocity")))
    assert report.analytic_value == 0.0
    assert abs(report.numeric_value) < 1e-4


def test_vanishing_gain_limit():
    # smallest mismatch that keeps the sensitivity pole clear of the
    # unit-circle tolerance; the integral collapses toward zero
    cfg = make_cfg("acceleration", alpha=1e-5, g_dob=500.0, Ts=1e-3)
    report = bode_integral_discrete(make_inner_loop(cfg))
    assert abs(report.analytic_value) < 1e-4
    assert abs(report.numeric_value) < 1e-4


def test_vanishing_gain_below_circle_tolerance_is_ill_posed():
    cfg = make_cfg("acceleration", alpha=1e-9, g_dob=500.0, Ts=1e-3)
    with pytest.raises(IllPosedIntegralError):
        bode_integral_discrete(make_inner_loop(cfg))


def test_position_integral_is_zero_for_gentle_tuning():
    cfg = make_cfg("position", alpha=1.0, g_dob=100.0, Ts=1e-3, g_v=750.0)
    report = bode_integral_discrete(make_inner_loop(cfg))
    assert report.analytic_value == 0.0
    assert abs(report.numeric_value) < 1e-4


def test_unstable_velocity_loop_integral_reflects_unstable_pole():
    # closed-loop pole at -1.5: integral equals -2*pi*ln(1.5), analytic branch 0
    cfg = make_cfg("velocity", alpha=2.5, g_dob=1000.0, Ts=1e-3)
    report = bode_integral_discrete(make_inner_loop(cfg))
    assert report.analytic_value == 0.0
    assert report.numeric_value == pytest.approx(-2.0 * math.pi * math.log(1.5), abs=1e-4)


def test_marginal_pole_is_ill_posed():
    cfg = make_cfg("velocity", alpha=2.0, g_dob=1000.0, Ts=1e-3)  # pole at -1
    with pytest.raises(IllPosedIntegralError):
        bode_integral_discrete(make_inner_loop(cfg))


def test_overflowing_integrand_is_ill_posed():
    # |S| on the circle overflows to inf/inf = NaN; the trapezoid rule must
    # reject its first samples rather than double the point count to the cap
    L = RationalTF([0.25e308, 1.5e308, 1e308], [-1.0, 1.0], 1e-3)
    loop = LoopSet.from_open_loop(L, L, RationalTF.constant(1.0, 1e-3), (1.0,))
    with np.errstate(all="ignore"), pytest.raises(IllPosedIntegralError, match="not finite"):
        bode_integral_discrete(loop)


def test_circle_map_changes_little():
    # with no singular points to crowd toward, the circle map is the identity
    # and the rule is the plain trapezoid rule in theta
    loop = make_inner_loop(make_cfg("acceleration", alpha=1.5, g_dob=500.0))
    mapped = bode_integral_discrete(loop).numeric_value
    plain, points, _ = _circle_integral(_sensitivity(loop), [])
    assert points <= 256
    assert abs(mapped - plain) < 1e-13


def test_report_carries_grid_stats():
    report = bode_integral_discrete(make_inner_loop(make_cfg("velocity")))
    assert report.panels >= 128 and report.panels & (report.panels - 1) == 0
    assert report.last_difference <= 1e-12 * max(1.0, abs(report.numeric_value))
    assert report.abs_error == pytest.approx(
        abs(report.numeric_value - report.analytic_value)
    )


def test_point_cap_raises_near_the_circle():
    # pole at -(1 - 1e-8): clear of CIRCLE_TOL, but the trapezoid rule would
    # need about 10**9 points; the circle map cannot help away from z = 1
    cfg = make_cfg("velocity", alpha=1.0, g_dob=(2.0 - 1e-8) / 1e-3, Ts=1e-3)
    with pytest.raises(IllPosedIntegralError,
                       match=f"did not converge in {TRAPEZOID_MAX_POINTS} points"):
        bode_integral_discrete(make_inner_loop(cfg))


def test_lightly_damped_slow_poles_converge():
    # outer poles at |z| = 1 - 1.8e-5 near z = 1: about 2 million points in
    # theta, tens of thousands after the circle map
    cfg = make_cfg("velocity", alpha=0.30078125, g_dob=100.0, Ts=1e-3)
    outer = make_outer_loop(make_inner_loop(cfg), make_pd(OuterGains(500.0, 10.0), 1e-3))
    report = bode_integral_discrete(outer)
    assert report.analytic_value == 0.0
    assert abs(report.numeric_value) < 1e-12
    assert report.panels <= 2**17


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["acceleration", "velocity"]),
    st.floats(0.1, 3.0),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-3, 5e-4]),
)
def test_discrete_integral_consistency(kind, alpha, g_frac, Ts):
    g_lo, g_hi = 50.0, 0.9 / (alpha * Ts)
    if g_hi <= g_lo:
        return
    g_dob = g_lo + g_frac * (g_hi - g_lo)
    report = bode_integral_discrete(make_inner_loop(make_cfg(kind, alpha=alpha,
                                                             g_dob=g_dob, Ts=Ts)))
    assert abs(report.numeric_value - report.analytic_value) < 1e-3


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(0.3, 2.0))
def test_position_integral_consistency(alpha, gv_ts):
    Ts = 1e-3
    g_v = gv_ts / Ts
    bound = position_non_osc_bound(g_v, Ts)
    g_dob = 0.8 * bound / alpha
    if g_dob < 1.0:
        return
    cfg = make_cfg("position", alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
    report = bode_integral_discrete(make_inner_loop(cfg))
    assert abs(report.numeric_value - report.analytic_value) < 1e-3


# ---------------------------------------------------------------------------
# structural zeros at z = 1: divided out of ln|S|, counted exactly
# ---------------------------------------------------------------------------

KINDS = ("acceleration", "velocity", "position")


def _regulation_loops(kind, gains):
    """Inner and outer loop of the README regulation configuration."""
    cfg = make_cfg(kind, alpha=1.0, g_dob=1000.0, Ts=0.5e-3, g_v=2000.0)
    inner = make_inner_loop(cfg)
    return inner, make_outer_loop(inner, make_pd(gains, cfg.Ts))


def _fixture_loops(regulation_gains):
    """Regulation loops of each kind plus the criterion 1 and 2 grids."""
    loops = []
    for kind in KINDS:
        inner, outer = _regulation_loops(kind, regulation_gains)
        loops += [(f"{kind} inner", inner), (f"{kind} outer", outer)]
    for alpha in (1.0, 1.5, 3.0):
        for g_dob in (100.0, 500.0, 900.0):
            cfg = make_cfg("acceleration", alpha=alpha, g_dob=g_dob)
            loops.append((f"criterion 1 {alpha} {g_dob}", make_inner_loop(cfg)))
    for alpha, g_dob in ((1.0, 100.0), (1.0, 500.0), (1.0, 900.0), (1.5, 100.0),
                         (1.5, 500.0), (3.0, 100.0), (3.0, 300.0)):
        cfg = make_cfg("velocity", alpha=alpha, g_dob=g_dob)
        loops.append((f"criterion 2 velocity {alpha} {g_dob}", make_inner_loop(cfg)))
    for g_dob in (30.0, 60.0, 100.0, 0.95 * position_non_osc_bound(750.0, 1e-3)):
        cfg = make_cfg("position", g_dob=g_dob, g_v=750.0)
        loops.append((f"criterion 2 position {g_dob}", make_inner_loop(cfg)))
    return loops


def test_trapezoid_converges_on_fixture_loops(regulation_gains):
    for label, loop in _fixture_loops(regulation_gains):
        report = bode_integral_discrete(loop)
        assert report.last_difference <= 1e-12 * max(1.0, abs(report.numeric_value)), label
        assert report.abs_error <= 1e-12, label


@pytest.mark.parametrize("kind", KINDS)
def test_regulation_outer_integral_is_exact_zero(kind, regulation_gains):
    # re-rooting the expanded (z-1)**2 splits it by ~sqrt(eps) and can put one
    # half outside the circle; Horner sums near z = 1 are float noise
    _, outer = _regulation_loops(kind, regulation_gains)
    report = bode_integral_discrete(outer)
    assert report.analytic_value == 0.0
    assert abs(report.numeric_value) < 1e-12
    assert report.panels <= 1024


def _exact_mag(tf, t):
    """|tf| at z = ((1 - t^2) + 2jt) / (1 + t^2), exactly on the unit circle,
    in rational arithmetic on the stored float coefficients."""
    t = Fraction(t)
    x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)

    def sq_abs(poly):
        re, im = Fraction(0), Fraction(0)
        for c in poly.coeffs[::-1]:
            re, im = re * x - im * y + Fraction(c), re * y + im * x
        return re * re + im * im

    return math.sqrt(sq_abs(tf.num) / sq_abs(tf.den))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tf", ["S", "T"])
def test_factored_sensitivity_is_exact_near_one(tf, kind, regulation_gains):
    # the expanded Horner sums in z lose up to 1.9e-8 relative for S and
    # 1.5e-12 for T at theta ~ 3e-4; T shares S's shifted denominator
    _, outer = _regulation_loops(kind, regulation_gains)
    fs = _sensitivity(outer)
    f = fs if tf == "S" else _Factored(outer.T.num, 0, fs.den)
    for t in (1e-5, 1e-4, 1e-3, 0.5):
        theta = 2.0 * math.atan(t)
        exact = _exact_mag(getattr(outer, tf), t)
        circle = _circle_points(np.array([theta]))
        assert f.mag(circle, *_den_on(circle, fs.den))[0] == pytest.approx(exact, rel=1e-13), t
        assert f.mag_at(theta) == pytest.approx(exact, rel=1e-13), t


@pytest.mark.parametrize("kind", KINDS)
def test_structural_order_at_one(kind, regulation_gains):
    inner, outer = _regulation_loops(kind, regulation_gains)
    assert inner.poles.count(1.0) == 1
    assert outer.poles.count(1.0) == 2
    assert _sensitivity(inner).m == 1 and _sensitivity(outer).m == 2


@pytest.mark.parametrize("kind", ["acceleration", "velocity"])
@pytest.mark.parametrize("a", [1e-10, 1e-12])
def test_structural_order_at_vanishing_gain(kind, a, regulation_gains):
    # a = alpha*g_dob*Ts puts the compensator's pole at 1 - a (velocity) or
    # 1/(1 + a) (acceleration), which a 1e-9 threshold on S's Taylor
    # coefficients at z = 1 would count as a third integrator; the closed
    # loop has a pole as close to the circle, so the integral is ill-posed
    cfg = make_cfg(kind, alpha=1.0, g_dob=a / 0.5e-3, Ts=0.5e-3)
    outer = make_outer_loop(make_inner_loop(cfg), make_pd(regulation_gains, cfg.Ts))
    assert outer.poles.count(1.0) == 2
    assert _sensitivity(outer).m == 2
    with pytest.raises(IllPosedIntegralError, match="sensitivity pole on the unit circle"):
        bode_integral_discrete(outer)


def test_each_integral_roots_only_the_closed_loop_polynomial(monkeypatch, regulation_gains):
    calls = []

    def counted(p):
        calls.append(p)
        return poly_roots(p)

    monkeypatch.setattr(robustness, "poly_roots", counted)
    for kind in KINDS:
        for loop in _regulation_loops(kind, regulation_gains):
            calls.clear()
            bode_integral_discrete(loop)
            assert calls == [loop.S.den]
    loop = make_continuous_inner(PlantParams.from_alpha(1.0), 500.0)
    calls.clear()
    bode_integral_continuous(loop)
    assert calls == [loop.S.den]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.floats(0.3, 3.0),
    st.floats(100.0, 1500.0),
    st.sampled_from([1e-3, 5e-4]),
    st.floats(500.0, 3000.0),
    st.floats(500.0, 8000.0),
    st.floats(10.0, 300.0),
)
def test_outer_integral_consistency(kind, alpha, g_dob, Ts, g_v, K_p, K_d):
    cfg = make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
    outer = make_outer_loop(make_inner_loop(cfg), make_pd(OuterGains(K_p, K_d), Ts))
    assume(classify_poles(outer.T).all_in_unit)
    report = bode_integral_discrete(outer)
    assert abs(report.numeric_value - report.analytic_value) < 1e-6


# ---------------------------------------------------------------------------
# continuous baseline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_continuous_integral(alpha):
    loop = make_continuous_inner(PlantParams.from_alpha(alpha), 500.0)
    report = bode_integral_continuous(loop)
    expected = -0.5 * math.pi * alpha * 500.0
    assert report.analytic_value == pytest.approx(expected, rel=1e-12)
    assert abs(report.numeric_value - expected) < 1e-3 * abs(expected)
    # antiderivative oracle for the truncated part:
    # F(w) = w*ln(w/sqrt(w^2+a^2)) - a*atan(w/a) -> -a*pi/2 as w -> inf
    a = alpha * 500.0
    omega = 1e6 * a
    truncated = omega * math.log(omega / math.hypot(omega, a)) - a * math.atan(omega / a)
    assert report.numeric_value == pytest.approx(truncated - a * a / (2 * omega), abs=1e-3)


def test_continuous_integral_vanishes_with_gain():
    loop = make_continuous_inner(PlantParams.from_alpha(1.0), 1e-6)
    report = bode_integral_continuous(loop)
    assert abs(report.numeric_value) < 1e-4
    assert abs(report.analytic_value) < 1e-4


def test_continuous_analysis_misses_discrete_instability():
    # alpha*g_dob = 3/Ts: the continuous loop passes every check while the
    # sampled velocity loop has a pole of magnitude 2 outside the unit circle
    alpha, Ts = 1.0, 1e-3
    g_dob = 3.0 / Ts / alpha
    plant = PlantParams.from_alpha(alpha)
    cont = make_continuous_inner(plant, g_dob)
    report = bode_integral_continuous(cont)
    assert abs(report.numeric_value - report.analytic_value) < 1e-3 * abs(report.analytic_value)
    (pole,) = (p for p in __import__("dobkit").poly_roots(cont.T.den).roots)
    assert pole.real < 0.0  # continuous loop is stable
    disc = make_inner_loop(make_cfg("velocity", alpha=alpha, g_dob=g_dob, Ts=Ts))
    assert classify_poles(disc.T).max_mag == pytest.approx(2.0, abs=1e-9)
    assert not classify_poles(disc.T).all_in_unit


def _continuous_loop(zeros, poles, gain):
    """Continuous unity-feedback loop L = gain * prod(s - zeros) / prod(s - poles)."""
    num = gain * np.atleast_1d(np.poly(zeros))[::-1]
    L = RationalTF(num, np.poly(poles)[::-1], None)
    return LoopSet.from_open_loop(L, L, RationalTF.constant(1.0, None), poles)


def _pair(zeta, omega):
    re, im = -zeta * omega, omega * math.sqrt(1.0 - zeta * zeta)
    return [complex(re, im), complex(re, -im)]


@pytest.mark.parametrize("zeros, poles, gain, analytic", [
    # double integrator: two structural zeros of S at s = 0
    ([-1.0, -20.0], [0.0, 0.0, -100.0], 50.0, -25.0 * math.pi),
    # open-loop pole at s = 1 adds pi*1 (the closed loop is stable)
    ([-2.0, -5.0], [1.0, -10.0, -20.0], 30.0, math.pi - 15.0 * math.pi),
    # lightly damped open-loop pair at 10 rad/s and a slow pole
    ([-1.0, -5.0, -20.0], [-0.2, -100.0, *_pair(0.02, 10.0)], 50.0, -25.0 * math.pi),
])
def test_continuous_integral_past_first_order(zeros, poles, gain, analytic):
    loop = _continuous_loop(zeros, poles, gain)
    assert all(p.real < 0.0 for p in poly_roots(loop.S.den).roots)
    report = bode_integral_continuous(loop)
    assert report.analytic_value == pytest.approx(analytic, rel=1e-12)
    assert report.abs_error <= 1e-9 * max(1.0, abs(report.analytic_value))
    assert report.panels & (report.panels - 1) == 0
    assert report.last_difference <= 1e-9 * max(1.0, abs(report.numeric_value))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
    st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
    st.floats(0.0, 3.0),
    st.booleans(),
    st.booleans(),
    st.one_of(st.none(), st.floats(0.05, 0.99)),
)
def test_continuous_integral_consistency(order, log_poles, log_zeros, log_gain,
                                         unstable, integrator, zeta):
    # open-loop poles and zeros over three decades, optionally an open-loop
    # right-half-plane pole, an integrator and a complex pair
    poles = [-10.0 ** x for x in log_poles[:order]]
    if unstable:
        poles[0] = -poles[0]
    if integrator:
        poles[-1] = 0.0
    if zeta is not None and order >= 3:
        poles[1:3] = _pair(zeta, 10.0 ** log_poles[1])
    gain = 10.0 ** log_gain
    loop = _continuous_loop([-10.0 ** x for x in log_zeros[:order - 1]], poles, gain)
    # closed loop damped and no more than three decades slower than lim s*L
    assume(all(p.real < -0.05 * abs(p) and abs(p) > 1e-3 * gain
               for p in poly_roots(loop.S.den).roots))
    report = bode_integral_continuous(loop)
    assert report.abs_error <= 1e-9 * max(1.0, abs(report.analytic_value))


@pytest.mark.parametrize("zeros, poles, what", [
    ([0.0], [1.0, 1.0], "pole"),           # 1 + L = (s**2 + 1)/(s - 1)**2
    ([-1.0, -2.0], [0.0, *_pair(0.0, 3.0)], "zero"),  # undamped open-loop pair
])
def test_continuous_singularity_on_the_axis_is_ill_posed(zeros, poles, what):
    with pytest.raises(IllPosedIntegralError, match=f"{what} on the imaginary axis"):
        bode_integral_continuous(_continuous_loop(zeros, poles, 2.0))


@pytest.mark.parametrize("omega", [100.0, 300.0])
def test_continuous_point_cap_for_a_lightly_damped_pair(omega):
    # damping 0.006 at omega = 100 or 300 times c = 1 plus a slow pole: its
    # image lies about 2*zeta/omega from the circle near z = -1, where the
    # circle map does not help; the rule converges at 100 and raises at 300
    loop = _continuous_loop([-2.0, -3.0], [-0.01, *_pair(0.006, omega)], 1.0)
    if omega == 100.0:
        report = bode_integral_continuous(loop)
        assert report.abs_error <= 1e-9 * max(1.0, abs(report.analytic_value))
        assert report.panels <= TRAPEZOID_MAX_POINTS // 2
    else:
        with pytest.raises(IllPosedIntegralError,
                           match=f"did not converge in {TRAPEZOID_MAX_POINTS} points"):
            bode_integral_continuous(loop)


def test_continuous_requires_relative_degree_one():
    loop = make_inner_loop(make_cfg("velocity"))
    with pytest.raises(ValueError):
        bode_integral_continuous(loop)


# ---------------------------------------------------------------------------
# the trapezoid rule on its predicted grid against level-by-level doubling
# ---------------------------------------------------------------------------

def _reference_circle_integral(f, singular, ends=None):
    """``_circle_integral`` as a loop that samples f anew at every doubling level."""
    eps = _map_eps(singular)[0]

    def g(t, ends=None):
        h, c, s = np.sin(0.5 * t), np.cos(0.5 * t), np.sin(t)
        zeta_m1 = -2.0 * h * h + 1j * s
        one_r_zeta = eps + (1.0 - eps) * (2.0 * c * c + 1j * s)
        jacobian = eps * (2.0 - eps) / np.abs(one_r_zeta) ** 2
        vals = f(eps * zeta_m1 / one_r_zeta)
        if ends is not None:
            vals[0], vals[-1] = ends
        vals = vals * jacobian
        if not np.all(np.isfinite(vals)):
            raise IllPosedIntegralError("integrand is not finite on the unit circle")
        return vals

    n = TRAPEZOID_START
    first = g(np.arange(n // 2 + 1) * (2.0 * math.pi / n), ends)
    total = 2.0 * float(np.sum(first)) - float(first[0]) - float(first[-1])
    estimate = 2.0 * math.pi * total / n
    while n < TRAPEZOID_MAX_POINTS:
        total += 2.0 * float(np.sum(g((2.0 * np.arange(n // 2) + 1.0) * (math.pi / n))))
        n *= 2
        previous, estimate = estimate, 2.0 * math.pi * total / n
        difference = abs(estimate - previous)
        if difference <= TRAPEZOID_REL_TOL * max(1.0, abs(estimate)):
            return estimate, n, difference
    raise IllPosedIntegralError(
        f"trapezoid rule did not converge in {n} points (last difference {difference:.3g})"
    )


def _quadratures(f, singular, ends=None):
    """The outcome of both rules on f, as (value, n, last difference) or the error message,
    with the number of samples of f each took."""
    outcomes = []
    for rule in (_reference_circle_integral, _circle_integral):
        samples = 0

        def counted(w):
            nonlocal samples
            samples += w.size
            return f(w)

        try:
            outcome = rule(counted, singular, ends)
        except IllPosedIntegralError as e:
            outcome = str(e)
        outcomes.append((outcome, samples))
    return outcomes


def _assert_same_quadrature(outcomes, label):
    (want, want_samples), (got, got_samples) = outcomes
    assert got_samples <= 2 * want_samples, label
    if isinstance(want, str):
        assert got == want, label
        return
    assert not isinstance(got, str), (label, got)
    scale = max(1.0, abs(want[0]))
    assert got[1] == want[1], label
    assert abs(got[0] - want[0]) <= 1e-14 * scale, label
    assert abs(got[2] - want[2]) <= 4.0 * 2.0**-52 * scale, label


def _survey_loops(regulation_gains):
    """Seeded inner and outer loops of each kind at three sampling times."""
    rng = random.Random(22)
    loops = []
    for Ts in (1e-3, 5e-4, 2e-4):
        for kind in KINDS:
            for _ in range(3):
                alpha, x = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.9)
                cfg = make_cfg(kind, alpha=alpha, g_dob=x / (alpha * Ts), Ts=Ts,
                               g_v=rng.uniform(0.3, 2.0) / Ts)
                inner = make_inner_loop(cfg)
                gains = OuterGains(rng.uniform(1000.0, 8000.0), rng.uniform(10.0, 300.0))
                loops += [(f"{kind} inner {cfg}", inner),
                          (f"{kind} outer {cfg} {gains}", make_outer_loop(inner, make_pd(gains, Ts)))]
    return loops


def test_predicted_grid_matches_doubling_on_seeded_loops(monkeypatch, regulation_gains):
    seen = []

    def both(f, singular, ends=None):
        outcomes = _quadratures(f, singular, ends)
        seen.append(outcomes)
        got = outcomes[1][0]
        if isinstance(got, str):
            raise IllPosedIntegralError(got)
        return got

    monkeypatch.setattr(robustness, "_circle_integral", both)
    for label, loop in _survey_loops(regulation_gains):
        seen.clear()
        try:
            bode_integral_discrete(loop)
        except IllPosedIntegralError:
            pass
        for outcomes in seen:
            _assert_same_quadrature(outcomes, label)
        # q from the shifted coefficient tuple, as from its array
        fs = _sensitivity(loop)
        for f, num in ((fs, loop.S.num), (_Factored(loop.T.num, 0, fs.den), loop.T.num)):
            want = Polynomial(num.shifted(1.0).coeffs[f.m:])
            assert f.q.coeffs.tolist() == want.coeffs.tolist(), label
    # the continuous baseline replaces the samples at z = +-1 by their limits
    for label, loop in [(f"continuous {a}", make_continuous_inner(PlantParams.from_alpha(a), 500.0))
                        for a in (0.5, 1.0, 2.0)] + [
            ("continuous double integrator", _continuous_loop([-1.0, -20.0], [0.0, 0.0, -100.0], 50.0)),
            ("continuous damped pair", _continuous_loop(
                [-1.0, -5.0, -20.0], [-0.2, -100.0, *_pair(0.02, 10.0)], 50.0))]:
        seen.clear()
        bode_integral_continuous(loop)
        assert len(seen) == 1
        _assert_same_quadrature(seen[0], label)


def test_grid_coarser_than_convergence_keeps_doubling(regulation_gains):
    # no singular points: the grid is predicted at 128 points, but the outer
    # loop's slow poles need thousands on the identity map
    _, outer = _regulation_loops("velocity", regulation_gains)
    outcomes = _quadratures(_sensitivity(outer), [])
    _assert_same_quadrature(outcomes, "velocity outer")
    assert outcomes[1][0][1] > 2 * TRAPEZOID_START


def test_unused_sample_of_a_finer_grid_may_be_non_finite():
    # a singular point near z = 1 predicts a fine grid; f = 0 converges at
    # 128 points, so its value at the grid's first angle is never summed
    grids = []

    def probe(w):
        grids.append(w.copy())
        return np.zeros(w.shape)

    _circle_integral(probe, [0.999])
    assert grids[0].size > TRAPEZOID_START + 1  # more than the 128 points that converge
    unused = grids[0][1]

    def f(w):
        return np.where(w == unused, np.nan, 0.0)

    assert _circle_integral(f, [0.999]) == _reference_circle_integral(f, [0.999]) == (0.0, 128, 0.0)


# ---------------------------------------------------------------------------
# frequency sweeps and peaks
# ---------------------------------------------------------------------------

def _dense_grid_peak(S, n=200001):
    thetas = np.linspace(math.pi / n, math.pi, n)
    z = np.exp(1j * thetas)
    mags = np.abs(S.num(z) / S.den(z))
    i = int(np.argmax(mags))
    return float(mags[i]), float(thetas[i])


def test_acceleration_peak_at_nyquist_below_one():
    for x in (0.1, 0.5, 1.3):  # x = alpha*g_dob*Ts
        cfg = make_cfg("acceleration", alpha=1.0, g_dob=x / 1e-3, Ts=1e-3)
        sweep = freq_sweep(make_inner_loop(cfg), n_points=128)
        expected = 2.0 / (2.0 + x)
        assert sweep.peak_S.value == pytest.approx(expected, abs=1e-12)
        assert sweep.peak_S.value <= 1.0
        assert sweep.peak_S.freq == pytest.approx(math.pi / 1e-3, rel=1e-9)
        dense_val, _ = _dense_grid_peak(make_inner_loop(cfg).S)
        assert sweep.peak_S.value >= dense_val - 1e-9


def test_velocity_peak_value():
    sweep = freq_sweep(make_inner_loop(make_cfg("velocity")), n_points=64)
    assert sweep.peak_S.value == pytest.approx(4.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("outer, expected, most", [
    # velocity inner loop: |S| peaks at z = -1 and |T| at z = 1, past the
    # grid's ends. |S|'s mirrored bracket is symmetric about z = -1, the
    # parabola's vertex, and one step to either side closes it (2
    # evaluations); |T|'s, symmetric about z = 1, first steps from the grid's
    # low end to the vertex there, then to either side of it (3)
    (False, 4.0 / 3.0, 3),
    # lightly damped outer loop (closed-loop pair at |z| = 0.9937): interior
    # peaks; the |S| value is that of a 60-step golden-section search
    (True, 5.696941980014084, 25),
])
def test_peak_search_stops_at_rounding_level(monkeypatch, outer, expected, most):
    loop = make_inner_loop(make_cfg("velocity"))
    if outer:
        loop = make_outer_loop(loop, make_pd(OuterGains(K_p=5000.0, K_d=10.0), 1e-3))
    mag_at = _Factored.mag_at
    calls = {"S": 0, "T": 0}

    def counted(self, theta):
        calls["S" if self.m else "T"] += 1  # T has no zero at z = 1
        return mag_at(self, theta)

    monkeypatch.setattr(_Factored, "mag_at", counted)
    peak = freq_sweep(loop, n_points=512).peak_S
    assert peak.value == pytest.approx(expected, rel=1e-14)
    assert 1 <= calls["S"] <= most
    assert 1 <= calls["T"] <= most


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9, 1.1, 1.5, 1.9])
def test_complementary_peak_closed_forms(a):
    # a = alpha*g_dob*Ts. Velocity: T = a/(z - 1 + a), |T|**2 =
    # a**2/(a**2 + 4(1 - a) sin(theta/2)**2), highest at z = -1 for a > 1
    # and at z = 1 below. Acceleration: T = a z/((1 + a) z - 1),
    # |T|**2 = a**2/(a**2 + 4(1 + a) sin(theta/2)**2), highest at z = 1.
    # Either way |T(1)| = 1.
    Ts = 1e-3
    for kind in ("velocity", "acceleration"):
        cfg = make_cfg(kind, alpha=1.0, g_dob=a / Ts, Ts=Ts)
        x = cfg.alpha_g * Ts  # a as the config rounds it
        peak = freq_sweep(make_inner_loop(cfg), n_points=128).peak_T
        if kind == "velocity" and x > 1.0:
            value, theta = x / (2.0 - x), math.pi
        else:
            value, theta = 1.0, 0.0
        assert peak.value == pytest.approx(value, rel=1e-12), kind
        assert peak.freq == pytest.approx(theta / Ts, rel=1e-12), kind


def test_dc_limits():
    sweep = freq_sweep(make_inner_loop(make_cfg("velocity")), n_points=256)
    assert sweep.mag_T[0] == pytest.approx(1.0, abs=1e-2)
    assert sweep.mag_S[0] < 5e-3
    assert np.all(np.diff(sweep.freqs) > 0)
    assert sweep.freqs[-1] == pytest.approx(math.pi / 1e-3, rel=1e-12)


def test_sweep_grid_is_built_once_and_read_only():
    loop = make_inner_loop(make_cfg("velocity"))
    for n in (16, 512):
        a, b = freq_sweep(loop, n_points=n), freq_sweep(loop, n_points=n)
        assert np.array_equal(a.freqs, np.geomspace(math.pi * 1e-4, math.pi, n) / loop.ts)
        circle = _sweep_circle(n)
        assert circle is _sweep_circle(n)
        for x in (a.freqs, a.mag_S, a.mag_T):
            for y in (b.freqs, b.mag_S, b.mag_T, *circle):
                assert not np.shares_memory(x, y)
        _assert_read_only(circle)
    # the trapezoid rule's points, one set per grid size
    for top in (2 * TRAPEZOID_START, TRAPEZOID_GRID_POINTS):
        points = _trapezoid_grid(top)
        assert points is _trapezoid_grid(top)
        _assert_read_only(points)


def _assert_read_only(arrays):
    for grid in arrays:
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_cached_circle_points_equal_the_in_place_ones():
    # each array as every call computed it before the caches
    for n in (16, 256, 512):
        theta = np.geomspace(math.pi * 1e-4, math.pi, n)
        h = np.sin(0.5 * theta)
        want = (theta, -2.0 * h * h + 1j * np.sin(theta), 2.0 * h, (2.0 * h) ** 2)
        for got, wanted in zip(_sweep_circle(n), want, strict=True):
            assert np.array_equal(got, wanted) and _same_bits(got, wanted), n
    top = 2 * TRAPEZOID_START
    while top <= TRAPEZOID_GRID_POINTS:
        t = np.arange(top // 2 + 1) * (2.0 * math.pi / top)
        h, c, s = np.sin(0.5 * t), np.cos(0.5 * t), np.sin(t)
        want = (-2.0 * h * h + 1j * s, 2.0 * c * c + 1j * s)
        for got, wanted in zip(_trapezoid_grid(top), want, strict=True):
            assert np.array_equal(got, wanted) and _same_bits(got, wanted), top
        top *= 2


def test_factored_forms_are_built_once_per_loop(monkeypatch, regulation_gains):
    shifts = []
    shifted = Polynomial.shifted
    monkeypatch.setattr(Polynomial, "shifted", lambda p, a: shifts.append(p) or shifted(p, a))

    def both(loop):
        return freq_sweep(loop), repr(bode_integral_discrete(loop))

    for kind in KINDS:
        for loop in _regulation_loops(kind, regulation_gains):
            _sensitivity.cache_clear()
            _complementary.cache_clear()
            shifts.clear()
            bode_integral_discrete(loop)
            assert len(shifts) == 2, kind  # S.num and S.den: the integral needs no T
            sweep, report = both(loop)
            assert len(shifts) == 3, kind  # and T.num, once for the sweep and the integral
            assert _sensitivity(loop) is _sensitivity(loop)
            assert _complementary(loop) is _complementary(loop)
            assert _complementary(loop).den is _sensitivity(loop).den
            # built afresh, the same bits
            _sensitivity.cache_clear()
            _complementary.cache_clear()
            again, report_again = both(loop)
            assert len(shifts) == 6, kind
            assert report == report_again, kind
            for field in ("freqs", "mag_S", "mag_T"):
                assert _same_bits(getattr(sweep, field), getattr(again, field)), (kind, field)
            assert repr((sweep.peak_S, sweep.peak_T)) == repr((again.peak_S, again.peak_T)), kind


def _reference_sweep(loop, n_points):
    """``freq_sweep`` with every circle point computed in place, as before the caches."""
    thetas = np.geomspace(math.pi * 1e-4, math.pi, n_points)
    h = np.sin(0.5 * thetas)
    w = -2.0 * h * h + 1j * np.sin(thetas)
    fs = _sensitivity(loop)
    ft = _Factored(loop.T.num, 0, fs.den)
    d = np.abs(fs.den(w))
    mags = []
    for f in (fs, ft):
        n = np.abs(f.q(w))
        with np.errstate(divide="ignore", invalid="ignore"):
            mags.append((2.0 * h) ** f.m * np.where(d > 0.0, n / np.where(d > 0.0, d, 1.0), np.inf))
    return FreqSweep(thetas / loop.ts, *mags, _refined_peak(fs, thetas, mags[0], loop.ts),
                     _refined_peak(ft, thetas, mags[1], loop.ts))


def test_sweeps_and_integrals_equal_in_place_references_on_seeded_loops(monkeypatch):
    # 504 loops: inner and outer of every kind at Ts from 1e-5 to 1e-3, and
    # the continuous baseline, whose integral replaces the samples at z = +-1
    rng = random.Random(27)
    cases = []
    for i in range(252):
        kind = KINDS[i % 3]
        Ts = 10.0 ** rng.uniform(-5.0, -3.0)
        alpha, x = rng.uniform(0.5, 2.0), rng.uniform(0.05, 1.95)
        cfg = make_cfg(kind, alpha=alpha, g_dob=x / (alpha * Ts), Ts=Ts,
                       g_v=rng.uniform(0.3, 2.0) / Ts)
        inner = make_inner_loop(cfg)
        gains = OuterGains(rng.uniform(1000.0, 8000.0), rng.uniform(10.0, 300.0))
        n = (16, 256, 512)[i % 3]
        cases += [(f"{kind} inner {cfg}", inner, n),
                  (f"{kind} outer {cfg} {gains}", make_outer_loop(inner, make_pd(gains, Ts)), n)]
    cases += [(f"continuous {a}", make_continuous_inner(PlantParams.from_alpha(a), 500.0), None)
              for a in (0.5, 1.0, 2.0)]

    def outcome(loop, n):
        if n is None:
            return None, repr(bode_integral_continuous(loop))
        return freq_sweep(loop, n_points=n), repr(bode_integral_discrete(loop))

    got = [outcome(loop, n) for _, loop, n in cases]
    # level-by-level sampling, every point computed in place: the same values
    monkeypatch.setattr(robustness, "_circle_integral", _reference_circle_integral)
    for (label, loop, n), (sweep, report) in zip(cases, got):
        assert report == outcome(loop, n)[1], label
        if n is None:
            continue
        want = _reference_sweep(loop, n)
        for field in ("freqs", "mag_S", "mag_T"):
            assert _same_bits(getattr(sweep, field), getattr(want, field)), (label, field)
        assert repr((sweep.peak_S, sweep.peak_T)) == repr((want.peak_S, want.peak_T)), label


def _dense_factored_peak(loop, which, n):
    """Largest |S| or |T| of the factored form on an n-point log grid over [1e-12, 1]*pi, and its angle."""
    circle = _circle_points(np.geomspace(1e-12 * math.pi, math.pi, n))
    fs = _sensitivity(loop)
    f = fs if which == "S" else _Factored(loop.T.num, 0, fs.den)
    mags = f.mag(circle, *_den_on(circle, fs.den))
    i = int(np.argmax(mags))
    return float(mags[i]), float(circle.theta[i])


@pytest.mark.parametrize("kind, Ts, outer, which, value, freq", [
    # each maximum lies below the grid's low end, 1e-4*pi/Ts = 314 or 3,142 rad/s
    ("velocity", 1e-6, True, "T", 1.0689, 36.4),
    ("velocity", 1e-7, True, "T", 1.0761, 31.1),
    ("position", 1e-6, True, "T", 1.0951, 13.1),
    ("position", 1e-7, False, "S", 1.3748, 2090),
])
def test_sweep_peak_at_fast_sampling_is_the_true_maximum(regulation_gains, kind, Ts, outer,
                                                         which, value, freq):
    cfg = make_cfg(kind, alpha=1.5, g_dob=1000.0, Ts=Ts, g_v=2000.0)
    loop = make_inner_loop(cfg)
    if outer:
        loop = make_outer_loop(loop, make_pd(regulation_gains, Ts))
    true_max, theta = _dense_factored_peak(loop, which, 40001)
    peak = getattr(freq_sweep(loop), "peak_" + which)
    assert true_max == pytest.approx(value, rel=1e-4)
    assert theta / Ts == pytest.approx(freq, rel=1e-2)
    assert true_max * (1.0 - 1e-12) <= peak.value <= true_max * (1.0 + 1e-6)
    assert peak.freq == pytest.approx(theta / Ts, rel=1e-3)


def test_sweep_peaks_are_at_least_the_dense_maximum_on_seeded_loops():
    # 60 loops: inner and outer of every kind at Ts from 1e-7 to 1e-3, whose
    # outer-loop peaks often lie below the sweep's band
    rng = random.Random(11)
    for i in range(30):
        kind = KINDS[i % 3]
        Ts = 10.0 ** rng.uniform(-7.0, -3.0)
        alpha, x = rng.uniform(0.5, 2.0), rng.uniform(0.05, 1.95)
        cfg = make_cfg(kind, alpha=alpha, g_dob=x / (alpha * Ts), Ts=Ts,
                       g_v=rng.uniform(0.3, 2.0) / Ts)
        inner = make_inner_loop(cfg)
        gains = OuterGains(rng.uniform(1000.0, 8000.0), rng.uniform(10.0, 300.0))
        for loop in (inner, make_outer_loop(inner, make_pd(gains, Ts))):
            sweep = freq_sweep(loop)
            for which in "ST":
                dense, _ = _dense_factored_peak(loop, which, 4001)
                peak = getattr(sweep, "peak_" + which)
                assert peak.value >= dense * (1.0 - 1e-12), (which, cfg, gains)


def test_sweep_validation():
    loop = make_inner_loop(make_cfg("velocity"))
    with pytest.raises(ValueError):
        freq_sweep(loop, n_points=8)
    with pytest.raises(ValueError):
        freq_sweep(make_continuous_inner(PlantParams.from_alpha(1.0), 100.0))


# ---------------------------------------------------------------------------
# waterbed: the sensitivity peak against alpha*g_dob
# ---------------------------------------------------------------------------

def _sweep_peaks(kind, g_grid, Ts=1e-3):
    return [freq_sweep(make_inner_loop(make_cfg(kind, alpha=1.0, g_dob=g, Ts=Ts)),
                       n_points=256).peak_S.value for g in g_grid]


def test_waterbed_velocity_grid():
    peaks = _sweep_peaks("velocity", (100.0, 500.0, 900.0))
    expected = [2.0 / 1.9, 2.0 / 1.5, 2.0 / 1.1]
    for peak, want in zip(peaks, expected):
        assert peak == pytest.approx(want, abs=1e-12)
    assert peaks == sorted(peaks)
    assert 1.5 < peaks[2] < 2.0


def test_waterbed_acceleration_grid_monotone_down():
    peaks = _sweep_peaks("acceleration", (100.0, 500.0, 900.0))
    assert peaks == sorted(peaks, reverse=True)
    assert all(p <= 1.0 for p in peaks)


def test_waterbed_monotonicity_dense():
    # with a = alpha*g_dob*Ts, |S| peaks at z = -1: 2/(2 - a) for velocity
    # measurement, rising with a; 2/(2 + a) <= 1 for acceleration, falling
    Ts = 1e-3
    grid = np.linspace(100.0, 1900.0, 20)
    for kind, peak, sign in (("velocity", lambda a: 2.0 / (2.0 - a), 1.0),
                             ("acceleration", lambda a: 2.0 / (2.0 + a), -1.0)):
        peaks = []
        for g_dob in grid:
            cfg = make_cfg(kind, alpha=1.0, g_dob=g_dob, Ts=Ts)
            value = freq_sweep(make_inner_loop(cfg), n_points=256).peak_S.value
            assert value == pytest.approx(peak(cfg.alpha_g * Ts), rel=1e-12), (kind, g_dob)
            peaks.append(value)
        assert all(sign * (b - a) > 0.0 for a, b in zip(peaks, peaks[1:])), kind
        assert kind == "velocity" or max(peaks) <= 1.0
