import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dobkit.loops import (
    DobConfig,
    MeasurementKind,
    OuterGains,
    PlantParams,
    classify_compensator,
    discrete_position_plant,
    discrete_velocity_plant,
    make_continuous_inner,
    make_inner_loop,
    make_outer_loop,
    make_pd,
)
from dobkit.zalg import DomainMismatchError, RationalTF, poly_roots

from conftest import PARAM_GRID, assert_same_tf, at, degree, exact_inner_C, make_cfg

ALL_KINDS = list(MeasurementKind)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_alpha_is_derived_from_factors():
    plant = PlantParams(J_m=0.003, K_t=0.25, J_mn=0.006, K_tn=0.5)
    assert plant.alpha == pytest.approx(4.0)
    assert PlantParams.from_alpha(2.5).alpha == pytest.approx(2.5)


def test_plant_params_must_be_positive():
    with pytest.raises(ValueError):
        PlantParams(J_m=0.0, K_t=0.25, J_mn=0.003, K_tn=0.25)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            PlantParams.from_alpha(alpha)


def test_position_kind_requires_gv():
    with pytest.raises(ValueError):
        DobConfig(kind=MeasurementKind.POSITION,
                  plant=PlantParams.from_alpha(1.0), g_dob=500.0, Ts=1e-3)


def test_beta_is_derived():
    cfg = make_cfg("position", alpha=2.0, Ts=1e-3, g_v=750.0)
    assert cfg.beta == pytest.approx(0.5 * 2.0 * 1e-6)


def test_outer_gains_validation():
    with pytest.raises(ValueError):
        OuterGains(K_p=0.0, K_d=1.0)
    with pytest.raises(ValueError):
        OuterGains(K_p=1.0, K_d=-1.0)
    OuterGains(K_p=1.0, K_d=0.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["J_m", "K_t", "J_mn", "K_tn"])
def test_plant_params_reject_non_finite(name, value):
    params = dict(J_m=0.003, K_t=0.25, J_mn=0.003, K_tn=0.25)
    params[name] = value
    with pytest.raises(ValueError):
        PlantParams(**params)


@pytest.mark.parametrize("params", [
    dict(J_m=0.003, K_t=1e300, J_mn=1e300, K_tn=1e300),   # J_mn*K_tn overflows
    dict(J_m=1e-300, K_t=1e-300, J_mn=0.003, K_tn=0.25),  # J_m*K_t underflows
    dict(J_m=1e-200, K_t=0.25, J_mn=1e200, K_tn=0.25),    # alpha overflows
])
def test_plant_params_reject_unrepresentable_alpha(params):
    with pytest.raises(ValueError):
        PlantParams(**params)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["g_dob", "Ts", "g_v"])
def test_dob_config_rejects_non_finite(name, value):
    params = dict(kind="position", plant=PlantParams.from_alpha(1.0),
                  g_dob=500.0, Ts=1e-3, g_v=1000.0)
    params[name] = value
    with pytest.raises(ValueError):
        DobConfig(**params)


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("kind", ["acceleration", "velocity", "position"])
def test_dob_config_rejects_non_positive_g_v_for_every_kind(kind, value):
    with pytest.raises(ValueError, match="g_v"):
        DobConfig(kind=kind, plant=PlantParams.from_alpha(1.0), g_dob=500.0, Ts=1e-3, g_v=value)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["K_p", "K_d"])
def test_outer_gains_reject_non_finite(name, value):
    params = dict(K_p=1.0, K_d=1.0)
    params[name] = value
    with pytest.raises(ValueError):
        OuterGains(**params)


# ---------------------------------------------------------------------------
# inner-loop closed forms
# ---------------------------------------------------------------------------

def test_velocity_inner_pole():
    inner = make_inner_loop(make_cfg("velocity"))
    (pole,) = poly_roots(inner.T.den).roots
    assert pole == pytest.approx(0.5, abs=1e-12)


def test_acceleration_inner_pole():
    inner = make_inner_loop(make_cfg("acceleration"))
    (pole,) = poly_roots(inner.T.den).roots
    assert pole == pytest.approx(1.0 / 1.5, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sensitivity_vanishes_at_dc(kind):
    inner = make_inner_loop(make_cfg(kind))
    assert abs(at(inner.S)(1.0)) < 1e-14  # z = exp(j*0*Ts) = 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sensitivity_pair_identity(kind):
    inner = make_inner_loop(make_cfg(kind, alpha=1.7, g_dob=300.0))
    T, L = at(inner.T), at(inner.L)
    assert_same_tf(inner.S, lambda z: 1.0 - T(z), degree(inner.T))
    assert_same_tf(inner.S, lambda z: 1.0 / (1.0 + L(z)), degree(inner.L))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ALL_KINDS),
    st.floats(0.01, 100.0),
    st.floats(1.0, 1e5),
    st.floats(1e-5, 1e-2),
    st.floats(1.0, 1e5),
    st.floats(1.0, 1e5),
    st.floats(0.0, 1e3),
)
def test_sensitivity_pair_sums_to_one_exactly_on_generated_loops(kind, alpha, g_dob, Ts, g_v,
                                                                 K_p, K_d):
    inner = make_inner_loop(make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v))
    outer = make_outer_loop(inner, make_pd(OuterGains(K_p=K_p, K_d=K_d), Ts))
    for loop in (inner, outer):
        assert np.array_equal((loop.S.num + loop.T.num).coeffs, loop.S.den.coeffs)


def test_nyquist_magnitudes():
    inner_v = make_inner_loop(make_cfg("velocity"))
    inner_a = make_inner_loop(make_cfg("acceleration"))
    assert abs(at(inner_v.S)(-1.0)) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(at(inner_a.S)(-1.0)) == pytest.approx(0.8, abs=1e-12)


def test_sampled_plant_models():
    Ts = 1e-3
    models = (
        (discrete_velocity_plant(Ts), lambda z: Ts / (z - 1.0), 1),
        (discrete_position_plant(Ts), lambda z: Ts * Ts * (z + 1.0) / (2.0 * (z - 1.0) ** 2), 2),
    )
    for model, G, n in models:
        assert model.ts == Ts
        assert_same_tf(model, G, n)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha,g_dob", [(0.3, 200.0), (1.0, 500.0), (2.5, 700.0)])
def test_compensator_unity_dc_gain(kind, alpha, g_dob):
    inner = make_inner_loop(make_cfg(kind, alpha=alpha, g_dob=g_dob))
    assert at(inner.C)(1.0) == pytest.approx(1.0, abs=1e-10)


def _lead_threshold(kind, g_dob, Ts, g_v):
    """The alpha above which C leads at low frequency."""
    if kind is MeasurementKind.ACCELERATION:
        return 1.0
    if kind is MeasurementKind.VELOCITY:
        return 1.0 / (1.0 + g_dob * Ts)
    return g_v / (g_dob + g_v + 1.5 * g_dob * g_v * Ts)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phase_lead_condition(kind):
    # lead exactly when alpha exceeds the kind's closed-form threshold
    g_dob, Ts, g_v = 500.0, 1e-3, 1000.0
    threshold = _lead_threshold(kind, g_dob, Ts, g_v)
    for alpha in (0.2, threshold * 0.98, threshold * 1.02, 3.0):
        cfg = make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
        expected = "lead" if alpha > threshold else "lag"
        assert classify_compensator(cfg) == expected
        if kind is not MeasurementKind.POSITION:
            # equivalent statement for a first-order C: its zero breaks at the
            # lower frequency
            (zero,) = poly_roots(make_inner_loop(cfg).C.num).roots
            (pole,) = poly_roots(make_inner_loop(cfg).C.den).roots
            assert (zero.real > pole.real) == (alpha > threshold)


# One config per kind whose alpha is exactly at its threshold, in floats.
EXACT_NEUTRAL = {
    "acceleration": dict(plant=PlantParams.from_alpha(1.0), g_dob=500.0, Ts=1e-3),
    "velocity": dict(plant=PlantParams.from_alpha(0.5), g_dob=2.0**10, Ts=2.0**-10),
    # alpha = 2/7, which no float holds
    "position": dict(plant=PlantParams(J_m=7.0, K_t=1.0, J_mn=2.0, K_tn=1.0),
                     g_dob=2.0**10, Ts=2.0**-10, g_v=2.0**10),
}


@pytest.mark.parametrize("kind", EXACT_NEUTRAL)
def test_exact_threshold_is_neutral(kind):
    cfg = DobConfig(kind=kind, **EXACT_NEUTRAL[kind])
    assert classify_compensator(cfg) == "neutral"
    # one ulp of the nominal inertia either way decides the class
    J_mn = cfg.plant.J_mn
    for J, expected in ((math.nextafter(J_mn, math.inf), "lead"), (math.nextafter(J_mn, 0.0), "lag")):
        plant = dataclasses.replace(cfg.plant, J_mn=J)
        assert classify_compensator(dataclasses.replace(cfg, plant=plant)) == expected


def test_fast_sampling_position_compensator_leads():
    # alpha is 22 times its threshold. The class is the low-frequency limit:
    # at 1e-4*pi/Ts = 1047 rad/s, among C's corners (g_v = 100 and
    # g_dob = 1000 rad/s), C's phase is already negative.
    cfg = make_cfg("position", alpha=2.0, g_dob=1000.0, Ts=3e-7, g_v=100.0)
    assert cfg.alpha > 22.0 * _lead_threshold(cfg.kind, cfg.g_dob, cfg.Ts, cfg.g_v)
    assert classify_compensator(cfg) == "lead"


def _exact_slope_sign(cfg) -> str:
    """The class from the sign of N'(1) D(1) - N(1) D'(1) of the exact C = N/D."""
    N, D = exact_inner_C(cfg)
    slope = lambda c: sum(k * x for k, x in enumerate(c))  # d/dz at z = 1
    s = slope(N) * sum(D) - sum(N) * slope(D)
    return "lead" if s > 0 else "lag" if s < 0 else "neutral"


def test_compensator_class_is_the_exact_model_slope_sign():
    # half of the configs lie within 1e-3 relative of the threshold, down to
    # 1e-15, where the class turns on the last bits of the inputs
    rng = random.Random(20240)
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
    for i in range(3000):
        kind = ALL_KINDS[i % 3]
        g_dob, Ts, g_v = log_uniform(50.0, 5e3), log_uniform(1e-7, 1e-2), log_uniform(100.0, 1e4)
        if i % 2:
            offset = math.copysign(10.0 ** rng.uniform(-15.0, -3.0), rng.random() - 0.5)
            alpha = _lead_threshold(kind, g_dob, Ts, g_v) * (1.0 + offset)
        else:
            alpha = log_uniform(0.1, 10.0)
        cfg = make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v,
                       J_m=log_uniform(1e-4, 1e-1), K_t=log_uniform(0.05, 5.0))
        assert classify_compensator(cfg) == _exact_slope_sign(cfg), cfg


# ---------------------------------------------------------------------------
# continuous baseline
# ---------------------------------------------------------------------------

def test_continuous_alpha_one_compensator_is_unity():
    loop = make_continuous_inner(PlantParams.from_alpha(1.0), 500.0)
    assert_same_tf(loop.C, lambda s: 1.0, 0)


def test_continuous_pole_location():
    loop = make_continuous_inner(PlantParams.from_alpha(2.0), 500.0)
    (pole,) = poly_roots(loop.T.den).roots
    assert pole == pytest.approx(-1000.0, rel=1e-12)


def test_continuous_high_frequency_sensitivity():
    loop = make_continuous_inner(PlantParams.from_alpha(1.0), 500.0)
    assert abs(at(loop.S)(1e9j)) == pytest.approx(1.0, abs=1e-6)  # s = j*omega


@pytest.mark.parametrize("value", [*NON_FINITE, 0.0, -1.0])
def test_continuous_inner_rejects_non_finite_gain(value):
    with pytest.raises(ValueError, match="g_dob"):
        make_continuous_inner(PlantParams.from_alpha(1.0), value)


@pytest.mark.parametrize("kind, Ts, g_dob", [
    # finite and positive parameters whose loop coefficients overflow
    ("position", 1e300, 500.0),
    ("velocity", 1e300, 1e10),
    ("acceleration", 1e300, 1e10),
])
def test_overflowing_loop_coefficients_raise(kind, Ts, g_dob):
    with pytest.raises(OverflowError):
        make_inner_loop(make_cfg(kind, g_dob=g_dob, Ts=Ts))


def test_discrete_pole_matches_continuous_decay():
    # 1 - a*Ts approximates exp(-a*Ts) to second order
    for x in (0.01, 0.1, 0.3, 0.5):
        assert abs((1.0 - x) - math.exp(-x)) < 0.5 * x * x


# ---------------------------------------------------------------------------
# PD controller
# ---------------------------------------------------------------------------

def test_pd_pure_proportional():
    pd = make_pd(OuterGains(K_p=5000.0, K_d=0.0), 1e-3)
    assert_same_tf(pd, lambda z: 5000.0, 0)


def test_pd_dc_gain_is_kp():
    pd = make_pd(OuterGains(K_p=5000.0, K_d=25.0), 1e-3)
    assert at(pd)(1.0) == pytest.approx(5000.0, rel=1e-12)


def test_pd_closed_form_coefficients():
    pd = make_pd(OuterGains(K_p=5000.0, K_d=25.0), 1e-3)
    assert pd.ts == 1e-3
    assert_same_tf(pd, RationalTF([-25000.0, 30000.0], [0.0, 1.0], 1e-3))
    # K_p + K_d (z - 1) / (Ts z)
    assert_same_tf(pd, lambda z: 5000.0 + 25.0 * (z - 1.0) / (1e-3 * z), 1)


@pytest.mark.parametrize("value", [*NON_FINITE, 0.0, -1e-3])
def test_pd_rejects_non_finite_sampling_time(value):
    with pytest.raises(ValueError, match="Ts"):
        make_pd(OuterGains(K_p=5000.0, K_d=25.0), value)


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_outer_sensitivity_vanishes_at_dc(kind):
    inner = make_inner_loop(make_cfg(kind))
    outer = make_outer_loop(inner, make_pd(OuterGains(K_p=5000.0, K_d=25.0), 1e-3))
    assert abs(at(outer.S)(1.0)) < 1e-12  # z = exp(j*0*Ts) = 1


def test_outer_loop_alpha_one_acceleration_reduces_to_pd_plant():
    Ts = 1e-3
    inner = make_inner_loop(make_cfg("acceleration", alpha=1.0))
    pd = make_pd(OuterGains(K_p=5000.0, K_d=25.0), Ts)
    outer = make_outer_loop(inner, pd)
    G_p = discrete_position_plant(Ts)
    assert_same_tf(inner.C, lambda z: 1.0, 0)
    assert_same_tf(outer.L, lambda z: at(pd)(z) * at(G_p)(z), degree(pd) + degree(G_p))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_locus_parameter_set_stable_at_alpha_one(kind, locus_gains):
    cfg = make_cfg(kind, alpha=1.0, g_dob=500.0, Ts=1e-3, g_v=1000.0)
    outer = make_outer_loop(make_inner_loop(cfg), make_pd(locus_gains, 1e-3))
    poles = poly_roots(outer.L.den + outer.L.num).roots
    assert max(abs(p) for p in poles) < 1.0


def test_outer_loop_domain_checks():
    inner = make_inner_loop(make_cfg("velocity", Ts=1e-3))
    with pytest.raises(DomainMismatchError):
        make_outer_loop(inner, make_pd(OuterGains(K_p=100.0, K_d=1.0), 2e-3))


# ---------------------------------------------------------------------------
# open-loop poles, written from the factors
# ---------------------------------------------------------------------------

def _assert_poles_of(loop, rel=1e-14):
    """leading * prod(z - p) over the loop's poles is den(L); complex poles pair up."""
    den = loop.L.den.coeffs
    assert len(loop.poles) == loop.L.den.degree
    rebuilt = loop.L.den.leading * np.poly(loop.poles)[::-1]
    assert np.max(np.abs(rebuilt - den)) <= rel * np.max(np.abs(den))
    for p in loop.poles:
        if isinstance(p, complex) and p.imag != 0.0:
            assert loop.poles.count(p.conjugate()) == loop.poles.count(p)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), _log_uniform(0.1, 10.0), _log_uniform(50.0, 5000.0),
       _log_uniform(1e-4, 1e-2), _log_uniform(100.0, 1e4), _log_uniform(400.0, 4e4),
       _log_uniform(5.0, 500.0))
def test_loop_poles_are_the_roots_of_the_open_loop_denominator(kind, alpha, g_dob, Ts, g_v,
                                                               K_p, K_d):
    inner = make_inner_loop(make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v))
    outer = make_outer_loop(inner, make_pd(OuterGains(K_p, K_d), Ts))
    _assert_poles_of(inner)
    _assert_poles_of(outer)
    # one integrator in the inner loop; the position plant adds two
    assert inner.poles.count(1.0) == 1 and outer.poles.count(1.0) == 2


@pytest.mark.parametrize("g_dob, Ts, g_v", [(1.0, 1e10, 1e150), (1e100, 1e-10, 1e150),
                                            (1e300, 1e-10, 1.0)])
def test_loop_poles_of_extreme_position_loops_are_finite(g_dob, Ts, g_v):
    # the compensator's quadratic has coefficients beyond 1e154, whose
    # squares in its discriminant would overflow unless scaled
    inner = make_inner_loop(make_cfg("position", g_dob=g_dob, Ts=Ts, g_v=g_v))
    outer = make_outer_loop(inner, make_pd(OuterGains(4000.0, 200.0), Ts))
    assert all(math.isfinite(abs(p)) for p in outer.poles)
    _assert_poles_of(outer, rel=1e-12)


def test_continuous_and_pd_poles():
    assert make_continuous_inner(PlantParams.from_alpha(1.0), 500.0).poles == (0.0,)
    inner = make_inner_loop(make_cfg("velocity"))
    pd_pole = make_outer_loop(inner, make_pd(OuterGains(1.0, 1.0), 1e-3)).poles[0]
    assert pd_pole == 0.0 and math.copysign(1.0, pd_pole) == 1.0  # +0.0, not -0.0


def test_outer_loop_refuses_a_controller_without_closed_form_poles():
    inner = make_inner_loop(make_cfg("velocity"))
    third_order = RationalTF([1.0], [0.1, 0.2, 0.3, 1.0], 1e-3)
    with pytest.raises(ValueError, match="poles given"):
        make_outer_loop(inner, third_order)


# ---------------------------------------------------------------------------
# block-diagram consistency: the closed forms equal the block compositions,
# evaluated pointwise in complex arithmetic
# ---------------------------------------------------------------------------

# The two first-order filters, written out here rather than taken from the
# constructors' shared denominator factor.
def q_filter(g_dob: float, Ts: float) -> RationalTF:
    """Observer low-pass Q(z) = g*Ts*z / ((1 + g*Ts) z - 1)."""
    a = g_dob * Ts
    return RationalTF([0.0, a], [-1.0, 1.0 + a], Ts)


def velocity_estimator(g_v: float, Ts: float) -> RationalTF:
    """Pseudo-velocity filter V(z) = g_v (z - 1) / ((1 + g_v*Ts) z - 1)."""
    return RationalTF([-g_v, g_v], [-1.0, 1.0 + g_v * Ts], Ts)


@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_acceleration_loop_from_blocks(alpha, g_dob, Ts, g_v):
    cfg = make_cfg("acceleration", alpha=alpha, g_dob=g_dob, Ts=Ts)
    inner = make_inner_loop(cfg)
    block = q_filter(g_dob, Ts)
    Q = at(block)

    def L(z):
        return alpha * Q(z) / (1.0 - Q(z))

    n = degree(block)
    assert_same_tf(inner.L, L, n)
    assert_same_tf(inner.S, lambda z: 1.0 / (1.0 + L(z)), n)
    assert_same_tf(inner.T, lambda z: L(z) / (1.0 + L(z)), n)


@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_velocity_loop_from_blocks(alpha, g_dob, Ts, g_v):
    cfg = make_cfg("velocity", alpha=alpha, g_dob=g_dob, Ts=Ts)
    inner = make_inner_loop(cfg)
    blocks = (q_filter(g_dob, Ts), discrete_velocity_plant(Ts))
    Q, G = map(at, blocks)

    def L(z):
        # observer feedback path: the filter dynamics cancel, leaving a pure gain
        feedback = (g_dob - g_dob * Q(z)) / (1.0 - Q(z))
        return alpha * feedback * G(z)

    n = sum(map(degree, blocks))
    assert_same_tf(inner.L, L, n)
    assert_same_tf(inner.S, lambda z: 1.0 / (1.0 + L(z)), n)
    assert_same_tf(inner.T, lambda z: L(z) / (1.0 + L(z)), n)


@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_position_loop_from_blocks(alpha, g_dob, Ts, g_v):
    cfg = make_cfg("position", alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
    inner = make_inner_loop(cfg)
    blocks = (q_filter(g_dob, Ts), velocity_estimator(g_v, Ts), discrete_position_plant(Ts))
    Q, V, G = map(at, blocks)

    def L(z):
        feedback = (g_dob - g_dob * Q(z)) / (1.0 - Q(z))
        return alpha * feedback * V(z) * G(z)

    n = sum(map(degree, blocks))
    assert_same_tf(inner.L, L, n)
    assert_same_tf(inner.S, lambda z: 1.0 / (1.0 + L(z)), n)
    assert_same_tf(inner.T, lambda z: L(z) / (1.0 + L(z)), n)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_compensator_equals_filtered_sensitivity(kind, alpha, g_dob, Ts, g_v):
    # C = alpha * S / (1 - Q) holds for every measurement kind
    cfg = make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
    inner = make_inner_loop(cfg)
    blocks = (inner.S, q_filter(g_dob, Ts))
    S, Q = map(at, blocks)
    assert_same_tf(inner.C, lambda z: alpha * S(z) / (1.0 - Q(z)), sum(map(degree, blocks)))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_outer_loop_from_blocks(kind, alpha, g_dob, Ts, g_v, locus_gains):
    # L = pd * C * G_p, closed by unity feedback on position
    inner = make_inner_loop(make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v))
    blocks = (make_pd(locus_gains, Ts), inner.C, discrete_position_plant(Ts))
    outer = make_outer_loop(inner, blocks[0])
    pd, C, G = map(at, blocks)

    def L(z):
        return pd(z) * C(z) * G(z)

    n = sum(map(degree, blocks))
    assert_same_tf(outer.L, L, n)
    assert_same_tf(outer.S, lambda z: 1.0 / (1.0 + L(z)), n)
    assert_same_tf(outer.T, lambda z: L(z) / (1.0 + L(z)), n)


# ---------------------------------------------------------------------------
# stored coefficients, bit for bit
# ---------------------------------------------------------------------------

# float.hex of the coefficients (ascending, space-separated) of each loop's
# L, S, T and C (num, den), and of its poles ("re,im" for a complex one),
# for the README regulation configuration: J_m = J_mn = 0.003, K_t = K_tn =
# 0.25, g_dob = 1000, Ts = 0.5 ms, g_v = 2000 (position), K_p = 4000, K_d = 200.
REGULATION_HEX = {
    ('acceleration', 'inner'): {
        'L': ('0x0.0p+0 0x1.0000000000000p-1',
              '-0x1.0000000000000p+0 0x1.0000000000000p+0'),
        'S': ('-0x1.0000000000000p+0 0x1.0000000000000p+0',
              '-0x1.0000000000000p+0 0x1.8000000000000p+0'),
        'T': ('0x0.0p+0 0x1.0000000000000p-1',
              '-0x1.0000000000000p+0 0x1.8000000000000p+0'),
        'C': ('-0x1.0000000000000p+0 0x1.8000000000000p+0',
              '-0x1.0000000000000p+0 0x1.8000000000000p+0'),
        'poles': '0x1.0000000000000p+0',
    },
    ('acceleration', 'outer'): {
        'L': ('0x1.9999999999999p-5 -0x1.353f7ced91688p-4 -0x1.978d4fdf3b646p-5 '
              '0x1.3645a1cac0831p-4',
              '0x0.0p+0 -0x1.0000000000000p+0 0x1.c000000000000p+1 -0x1.0000000000000p+2 '
              '0x1.8000000000000p+0'),
        'S': ('0x0.0p+0 -0x1.0000000000000p+0 0x1.c000000000000p+1 -0x1.0000000000000p+2 '
              '0x1.8000000000000p+0',
              '0x1.9999999999999p-5 -0x1.1353f7ced9168p+0 0x1.b9a1cac083127p+1 '
              '-0x1.f64dd2f1a9fbep+1 0x1.8000000000000p+0'),
        'T': ('0x1.9999999999999p-5 -0x1.353f7ced91688p-4 -0x1.978d4fdf3b646p-5 '
              '0x1.3645a1cac0831p-4',
              '0x1.9999999999999p-5 -0x1.1353f7ced9168p+0 0x1.b9a1cac083127p+1 '
              '-0x1.f64dd2f1a9fbep+1 0x1.8000000000000p+0'),
        'C': ('0x1.0000000000000p+0',
              '0x1.0000000000000p+0'),
        'poles': '0x0.0p+0 0x1.5555555555555p-1 0x1.0000000000000p+0 0x1.0000000000000p+0',
    },
    ('velocity', 'inner'): {
        'L': ('0x1.0000000000000p-1',
              '-0x1.0000000000000p+0 0x1.0000000000000p+0'),
        'S': ('-0x1.0000000000000p+0 0x1.0000000000000p+0',
              '-0x1.0000000000000p-1 0x1.0000000000000p+0'),
        'T': ('0x1.0000000000000p-1',
              '-0x1.0000000000000p-1 0x1.0000000000000p+0'),
        'C': ('-0x1.0000000000000p+0 0x1.8000000000000p+0',
              '-0x1.0000000000000p-1 0x1.0000000000000p+0'),
        'poles': '0x1.0000000000000p+0',
    },
    ('velocity', 'outer'): {
        'L': ('0x1.9999999999999p-5 -0x1.353f7ced91688p-4 -0x1.978d4fdf3b646p-5 '
              '0x1.3645a1cac0831p-4',
              '0x0.0p+0 -0x1.0000000000000p-1 0x1.0000000000000p+1 -0x1.4000000000000p+1 '
              '0x1.0000000000000p+0'),
        'S': ('0x0.0p+0 -0x1.0000000000000p-1 0x1.0000000000000p+1 -0x1.4000000000000p+1 '
              '0x1.0000000000000p+0',
              '0x1.9999999999999p-5 -0x1.26a7ef9db22d1p-1 0x1.f34395810624ep+0 '
              '-0x1.364dd2f1a9fbep+1 0x1.0000000000000p+0'),
        'T': ('0x1.9999999999999p-5 -0x1.353f7ced91688p-4 -0x1.978d4fdf3b646p-5 '
              '0x1.3645a1cac0831p-4',
              '0x1.9999999999999p-5 -0x1.26a7ef9db22d1p-1 0x1.f34395810624ep+0 '
              '-0x1.364dd2f1a9fbep+1 0x1.0000000000000p+0'),
        'C': ('0x1.0000000000000p+0',
              '0x1.0000000000000p+0'),
        'poles': '0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0 0x1.0000000000000p+0',
    },
    ('position', 'inner'): {
        'L': ('0x1.0000000000000p-2 0x1.0000000000000p-2',
              '0x1.0000000000000p+0 -0x1.8000000000000p+1 0x1.0000000000000p+1'),
        'S': ('0x1.0000000000000p+0 -0x1.8000000000000p+1 0x1.0000000000000p+1',
              '0x1.4000000000000p+0 -0x1.6000000000000p+1 0x1.0000000000000p+1'),
        'T': ('0x1.0000000000000p-2 0x1.0000000000000p-2',
              '0x1.4000000000000p+0 -0x1.6000000000000p+1 0x1.0000000000000p+1'),
        'C': ('0x1.0000000000000p+0 -0x1.c000000000000p+1 0x1.8000000000000p+1',
              '0x1.4000000000000p+0 -0x1.6000000000000p+1 0x1.0000000000000p+1'),
        'poles': '0x1.0000000000000p+0 0x1.0000000000000p-1',
    },
    ('position', 'outer'): {
        'L': ('-0x1.9999999999999p-5 0x1.676c8b4395810p-3 -0x1.9eb851eb851ecp-4 '
              '-0x1.66e978d4fdf3bp-3 0x1.3645a1cac0831p-3',
              '0x0.0p+0 0x1.4000000000000p+0 -0x1.5000000000000p+2 0x1.1800000000000p+3 '
              '-0x1.b000000000000p+2 0x1.0000000000000p+1'),
        'S': ('0x0.0p+0 0x1.4000000000000p+0 -0x1.5000000000000p+2 0x1.1800000000000p+3 '
              '-0x1.b000000000000p+2 0x1.0000000000000p+1',
              '-0x1.9999999999999p-5 0x1.6ced916872b02p+0 -0x1.567ae147ae148p+2 '
              '0x1.12645a1cac083p+3 -0x1.a64dd2f1a9fbep+2 0x1.0000000000000p+1'),
        'T': ('-0x1.9999999999999p-5 0x1.676c8b4395810p-3 -0x1.9eb851eb851ecp-4 '
              '-0x1.66e978d4fdf3bp-3 0x1.3645a1cac0831p-3',
              '-0x1.9999999999999p-5 0x1.6ced916872b02p+0 -0x1.567ae147ae148p+2 '
              '0x1.12645a1cac083p+3 -0x1.a64dd2f1a9fbep+2 0x1.0000000000000p+1'),
        'C': ('0x1.0000000000000p+0',
              '0x1.0000000000000p+0'),
        'poles': '0x0.0p+0 0x1.6000000000000p-1,0x1.8fae0c15ad38bp-2 '
                 '0x1.6000000000000p-1,-0x1.8fae0c15ad38bp-2 0x1.0000000000000p+0 '
                 '0x1.0000000000000p+0',
    },
}


def _hex_of(loop) -> dict:
    def hexes(p):
        assert all(type(x) is float for x in p._c), p
        return " ".join(map(float.hex, p._c))

    def pole(z):
        return float.hex(z) if isinstance(z, float) else f"{z.real.hex()},{z.imag.hex()}"

    out = {tf: (hexes(getattr(loop, tf).num), hexes(getattr(loop, tf).den)) for tf in "LSTC"}
    out["poles"] = " ".join(map(pole, loop.poles))
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_regulation_loop_coefficients_are_pinned(kind):
    # every stored coefficient is a Python float with exactly these bits
    cfg = DobConfig(kind, PlantParams(J_m=0.003, K_t=0.25, J_mn=0.003, K_tn=0.25),
                    g_dob=1000.0, Ts=0.0005,
                    g_v=2000.0 if kind is MeasurementKind.POSITION else None)
    inner = make_inner_loop(cfg)
    outer = make_outer_loop(inner, make_pd(OuterGains(K_p=4000.0, K_d=200.0), 0.0005))
    assert _hex_of(inner) == REGULATION_HEX[(kind.value, "inner")]
    assert _hex_of(outer) == REGULATION_HEX[(kind.value, "outer")]
