import math

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
    q_filter,
    velocity_estimator,
)
from dobkit.zalg import DomainMismatchError, RationalTF, poly_roots, tf_eval

from conftest import make_cfg

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
    with pytest.raises(ValueError):
        PlantParams.from_alpha(-1.0)


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
    assert abs(tf_eval(inner.S, omega=0.0)) < 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sensitivity_pair_identity(kind):
    inner = make_inner_loop(make_cfg(kind, alpha=1.7, g_dob=300.0))
    assert (inner.S + inner.T).almost_equal(RationalTF.one(inner.ts))
    assert inner.S.almost_equal(RationalTF(inner.L.den, inner.L.den + inner.L.num, inner.ts))


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
    assert abs(tf_eval(inner_v.S, at=-1 + 0j)) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(tf_eval(inner_a.S, at=-1 + 0j)) == pytest.approx(0.8, abs=1e-12)


def test_plant_models_attached_per_kind():
    Ts = 1e-3
    assert make_inner_loop(make_cfg("acceleration")).G.almost_equal(RationalTF.one(Ts))
    assert make_inner_loop(make_cfg("velocity")).G.almost_equal(discrete_velocity_plant(Ts))
    assert make_inner_loop(make_cfg("position")).G.almost_equal(discrete_position_plant(Ts))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha,g_dob", [(0.3, 200.0), (1.0, 500.0), (2.5, 700.0)])
def test_compensator_unity_dc_gain(kind, alpha, g_dob):
    inner = make_inner_loop(make_cfg(kind, alpha=alpha, g_dob=g_dob))
    assert tf_eval(inner.C, at=1.0 + 0.0j) == pytest.approx(1.0, abs=1e-10)


def test_velocity_phase_lead_condition():
    # lead exactly when alpha exceeds 1/(1 + g_dob*Ts)
    g_dob, Ts = 500.0, 1e-3
    threshold = 1.0 / (1.0 + g_dob * Ts)
    for alpha in (0.2, 0.5, threshold * 0.98, threshold * 1.02, 1.0, 3.0):
        cfg = make_cfg("velocity", alpha=alpha, g_dob=g_dob, Ts=Ts)
        expected = "lead" if alpha > threshold else "lag"
        assert classify_compensator(cfg) == expected
        # equivalent statement: compensator zero at lower break frequency
        (zero,) = poly_roots(make_inner_loop(cfg).C.num).roots
        (pole,) = poly_roots(make_inner_loop(cfg).C.den).roots
        assert (zero.real > pole.real) == (alpha > threshold)


def test_acceleration_alpha_one_neutral():
    assert classify_compensator(make_cfg("acceleration", alpha=1.0)) == "neutral"
    assert classify_compensator(make_cfg("acceleration", alpha=2.0)) == "lead"
    assert classify_compensator(make_cfg("acceleration", alpha=0.5)) == "lag"


# ---------------------------------------------------------------------------
# continuous baseline
# ---------------------------------------------------------------------------

def test_continuous_alpha_one_compensator_is_unity():
    loop = make_continuous_inner(PlantParams.from_alpha(1.0), 500.0)
    assert loop.C.almost_equal(RationalTF.one(None))


def test_continuous_pole_location():
    loop = make_continuous_inner(PlantParams.from_alpha(2.0), 500.0)
    (pole,) = poly_roots(loop.T.den).roots
    assert pole == pytest.approx(-1000.0, rel=1e-12)


def test_continuous_high_frequency_sensitivity():
    loop = make_continuous_inner(PlantParams.from_alpha(1.0), 500.0)
    assert abs(tf_eval(loop.S, omega=1e9)) == pytest.approx(1.0, abs=1e-6)


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
    assert pd.almost_equal(RationalTF.constant(5000.0, 1e-3))


def test_pd_dc_gain_is_kp():
    pd = make_pd(OuterGains(K_p=5000.0, K_d=25.0), 1e-3)
    assert tf_eval(pd, at=1.0 + 0.0j) == pytest.approx(5000.0, rel=1e-12)


def test_pd_closed_form_coefficients():
    pd = make_pd(OuterGains(K_p=5000.0, K_d=25.0), 1e-3)
    assert pd.almost_equal(RationalTF([-25000.0, 30000.0], [0.0, 1.0], 1e-3))


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
    assert abs(tf_eval(outer.S, omega=0.0)) < 1e-12


def test_outer_loop_alpha_one_acceleration_reduces_to_pd_plant():
    Ts = 1e-3
    inner = make_inner_loop(make_cfg("acceleration", alpha=1.0))
    pd = make_pd(OuterGains(K_p=5000.0, K_d=25.0), Ts)
    outer = make_outer_loop(inner, pd)
    assert inner.C.almost_equal(RationalTF.one(Ts))
    assert outer.L.almost_equal(pd * discrete_position_plant(Ts))


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
# block-diagram consistency: explicit reduction equals the closed forms
# ---------------------------------------------------------------------------

PARAM_GRID = [(0.5, 300.0, 1e-3, 800.0), (1.0, 500.0, 1e-3, 1000.0),
              (2.0, 900.0, 5e-4, 1500.0)]


@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_acceleration_loop_from_blocks(alpha, g_dob, Ts, g_v):
    cfg = make_cfg("acceleration", alpha=alpha, g_dob=g_dob, Ts=Ts)
    inner = make_inner_loop(cfg)
    Q = q_filter(g_dob, Ts)
    one = RationalTF.one(Ts)
    L_blocks = alpha * Q / (one - Q)
    assert L_blocks.almost_equal(inner.L)
    assert (one / (one + L_blocks)).almost_equal(inner.S)
    assert L_blocks.feedback_unity().almost_equal(inner.T)


@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_velocity_loop_from_blocks(alpha, g_dob, Ts, g_v):
    cfg = make_cfg("velocity", alpha=alpha, g_dob=g_dob, Ts=Ts)
    inner = make_inner_loop(cfg)
    Q = q_filter(g_dob, Ts)
    one = RationalTF.one(Ts)
    # observer feedback path: the filter dynamics cancel, leaving a pure gain
    feedback = (g_dob * one - g_dob * Q) / (one - Q)
    L_blocks = alpha * feedback * discrete_velocity_plant(Ts)
    assert L_blocks.almost_equal(inner.L)
    assert L_blocks.feedback_unity().almost_equal(inner.T)


@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_position_loop_from_blocks(alpha, g_dob, Ts, g_v):
    cfg = make_cfg("position", alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
    inner = make_inner_loop(cfg)
    Q = q_filter(g_dob, Ts)
    one = RationalTF.one(Ts)
    feedback = (g_dob * one - g_dob * Q) / (one - Q)
    L_blocks = alpha * feedback * velocity_estimator(g_v, Ts) * discrete_position_plant(Ts)
    assert L_blocks.almost_equal(inner.L)
    assert L_blocks.feedback_unity().almost_equal(inner.T)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha,g_dob,Ts,g_v", PARAM_GRID)
def test_compensator_equals_filtered_sensitivity(kind, alpha, g_dob, Ts, g_v):
    # C = alpha * S / (1 - Q) holds for every measurement kind
    cfg = make_cfg(kind, alpha=alpha, g_dob=g_dob, Ts=Ts, g_v=g_v)
    inner = make_inner_loop(cfg)
    Q = q_filter(g_dob, Ts)
    one = RationalTF.one(Ts)
    assert (alpha * inner.S / (one - Q)).almost_equal(inner.C)
