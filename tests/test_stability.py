import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dobkit import stability
from dobkit.loops import make_inner_loop, make_outer_loop, make_pd
from dobkit.stability import (
    UNIT_CIRCLE_TOL,
    BindingConstraint,
    bisect_threshold,
    classify_poles,
    config_for_sweep,
    constraint_check,
    position_non_osc_bound,
    root_locus,
)
from dobkit.zalg import Polynomial, RationalTF, poly_roots, schur_stable

from conftest import make_cfg


# ---------------------------------------------------------------------------
# closed-form constraint checks
# ---------------------------------------------------------------------------

def test_velocity_below_both_bounds():
    verdict = constraint_check(make_cfg("velocity", alpha=1.0, g_dob=999.0, Ts=1e-3))
    assert verdict.stable and verdict.non_oscillatory
    assert verdict.binding_constraint is BindingConstraint.VELOCITY_NON_OSC
    assert verdict.margin == pytest.approx(1.0)


def test_velocity_oscillatory_band():
    verdict = constraint_check(make_cfg("velocity", alpha=1.0, g_dob=1500.0, Ts=1e-3))
    assert verdict.stable and not verdict.non_oscillatory
    assert verdict.binding_constraint is BindingConstraint.VELOCITY_NON_OSC
    assert verdict.margin == pytest.approx(-500.0)


def test_velocity_unstable():
    verdict = constraint_check(make_cfg("velocity", alpha=1.0, g_dob=2001.0, Ts=1e-3))
    assert not verdict.stable and not verdict.non_oscillatory
    assert verdict.binding_constraint is BindingConstraint.STABILITY_LIMIT
    assert verdict.margin == pytest.approx(-1.0, abs=1e-9)


def test_acceleration_always_fine():
    for alpha, g in ((0.01, 10.0), (1.0, 1e4), (500.0, 1e5)):
        verdict = constraint_check(make_cfg("acceleration", alpha=alpha, g_dob=g))
        assert verdict.stable and verdict.non_oscillatory
        assert verdict.binding_constraint is BindingConstraint.NONE
        assert verdict.margin == math.inf


def test_position_non_osc_bound_value():
    # g_v = 750 rad/s, Ts = 1 ms: bound near 120.4 rad/s
    bound = position_non_osc_bound(750.0, 1e-3)
    assert bound == pytest.approx(120.43513867885703, rel=1e-12)
    below = constraint_check(make_cfg("position", alpha=1.0, g_dob=bound * 0.99,
                                      Ts=1e-3, g_v=750.0))
    above = constraint_check(make_cfg("position", alpha=1.0, g_dob=bound * 1.01,
                                      Ts=1e-3, g_v=750.0))
    assert below.non_oscillatory and not above.non_oscillatory
    assert above.stable
    assert above.binding_constraint is BindingConstraint.POSITION_NON_OSC


def test_position_bound_verified_by_roots():
    # just below the bound every pole is real in (0,1); just above they are not
    bound = position_non_osc_bound(750.0, 1e-3)
    for factor, expected in ((0.999, True), (1.001, False)):
        cfg = make_cfg("position", alpha=1.0, g_dob=bound * factor, Ts=1e-3, g_v=750.0)
        assert classify_poles(make_inner_loop(cfg).T).all_real_in_0_1 is expected


def test_experimental_threshold_is_marginal():
    # alpha*g_dob*Ts = 2 exactly at alpha=4, g=1000, Ts=0.5 ms
    at4 = constraint_check(make_cfg("velocity", alpha=4.0, g_dob=1000.0, Ts=0.5e-3))
    assert not at4.stable
    assert abs(at4.margin) < 1e-9
    assert not constraint_check(
        make_cfg("velocity", alpha=4.01, g_dob=1000.0, Ts=0.5e-3)).stable
    assert not constraint_check(
        make_cfg("position", alpha=4.01, g_dob=1000.0, Ts=0.5e-3, g_v=2000.0)).stable


# ---------------------------------------------------------------------------
# pole classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,in_unit,real01",
    [(0.5, True, True), (1.5, True, False), (2.5, False, False)],
)
def test_velocity_pole_classification(x, in_unit, real01):
    cfg = make_cfg("velocity", alpha=1.0, g_dob=x / 1e-3, Ts=1e-3)
    cls = classify_poles(make_inner_loop(cfg).T)
    assert cls.all_in_unit is in_unit
    assert cls.all_real_in_0_1 is real01
    assert cls.max_mag == pytest.approx(abs(1.0 - x), abs=1e-12)


def test_velocity_pole_exactly_at_minus_one_is_not_stable():
    # alpha*g_dob*Ts = 2 puts the velocity inner pole 1 - alpha*g_dob*Ts on z = -1
    inner = make_inner_loop(make_cfg("velocity", alpha=1.0, g_dob=2000.0, Ts=1e-3))
    assert inner.T.den.coeffs.tolist() == [1.0, 1.0]
    assert not schur_stable(inner.T.den)
    poles = classify_poles(inner.T)
    assert poles.max_mag == 1.0
    assert not poles.all_in_unit


def test_all_in_unit_keeps_the_unit_circle_tolerance():
    near = Polynomial([-(1.0 - 0.5 * UNIT_CIRCLE_TOL), 1.0])
    clear = Polynomial([-(1.0 - 2.0 * UNIT_CIRCLE_TOL), 1.0])
    assert schur_stable(near) and not schur_stable(near, 1.0 - UNIT_CIRCLE_TOL)
    assert schur_stable(clear, 1.0 - UNIT_CIRCLE_TOL)
    assert not classify_poles(RationalTF([1.0], near, 1e-3)).all_in_unit
    assert classify_poles(RationalTF([1.0], clear, 1e-3)).all_in_unit
    # a conjugate pair inside by half the tolerance
    r = 1.0 - 0.5 * UNIT_CIRCLE_TOL
    pair = RationalTF([1.0], np.poly([0.6 * r + 0.8j * r, 0.6 * r - 0.8j * r])[::-1], 1e-3)
    assert not classify_poles(pair).all_in_unit


def test_classify_requires_discrete():
    from dobkit.loops import PlantParams, make_continuous_inner

    with pytest.raises(ValueError):
        classify_poles(make_continuous_inner(PlantParams.from_alpha(1.0), 100.0).T)


def test_constant_tf_classifies_trivially():
    from dobkit.zalg import RationalTF

    cls = classify_poles(RationalTF.constant(2.0, 1e-3))
    assert cls.max_mag == 0.0 and cls.all_in_unit and cls.all_real_in_0_1


# ---------------------------------------------------------------------------
# formula / root agreement
# ---------------------------------------------------------------------------

def test_velocity_formula_root_agreement():
    rng = np.random.default_rng(12345)
    for _ in range(200):
        alpha = rng.uniform(0.05, 5.0)
        g_dob = rng.uniform(10.0, 3000.0 / alpha)
        cfg = make_cfg("velocity", alpha=alpha, g_dob=g_dob, Ts=1e-3)
        verdict = constraint_check(cfg)
        cls = classify_poles(make_inner_loop(cfg).T)
        assert verdict.stable == cls.all_in_unit
        assert verdict.non_oscillatory == cls.all_real_in_0_1


def test_position_formula_root_agreement():
    rng = np.random.default_rng(54321)
    for _ in range(200):
        alpha = rng.uniform(0.05, 4.0)
        g_v = rng.uniform(200.0, 3000.0)
        g_dob = rng.uniform(5.0, 2500.0 / alpha)
        cfg = make_cfg("position", alpha=alpha, g_dob=g_dob, Ts=1e-3, g_v=g_v)
        verdict = constraint_check(cfg)
        cls = classify_poles(make_inner_loop(cfg).T)
        assert verdict.stable == cls.all_in_unit, cfg
        assert verdict.non_oscillatory == cls.all_real_in_0_1, cfg


@settings(max_examples=100, deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.floats(1.0, 1e5),
    st.floats(1e-4, 1e-2),
)
def test_acceleration_universal_stability(alpha, g_dob, Ts):
    cfg = make_cfg("acceleration", alpha=alpha, g_dob=g_dob, Ts=Ts)
    assert classify_poles(make_inner_loop(cfg).T).all_real_in_0_1


# ---------------------------------------------------------------------------
# boundary sharpness via bisection on the pole classifier
# ---------------------------------------------------------------------------

def test_velocity_stability_boundary_bisection():
    Ts = 1e-3

    def stable_at(ag):
        cfg = make_cfg("velocity", alpha=1.0, g_dob=ag, Ts=Ts)
        return classify_poles(make_inner_loop(cfg).T).all_in_unit

    found = bisect_threshold(stable_at, 1500.0, 2500.0, rel_tol=1e-7)
    assert abs(found - 2.0 / Ts) / (2.0 / Ts) < 1e-4


def test_velocity_non_osc_boundary_bisection():
    Ts = 1e-3

    def monotone_at(ag):
        cfg = make_cfg("velocity", alpha=1.0, g_dob=ag, Ts=Ts)
        return classify_poles(make_inner_loop(cfg).T).all_real_in_0_1

    found = bisect_threshold(monotone_at, 500.0, 1500.0, rel_tol=1e-7)
    assert abs(found - 1.0 / Ts) / (1.0 / Ts) < 1e-4


def test_position_non_osc_boundary_bisection():
    Ts, g_v = 1e-3, 750.0

    def monotone_at(ag):
        cfg = make_cfg("position", alpha=1.0, g_dob=ag, Ts=Ts, g_v=g_v)
        return classify_poles(make_inner_loop(cfg).T).all_real_in_0_1

    found = bisect_threshold(monotone_at, 50.0, 500.0, rel_tol=1e-7)
    expected = position_non_osc_bound(g_v, Ts)
    assert abs(found - expected) / expected < 1e-3


def test_bisect_threshold_validates_bracket():
    with pytest.raises(ValueError):
        bisect_threshold(lambda x: True, 0.0, 1.0)


@pytest.mark.parametrize("predicate, lo, hi, rel_tol, expected", [
    (lambda x: x < 0.5, 0.0, 1.0, 0.0, 0.5),
    (lambda x: x < 0.5, 0.0, 1.0, 1e-20, 0.5),
    (lambda x: x < 0.0, -1.0, 0.0, 1e-6, 0.0),  # hi = 0: the tolerance is 0
], ids=["rel_tol=0", "rel_tol=1e-20", "boundary_at_0"])
def test_bisect_threshold_stops_at_adjacent_floats(predicate, lo, hi, rel_tol, expected):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        if calls > 2000:
            raise RuntimeError("bisection does not stop")
        return predicate(x)

    found = bisect_threshold(counted, lo, hi, rel_tol=rel_tol)
    assert abs(found - expected) <= 2.0**-52 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# root locus
# ---------------------------------------------------------------------------

def test_acceleration_locus_never_exits(locus_gains):
    base = make_cfg("acceleration", alpha=1.0, g_dob=500.0, Ts=1e-3)
    branch = root_locus(base, locus_gains, "alpha", np.geomspace(0.01, 100.0, 41))
    assert branch.exit_value is None
    # high-mismatch end firmly inside the unit circle
    assert branch.max_mags[-1] < 1.0


def test_velocity_and_position_loci_exit(locus_gains):
    for kind in ("velocity", "position"):
        base = make_cfg(kind, alpha=1.0, g_dob=500.0, Ts=1e-3, g_v=1000.0)
        branch = root_locus(base, locus_gains, "alpha", np.geomspace(0.01, 100.0, 41))
        assert branch.exit_value is not None
        assert 0.01 < branch.exit_value < 100.0


def test_velocity_exit_matches_marginal_inner_pole(locus_gains):
    # the inner velocity pole reaches the circle at alpha*g_dob*Ts = 2
    base = make_cfg("velocity", alpha=1.0, g_dob=500.0, Ts=1e-3)
    branch = root_locus(base, locus_gains, "alpha", np.linspace(3.0, 5.0, 9))
    assert branch.exit_value == pytest.approx(4.0, rel=1e-5)


@pytest.mark.parametrize("kind", ["velocity", "position"])
def test_locus_roots_each_grid_point_once_and_never_while_bisecting(monkeypatch, locus_gains,
                                                                    kind):
    calls = []

    def counted(p):
        calls.append(p)
        return poly_roots(p)

    monkeypatch.setattr(stability, "poly_roots", counted)
    base = make_cfg(kind, alpha=1.0, g_dob=500.0, Ts=1e-3, g_v=1000.0)
    values = np.geomspace(0.01, 100.0, 21)
    branch = root_locus(base, locus_gains, "alpha", values)
    assert len(calls) == len(values)
    assert branch.exit_value is not None

    # the root-magnitude bisection the exit used to come from, as the reference
    def inside(v):
        cfg = config_for_sweep(base, "alpha", v)
        outer = make_outer_loop(make_inner_loop(cfg), make_pd(locus_gains, cfg.Ts))
        return max(abs(p) for p in poly_roots(outer.T.den).roots) < 1.0

    mags = branch.max_mags
    i = next(i for i in range(1, len(mags)) if mags[i - 1] < 1.0 <= mags[i])
    reference = bisect_threshold(inside, values[i - 1], values[i])
    assert branch.exit_value == pytest.approx(reference, rel=1e-6)


def test_bandwidth_sweep_improves_then_degrades(locus_gains):
    # tiny nominal inertia: stability first improves with observer bandwidth,
    # then the loop leaves the unit circle once and for all
    base = make_cfg("velocity", alpha=1e-3, g_dob=100.0, Ts=1e-3)
    values = np.geomspace(1e2, 1e7, 41)
    branch = root_locus(base, locus_gains, "g_dob", values)
    mags = np.array(branch.max_mags)
    assert branch.exit_value is not None
    i_min = int(np.argmin(mags))
    assert 0 < i_min < mags.size - 1
    assert mags[i_min] < 1.0 < mags[-1]
    crossings_up = sum(
        1 for a, b in zip(mags, mags[1:]) if a < 1.0 <= b
    )
    assert crossings_up == 1
    assert branch.exit_value > values[i_min]


def test_locus_branch_continuity(locus_gains):
    base = make_cfg("velocity", alpha=1.0, g_dob=500.0, Ts=1e-3)
    values = np.linspace(0.5, 3.5, 61)
    step = values[1] - values[0]
    branch = root_locus(base, locus_gains, "alpha", values)
    for prev, cur in zip(branch.pole_sets, branch.pole_sets[1:]):
        for p, c in zip(prev, cur):
            assert abs(c - p) < 10.0 * step


def test_locus_pole_count_constant(locus_gains):
    base = make_cfg("position", alpha=1.0, g_dob=500.0, Ts=1e-3, g_v=1000.0)
    branch = root_locus(base, locus_gains, "alpha", np.linspace(0.5, 2.0, 7))
    counts = {len(ps) for ps in branch.pole_sets}
    assert len(counts) == 1


def test_locus_validation(locus_gains):
    base = make_cfg("velocity")
    with pytest.raises(ValueError):
        root_locus(base, locus_gains, "alpha", [1.0])
    with pytest.raises(ValueError):
        root_locus(base, locus_gains, "alpha", [2.0, 1.0])
    with pytest.raises(ValueError):
        root_locus(base, locus_gains, "J_m", [1.0, 2.0])


def test_alpha_sweep_rebuilds_through_nominal_inertia(locus_gains):
    from dobkit.stability import config_for_sweep

    base = make_cfg("velocity", alpha=1.0)
    cfg2 = config_for_sweep(base, "alpha", 2.5)
    assert cfg2.alpha == pytest.approx(2.5, rel=1e-12)
    assert cfg2.plant.J_m == base.plant.J_m
    cfg3 = config_for_sweep(base, "g_dob", 750.0)
    assert cfg3.g_dob == 750.0 and cfg3.alpha == pytest.approx(1.0)
