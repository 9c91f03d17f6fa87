import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dobkit.zalg import (
    DegenerateLoopError,
    DomainMismatchError,
    PoleEvaluationError,
    Polynomial,
    RationalTF,
    RootFindingError,
    poly_roots,
    tf_eval,
)


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def test_difference_of_squares():
    z_minus = Polynomial([-1.0, 1.0])
    z_plus = Polynomial([1.0, 1.0])
    prod = z_minus * z_plus
    assert prod.almost_equal(Polynomial([-1.0, 0.0, 1.0]))


def test_multiplicative_identity():
    p = Polynomial([2.0, -3.0, 1.0])
    assert (p * Polynomial.one()).almost_equal(p)


def test_add_cancels_constant():
    total = Polynomial([-1.0, 1.0]) + Polynomial([1.0])
    assert total.almost_equal(Polynomial([0.0, 1.0]))


def test_normalization_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert Polynomial([0.0, 0.0]).is_zero
    assert Polynomial([0.0]).degree == -1


def test_taylor_shift():
    # p(z) = z^2 - 1 about z=1: (z-1)^2 + 2(z-1) + 0
    q = Polynomial([-1.0, 0.0, 1.0]).shifted(1.0)
    assert np.allclose(q.coeffs, [0.0, 2.0, 1.0])


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_linear_root():
    rs = poly_roots(Polynomial([-0.5, 1.0]))
    assert rs.roots == (0.5 + 0.0j,)


def test_quadratic_roots():
    rs = poly_roots(Polynomial([-1.0, 0.0, 1.0]))
    assert np.allclose(sorted(r.real for r in rs.roots), [-1.0, 1.0])
    assert all(r.imag == 0.0 for r in rs.roots)


def test_velocity_pole_expression():
    # z - (1 - alpha*g*Ts) with alpha*g*Ts = 0.5
    rs = poly_roots(Polynomial([0.5 - 1.0, 1.0]))
    assert abs(rs.roots[0] - 0.5) < 1e-12


def test_roots_rejects_constants():
    with pytest.raises(RootFindingError):
        poly_roots(Polynomial([3.0]))
    with pytest.raises(RootFindingError):
        poly_roots(Polynomial.zero())


def _separated(roots, min_dist=0.05):
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            if abs(a - b) < min_dist:
                return False
    return True


@st.composite
def _conjugate_closed_roots(draw):
    n_real = draw(st.integers(min_value=0, max_value=4))
    n_pairs = draw(st.integers(min_value=0, max_value=2))
    if n_real + 2 * n_pairs == 0:
        n_real = 1
    reals = [draw(st.floats(-2.0, 2.0)) for _ in range(n_real)]
    pairs = []
    for _ in range(n_pairs):
        re = draw(st.floats(-1.4, 1.4))
        im = draw(st.floats(0.05, 1.4))
        pairs += [complex(re, im), complex(re, -im)]
    return [complex(r) for r in reals] + pairs


@settings(max_examples=150, deadline=None)
@given(_conjugate_closed_roots())
def test_roots_roundtrip(roots):
    if not _separated(roots):
        return
    p = Polynomial.from_roots(roots)
    rs = poly_roots(p)
    assert len(rs.roots) == p.degree
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    assert rs.residual < 1e-8 * scale
    recovered = list(rs.roots)
    for r in roots:
        j = min(range(len(recovered)), key=lambda k: abs(recovered[k] - r))
        assert abs(recovered.pop(j) - r) < 1e-8


def test_conjugate_pairing_enforced():
    p = Polynomial.from_roots([0.3 + 0.7j, 0.3 - 0.7j, -0.9])
    rs = poly_roots(p)
    cplx = [r for r in rs.roots if r.imag != 0.0]
    assert len(cplx) == 2
    assert cplx[0] == cplx[1].conjugate()


def test_from_roots_requires_conjugate_closure():
    with pytest.raises(ValueError):
        Polynomial.from_roots([1j])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_at_pole_raises():
    tf = RationalTF([1.0], [-0.5, 1.0], 1e-3)
    with pytest.raises(PoleEvaluationError) as err:
        tf_eval(tf, at=0.5 + 0.0j)
    assert err.value.point == 0.5 + 0.0j


def test_eval_requires_exactly_one_point():
    tf = RationalTF([1.0], [1.0, 1.0], None)
    with pytest.raises(ValueError):
        tf_eval(tf)
    with pytest.raises(ValueError):
        tf_eval(tf, omega=1.0, at=1.0 + 0.0j)


def test_discrete_frequency_is_unit_circle():
    tf = RationalTF([0.0, 1.0], [1.0], 1e-3)  # H(z) = z
    val = tf_eval(tf, omega=math.pi / (2 * 1e-3))
    assert abs(val - 1j) < 1e-12


@pytest.mark.parametrize("ts", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_sampling_time_must_be_finite_and_positive(ts):
    with pytest.raises(ValueError, match="sampling time"):
        RationalTF([1.0], [1.0], ts)


def test_continuous_frequency_is_imaginary_axis():
    tf = RationalTF([0.0, 1.0], [1.0], None)  # H(s) = s
    assert abs(tf_eval(tf, omega=3.0) - 3j) < 1e-15


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    st.floats(0.1, 0.9),
)
def test_conjugate_symmetry(num, den, theta):
    den_p = Polynomial(den)
    if den_p.is_zero:
        return
    tf = RationalTF(num, den_p, 1e-3)
    omega = theta * math.pi / 1e-3
    z = complex(np.exp(1j * theta * math.pi))
    if abs(tf.den(z)) < 1e-6:
        return
    assert tf_eval(tf, omega=-omega) == pytest.approx(
        tf_eval(tf, omega=omega).conjugate(), rel=1e-12, abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    st.floats(-0.95, 0.95),
    st.floats(-0.95, 0.95),
)
def test_series_evaluation_is_multiplicative(num_a, num_b, re, im):
    a = RationalTF(num_a, [1.0, 0.4, 1.0], 1e-3)
    b = RationalTF(num_b, [2.0, -0.3, 1.0], 1e-3)
    point = complex(re, im)
    prod = a * b
    lhs = tf_eval(prod, at=point)
    rhs = tf_eval(a, at=point) * tf_eval(b, at=point)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# connection and closure
# ---------------------------------------------------------------------------

def test_series_with_identity():
    tf = RationalTF([1.0, 2.0], [3.0, 1.0], 1e-3)
    assert (tf * RationalTF.one(1e-3)).almost_equal(tf)


def test_parallel_builds_pd_form():
    Ts, K_p, K_d = 1e-3, 5000.0, 25.0
    prop = RationalTF.constant(K_p, Ts)
    deriv = RationalTF([-K_d, K_d], [0.0, Ts], Ts)
    combined = prop + deriv
    expected = RationalTF([-K_d / Ts, K_p + K_d / Ts], [0.0, 1.0], Ts)
    assert combined.almost_equal(expected)


def test_feedback_unity_closes_integrating_loop():
    # L = a*z/(z-1) closes to a*z / ((1+a) z - 1)
    a = 0.5
    L = RationalTF([0.0, a], [-1.0, 1.0], 1e-3)
    closed = L.feedback_unity()
    assert closed.almost_equal(RationalTF([0.0, a], [-1.0, 1.0 + a], 1e-3))


def test_feedback_unity_degenerate():
    with pytest.raises(DegenerateLoopError):
        RationalTF.constant(-1.0, 1e-3).feedback_unity()


def test_mixed_domains_rejected():
    disc = RationalTF([1.0], [1.0, 1.0], 1e-3)
    cont = RationalTF([1.0], [1.0, 1.0], None)
    with pytest.raises(DomainMismatchError):
        disc * cont
    with pytest.raises(DomainMismatchError):
        disc + RationalTF([1.0], [1.0], 2e-3)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
)
def test_sensitivity_pair_sums_to_one(num, den):
    den_p = Polynomial(den)
    num_p = Polynomial(num)
    if den_p.is_zero or num_p.degree > den_p.degree:
        return
    if abs(den_p.leading) < 1e-3:  # keep coefficient products away from underflow
        return
    L = RationalTF(num_p, den_p, 1e-3)
    closed_den = L.den + L.num
    if closed_den.is_zero:
        return
    S = RationalTF(L.den, closed_den, 1e-3)
    T = L.feedback_unity()
    total = S + T
    assert total.almost_equal(RationalTF.one(1e-3))
    # exact polynomial identity when sharing the closed-loop denominator
    assert (S.num + T.num).almost_equal(closed_den, rtol=0.0)


def test_equality_ignores_common_factors():
    Ts = 1e-3
    base = RationalTF([1.0, 1.0], [0.5, 1.0], Ts)
    extra = Polynomial([-0.2, 1.0])
    padded = RationalTF(base.num * extra, base.den * extra, Ts)
    assert base.almost_equal(padded)
    assert padded.almost_equal(base)
    assert not base.almost_equal(RationalTF([1.0, 1.1], [0.5, 1.0], Ts))
