import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from dobkit.loops import LoopSet, OuterGains, make_inner_loop, make_outer_loop, make_pd
from dobkit.zalg import (
    DomainMismatchError,
    Polynomial,
    RationalTF,
    RootFindingError,
    poly_roots,
    poly_roots_batch,
    schur_stable,
)

from conftest import assert_same_tf, at, exact_schur, make_cfg


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def test_difference_of_squares():
    z_minus = Polynomial([-1.0, 1.0])
    z_plus = Polynomial([1.0, 1.0])
    prod = z_minus * z_plus
    assert prod.coeffs.tolist() == [-1.0, 0.0, 1.0]


def test_multiplicative_identity():
    p = Polynomial([2.0, -3.0, 1.0])
    assert (p * Polynomial([1.0])).coeffs.tolist() == p.coeffs.tolist()


def test_add_cancels_constant():
    total = Polynomial([-1.0, 1.0]) + Polynomial([1.0])
    assert total.coeffs.tolist() == [0.0, 1.0]


def test_normalization_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert Polynomial([0.0, 0.0]).is_zero
    assert Polynomial([0.0]).degree == -1


def test_taylor_shift():
    # p(z) = z^2 - 1 about z=1: (z-1)^2 + 2(z-1) + 0
    q = Polynomial([-1.0, 0.0, 1.0]).shifted(1.0)
    assert np.allclose(q.coeffs, [0.0, 2.0, 1.0])


@pytest.mark.parametrize("coeffs", [
    [[1.0, 2.0], [3.0, 4.0]],
    [[1.0], [2.0, 3.0]],
    np.ones((2, 2)),
    np.ones((3, 1)),
])
def test_polynomial_rejects_input_that_is_not_1d(coeffs):
    with pytest.raises(ValueError):
        Polynomial(coeffs)


@pytest.mark.parametrize("coeffs, expected", [
    ([1, 2.5, 0], [1.0, 2.5]),
    ((1, 2.5, 0.0), [1.0, 2.5]),
    (np.array([0.5, 1.0, 0.0]), [0.5, 1.0]),
    (3, [3.0]),
    ("1.5", [1.5]),
    (["1.5", "2"], [1.5, 2.0]),
    ([np.float32(0.1)], [float(np.float32(0.1))]),
    ([[1.0, 2.0]], ValueError),  # nested
    ([[1.0, 2.0], [3.0]], ValueError),  # ragged
    ("abc", ValueError),
    ([1j, 2.0], TypeError),
    (1j, TypeError),
    ([10**400], OverflowError),
    ([1.0, None], TypeError),  # not a NaN coefficient
    (None, TypeError),
])
def test_polynomial_converts_through_numpy(coeffs, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            Polynomial(coeffs)
    else:
        got = Polynomial(coeffs)._c
        assert got == tuple(expected) and all(type(x) is float for x in got)


def test_coeffs_is_a_read_only_float_array():
    p = Polynomial((1, 2.5, 0.0))
    assert p.coeffs.dtype == float and p.coeffs.tolist() == [1.0, 2.5]
    with pytest.raises(ValueError):
        p.coeffs[0] = 3.0
    assert Polynomial(np.float64(2.0)).coeffs.tolist() == [2.0]
    assert Polynomial(np.array([0.5, 1.0, 0.0])).degree == 1


_coeff_lists = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_coeff_lists, _coeff_lists, st.floats(-1e3, 1e3))
def test_arithmetic_matches_numpy(a, b, s):
    pa, pb = Polynomial(a), Polynomial(b)
    n = max(pa.coeffs.size, pb.coeffs.size)
    ca = np.pad(pa.coeffs, (0, n - pa.coeffs.size))
    cb = np.pad(pb.coeffs, (0, n - pb.coeffs.size))
    # elementwise operations round exactly as numpy's do
    assert np.array_equal((pa + pb).coeffs, Polynomial(ca + cb).coeffs)
    assert np.array_equal((pa * s).coeffs, Polynomial(pa.coeffs * s).coeffs)
    # products may sum in another order than np.convolve's BLAS dot
    ref = Polynomial(np.convolve(pa.coeffs, pb.coeffs)).coeffs
    got = (pa * pb).coeffs
    scale = float(np.max(np.abs(pa.coeffs))) * float(np.max(np.abs(pb.coeffs)))
    assert got.size == ref.size
    assert np.allclose(got, ref, rtol=0.0, atol=1e-14 * scale)


@settings(max_examples=200, deadline=None)
@given(_coeff_lists, _coeff_lists)
def test_product_sums_in_ascending_index_of_the_longer_factor(a, b):
    # the reference loop: each output sums its products from 0.0 in ascending
    # index of the longer factor (the left one if equally long); the product
    # must round exactly as it does
    def reference(x, y):
        x, y = x.coeffs.tolist(), y.coeffs.tolist()
        if len(y) > len(x):
            x, y = y, x
        out = [0.0] * (len(x) + len(y) - 1)
        for i, u in enumerate(x):
            for k, v in enumerate(y, i):
                out[k] += u * v
        return list(map(float.hex, Polynomial(out).coeffs.tolist()))

    pa, pb = Polynomial(a), Polynomial(b)
    for x, y in ((pa, pb), (pb, pa)):
        assert list(map(float.hex, (x * y).coeffs.tolist())) == reference(x, y)


def _horner_from_zero(p, x):
    """Horner's rule from acc = 0.0 over every coefficient: the reference evaluation."""
    acc = 0.0
    for c in reversed(p.coeffs.tolist()):
        acc = acc * x + c
    return acc


def test_horner_magnitudes_are_those_of_the_loop_from_zero():
    # the first step c_n*x + c_(n-1) skips 0.0*x + c_n, which can change only
    # the sign of a zero imaginary part
    rng = np.random.default_rng(29)
    theta = np.geomspace(math.pi * 1e-4, math.pi, 512)  # the sweep's w
    h = np.sin(0.5 * theta)
    t = np.arange(257) * (2.0 * math.pi / 512)  # a trapezoid grid's zeta - 1
    arrays = [-2.0 * h * h + 1j * np.sin(theta), -2.0 * np.sin(0.5 * t) ** 2 + 1j * np.sin(t),
              rng.uniform(-2.0, 2.0, 64)]
    scalars = ([complex(x) for x in arrays[0][::37]] + [complex(-2.0, 0.0), 1j, -1j]
               + rng.uniform(-3.0, 3.0, 16).tolist() + [0.0, -0.0, 1.0, -2.0])
    for degree in range(9):
        for _ in range(6):
            p = Polynomial(rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-3, 3, degree + 1))
            for x in arrays:
                got, want = p(x), _horner_from_zero(p, x)
                assert got.shape == want.shape == x.shape and got.dtype == want.dtype
                assert np.abs(got).tobytes() == np.abs(want).tobytes(), (p, x.dtype)
            for x in scalars:
                got, want = p(x), _horner_from_zero(p, x)
                assert type(got) is type(want), (p, x)
                assert float(abs(got)).hex() == float(abs(want)).hex(), (p, x)


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
    p = Polynomial(np.poly(roots)[::-1])
    rs = poly_roots(p)
    assert len(rs.roots) == p.degree
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    assert rs.residual < 1e-8 * scale
    recovered = list(rs.roots)
    for r in roots:
        j = min(range(len(recovered)), key=lambda k: abs(recovered[k] - r))
        assert abs(recovered.pop(j) - r) < 1e-8


@pytest.mark.parametrize("coeffs", [
    [math.nan, 1.0],
    [0.5, math.nan, 1.0],
    [0.5, math.inf],
    [-math.inf, 0.0, 1.0],
    [1e300, 1e-300],  # the companion row overflows
])
def test_roots_of_non_finite_coefficients_raise(coeffs):
    with pytest.raises(RootFindingError):
        poly_roots(Polynomial(coeffs))


def _batch_mix():
    """Polynomials of degrees 1-8, several of each companion size."""
    def from_roots(roots):
        return Polynomial(np.poly(roots)[::-1])

    pair = [0.3 + 0.7j, 0.3 - 0.7j]
    on_circle = [np.exp(0.4j), np.exp(-0.4j)]
    polys = [
        Polynomial([-0.5, 1.0]),
        from_roots(pair),
        from_roots([1.0, 1.0, -0.5]),        # double root on the circle
        from_roots(on_circle * 2),           # double conjugate pair on it
        from_roots(pair + [-0.9, 0.2, 0.95]),
        from_roots(pair + on_circle + [0.1, -0.4]),
        from_roots(pair + [-0.3 + 0.2j, -0.3 - 0.2j, 0.5, 0.6, 0.7]),
        from_roots(on_circle + pair + [0.9 + 0.1j, 0.9 - 0.1j, -1.0, 0.0]),
        Polynomial([0.0, 0.0, -0.25, 1.0]),
        Polynomial([0.0, 0.0, 3.0]),            # every root at 0: no companion matrix
    ]
    # with K_d = 0 the PD's numerator has the factor z, so T.den(0) = 0
    for kind in ("acceleration", "velocity", "position"):
        cfg = make_cfg(kind)
        outer = make_outer_loop(make_inner_loop(cfg), make_pd(OuterGains(5000.0, 0.0), cfg.Ts))
        polys.append(outer.T.den)
        polys.append(outer.L.den + outer.L.num * 1.5)
    return polys


def test_batch_is_exactly_each_polynomial_alone():
    polys = _batch_mix()
    assert {p.degree for p in polys} >= set(range(1, 9))
    assert any(p(0.0) == 0.0 and p.degree > 3 for p in polys)
    batch = poly_roots_batch(polys)
    assert len(batch) == len(polys)
    for p, together in zip(polys, batch):
        assert together == poly_roots(p).roots, p
    # and in the reverse order, which stacks each size differently
    assert poly_roots_batch(polys[::-1]) == batch[::-1]


def _count_eigensolves(monkeypatch) -> list:
    """Record each stack that goes to LAPACK's eigenvalue gufunc, which zalg calls."""
    calls = []
    real = _umath_linalg.eigvals
    monkeypatch.setattr(_umath_linalg, "eigvals", lambda a, **kw: calls.append(a) or real(a, **kw))
    return calls


@pytest.mark.parametrize("bad", [[0.5, math.nan, 1.0], [math.inf, 1.0], [0.5, 1.0, -math.inf]])
@pytest.mark.parametrize("where", [0, 3, -1])
def test_batch_rejects_a_non_finite_coefficient_before_any_eigensolve(monkeypatch, bad, where):
    calls = _count_eigensolves(monkeypatch)
    polys = _batch_mix()[:5]
    polys.insert(where % (len(polys) + 1), Polynomial(bad))
    with pytest.raises(RootFindingError):
        poly_roots_batch(polys)
    assert calls == []
    # the degree-2 polynomial alone: a 1x1 companion matrix needs no eigensolve
    poly_roots_batch(polys[1:2] if where else polys[2:3])
    assert len(calls) == 1


def test_linear_roots_are_the_companion_entry_that_eigvals_returns(monkeypatch):
    # c1 over 300 decades and -c0/c1 over the 276 (1e-138 to 1e138) in which
    # LAPACK's eigvals does not rescale the matrix (6.7e-139 to 1.5e138)
    rng = np.random.default_rng(20)
    n = 10_000
    e1 = rng.integers(-150, 151, n)
    e0 = e1 + rng.integers(-137, 138, n)
    c0, c1 = (rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** e for e in (e0, e1))
    polys = [Polynomial([a, b]) for a, b in zip(c0.tolist(), c1.tolist())]
    calls = _count_eigensolves(monkeypatch)
    batch = poly_roots_batch(polys)
    assert calls == []
    monkeypatch.undo()
    eigvals = np.linalg.eigvals
    for a, b, roots in zip(c0.tolist(), c1.tolist(), batch):
        assert roots == (complex(eigvals(np.array([[-a / b]]))[0]),), (a, b)
    # beyond that range eigvals' rescaling rounds; the root stays the quotient
    for a, b in ((3.7e200, -1.3e-20), (-2.9e-250, 7.1e-90), (5.3e300, 1.1e0)):
        assert poly_roots(Polynomial([a, b])).roots == (complex(-a / b),)
    # -1e300/1e-300 overflows: the whole batch raises
    with pytest.raises(RootFindingError):
        poly_roots_batch(polys[:3] + [Polynomial([1e300, 1e-300])])


def _companion(p: Polynomial) -> np.ndarray:
    """The companion matrix np.roots builds for p, whose constant term is not 0."""
    c = p.coeffs
    n = len(c) - 1
    a = np.diag(np.ones(n - 1), -1)
    a[0, :] = -c[-2::-1] / c[-1]
    return a


def _bits(x: complex) -> tuple:
    return x.real.hex(), x.imag.hex()


@pytest.mark.parametrize("spectrum", ["real", "complex", "mixed"])
def test_roots_are_complex_of_what_numpys_eigvals_returns(spectrum):
    # degrees 2-8, seeded; each alone and all of one degree stacked, against
    # np.linalg.eigvals on the same matrix or stack, sign of a zero included
    rng = np.random.default_rng(37)
    for degree in range(2, 9):
        polys = []
        for _ in range(6):
            if spectrum == "real":
                roots = rng.uniform(-2.0, 2.0, degree)
            else:
                pairs = rng.uniform(-1.5, 1.5, degree // 2) + 1j * rng.uniform(0.1, 1.5, degree // 2)
                roots = np.concatenate([pairs, pairs.conj(), rng.uniform(-2.0, 2.0, degree % 2)])
            polys.append(Polynomial(np.poly(roots).real[::-1]))
        if spectrum == "mixed":  # one all-real spectrum in a stack that is not
            polys[2] = Polynomial(np.poly(rng.uniform(-2.0, 2.0, degree))[::-1])
        assert all(p(0.0) != 0.0 for p in polys)
        stack = np.stack([_companion(p) for p in polys])
        together = np.linalg.eigvals(stack)
        assert together.dtype == (float if spectrum == "real" else complex)
        for p, stacked, roots in zip(polys, together.tolist(), poly_roots_batch(polys)):
            expected = sorted(map(complex, stacked), key=lambda x: (x.real, x.imag))
            assert list(map(_bits, roots)) == list(map(_bits, expected)), p
            alone = np.linalg.eigvals(_companion(p)).tolist()
            expected = sorted(map(complex, alone), key=lambda x: (x.real, x.imag))
            assert list(map(_bits, poly_roots(p).roots)) == list(map(_bits, expected)), p


def test_an_overflowing_companion_row_raises_before_any_eigensolve(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    # -c_0/c_1 = -1e600: every coefficient is finite, the companion entry is not
    with pytest.raises(RootFindingError, match="companion row"):
        poly_roots(Polynomial([1e300, 1e-300]))
    # a row of a larger matrix, behind a batch member that needs an eigensolve
    with pytest.raises(RootFindingError, match="companion row"):
        poly_roots_batch([Polynomial([1.0, 2.0, 3.0]), Polynomial([1.0, 1e300, 1e-300])])
    assert calls == []


def test_an_empty_coefficient_list_is_the_zero_polynomial():
    p = Polynomial._of([])
    assert p._c == (0.0,) and p.is_zero and p.degree == -1
    assert repr(p) == repr(Polynomial.zero()) == repr(Polynomial([]))


def _seeded_polynomials(seed: int):
    """(degree, polynomial) for degrees 1-8: simple roots, double roots, roots at 0."""
    rng = np.random.default_rng(seed)

    def simple(n):
        roots = []
        while len(roots) < n:
            r, phi = rng.uniform(0.05, 1.5), rng.uniform(0.0, np.pi)
            if n - len(roots) >= 2 and rng.random() < 0.6:
                roots += [r * np.exp(1j * phi), r * np.exp(-1j * phi)]
            else:
                roots.append(r * np.cos(phi))
        return roots

    for degree in range(1, 9):
        x, w = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.2) * np.exp(1j * rng.uniform(0.1, 3.0))
        shapes = [simple(degree)]
        if degree >= 2:
            shapes += [simple(degree - 2) + [x, x], simple(degree - 1) + [0.0]]
        if degree >= 3:
            shapes.append(simple(degree - 2) + [0.0, 0.0])
        if degree >= 4:
            shapes.append(simple(degree - 4) + [w, w.conjugate()] * 2)
        for roots in shapes:
            yield degree, Polynomial(np.poly(roots)[::-1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reported_residual_is_the_horner_residual(seed):
    # the residual is Polynomial.__call__'s |p(x)|, bit for bit
    for degree, p in _seeded_polynomials(seed):
        rs = poly_roots(p)
        assert len(rs.roots) == degree
        assert rs.residual == max(abs(p(x)) for x in rs.roots), p


def test_residual_is_nan_when_any_root_residual_is():
    # roots 0j three times and about 1e300; at the large root the Horner
    # pass overflows and |p(x)| is NaN, while at 0 it is 1e-300
    p = Polynomial([1e-300, 1.0, -1.0, -1e200, 1e-100])
    rs = poly_roots(p)
    assert rs.roots[:3] == (0j, 0j, 0j)
    assert math.isnan(abs(p(rs.roots[3])))
    assert math.isnan(rs.residual)


def test_low_order_zeros_are_exact_roots_at_zero():
    rs = poly_roots(Polynomial([0.0, 0.0, -0.25, 1.0]))
    assert rs.roots == (0j, 0j, 0.25 + 0j)
    assert rs.residual == 0.0


def test_double_root_is_not_confused_with_a_tiny_one():
    # z (z - 1e-38) (z - 1)**2: the eigenvalues keep the double root at 1
    # apart from the roots at 0 and 1e-38.
    p = Polynomial([0.0, -1.1754943508222875e-38, 1.0, -2.0, 1.0])
    rs = poly_roots(p).roots
    assert [abs(r) for r in rs[:2]] == [0.0, pytest.approx(0.0, abs=1e-30)]
    assert rs[2:] == (pytest.approx(1.0, abs=1e-7), pytest.approx(1.0, abs=1e-7))


def test_conjugate_pairing_enforced():
    p = Polynomial(np.poly([0.3 + 0.7j, 0.3 - 0.7j, -0.9])[::-1])
    rs = poly_roots(p)
    cplx = [r for r in rs.roots if r.imag != 0.0]
    assert len(cplx) == 2
    assert cplx[0] == cplx[1].conjugate()


# ---------------------------------------------------------------------------
# Schur-Cohn stability verdicts
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(_conjugate_closed_roots(), st.sampled_from([1.0, 0.5, 1.0 - 1e-9]))
def test_schur_agrees_with_roots_away_from_the_circle(roots, radius):
    p = Polynomial(np.poly(roots)[::-1])
    mags = [abs(r) for r in poly_roots(p).roots]
    assume(all(abs(m - radius) > 1e-6 for m in mags))
    assert schur_stable(p, radius) == (max(mags) < radius)


@st.composite
def _roots_near_the_circle(draw):
    """Roots at 1 +- delta from the circle, delta down to 1e-14, some repeated."""
    roots = []
    for _ in range(draw(st.integers(1, 4))):
        mag = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-14, 1e-2))
        theta = draw(st.sampled_from([0.0, math.pi, draw(st.floats(0.01, 3.1))]))
        new = [mag * math.cos(theta) + 0j] if theta in (0.0, math.pi) else [
            complex(mag * math.cos(theta), mag * math.sin(theta)),
            complex(mag * math.cos(theta), -mag * math.sin(theta))]
        roots += new * draw(st.integers(1, 2))
    return roots


@settings(max_examples=300, deadline=None)
@given(_roots_near_the_circle(), st.floats(1e-3, 1e3), st.sampled_from([1.0, 1.0 - 1e-9]))
def test_schur_matches_the_rational_recursion_near_the_circle(roots, leading, radius):
    # Jury's recursion in exact rationals on the stored coefficients is the
    # reference, down to roots 1e-14 off the circle and repeated ones.
    p = Polynomial(leading * np.poly(roots)[::-1])
    assert schur_stable(p, radius) == exact_schur(p.coeffs.tolist(), radius)


@pytest.mark.parametrize("coeffs", [
    [1.0, 1.0],             # z = -1
    [-1.0, 1.0],            # z = 1
    [1.0, -2.0, 1.0],       # double root at 1
    [1.0, 2.0, 1.0],        # double root at -1
    [1.0, 0.0, 1.0],        # +-j
    [1.0, 0.0, 2.0, 0.0, 1.0],  # double pair at +-j
    [-0.5, 0.5, 1.0],       # 0.5 and -1
])
def test_schur_roots_on_the_circle_are_not_stable(coeffs):
    assert not schur_stable(Polynomial(coeffs))
    assert not exact_schur(coeffs)


@pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 1000])
@pytest.mark.parametrize("coeffs", [
    [-0.5, 1.0],
    [1.0, 2.0, 1.0],
    [-(1.0 - 2.0 ** -52), 0.0, 1.0],
    [0.3, -0.2, 0.6, 1.0],
])
def test_schur_verdict_does_not_depend_on_the_scale(coeffs, scale):
    # coefficients near underflow and overflow, every one scaled exactly
    want = exact_schur(coeffs)
    assert schur_stable(Polynomial(coeffs)) == want
    assert schur_stable(Polynomial([c * scale for c in coeffs])) == want


def test_schur_decides_at_the_last_bit():
    inside = 1.0 - 2.0 ** -52
    assert schur_stable(Polynomial([-inside, 1.0]))
    assert schur_stable(Polynomial([-inside, 0.0, 1.0]))  # roots +-sqrt(inside)
    assert not schur_stable(Polynomial([-1.0, 0.0, 1.0]))
    assert not schur_stable(Polynomial([-(1.0 + 2.0 ** -52), 0.0, 1.0]))
    assert schur_stable(Polynomial([3.0]))
    assert not schur_stable(Polynomial.zero())


@pytest.mark.parametrize("coeffs", [
    [math.nan, 1.0],        # a naive recursion reads |nan| >= 1 as False: stable
    [0.25, math.nan, 1.0],
    [0.5, math.inf],
    [math.inf, 1.0],
    [0.1, -math.inf, 1.0],
    [math.nan],
])
def test_schur_never_stable_on_non_finite_coefficients(coeffs):
    assert schur_stable(Polynomial(coeffs)) is False
    assert schur_stable(Polynomial(coeffs), 0.5) is False


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ts", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_sampling_time_must_be_finite_and_positive(ts):
    with pytest.raises(ValueError, match="sampling time"):
        RationalTF([1.0], [1.0], ts)


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
    z = complex(np.exp(1j * theta * math.pi))
    if abs(tf.den(z)) < 1e-6:
        return
    value = at(tf)
    assert value(z.conjugate()) == pytest.approx(value(z).conjugate(), rel=1e-12, abs=1e-12)


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
    lhs = at(prod)(point)
    rhs = at(a)(point) * at(b)(point)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# connection and closure
# ---------------------------------------------------------------------------

def test_series_with_identity():
    tf = RationalTF([1.0, 2.0], [3.0, 1.0], 1e-3)
    prod = tf * RationalTF.constant(1.0, 1e-3)
    assert prod.ts == 1e-3
    assert prod.num.coeffs.tolist() == tf.num.coeffs.tolist()
    assert prod.den.coeffs.tolist() == tf.den.coeffs.tolist()


def test_parallel_builds_pd_form():
    Ts, K_p, K_d = 1e-3, 5000.0, 25.0
    prop = RationalTF.constant(K_p, Ts)
    deriv = RationalTF([-K_d, K_d], [0.0, Ts], Ts)
    expected = RationalTF([-K_d / Ts, K_p + K_d / Ts], [0.0, 1.0], Ts)
    assert_same_tf(expected, lambda z: at(prop)(z) + at(deriv)(z), 1)


def test_feedback_unity_closes_integrating_loop():
    # L = a*z/(z-1) closes to a*z / ((1+a) z - 1)
    a = 0.5
    L = RationalTF([0.0, a], [-1.0, 1.0], 1e-3)
    closed = LoopSet.from_open_loop(L, L, (1.0,)).T
    assert closed.den.coeffs.tolist() == [-1.0, 1.0 + a]
    assert_same_tf(closed, RationalTF([0.0, a], [-1.0, 1.0 + a], 1e-3))
    assert_same_tf(closed, lambda z: at(L)(z) / (1.0 + at(L)(z)), 1)


def test_feedback_unity_degenerate():
    # 1 + L vanishes identically: no closed loop exists
    L = RationalTF.constant(-1.0, 1e-3)
    with pytest.raises(ZeroDivisionError):
        LoopSet.from_open_loop(L, L, ())


def test_mixed_domains_rejected():
    disc = RationalTF([1.0], [1.0, 1.0], 1e-3)
    cont = RationalTF([1.0], [1.0, 1.0], None)
    with pytest.raises(DomainMismatchError):
        disc * cont
    with pytest.raises(DomainMismatchError):
        cont * disc
    with pytest.raises(DomainMismatchError):
        disc * RationalTF([1.0], [1.0], 2e-3)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    st.floats(-2.0, 2.0).filter(lambda x: x != 0.0),
)
def test_sensitivity_pair_sums_to_one(num, poles, leading):
    # the open loop is drawn from its poles, which the loop set carries
    den_p = Polynomial(leading * np.poly(poles)[::-1])
    num_p = Polynomial(num)
    if num_p.degree > den_p.degree:
        return
    closed_den = den_p + num_p
    if closed_den.is_zero:
        return
    one = RationalTF.constant(1.0, 1e-3)
    loop = LoopSet.from_open_loop(RationalTF(num_p, den_p, 1e-3), one, poles)
    # an exact polynomial identity: S and T share the closed-loop denominator
    assert np.array_equal((loop.S.num + loop.T.num).coeffs, closed_den.coeffs)
    assert np.array_equal(loop.S.den.coeffs, closed_den.coeffs)
    assert np.array_equal(loop.T.den.coeffs, closed_den.coeffs)


def test_equality_ignores_common_factors():
    # the pointwise comparison that the closed-form tests rely on
    Ts = 1e-3
    base = RationalTF([1.0, 1.0], [0.5, 1.0], Ts)
    extra = Polynomial([-0.2, 1.0])
    padded = RationalTF(base.num * extra, base.den * extra, Ts)
    assert_same_tf(base, padded)
    assert_same_tf(padded, base)
    with pytest.raises(AssertionError):
        assert_same_tf(base, RationalTF([1.0, 1.1], [0.5, 1.0], Ts))
    with pytest.raises(AssertionError):
        assert_same_tf(base, RationalTF([1.0, 1.0], [0.5, 1.0], 2e-3))
