import cmath
from fractions import Fraction
from itertools import zip_longest

import pytest

from dobkit import DobConfig, MeasurementKind, OuterGains, PlantParams, RationalTF


@pytest.fixture
def locus_gains():
    """Outer gains used for the root-locus studies."""
    return OuterGains(K_p=5000.0, K_d=25.0)


@pytest.fixture
def regulation_gains():
    """Outer gains used for the regulation experiments."""
    return OuterGains(K_p=4000.0, K_d=200.0)


# (alpha, g_dob, Ts, g_v) rows at which the closed forms are checked against their blocks.
PARAM_GRID = [(0.5, 300.0, 1e-3, 800.0), (1.0, 500.0, 1e-3, 1000.0),
              (2.0, 900.0, 5e-4, 1500.0)]


def make_cfg(kind, alpha=1.0, g_dob=500.0, Ts=1e-3, g_v=None, J_m=0.003, K_t=0.25):
    kind = MeasurementKind(kind)
    if kind is MeasurementKind.POSITION and g_v is None:
        g_v = 1000.0
    return DobConfig(
        kind=kind,
        plant=PlantParams.from_alpha(alpha, J_m=J_m, K_t=K_t),
        g_dob=g_dob,
        Ts=Ts,
        g_v=g_v,
    )


def degree(tf: RationalTF) -> int:
    """Degree of a transfer function as a rational function: its larger polynomial degree."""
    return max(tf.num.degree, tf.den.degree)


def at(tf: RationalTF):
    """``tf`` as a function of the complex variable: num(z) / den(z)."""
    return lambda z: tf.num(z) / tf.den(z)


def assert_same_tf(tf: RationalTF, ref, ref_degree: int | None = None):
    """Assert that ``tf`` and ``ref`` are the same rational function of z (or s).

    ``ref`` is a RationalTF of the same domain, or a function of the complex
    variable whose numerator and denominator have degree at most
    ``ref_degree``. The cross difference num_tf*den_ref - num_ref*den_tf is
    then a polynomial of degree at most ``degree(tf) + ref_degree``, so
    agreement at more points than that means the two are equal. The points
    lie on |z| = 2, off the unit circle where the loops' poles and zeros
    cluster, and off the real axis. Each value must agree to 1e-10 relative.
    """
    if isinstance(ref, RationalTF):
        assert tf.ts == ref.ts
        ref, ref_degree = at(ref), degree(ref)
    n = degree(tf) + ref_degree + 1
    value = at(tf)
    for k in range(n):
        z = 2.0 * cmath.exp(2j * cmath.pi * (k + 0.25) / n)
        got, want = value(z), complex(ref(z))
        assert abs(got - want) <= 1e-10 * max(abs(got), abs(want)), (z, got, want)


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _add(a: list, b: list) -> list:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def exact_inner_C(cfg: DobConfig) -> tuple:
    """The inner-loop compensator C = alpha*den(Q)*V / (den(L) + num(L)), exactly.

    Numerator and denominator are ascending ``Fraction`` lists in z, built
    from the paper's closed forms with every float input taken as an exact
    rational and alpha = (J_mn*K_tn)/(J_m*K_t) from the four plant inputs.
    den(Q) = (1 + g_dob*Ts) z - 1; V is the velocity estimator's denominator
    (1 + g_v*Ts) z - 1 for position measurement and 1 otherwise; L is
    alpha*g_dob*Ts z/(z - 1) (acceleration), alpha*g_dob*Ts/(z - 1) (velocity)
    or beta*g_v*g_dob (z + 1) / ((z - 1) V), beta = alpha*Ts**2/2 (position).
    """
    F = Fraction
    p = cfg.plant
    alpha = F(p.J_mn) * F(p.K_tn) / (F(p.J_m) * F(p.K_t))
    g, Ts = F(cfg.g_dob), F(cfg.Ts)
    integrator = [F(-1), F(1)]
    if cfg.kind is MeasurementKind.ACCELERATION:
        V, num_L, den_L = [F(1)], [F(0), alpha * g * Ts], integrator
    elif cfg.kind is MeasurementKind.VELOCITY:
        V, num_L, den_L = [F(1)], [alpha * g * Ts], integrator
    else:
        g_v = F(cfg.g_v)
        V = [F(-1), 1 + g_v * Ts]
        b = alpha * Ts * Ts / 2 * g_v * g
        num_L, den_L = [b, b], _mul(integrator, V)
    return _mul([alpha], _mul([F(-1), 1 + g * Ts], V)), _add(den_L, num_L)


def exact_schur(coeffs, radius: float = 1.0) -> bool:
    """True iff every root of sum c_k x**k lies strictly inside |x| < radius, in exact rationals.

    Jury's stability recursion on p(radius*x) with a_k = c_k * radius**k, every
    float taken as an exact rational: the reflection coefficient k = a_0/a_n
    must satisfy |k| < 1, and the next polynomial is (p - k*p~)/x, p~ the
    reversed polynomial, with coefficients a_{j+1} - k*a_{n-1-j}. A constant
    is stable unless it is zero.
    """
    r = Fraction(radius)
    a = [Fraction(c) * r**k for k, c in enumerate(coeffs)]
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return False
    while len(a) > 1:
        k = a[0] / a[-1]
        if abs(k) >= 1:
            return False
        a = [a[j + 1] - k * a[len(a) - 2 - j] for j in range(len(a) - 1)]
    return True
