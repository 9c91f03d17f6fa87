import cmath

import pytest

from dobkit import DobConfig, MeasurementKind, OuterGains, PlantParams, RationalTF, tf_eval


@pytest.fixture
def locus_gains():
    """Outer gains used for the root-locus studies."""
    return OuterGains(K_p=5000.0, K_d=25.0)


@pytest.fixture
def regulation_gains():
    """Outer gains used for the regulation experiments."""
    return OuterGains(K_p=4000.0, K_d=200.0)


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
    """``tf`` as a function of the complex variable."""
    return lambda z: tf_eval(tf, at=z)


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
    for k in range(n):
        z = 2.0 * cmath.exp(2j * cmath.pi * (k + 0.25) / n)
        got, want = tf_eval(tf, at=z), complex(ref(z))
        assert abs(got - want) <= 1e-10 * max(abs(got), abs(want)), (z, got, want)
