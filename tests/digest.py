"""Three SHA-256 digests: robustness outputs of seeded loops, root loci, then roots.

Run it on two source trees to show that a change leaves those outputs the same
bit for bit::

    PYTHONPATH=src python tests/digest.py

It uses only the public API and prints one digest a line. The first is over
a survey of 1,500 seeded loops: every measurement kind, inner and outer
loops, Ts from 1e-7 to 1e-3 s, one loop in ten within a few ulps of
alpha*g_dob*Ts = 2, plus a few loops at the underflow edge. For each loop it
hashes ``freq_sweep`` at 16, 256 and 512 points (the arrays and both peaks)
and ``bode_integral_discrete``. The second is over a seeded family of root
loci: every kind and both swept parameters, Ts from 1e-7 to 1e-3 s, 16 to 48
log- or linearly spaced values around the base. For each sweep it hashes the
``root_locus`` pole sets, ``max_mags`` and ``exit_value``, and the three
``classify_poles`` figures of the inner and outer loop at the base and at the
grid's last value; then a few grids that are rejected. The third is over
``poly_roots``: every root and the residual of a seeded family of degrees 1
to 8 with |c_k| from 1e-30 to 1e30, some of them with zero low-order
coefficients; of polynomials with repeated real roots built by ``np.poly``;
of the outer characteristic polynomials ``L.den + L.num`` of alpha sweeps
for every kind at Ts 1e-3, 1e-5 and 1e-7, which the benchmark's pole audit
roots; then of a few polynomials that are rejected. An error raised
anywhere is hashed as its type and message. pytest does not collect this
file: its name does not start with ``test_``.
"""
from __future__ import annotations

import hashlib
import math
import random
import struct

import numpy as np

from dobkit import (
    DobConfig, MeasurementKind, OuterGains, PlantParams, Polynomial, bode_integral_discrete,
    classify_poles, config_for_sweep, freq_sweep, make_inner_loop, make_outer_loop, make_pd,
    poly_roots, root_locus,
)

LOOPS = 1500
SWEEP_POINTS = (16, 256, 512)
# (alpha, g_dob, Ts, g_v): loops whose products underflow or sit at the edges.
EDGES = [(1.0, 1e-200, 1e-200, 1e-200), (1.0, 1e200, 1e-200, 1e200),
         (1e-3, 1e-3, 1e-3, 1e-3), (4.0, 1e3, 0.5e-3, 2e3)]


def _configs(rng: random.Random):
    """(kind, alpha, g_dob, Ts, g_v, outer gains or None) of each surveyed loop."""
    for alpha, g_dob, ts, g_v in EDGES:
        for kind in MeasurementKind:
            yield kind, alpha, g_dob, ts, g_v, None
            yield kind, alpha, g_dob, ts, g_v, (4000.0, 200.0)
    for _ in range(LOOPS):
        kind = rng.choice(list(MeasurementKind))
        ts = 10.0 ** rng.uniform(-7.0, -3.0)
        alpha = 10.0 ** rng.uniform(-1.0, 1.0)
        if rng.random() < 0.1:  # at the acceleration and velocity loops' stability edge
            g_dob = 2.0 / (alpha * ts) * (1.0 + rng.randint(-4, 4) * 2.0**-52)
        else:
            g_dob = 10.0 ** rng.uniform(-1.0, 0.5) / (alpha * ts)
        g_v = 10.0 ** rng.uniform(-1.0, 0.5) / ts
        gains = None
        if rng.random() < 0.5:
            gains = (10.0 ** rng.uniform(2.0, 5.0), 10.0 ** rng.uniform(0.0, 3.0))
        yield kind, alpha, g_dob, ts, g_v, gains


def _loop(kind, alpha, g_dob, ts, g_v, gains):
    cfg = DobConfig(kind=kind, plant=PlantParams.from_alpha(alpha), g_dob=g_dob, Ts=ts, g_v=g_v)
    inner = make_inner_loop(cfg)
    if gains is None:
        return inner
    return make_outer_loop(inner, make_pd(OuterGains(K_p=gains[0], K_d=gains[1]), ts))


def _floats(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _outputs(config):
    """The byte strings that stand for one loop's robustness outputs."""
    try:
        loop = _loop(*config)
    except Exception as exc:  # an error is an output too
        yield f"loop {type(exc).__name__}: {exc}".encode()
        return
    for n in SWEEP_POINTS:
        try:
            sweep = freq_sweep(loop, n)
        except Exception as exc:
            yield f"sweep {n} {type(exc).__name__}: {exc}".encode()
            continue
        for a in (sweep.freqs, sweep.mag_S, sweep.mag_T):
            yield np.ascontiguousarray(a, dtype="<f8").tobytes()
        yield _floats(*sweep.peak_S, *sweep.peak_T)
    try:
        report = bode_integral_discrete(loop)
    except Exception as exc:
        yield f"bode {type(exc).__name__}: {exc}".encode()
    else:
        yield _floats(report.numeric_value, report.analytic_value, report.abs_error,
                      report.last_difference) + report.panels.to_bytes(8, "little")


def _sha256(chunks) -> str:
    """SHA-256 over byte strings, each prefixed with its length."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def digest() -> str:
    """SHA-256 over the survey's outputs."""
    return _sha256(chunk for config in _configs(random.Random(0)) for chunk in _outputs(config))


# ---------------------------------------------------------------------------
# root loci
# ---------------------------------------------------------------------------

LOCI = 100  # seeded sweeps per kind and swept parameter
LOCUS_GAINS = OuterGains(K_p=4000.0, K_d=200.0)
# (plant, param, grid) of rejected sweeps besides the invalid values below:
# J_mn = v*J_m*K_t/K_tn overflows, and alpha = (J_mn*K_tn)/(J_m*K_t)
# rounds to 0 while J_mn does not.
REJECTED = [
    (PlantParams(J_m=1.0, K_t=1.0, J_mn=1e10, K_tn=1e-10), "alpha", [1.0, 1e300]),
    (PlantParams(J_m=1.45, K_t=1.45, J_mn=1e300, K_tn=1e-300), "alpha", [5e-324, 1.0]),
]
INVALID_GRIDS = [[0.5, 2.0, math.inf], [0.0, 1.0], [-1.0, 1.0], [math.nan, 1.0], [1.0, 1.0],
                 [2.0, 1.0], [1.0]]


def _sweeps(rng: random.Random):
    """(base config, gains, param, values) of each seeded sweep."""
    for kind in MeasurementKind:
        for param in ("alpha", "g_dob"):
            for _ in range(LOCI):
                ts = 10.0 ** rng.uniform(-7.0, -3.0)
                alpha = 10.0 ** rng.uniform(-1.0, 1.0)
                g_dob = 10.0 ** rng.uniform(-1.0, 0.5) / (alpha * ts)
                g_v = 10.0 ** rng.uniform(-1.0, 0.5) / ts
                gains = OuterGains(K_p=10.0 ** rng.uniform(2.0, 5.0),
                                   K_d=10.0 ** rng.uniform(0.0, 3.0))
                start = alpha if param == "alpha" else g_dob
                lo = start * 10.0 ** -rng.uniform(0.5, 2.0)
                hi = start * 10.0 ** rng.uniform(0.5, 2.0)
                n = rng.randint(16, 48)
                space = np.linspace if rng.random() < 0.25 else np.geomspace
                base = DobConfig(kind=kind, plant=PlantParams.from_alpha(alpha), g_dob=g_dob,
                                 Ts=ts, g_v=g_v)
                yield base, gains, param, space(lo, hi, n)


def _rejected():
    """(base config, gains, param, values) of each sweep that is rejected."""
    for plant, param, values in REJECTED:
        yield DobConfig(MeasurementKind.VELOCITY, plant, 500.0, 1e-3), LOCUS_GAINS, param, values
    for kind in MeasurementKind:
        base = DobConfig(kind=kind, plant=PlantParams.from_alpha(1.0), g_dob=500.0, Ts=1e-3,
                         g_v=1000.0)
        for param in ("alpha", "g_dob"):
            for values in INVALID_GRIDS:
                yield base, LOCUS_GAINS, param, values
        yield base, LOCUS_GAINS, "beta", [1.0, 2.0]


def _figures(cfg: DobConfig, gains: OuterGains):
    """The ``classify_poles`` figures of cfg's inner and outer loop."""
    try:
        inner = make_inner_loop(cfg)
        outer = make_outer_loop(inner, make_pd(gains, cfg.Ts))
    except Exception as exc:
        yield f"loop {type(exc).__name__}: {exc}".encode()
        return
    for loop in (inner, outer):
        try:
            poles = classify_poles(loop.T)
            yield bytes([poles.all_in_unit, poles.all_real_in_0_1]) + _floats(poles.max_mag)
        except Exception as exc:
            yield f"classify {type(exc).__name__}: {exc}".encode()


def _locus_outputs(base: DobConfig, gains: OuterGains, param: str, values):
    """The byte strings that stand for one sweep's root locus and pole figures."""
    try:
        branch = root_locus(base, gains, param, values)
    except Exception as exc:
        yield f"locus {type(exc).__name__}: {exc}".encode()
        return
    for poles in branch.pole_sets:
        yield _floats(*(part for p in poles for part in (p.real, p.imag)))
    yield _floats(*branch.max_mags)
    yield b"none" if branch.exit_value is None else _floats(branch.exit_value)
    yield from _figures(base, gains)
    yield from _figures(config_for_sweep(base, param, float(values[-1])), gains)


def locus_digest() -> str:
    """SHA-256 over the root loci of the seeded sweeps, then the rejected ones."""
    sweeps = list(_sweeps(random.Random(1))) + list(_rejected())
    return _sha256(chunk for sweep in sweeps for chunk in _locus_outputs(*sweep))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

ROOT_DRAWS = 200  # seeded polynomials per degree
ROOT_TS = (1e-3, 1e-5, 1e-7)
ROOT_ALPHAS = np.geomspace(0.1, 10.0, 24).tolist()
REJECTED_ROOTS = [[3.0], [0.0], [1.0, math.inf], [1e300, 1e-300]]


def _root_polynomials(rng: random.Random):
    """The polynomials whose roots are hashed: seeded, repeated-root, audited, rejected."""
    for degree in range(1, 9):
        for _ in range(ROOT_DRAWS):
            c = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, 30.0)
                 for _ in range(degree + 1)]
            if degree > 1 and rng.random() < 0.25:  # roots exactly at 0
                zeros = rng.randint(1, degree - 1)
                c[:zeros] = [0.0] * zeros
            yield Polynomial(c)
        if degree > 1:  # a double real root, then a triple one where there is room
            roots = [rng.uniform(-2.0, 2.0) for _ in range(degree)]
            for times in range(2, min(degree, 3) + 1):
                roots[1:times] = [roots[0]] * (times - 1)
                yield Polynomial(np.poly(roots)[::-1])
    for kind in MeasurementKind:
        for ts in ROOT_TS:
            for alpha in ROOT_ALPHAS:
                cfg = DobConfig(kind=kind, plant=PlantParams.from_alpha(alpha), g_dob=1.0 / ts,
                                Ts=ts, g_v=1.0 / ts)
                outer = make_outer_loop(make_inner_loop(cfg), make_pd(LOCUS_GAINS, ts))
                yield outer.L.den + outer.L.num
    for c in REJECTED_ROOTS:
        yield Polynomial(c)


def _root_outputs(p: Polynomial) -> bytes:
    """The byte string that stands for the roots and residual of p."""
    try:
        rs = poly_roots(p)
    except Exception as exc:
        return f"roots {type(exc).__name__}: {exc}".encode()
    return _floats(*(part for x in rs.roots for part in (x.real, x.imag)), rs.residual)


def roots_digest() -> str:
    """SHA-256 over the roots and residuals of the hashed polynomials."""
    return _sha256(map(_root_outputs, _root_polynomials(random.Random(2))))


if __name__ == "__main__":
    print(digest())
    print(locus_digest())
    print(roots_digest())
