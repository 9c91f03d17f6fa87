"""One SHA-256 over the robustness outputs of a seeded survey of loops.

Run it on two source trees to show that a change leaves those outputs the same
bit for bit::

    PYTHONPATH=src python tests/digest.py

It uses only the public API. The survey is 1,500 seeded loops: every
measurement kind, inner and outer loops, Ts from 1e-7 to 1e-3 s, one loop in
ten within a few ulps of alpha*g_dob*Ts = 2, plus a few loops at the
underflow edge. For each loop it hashes ``freq_sweep`` at 16, 256 and 512
points (the arrays and both peaks) and ``bode_integral_discrete``; an error
raised anywhere is hashed as its type and message. pytest does not collect
this file: its name does not start with ``test_``.
"""
from __future__ import annotations

import hashlib
import random
import struct

import numpy as np

from dobkit import (
    DobConfig, MeasurementKind, OuterGains, PlantParams, bode_integral_discrete,
    freq_sweep, make_inner_loop, make_outer_loop, make_pd,
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


def digest() -> str:
    """SHA-256 over the survey's outputs, each prefixed with its length."""
    h = hashlib.sha256()
    for config in _configs(random.Random(0)):
        for chunk in _outputs(config):
            h.update(len(chunk).to_bytes(8, "little"))
            h.update(chunk)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
