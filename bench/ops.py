"""What every workload module shares: ops, their per-pass tally and failures."""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

KINDS = ("acceleration", "velocity", "position")

# Plant of the README and of the acceptance suite; alpha is set through J_mn.
J_M, K_T = 0.003, 0.25
# README regulation configuration: g_dob, Ts, g_v and the outer PD gains.
REG_G_DOB, REG_TS, REG_G_V = 1000.0, 0.5e-3, 2000.0
REG_KP, REG_KD = 4000.0, 200.0
# Outer gains of the root-locus studies (acceptance criterion 9).
LOCUS_KP, LOCUS_KD = 5000.0, 25.0


class CheckFailed(Exception):
    """An op returned a result that its correctness check rejects."""


@dataclass
class Tally:
    """Deterministic counters of one pass, plus the largest child-process RSS.

    ``counts`` must repeat exactly for the same seed; ``child_rss_kb`` is a
    measurement and does not.
    """

    counts: dict = field(default_factory=dict)
    child_rss_kb: int = 0

    def add(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)


@dataclass(frozen=True)
class Op:
    """The unit that gets timed: ``run(tracer, tally)`` raises CheckFailed on a wrong result."""

    label: str
    run: Callable


def rng_for(workload: str, seed: int) -> random.Random:
    """The workload's input generator; the same seed gives the same inputs."""
    return random.Random(f"{workload}/{seed}")
