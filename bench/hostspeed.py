"""Host speed: a fixed reference kernel, timed all through a run.

The benchmark runs on shared hosts whose speed drifts: the same code runs up
to about 1.5x slower for stretches of a second to minutes, so the median of a
20-second run moves by 15-30 % from one run to the next, and lengthening the
run does not average the drift away. The drift slows this kernel, which runs
no dobkit code, by about the same factor as it slows dobkit.

While the benchmark measures, a ``Sampler`` child process runs the kernel
every ``PERIOD`` seconds and writes down when each run ended and how long it
took. The benchmark scales each measured interval by ``REF_S`` over the
median kernel time from ``PERIOD`` before the interval to ``PERIOD`` after
it. A scaled time is in seconds at the host speed at which the kernel takes
``REF_S``. A change to dobkit does not move the kernel's time, so it moves a
scaled time as it moves the measured one. The sampler keeps one CPU about
2 % busy and sleeps otherwise, so the benchmark never has more than two
processes running at once.

Intervals and samples are read from ``time.monotonic``, which on Linux is
CLOCK_MONOTONIC, one clock for every process.

    python3 bench/hostspeed.py OUT     # the sampler's loop; Sampler starts it
"""
from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# The kernel's time, in seconds, at the reference host speed: about its median
# in the sampler on a 2-vCPU x86-64 cloud host with CPython 3.11 and NumPy 2.4.
REF_S = 0.0017
# Seconds the sampler sleeps between kernel runs.
PERIOD = 0.05

_COEFFS = np.array([1.0, -2.5, 2.1, -0.6, 0.04])
_Z = np.exp(1j * np.linspace(0.0, 3.0, 64))
_STATE = np.zeros(256)


def _kernel() -> None:
    """A scalar recursion through array elements, as in dobkit's step loops,
    then small NumPy calls, as in its root finding and Horner evaluation.

    Of the kernels tried (integer loop, the recursion alone, the NumPy calls
    alone, this mix), the mix followed the drift best on both root-finding-bound
    and step-loop-bound workloads.
    """
    x, state = 0.0, _STATE
    for k in range(1500):
        x = 0.9 * x + 0.1 * state[k & 255]
        state[k & 255] = x
    for _ in range(8):
        np.roots(_COEFFS)
        np.abs(np.polyval(_COEFFS, _Z))


class Sampler:
    """Runs the sampler process for the length of a ``with`` block.

    On entry it waits for the first two samples; on a normal exit it waits
    two more periods, so that the last interval measured has a sample after
    it. On any exit it stops the process and waits for it to end.
    """

    def __init__(self, path: Path):
        self.path = path
        self.ends: list = []
        self.times: list = []

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                      str(self.path)])
        try:
            while len(self._read()) < 2:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"the host-speed sampler exited {self.proc.returncode}")
                time.sleep(PERIOD)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            time.sleep(2 * PERIOD)
        self._stop()
        samples = self._read()
        self.ends = [end for end, _ in samples]
        self.times = [took for _, took in samples]

    def _stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()

    def _read(self) -> list:
        if not self.path.exists():
            return []
        lines = self.path.read_text().split("\n")[:-1]  # the last line may be partial
        return [tuple(map(float, line.split())) for line in lines]

    def scale(self, measured: float, start: float, end: float) -> float:
        """``measured`` seconds, taken from ``start`` to ``end``, in seconds at
        the reference host speed."""
        lo = bisect.bisect_left(self.ends, start - PERIOD)
        hi = bisect.bisect_right(self.ends, end + PERIOD)
        if lo == hi:
            raise RuntimeError(f"no host-speed sample near [{start}, {end}]")
        return measured * REF_S / statistics.median(self.times[lo:hi])

    def factor(self) -> float:
        """The run's median kernel time over REF_S: above 1 on a slower host."""
        return statistics.median(self.times) / REF_S


def _sample_forever(path: str) -> None:
    parent = os.getppid()
    with open(path, "w", encoding="utf-8") as out:
        while os.getppid() == parent:  # a parent killed outright leaves no orphan
            start = time.monotonic()
            _kernel()
            end = time.monotonic()
            out.write(f"{end!r} {end - start!r}\n")
            out.flush()
            time.sleep(PERIOD)


if __name__ == "__main__":
    _kernel()  # the first call pays for lazy imports inside NumPy
    _sample_forever(sys.argv[1])
