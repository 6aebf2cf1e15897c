"""Machine-speed meter: wall time rescaled to a fixed reference speed.

On a shared host a single-threaded process runs at anywhere between full
and about half speed, in stretches of a few seconds, with CPU time and wall
time slowing alike. Measured on a 2-core shared Xeon VM, 4 s slices of the
same σ_min sweep spread by 20-34 % (quartile distance over median); the
same slices rescaled by a cold-probe version of this meter spread by 4-7 %.

A timer signal interrupts the measured code every INTERVAL_S and times a
fixed probe shaped like the pipeline's inner loop (see `probe`), on a matrix
of the workload's operator dimension. A warm probe runs once untimed first,
so that the timed run finds its data in cache; a cold probe is timed on its
first run, right after the measured code. Each slice of wall time between
two probes is scaled by the reference probe time over the mean of its two
probes, and the probes' own time is left out. The sum reads in seconds at
the speed at which one probe takes the reference time. Only intervals that
begin after `start` can be read.

Which probe follows a workload best was measured on the same runs, scaling
each by both (quartile distance over median of the op time; wall clock in
brackets): σ_min grids, which reuse one shifted matrix for many Lanczos
steps, follow the warm probe (bs-pseudo, 8 runs: warm 6 %, cold 10 % (23 %);
cd-recipe, 6 runs: warm 5 %, cold 8 % (22 %)); LU factorizations of fresh
shifted matrices follow the cold one (bs-ladder, 6 runs: cold 6 %, warm
13 % (20 %)).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg as sla

INTERVAL_S = 0.01
# Per probe dimension: repeats of the probe body. Per (dimension, warm):
# about the median probe time inside a run on the machine named above, so
# that reported seconds come out close to that machine's wall seconds.
PROBE_REPEATS = {64: 2, 200: 1}
REFERENCE_PROBE_S = {(64, True): 2.2e-4, (200, True): 2.5e-4, (200, False): 4.5e-4}


class SpeedMeter:
    def __init__(self, dim: int = 64, warm: bool = True):
        self.repeats = PROBE_REPEATS[dim]
        self.reference = REFERENCE_PROBE_S[dim, warm]
        self.warm = warm
        rng = np.random.default_rng(0)
        n, k = dim, 16
        self._T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        self._T += 10.0 * np.eye(n)
        self._b = rng.standard_normal(n) + 0j
        self._Q = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        self._alpha = rng.standard_normal(12)
        self._beta = rng.standard_normal(11)
        # per tick: probe start, timed probe seconds, probe end (perf_counter seconds)
        self.starts: list[float] = []
        self.probes: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def probe(self) -> float:
        """Seconds of one run of `_step`, after an untimed one if warm."""
        if self.warm:
            self._step()
        start = time.perf_counter()
        self._step()
        return time.perf_counter() - start

    def _step(self) -> None:
        """One Lanczos-like step on fixed data: two triangular solves, a
        projection, a tridiagonal eigenvalue and a short Python loop."""
        for _ in range(self.repeats):
            x = sla.solve_triangular(self._T, self._b, check_finite=False)
            x = sla.solve_triangular(self._T, x, trans="C", check_finite=False)
            y = x - self._Q @ (self._Q.conj().T @ x)
            theta = sla.eigvalsh_tridiagonal(self._alpha, self._beta)[-1]
            acc = 0.0
            for i in range(40):
                acc += i * 0.5
            float(np.real(np.vdot(x, y))) + theta + acc

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probes.append(self.probe())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        for _ in range(5):  # first calls pay for lazy LAPACK lookups
            self.probe()
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._tick()

    @contextmanager
    def paused(self):
        """No probes inside the block: a child process timed in wall clock
        would otherwise share its CPU with them."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _slices(self, start: float, end: float):
        """(length, mean of its two probes) of each slice between probes,
        clipped to [start, end]."""
        for i in range(max(1, bisect.bisect_right(self.ends, start)), len(self.starts)):
            probe = 0.5 * (self.probes[i - 1] + self.probes[i])
            length = min(self.starts[i], end) - max(self.ends[i - 1], start)
            if length > 0:
                yield length, probe
            if self.starts[i] >= end:
                break

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent in [start, end], probes excluded."""
        return sum(length * self.reference / probe for length, probe in self._slices(start, end))

    def unprobed(self, start: float, end: float) -> float:
        """Wall seconds spent in [start, end], probes excluded."""
        return sum(length for length, _ in self._slices(start, end))

    def median_probe(self) -> float:
        return statistics.median(self.probes)

    def scaled_at_run_speed(self, seconds: float) -> float:
        """Wall seconds that no probe saw (a child process's), read at the
        run's median probe time."""
        return seconds * self.reference / self.median_probe()
