"""Host-speed sampling, to take a shared machine's speed drift out of timings.

On a small VM shared with other tenants, the same code runs up to twice as
fast at one moment as at another, for tens of seconds at a time, and the
process's CPU time drifts with the wall time. A median over repetitions
cannot remove drift that lasts longer than a repetition.

So while the benchmark runs, an interval timer interrupts the benchmark's
own thread ten times a second to time a fixed reference kernel: a loop of
small numpy gathers, dot products and scatters driven from Python, the
mix of the program's per-sample SGD and SMOTE loops. (A pure-Python loop
or a large numpy reduction tracked the program's timings less well.)
The host's speed changes within a second, so each sample stands only for
the time from the end of its kernel run to the next sample. A timing is
reported in *reference seconds*: the program's time in each of these
slices of the interval, scaled by ``REFERENCE_KERNEL_S`` over that
slice's kernel time, and summed; the kernel runs themselves are left out.
A reference second is the time the program would take on a host that runs
the kernel in ``REFERENCE_KERNEL_S``. A change to the program moves it as
it moves wall time, while a change in the host's speed cancels out.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

PERIOD_S = 0.1
KERNEL_LOOPS = 100
# The kernel's typical time on a 2-vCPU Xeon VM at a nominal 2.1 GHz; it
# only sets the scale, and must never change once baselines exist.
REFERENCE_KERNEL_S = 0.0005

_rng = np.random.default_rng(0)
_WEIGHTS = np.zeros(5000)
_INDICES = [np.sort(_rng.choice(_WEIGHTS.size, 30, replace=False)) for _ in range(16)]
_VALUES = [_rng.random(30) for _ in range(16)]


def _kernel() -> None:
    for step in range(KERNEL_LOOPS):
        idx, values = _INDICES[step % 16], _VALUES[step % 16]
        margin = float(_WEIGHTS[idx] @ values)
        # The weights start and stay at zero, so every call does the same work.
        _WEIGHTS[idx] += 0.01 * margin * values


class HostSpeed:
    """Samples the reference kernel while installed (a context manager)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _kernel()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """The program's time in [start, end] (perf_counter times), in reference seconds."""
        if not self.durations:
            return end - start
        # Slice i runs from the end of kernel run i to the start of run i + 1;
        # time before the first run goes at the first run's speed.
        i = bisect.bisect_right(self.starts, start) - 1
        total = 0.0
        while True:
            lo = self.starts[i] + self.durations[i] if i >= 0 else -math.inf
            hi = self.starts[i + 1] if i + 1 < len(self.starts) else math.inf
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                total += overlap * REFERENCE_KERNEL_S / self.durations[max(i, 0)]
            if hi >= end:
                return total
            i += 1
