"""How fast the machine runs Python while a workload runs, from a fixed kernel.

On a shared machine the same code runs up to 40 % slower or faster from
one minute to the next, while CPU time stays equal to wall time: the
speed changes, not the share of the CPU.  A median of many rounds does
not remove that, because a speed can hold for minutes.  So a `Sampler`
times `kernel` from a timer signal every INTERVAL_S while a worker runs,
inside long cases too, and keeps its own time out of the worker's clock.
run.py then scales every time of a run by REFERENCE_KERNEL_S / (mean
kernel time over the run): times are seconds on a machine where the
kernel takes REFERENCE_KERNEL_S.  The kernel belongs to the benchmark: if
it changed, figures before and after the change would not compare.

The kernel runs with the collector off, so that a collection it would
trigger does not walk the workload's heap: its time must depend on the
machine only, not on what the workload holds.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_KERNEL_S = 0.002
INTERVAL_S = 0.05


def kernel() -> float:
    """Seconds taken by a fixed mix of dict, tuple, list and sort work."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict[int, int] = {}
    pairs = []
    for i in range(3000):
        k = i * 7919 % 1009
        counts[k] = counts.get(k, 0) + 1
        pairs.append((k, i))
    pairs.sort()
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


class Sampler:
    """Samples `kernel` every INTERVAL_S of wall time between `start` and `stop`."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self._spent += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter without the time the samples took."""
        return time.perf_counter() - self._spent


def scale(samples: list[float]) -> float:
    """Factor that turns measured seconds into reference seconds.

    The mean, not the median: the speed flips between states within a
    second, and the work's time follows the mean.  A twentieth of the
    samples at each end is dropped, which takes out single preemptions.
    """
    cut = len(samples) // 20
    kept = sorted(samples)[cut:len(samples) - cut]
    return REFERENCE_KERNEL_S / statistics.fmean(kept)


def setup_scale(samples: list[float]) -> float:
    """Factor for one worker's set-up, from kernels timed just before and
    just after it.  The set-up is shorter than INTERVAL_S, so the timer
    seldom samples it; the median, because a few samples are all there is.
    """
    return REFERENCE_KERNEL_S / statistics.median(samples)
