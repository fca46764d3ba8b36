"""Scaling measured times to a reference CPU speed.

The benchmark shares its machine with other tenants, and the speed it gets
drifts by tens of percent over seconds; a fixed Python loop shows the same
drift as the workloads.  To keep that drift out of the end-to-end times,
the worker samples its own speed while it measures: it times a fixed
calibration loop, independent of folkman, in thread CPU time (so time spent
preempted does not count).  A time measured at the sampled speed becomes a
time at the reference speed when multiplied by ``scale``, the mean over
samples of REFERENCE_LOOP_S / loop time.  Samples are evenly spaced in
wall time, and the work done in an interval is proportional to the speed
in it, so this mean weights each moment by its share of the work.
"""

from __future__ import annotations

import signal
import statistics
import time

# CPU seconds one calibration loop takes at the reference speed: about its
# time on the 2-core x86-64 box the benchmark was written on.
REFERENCE_LOOP_S = 0.0015
SAMPLE_EVERY_S = 0.05

_BITS = list(range(64))


def calibration_loop() -> int:
    """Fixed interpreter work: bit scans, list indexing and dict stores."""
    store = {}
    acc = 0
    for i in range(1000):
        m = (i * 2654435761) & 0xFFFF
        while m:
            b = m & -m
            m ^= b
            acc += _BITS[b.bit_length() - 1]
        store[i & 255] = acc
    return acc


def loop_cpu_s() -> float:
    start = time.thread_time()
    calibration_loop()
    return time.thread_time() - start


def scale_of(samples) -> float:
    return statistics.mean(REFERENCE_LOOP_S / s for s in samples if s > 0)


def scale_now(samples: int = 10) -> float:
    """Scale from a burst of samples taken now (after one warm-up loop)."""
    loop_cpu_s()
    return scale_of([loop_cpu_s() for _ in range(samples)])


class SpeedSampler:
    """Samples speed every SAMPLE_EVERY_S of wall time, from SIGALRM, while
    the ``with`` block runs in the main thread.  Pool workers forked inside
    the block do not inherit the timer."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(loop_cpu_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        return scale_of(self.samples) if self.samples else scale_now()
