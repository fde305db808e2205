"""The host's speed, sampled in the workload's own thread while it runs.

On a shared virtual machine the same iteration's CPU time swings by
±20-30 % within minutes: the host runs this machine's CPUs now faster, now
slower, and the two CPUs change independently. ``SpeedProbe`` times a
fixed piece of pure-Python work every ``PERIOD_S`` of the process's CPU
time (``SIGPROF``), in the thread that runs the workload, so each sample
sees the speed the workload runs at in that moment. ``slowdown()`` is the
samples' mean CPU time over ``NOMINAL_S``, the probe's CPU time when the
host runs at full speed; dividing a CPU time by it gives the time the
work would take at full speed.

The probe work lives here, outside the program, so no change to the
program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1         # CPU seconds between samples: about 2 % overhead
NOMINAL_S = 1.5e-3     # probe_work()'s CPU time at the host's full speed
SETUP_SAMPLES = 20     # samples taken right after set-up


def probe_work() -> int:
    """Fixed pure-Python integer arithmetic. Its time depends on the host
    and hardly on what the workload left in the caches, so a change to
    the program does not move it. A probe of lookups in a large dict
    tracked the workloads' time more closely, but it took 2.1 ms back to
    back and 5.3-5.7 ms with other work between samples: it measured the
    caches' state as well as the host."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def sample() -> float:
    """CPU time of one run of the probe work."""
    start = time.thread_time()
    probe_work()
    return time.thread_time() - start


class SpeedProbe:
    """Samples the probe work every ``PERIOD_S`` of CPU time inside a
    ``with`` block; ``samples`` holds each sample's CPU time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def slowdown(samples: list[float]) -> float:
    """Mean sample over ``NOMINAL_S``: above 1 while the host runs slow.
    1 when there is no sample."""
    return statistics.fmean(samples) / NOMINAL_S if samples else 1.0
