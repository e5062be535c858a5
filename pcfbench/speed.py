"""The host's speed, sampled while the operations run.

The CPU this benchmark was built on changes speed by up to half, in
bursts of a second or so, and the change shows as slower Python, not as
lost CPU time. A fixed kernel of integer arithmetic is timed before each
operation and, from a SIGALRM every INTERVAL_S, during it; an
operation's time at reference speed is its own time (less the time the
samples took) times REFERENCE_NS over the mean of its samples.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# The kernel's median on the machine of the README's reference figures.
# A constant, so that runs made at different moments compare.
REFERENCE_NS = 63_000

_clock = time.perf_counter_ns


def kernel():
    """Fixed interpreter work that allocates nothing the collector
    tracks, so neither the program's heap nor its garbage enters it."""
    acc = 0
    for i in range(1000):
        acc += i & 7
    return acc


class Sampler:
    """Kernel timings, taken on request and from a periodic alarm."""

    def __init__(self):
        self.samples = []
        self.spent = 0          # ns spent taking samples

    def sample(self):
        t0 = _clock()
        kernel()
        t1 = _clock()
        self.samples.append(t1 - t0)
        self.spent += _clock() - t0

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference(ns, samples):
    """ns of work done while the kernel took these times, scaled to the
    reference speed."""
    return ns * REFERENCE_NS * len(samples) / sum(samples)
