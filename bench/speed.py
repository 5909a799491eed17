"""Machine-speed calibration for the timed runs.

The machine the benchmark was written on shares its CPUs with other tenants.
Its speed for pure-Python code switches between modes about 2x apart, for
seconds to minutes at a time; a 2.6 s jet table measured 1.95 s to 3.31 s
within two minutes.  Raw wall times of runs minutes apart therefore differ by up to
30%.

To compare runs, the time of each task, and of set-up, is scaled by the
machine's speed during it.  A fixed pure-Python loop (``probe_loop``,
not gsbench code) is timed right before and right after the task, and every
``INTERVAL_S`` in between from a ``SIGALRM`` handler.  The task's time is
multiplied by ``REF_PROBE_S`` over the mean probe time of the samples taken
during it.  The result is in seconds at the reference speed: the speed at
which one probe loop takes ``REF_PROBE_S``.

Probes must run in the process doing the work.  The parent of a child
process sleeps in a wait while the child runs, so its probes measure its
own CPU, not the child's: scaling cold CLI runs and set-up times that way
doubled their run-to-run spread.  A fresh interpreter therefore probes
itself while it imports gsbench and does its work (set-up in worker.py, a
CLI run in cli_child.py) and reports its factor; the parent scales the wall
time it measured, from start to finish, by that factor.

The probes cost about 2% of an in-process run, the same on every commit.  On a
machine whose speed does not change, the factor stays constant and the
scaled times are the raw times times a constant.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.01
# One probe loop at the reference speed: the slower of the two speed modes
# of the defining machine (2-vCPU x86_64, Python 3.11.7).
REF_PROBE_S = 1.8e-4


def unscaled(fn):
    """(result, raw seconds, raw seconds): timing without a probe."""
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, raw


def probe_loop(n: int = 500) -> float:
    """Fixed interpreter work: float math, dict and branch traffic."""
    d = {}
    acc = 0.0
    for i in range(n):
        x = math.log1p(i * 0.5) * 1.0001
        d[i & 255] = d.get(i & 255, 0.0) + x
        acc += x if i & 1 else -x
    return acc


class SpeedProbe:
    """Probe samples in time order; ``measure`` times and scales a call."""

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """(result, raw seconds, scaled seconds) of ``fn()``."""
        first = len(self.samples)
        self.sample()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self.sample()
        return result, raw, raw * self.factor(first)

    def factor(self, first: int = 0) -> float:
        """``REF_PROBE_S`` over the mean of the samples from ``first`` on."""
        return REF_PROBE_S / statistics.fmean(self.samples[first:])
