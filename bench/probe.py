"""Host-speed probe: wall times rescaled to a nominal host speed.

The host this benchmark was written on runs the same code up to twice as
slowly for seconds at a time, with CPU time equal to wall time (README.md,
"Noise").  A raw wall time therefore measures the host as much as the
program.  While an operation runs, SpeedProbe interrupts it every PERIOD_S
seconds with SIGALRM and times a fixed loop of small numpy operations, the
kind of work dpic does per control step.  The operation's nominal time is
its elapsed time times the mean of NOMINAL_S / (probe time): the time it
would have taken had every probe run at the nominal speed.  Only the main
thread of a process can install the probe.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
PROBE_LOOPS = 60
# in-operation probe time at the fast speed of a 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4); a constant, so that nominal times compare
# between runs and commits and read close to fast-host seconds
NOMINAL_S = 150e-6

_A = np.eye(4) * 0.5
_X0 = np.ones(4)


def _probe() -> float:
    t0 = time.perf_counter()
    x = _X0
    for _ in range(PROBE_LOOPS):
        x = np.maximum(_A @ x + 1.0, 0.0)
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples host speed while its block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        self.samples.append(_probe())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # block shorter than one period
            self.samples.append(_probe())

    def speed(self) -> float:
        """Mean host speed over the block relative to the nominal speed."""
        return sum(NOMINAL_S / s for s in self.samples) / len(self.samples)


def timed(fn, *args):
    """Run fn(*args) under a probe; returns (result, elapsed_s, nominal_s)."""
    probe = SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
    return result, elapsed, elapsed * probe.speed()
