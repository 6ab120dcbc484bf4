"""A gauge of how fast a shared host runs, to scale measured times by.

On a small cloud VM the same pass of the same code took anywhere from 1x to
2x its fastest time, in episodes lasting seconds to many minutes, because
other tenants share the physical cores.  Within one run the fastest or median
time follows those episodes, so two runs of the same code minutes apart
disagree by more than any useful bound.

The gauge times a fixed probe: a few milliseconds of pure-Python arithmetic,
50-digit mpmath and small numpy eigensolves, the three kinds of work the
workloads do, none of it sharplp code.  A call is timed together with probes
taken just before it, every TICK_S during it (from a SIGALRM handler, whose
time is taken out of the call's time), and just after it.  Its time is
then scaled by REFERENCE_PROBE_S over the mean probe time: what the call
would have taken had the host run as fast as when the probe takes
REFERENCE_PROBE_S.  The scaled time moves with the program's own cost and
much less with the host's episodes; the raw times stay in the run's facts.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Callable

import mpmath
import numpy as np

# About the fastest probe seen on an idle 2-vCPU Intel Xeon cloud VM; a unit
# only: it scales every run alike, whichever commit is measured.
REFERENCE_PROBE_S = 0.0021
TICK_S = 0.2


class Gauge:
    """Times calls and scales their times to the host's full speed."""

    def __init__(self):
        self._mp = mpmath.MPContext()  # its own precision, not mpmath.mp's
        self._mp.dps = 50
        m = np.random.default_rng(0).standard_normal((30, 4, 4))
        self._mats = m @ m.transpose(0, 2, 1)
        self.probes: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        s, d = 0.0, {}
        for i in range(6000):
            s += math.sqrt(i) * 1.0000001
            d[i & 255] = s
        x = self._mp.mpf(1) / 3
        for i in range(50):
            s += float(self._mp.exp(x * i / 50) * self._mp.log(x + i))
        for m in self._mats:
            s += float(np.linalg.eigvalsh(m)[0])
        return time.perf_counter() - t0

    def probe(self) -> float:
        """Seconds for the probe, run warm: the second of two runs."""
        self._kernel()
        seconds = self._kernel()
        self.probes.append(seconds)
        return seconds

    def run(self, calls: list[Callable], ticking: bool = True) -> list[tuple[object, float]]:
        """Run each call in turn; return each one's result and scaled time.

        With ``ticking`` the probe also runs every TICK_S during each call;
        leave it off when the call only waits for a child process, so that
        the probe does not compete with the child for the host.
        """
        ticks: list[float] = []
        tick_s = 0.0  # time spent in the handler, both kernel runs included

        def on_tick(*_):
            nonlocal tick_s
            t0 = time.perf_counter()
            ticks.append(self.probe())
            tick_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_tick)
        try:
            before, out = self.probe(), []
            for call in calls:
                ticks.clear()
                tick_s = 0.0
                if ticking:
                    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
                t0 = time.perf_counter()
                try:
                    result = call()
                finally:
                    seconds = time.perf_counter() - t0
                    signal.setitimer(signal.ITIMER_REAL, 0)
                after = self.probe()
                busy = seconds - tick_s
                out.append((result, busy * REFERENCE_PROBE_S / statistics.fmean([before, *ticks, after])))
                before = after
            return out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
