"""Host speed correction for the benchmark's timings.

The benchmark runs on a shared host whose speed switches between regimes
about 40% apart, on time scales from a tenth of a second to several
seconds.  The change shows in CPU time as well as wall time, so it is not
time spent waiting.  Timed alone, one 8 s op varies by about 10% from run
to run.

``SpeedMeter.measure`` therefore times a call while sampling the host's
speed: a small fixed numpy/scipy kernel that does not touch anisodnl runs
before the call, every ``PERIOD`` seconds during it (from a SIGALRM
handler, between two Python bytecodes of the program) and after it.  The
reported time is the call's time minus the time spent in those samples,
scaled by ``REF_S / mean(sample times)``: seconds at the speed where the
kernel takes ``REF_S``.  The correction cancels the host's drift but not a
change in the program, which the kernel never runs.  Over repeated runs
of one 8 s cascade it brought the variation from 11% to about 1%.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tracer import PROBE

# Kernel time that defines one reported second; about its mean time on
# the 2-core machine the benchmark was written on.
REF_S = 0.0035
PERIOD = 0.1


class SpeedMeter:
    """Times calls in seconds corrected for the host's current speed."""

    def __init__(self):
        n = 33
        e = np.ones(n)
        lap = sp.diags([-e[:-1], 2 * e, -e[:-1]], [-1, 0, 1])
        self._matrix = (sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)
                        + sp.eye(n * n)).tocsc()
        self._u = np.random.default_rng(0).uniform(0.1, 1.0, (n, n))
        # bound now, so a tracer that wraps scipy later does not see it
        self._spsolve = spla.spsolve
        self._samples: list[float] = []
        self._spent = 0.0
        self._tracer = None
        self._last = self.kernel()

    def kernel(self) -> float:
        """Run the fixed kernel once: small-array numpy arithmetic and a
        sparse solve on a 33x33 grid, the mix of a solver step."""
        t0 = time.perf_counter()
        v = self._u.copy()
        for _ in range(20):
            w = np.abs(v) ** 1.7
            d = np.diff(w, axis=0) ** 2 + np.diff(w, axis=1).sum()
            v = v + 1e-3 * np.where(v > 0.5, 1.0, -1.0) + 1e-6 * d.sum()
        self._spsolve(self._matrix, v.ravel())
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        if self._tracer is None:
            self._samples.append(self.kernel())
        elif not self._tracer.updating:
            self._samples.append(
                self._tracer.call(PROBE, self.kernel, (), {}))
        self._spent += time.perf_counter() - t0

    def measure(self, fn, *args, tracer=None):
        """Call fn(*args); return (raw_s, net_s, scale, result).

        ``net_s`` excludes the speed samples taken during the call and
        ``net_s * scale`` is the corrected time.  With a tracer, each
        sample is recorded as a PROBE span so layer times can leave it
        out.
        """
        self._samples = [self._last]
        self._spent = 0.0
        self._tracer = tracer
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._tracer = None
        self._last = self.kernel()
        self._samples.append(self._last)
        scale = REF_S / (sum(self._samples) / len(self._samples))
        return raw, raw - self._spent, scale, result
