"""Host speed, for rescaling wall times to a fixed reference speed.

The benchmark runs on virtual CPUs that share their host with other
tenants, and the speed of those CPUs drifts by 20 % and more from one
second to the next, in CPU time as much as in wall time.  A run of one
seed would then measure the host as much as the library.  To take the
host out, a SIGALRM handler in the measured interpreter runs a fixed
reference kernel every ``INTERVAL_S`` of wall time, also in the middle of
a call (``Probe``), and every call's time is rescaled by how fast the
kernel ran during and around it:

    rescaled = (wall - handler time) * REFERENCE_S / (median kernel time)

so a rescaled time is the time the call would take on a host that runs
the kernel in ``REFERENCE_S``.  The kernel is the benchmark's own code and
calls nothing in ``bayesdecide``, so a change to the library cannot move
it.  It mixes the kinds of work the library does: scalar ``scipy.stats``
pdf calls, whose deep Python call path is most of a parametric EPL,
scalar Python arithmetic, small numpy calls (as in quadrature integrands)
and a pass over an array (as in draw-cloud EPLs), small enough to leave
the calls' data in cache.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np
import scipy.stats

# About the kernel's median time on the 2-vCPU machine of the first baseline.
# Only a scale: it makes rescaled times read as seconds on that machine.
REFERENCE_S = 1.0e-3
# The handler runs the kernel once per this much wall time (about 2 % of it).
INTERVAL_S = 0.05
# A call is rescaled by the kernel times within this distance of it, or
# by the nearest MIN_NEAR of them when fewer fall within it.
WINDOW_S = 0.25
MIN_NEAR = 4

_DIST = scipy.stats.gamma(3.0, scale=0.5)
_SMALL = np.linspace(0.0, 1.0, 64)
_ARRAY = np.linspace(0.0, 1.0, 20_000)


def kernel():
    s = 0.0
    for i in range(10):
        s += float(_DIST.pdf(0.1 + 0.05 * i))
    for i in range(100):
        x = i * 1e-3
        s += math.exp(-0.5 * x * x)
        s += float(np.dot(_SMALL, _SMALL * x))
    s += float(np.abs(_ARRAY - 0.5).sum())
    return s


def burst(n):
    """Kernel times of ``n`` runs, after one untimed warm-up run."""
    kernel()
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


class Probe:
    """Kernel times sampled by a SIGALRM handler while it is started."""

    def __init__(self):
        self.begin = []
        self.dur = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, _signum=None, _frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.dur.append(time.perf_counter() - t0)
        self.begin.append(t0)
        self._busy = False

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def handler_s(self, t0, t1):
        """Handler time inside [t0, t1]."""
        begin = np.asarray(self.begin)
        inside = (begin >= t0) & (begin <= t1)
        return float(np.asarray(self.dur)[inside].sum())

    def kernel_s(self, t0, t1):
        """Median kernel time during and around [t0, t1]."""
        begin = np.asarray(self.begin)
        near = np.nonzero((begin >= t0 - WINDOW_S) & (begin <= t1 + WINDOW_S))[0]
        if near.size < MIN_NEAR:
            dist = np.maximum(np.maximum(t0 - begin, begin - t1), 0.0)
            near = np.argsort(dist, kind="stable")[:MIN_NEAR]
        return float(np.median(np.asarray(self.dur)[near]))

    def rescale(self, t0, t1, in_process=True):
        """(call time without handler runs, that time rescaled).

        A call whose work runs in a child process is not paused by the
        handler, which then runs beside it on the other CPU, so nothing is
        taken off its time."""
        own = t1 - t0
        if in_process:
            own -= self.handler_s(t0, t1)
        return own, own * REFERENCE_S / self.kernel_s(t0, t1)
