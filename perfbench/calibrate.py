"""Machine-speed reference for normalizing the benchmark's times.

Every benchmark time is CPU time, so the moments a shared host does not run
the benchmark count in no figure.  CPU time still moves with the host's
load: contention for cores, caches and memory slows every instruction.  On
the 2-vCPU VM this benchmark was written on, the CPU time of the same op
moved by 1.5x within an hour and by a fifth from one op to the next.

A fixed reference kernel, read in CPU time *while the op runs*, follows
that drift.  :class:`Sampler` arms a CPU-time interval timer (``SIGPROF``)
around each op: every ``TICK_S`` of CPU time, between two bytecodes of the
op, the signal handler runs the kernel once and records its CPU time.  So
the kernel sees the same moments, and the same disturbances, as the op.
The op's own time is its CPU time minus the readings taken inside it.  It
is multiplied by (``NOMINAL_S`` / mean of those readings) ** ``ELASTICITY``,
which gives it in seconds at the nominal speed.  An op shorter than
``MIN_READINGS`` ticks uses the mean of every reading of the run instead.

Readings taken between ops follow the drift only in part.  Readings inside
the op do better: in per-op logs of the three workloads on that VM, the
quartile spread of single-op times went from 15-30 % raw to 4-12 %
normalized.  The same logs fix ``ELASTICITY``, because the ops' CPU time
moves more with the host's load than the kernel's.  Fitting the log of
each op's time on the log of its mean reading gave slopes of 1.1
(montecarlo), 1.3 (exact) and 1.5 (certify).  An exponent of 1.2 cut the
spread of certify ops from 11 % to 8 % and of census ops from 12 % to
10 %, and left montecarlo and ``s0`` ops as they were.

The kernel mixes the kinds of work the package does (interpreter
arithmetic, dict probes, list permutations, small numpy calls) on small
data built once, so a reading allocates almost no fresh memory.  Kernels
that chase pointers through tens of MB followed the ops worse.  The kernel
uses no part of the package, so a change to the program moves the op
times, never the kernel.  Raw CPU times and the mean reading are printed
beside the normalized figures.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time

import numpy as np

# Kernel CPU time at the nominal speed: about its mean inside ops on the VM
# above (Intel Xeon, Python 3.11, numpy 2.4).  Only a scale: changing it
# rescales every normalized time of every commit alike.
NOMINAL_S = 0.002
TICK_S = 0.02  # CPU seconds between two readings inside an op
MIN_READINGS = 5  # fewer readings in an op: normalize it by the run's mean
ELASTICITY = 1.2  # d log(op time) / d log(kernel time): see above


@functools.cache
def _data() -> tuple:
    """The kernel's inputs, built on first use so that no set-up pays for them."""
    table = {(i * 2_654_435_761) % 2_000_003: (i, i & 1023) for i in range(50_000)}
    probes = [(i * 40_503) % 2_000_003 for i in range(2_000)]
    p = [(i * 7_919) % 2_000 for i in range(2_000)]
    q = [(i * 104_729) % 2_000 for i in range(2_000)]
    a = np.array([(i * 7_919) % 7_778 for i in range(7_778)], dtype=np.int64)
    b = np.array([(i * 104_729) % 7_778 for i in range(7_778)], dtype=np.int64)
    return table, probes, p, q, a, b


def kernel_seconds() -> float:
    """CPU time of one run of the kernel (about 2 ms at nominal speed inside an op)."""
    table, probes, p, q, a, b = _data()
    t0 = time.thread_time()
    acc = 0
    for i in range(4_000):
        acc += i * i % 7
    get = table.get
    for k in probes:
        v = get(k)
        if v is not None:
            acc += v[1]
    composed = [p[x] for x in q]
    acc += sorted(range(400), key=composed.__getitem__)[0]
    for _ in range(2):
        c = a[b]
        acc += int(np.cumsum(np.argsort(c, kind="stable"))[-1]) + int((c == a).sum())
    return time.thread_time() - t0


class Sampler:
    """Kernel readings taken inside the code run under :meth:`measure`."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0  # CPU seconds of every reading so far
        _data()

    def _tick(self, signum, frame) -> None:
        reading = kernel_seconds()
        self.readings.append(reading)
        self.spent += reading

    def clock(self) -> float:
        """Process CPU time minus the readings: the clock ops read inside."""
        return time.thread_time() - self.spent

    def measure(self, fn, *args):
        """Run ``fn(*args)`` with readings every ``TICK_S`` of CPU time.

        Returns ``(result, seconds, readings)``: the CPU seconds of ``fn``
        without the readings, and the readings taken inside it.  If ``fn``
        raises, the timer is disarmed and the exception propagates.
        """
        first = len(self.readings)
        previous = signal.signal(signal.SIGPROF, self._tick)
        t0 = self.clock()
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        return out, self.clock() - t0, self.readings[first:]

    def read(self, budget: float) -> None:
        """Take readings outside any op for ``budget`` wall seconds, at least one."""
        start = time.perf_counter()
        self.readings.append(kernel_seconds())
        while time.perf_counter() - start < budget:
            self.readings.append(kernel_seconds())

    def mean(self) -> float:
        return statistics.fmean(self.readings)

    def factor(self, inside: list[float]) -> float:
        """Multiplier from CPU seconds to nominal seconds for one op."""
        ref = statistics.fmean(inside) if len(inside) >= MIN_READINGS else self.mean()
        return (NOMINAL_S / ref) ** ELASTICITY
