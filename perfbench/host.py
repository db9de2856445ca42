"""Host speed, measured by a fixed reference computation during the run.

The machine this benchmark runs on is a share of a host whose speed drifts:
the same numpy loop runs at 0.75 to 1.25 times its median speed, all of it
user time, in phases that last from seconds to minutes, so a whole run
often falls in one phase.  Wall times of identical runs then spread by
more than any useful regression bound.  So the benchmark times a reference
computation, which does not call fgl, and scales each round's time by how
fast the host ran the reference meanwhile:

    time at reference speed = own time * REFERENCE_S / mean reference time

A change to fgl moves the round's own time and not the reference, so it
moves the scaled time by the same share; a slow host phase moves both and
cancels.  The reference is timed before and after each round and, from a
timer signal, every SAMPLE_INTERVAL_S inside it.  ``clock`` leaves out the
time spent in those in-round samples; rounds and spans are timed by it.
The reference mixes the work the package's rounds do: table gathers with
XOR (as in ``groups._Kernels.mul_batch``), AND + popcount over bit rows
(as in ``graphs``), and interpreted Python.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# About the time of one reference computation inside rounds on the machine
# the baseline was measured on (2 vCPU Intel Xeon VM, Python 3.11.7, numpy
# 2.4.6); it fixes the unit, so that scaled times read close to that
# machine's wall times.
REFERENCE_S = 0.03
SAMPLE_INTERVAL_S = 0.5
BOUNDARY_REPEATS = 4  # a boundary sample is the median of this many

_sampling_s = 0.0  # wall time this process has spent in in-round samples


def clock() -> float:
    """time.perf_counter() without the time spent in in-round samples."""
    return time.perf_counter() - _sampling_s


class Reference:
    """A fixed computation that allocates no array memory once built, so
    that samples taken inside a round leave the package's heap as it is.

    A 64 KB numpy buffer allocated and freed inside a round changed where
    malloc put the package's later large arrays: peak RSS of
    verify-psl2-q64 read 171.5 or 187.6 MB from run to run.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 64, size=64 * 64, dtype=np.uint8)
        a = rng.integers(0, 64, size=(30000, 2, 2), dtype=np.intp)
        b = rng.integers(0, 64, size=(30000, 2, 2), dtype=np.intp)
        # flat table index of each term a[i, k] * b[k, j] of a 2x2 product
        self.index = [a[..., :, k, None] * 64 + b[..., k, None, :] for k in range(2)]
        self.product = np.empty((30000, 2, 2), dtype=np.uint8)
        self.term = np.empty_like(self.product)
        self.rows = rng.integers(0, 1 << 63, size=(1024, 16), dtype=np.uint64)
        self.partner = np.roll(self.rows, 1, axis=0)
        self.anded = np.empty_like(self.rows)
        self.counts = np.empty(self.rows.shape, dtype=np.uint8)
        self.measure(BOUNDARY_REPEATS)  # warm-up: first-touch pages and caches

    def _work(self) -> None:
        # no reductions or broadcasts: numpy would allocate a buffer for them
        for _ in range(75):
            np.take(self.table, self.index[0], out=self.product, mode="clip")
            np.take(self.table, self.index[1], out=self.term, mode="clip")
            np.bitwise_xor(self.product, self.term, out=self.product)
        for _ in range(128):
            np.bitwise_and(self.rows, self.partner, out=self.anded)
            np.bitwise_count(self.anded, out=self.counts)
        x = 0
        for i in range(20000):
            x ^= (i * 40503) & 0xFFFF

    def _once(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def measure(self, repeats: int = 1) -> float:
        """Median wall time of `repeats` reference computations, in seconds."""
        return statistics.median(self._once() for _ in range(repeats))


class Sampler:
    """Times the reference every SAMPLE_INTERVAL_S between start and stop.

    The samples are taken from a SIGALRM handler, so they land between
    Python bytecodes of the measured code; ``clock`` does not count them.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        global _sampling_s
        # No cyclic collection may start inside a sample: it would run at a
        # point of the package's allocations that the package did not choose.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            self.samples.append(self.ref._once())
        finally:
            _sampling_s += time.perf_counter() - t0
            if collecting:
                gc.enable()

    def start(self) -> None:
        self.old = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old)
