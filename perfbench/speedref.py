"""Machine-speed reference: a fixed piece of work timed between units of work.

On a shared virtual machine the CPU's speed drifts, by up to 2x, over
seconds to minutes, and both vCPUs drift on their own. Every piece of
wall time a run measures moves with it, so the medians of runs a few
minutes apart differ by more than any bound worth keeping, however long
each run is. The benchmark therefore times this fixed work every
``EVERY_S`` seconds of its measured loop, between two units of work
(never inside one), and reports its end-to-end times scaled to a fixed
nominal speed:

    scaled time = measured time * NOMINAL_S / trimmed mean(reference times)

Throughput is divided by the same factor. The reference uses only
numpy, the BLAS, the interpreter and the kernel's page faults, all
fixed by the environment; it never calls the program, takes its fresh
pages from a private mapping of its own rather than the heap, and runs
with the garbage collector off, so the program's heap does not change
its cost. A change to the program moves the scaled figures in the same
proportion as the raw ones; the raw figures and the factor are printed
and saved beside them.
"""

from __future__ import annotations

import gc
import mmap
import time
from typing import List

import numpy as np

# About the reference's time on the machine the bounds were set on (a
# 2-vCPU Xeon virtual machine, Python 3.11, numpy 2.4, one BLAS thread),
# where its trimmed mean ran between 14 and 25 ms from run to run. Only
# the ratio matters: at this speed the scaled figures equal the raw ones.
NOMINAL_S = 0.018
EVERY_S = 0.25  # at most one reference per this much measured loop
FAULT_BYTES = 4 << 20


class SpeedReference:
    """Times `work` after each set-up and, in the measured loop, at most
    once per EVERY_S seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.samples: List[float] = []
        self.spent_s = 0.0  # wall time the reference took, timing included
        self._last = float("-inf")
        # a 720-scale image and a scattered read of it, like the resampler's
        self._img = rng.random(720 * 480)
        self._idx = rng.permutation(self._img.size)
        self._tmp = np.empty_like(self._img)
        # a small GEMM, like one im2col convolution
        self._a = rng.random((64, 576))
        self._b = rng.random((576, 512))
        self._c = np.empty((64, 512))

    def work(self) -> float:
        s = 0
        for i in range(40000):
            s = (s + i * i) % 1000003
        for _ in range(2):
            np.take(self._img, self._idx, out=self._tmp)
            np.multiply(self._tmp, 0.5, out=self._tmp)
            np.add(self._tmp, self._img, out=self._tmp)
        for _ in range(6):
            np.matmul(self._a, self._b, out=self._c)
        # fresh pages, as the program's large temporaries get them
        pages = mmap.mmap(-1, FAULT_BYTES)
        for off in range(0, FAULT_BYTES, mmap.PAGESIZE):
            pages[off] = 1
        pages.close()
        return s + float(self._c[0, 0]) + float(self._tmp[0])

    def sample(self) -> None:
        """Time the work once."""
        t_in = time.perf_counter()
        gc_was = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if gc_was:
                gc.enable()
        self._last = time.perf_counter()
        self.spent_s += self._last - t_in

    def tick(self) -> float:
        """Time the work if EVERY_S has passed since the last time;
        returns the wall time spent here."""
        if time.perf_counter() - self._last < EVERY_S:
            return 0.0
        before = self.spent_s
        self.sample()
        return self.spent_s - before
