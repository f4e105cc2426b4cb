"""Reference kernel: a fixed piece of work that clocks the host's speed.

On a shared 2-vCPU x86-64 VM the speed of the one core a run uses swings
by up to 2x within seconds (the same ``oracle`` call took 0.29 s and
0.60 s a few seconds apart, CPU time equal to wall, no steal), so raw
wall times of runs made minutes apart spread far beyond any useful bound.
The kernel therefore runs before the first timed call and after each
one, and the end-to-end call times are reported at reference speed::

    wall * REF_S / (median of the three kernel runs before the call
                    and the three after it)

that is, in seconds on a host where the kernel takes ``REF_S``.  A change
to the program moves that figure exactly as it moves the wall time; a
change of host speed during the call moves both the call and the kernel.
Over ten runs per workload on that VM it shrank the per-run offsets of
call times from 2-19% to 0-4% and the run-to-run spread (quartile
distance over median) of the median call from 8-10% to 5-7%.  What is
left is call-to-call jitter the kernel does not follow, about 11% per
call.  Raw wall times and kernel times stay in the run record.  Set-up time is
not scaled: it is mostly imports, which did not follow the kernel.

The kernel mixes what the program spends its time on: interpreter-bound
loops over tiny numpy arrays (value iteration, Jacobian assembly) and
small dense factorizations (the QR and LU of the path tracer).  It is
the benchmark's own code, so it is the same on every commit measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel seconds that define reference speed: a round figure near its
#: median time (5-7 ms) on the VM above, so values read as seconds there.
REF_S = 0.005

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((24, 24))
_WIDE = _rng.standard_normal((24, 25))
_RHS = _rng.standard_normal(24)
_VEC = _rng.standard_normal(8)


def kernel_s() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    v = _VEC
    acc = 0.0
    for i in range(500):
        u = v * 0.99 + 1.0
        acc += float(np.max(np.abs(u - v)))
        if i % 20 == 0:
            np.linalg.solve(_SQUARE, _RHS)
            np.linalg.qr(_WIDE.T)
    wall = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel lost its operands")
    return wall


def per_call(kernels: list[float]) -> list[float]:
    """Kernel time for each of ``len(kernels) - 1`` calls, from kernel runs
    made before the first call and after each call: the median of the
    three runs before the call and the three after it.  One kernel run
    is itself noisy; six of them still track swings of a few seconds.
    """
    return [statistics.median(kernels[max(0, k - 2):k + 4])
            for k in range(len(kernels) - 1)]


def scale(kernel: float) -> float:
    """Factor that takes a wall time measured while the kernel took
    ``kernel`` seconds to reference speed."""
    return REF_S / kernel
