"""A fixed numpy kernel that measures how fast the machine is right now.

On a shared host the speed of one core drifts by 15-25% over minutes, and
a run's trials per second drifts with it.  The benchmark times this kernel
right before every repetition and reports throughput in units of the
kernel's duration, which cancels that drift.  The kernel mixes what a
trial does -- FFTs, a gather-einsum, complex exponentials, short Python
loops over small numpy calls -- and uses no BLAS and no risofdm code.

The program can still reach it through the threads it leaves behind: after
each call an idle OpenBLAS thread spins on a core for about 0.15 s, and a
kernel timed then runs slow by as much as the program's BLAS use costs.  So
the caller idles for a moment first, until those threads sleep
(``measure.quiet_calibration``).
"""

from __future__ import annotations

import time

import numpy as np

_N, _L, _K = 256, 32, 17


def _kernel() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((_N, _K)) + 1j * rng.standard_normal((_N, _K))
    g = rng.standard_normal((_L, _K)) + 1j * rng.standard_normal((_L, _K))
    idx = (np.arange(_N)[:, None] - np.arange(_L)[None, :]) % _N
    ramp = np.arange(_N)[:, None] * np.arange(_K)[None, :]
    total = 0.0
    for _ in range(40):
        y = np.fft.fft(x, axis=0)
        clean = np.einsum("ulk,lk->uk", x[idx, :], g)
        r = np.exp(2j * np.pi * 0.01 * ramp) * clean
        for k in range(_K):
            total += float(np.abs(np.fft.ifft(y[:, k] / (r[:, k] + 1.0))[0]))
    return total


def calibration_seconds() -> float:
    """Wall seconds of one pass of the kernel; about 50 ms on a 2-vCPU VM."""
    start = time.perf_counter()
    total = _kernel()
    elapsed = time.perf_counter() - start
    if not np.isfinite(total):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return elapsed
