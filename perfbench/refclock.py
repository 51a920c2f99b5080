"""Reference seconds: each timed piece over a fixed kernel timed next to it.

The 2-vCPU virtual machines this benchmark runs on change speed by up to 2x,
in spells of a second to minutes, as load elsewhere on the host comes and
goes; wall and CPU time stretch alike. Within one 30-second run that can be
hidden by repeats, but between runs minutes apart it cannot, and no
statistic over a run's wall times removes it. A fixed kernel slows down in
the same spells, so the benchmark times it right before and right after
every timed piece and reports the piece in reference seconds:

    ref_s = wall_s / mean(kernel before, kernel after) / KERNEL_CALLS_PER_REF_S

One reference second is the time of KERNEL_CALLS_PER_REF_S kernel calls, so
on an unloaded machine where the kernel takes 1/KERNEL_CALLS_PER_REF_S
seconds a reference second is a wall second. A faster or slower qpecf moves
ref_s just as it moves wall_s; a faster or slower machine moves both the
piece and the kernel.

The kernel mixes the two kinds of work the workloads do: damped
Gauss-Newton fits on 64-element arrays in a Python loop (per-call overhead,
as in the campaigns' solver) and inverse-CDF sampling with a histogram and
an elementwise pass on long arrays (bulk NumPy, as in sample_shots and the
O(M) kernels). The contention that slows the machine slows the two by
different factors, so each workload's kernel mixes them in about the
proportion of its own work (KERNELS). The kernel uses NumPy only, never
qpecf, so a change to qpecf leaves the unit alone. Changing a kernel changes
the unit: compare only results taken with the same kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

KERNEL_CALLS_PER_REF_S = 50

_M = 64
_BINS = np.arange(_M, dtype=float)
_THETA = 0.3137
_STARTS = (0.305, 0.32, 0.31, 0.318)
_GN_STEPS = 12
_CDF_BINS = 4096


def _fejer(theta: float) -> np.ndarray:
    d = (_BINS - theta * _M) % _M
    d = np.where(d > _M / 2, d - _M, d)
    s = np.sin(np.pi * d)
    t = np.sin(np.pi * d / _M)
    out = np.ones(_M)
    nz = np.abs(t) > 1e-12
    out[nz] = (s[nz] / (_M * t[nz])) ** 2
    return out


_TARGET = _fejer(_THETA)
_CDF = np.cumsum(np.random.default_rng(5).random(_CDF_BINS))
_CDF /= _CDF[-1]


@dataclass(frozen=True)
class Kernel:
    """Fixed reference work: fit_starts small fits, then draws samples."""

    fit_starts: int
    draws: int

    def __call__(self) -> float:
        """Do the work; return a number so nothing is skipped."""
        total = 0.0
        for i in range(self.fit_starts):
            x = np.array([_STARTS[i % len(_STARTS)]])
            lam = 1e-3
            for _ in range(_GN_STEPS):
                r = _fejer(x[0]) - _TARGET
                h = 1e-7
                J = ((_fejer(x[0] + h) - _fejer(x[0] - h)) / (2 * h))[:, None]
                step = np.linalg.solve(J.T @ J + lam * np.eye(1), -(J.T @ r))
                x = np.clip(x + step, 0.0, 1.0)
            total += float(x[0])
        draws = np.random.default_rng(1).random(self.draws)
        hist = np.bincount(np.searchsorted(_CDF, draws), minlength=_CDF_BINS)
        wave = np.sin(np.arange(self.draws) * 1e-3) ** 2
        return total + float(hist[0]) + float(wave.sum())


# About 20 ms each on an unloaded core. campaign_few spends most of its time
# in small fits; the other two in bulk NumPy. Measured over 20 runs of
# campaign_few minutes apart, a kernel mostly of fits left its throughput a
# quartile spread of 0.029, one mostly of sampling 0.055.
KERNELS = {
    "campaign_few": Kernel(fit_starts=12, draws=30_000),
    "campaign_mega": Kernel(fit_starts=4, draws=100_000),
    "readout_wide": Kernel(fit_starts=4, draws=100_000),
}


class RefClock:
    """Times callables in wall and reference seconds; kernel calls are shared.

    The kernel call after one piece is the call before the next, so pieces
    timed back to back cost one kernel call each.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        kernel()  # the first call pays NumPy's lazy set-up
        self.last_kernel_s = self._kernel_s()
        self.kernel_s: list[float] = [self.last_kernel_s]

    def _kernel_s(self) -> float:
        started = time.perf_counter()
        self.kernel()
        return time.perf_counter() - started

    def time(self, fn, *args):
        """Call fn(*args); return its result, wall seconds and reference seconds."""
        before = self.last_kernel_s
        started = time.perf_counter()
        result = fn(*args)
        wall_s = time.perf_counter() - started
        self.last_kernel_s = self._kernel_s()
        self.kernel_s.append(self.last_kernel_s)
        ref_s = wall_s / ((before + self.last_kernel_s) / 2) / KERNEL_CALLS_PER_REF_S
        return result, wall_s, ref_s
