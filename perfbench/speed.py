"""Machine-speed sampling, so that times measured on a shared host compare.

On a shared host the CPU speed this benchmark gets moves by up to ~1.8x
within seconds (another tenant on the sibling hyperthread, clock changes),
and CPU time keeps that. So while a run measures, a profiling timer
interrupts the process every ``INTERVAL_S`` of its CPU time and runs two fixed
kernels: ``interpreter`` (a Python loop, tiny numpy calls and a taped chain
of small steps) and ``array`` (64-wide GEMMs and 160 KB array writes). Their CPU times tell how
fast the machine is at that moment for the two kinds of work paracnn does:
decoding is bound by the interpreter, training by array work, and a busy host
slows the two by different amounts.

``scaled(a, b, kind)`` turns the CPU time between two ``clock()`` readings
into CPU time at the reference speed (the kernel taking ``REFERENCE_S[kind]``):
the interval times the mean ``REFERENCE_S[kind] / kernel time`` of the samples
taken in it (in ``MIN_WINDOW_S`` around it when it is shorter), or of the
nearest sample when there is none.
``clock()`` leaves out the time spent sampling. The kernels are the
benchmark's own code, so no change to paracnn can move them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# a shorter interval is scaled by the samples of this much CPU time around it:
# one kernel sample is noisy, and the machine's speed holds for longer
MIN_WINDOW_S = 0.25
# the kernels' CPU times when the machine is fast: about what they take on the
# 2-vCPU Xeon host the benchmark was written on when no neighbour is busy
REFERENCE_S = {"interpreter": 0.0011, "array": 0.00055}

_TINY = np.linspace(0.0, 1.0, 256).reshape(16, 16)
_SQUARE = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_WIDE = np.linspace(0.0, 1.0, 64 * 256).reshape(64, 256)
_STEP = np.linspace(0.0, 1.0, 64 * 8).reshape(64, 8)


class _Node:
    """A taped value, as an autograd library keeps one per operation."""

    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data, self.parents, self.backward = data, parents, backward


def interpreter_kernel():
    """A Python loop over small lists, 16x16 numpy calls, and a chain of 40
    taped 64x64 by 64x8 steps with an argmax each, as a decoding step does."""
    acc = 0
    row = list(range(32))
    for i in range(400):
        acc += sum(row[i % 7:i % 7 + 16])
    x = _TINY
    for _ in range(60):
        x = np.tanh(x @ _TINY * 0.01 + x)
    h = _Node(_STEP)
    for _ in range(40):
        z = _SQUARE @ h.data * (1.0 / 64)
        h = _Node(np.tanh(z + h.data), (h,), lambda g, z=z: g * (1.0 - np.tanh(z) ** 2))
        acc += int(np.argmax(h.data[:, -1]))
    return acc, x, h


def array_kernel():
    """64x64 by 64x256 GEMMs, then fresh 160 KB arrays written and copied."""
    y = _WIDE
    for _ in range(3):
        y = np.maximum(_SQUARE @ y * 0.01, 0.0) + _WIDE
    for _ in range(16):
        z = np.zeros(20000)
        z += 1.0
        z = z.copy()
    return y, z


KERNELS = {"interpreter": interpreter_kernel, "array": array_kernel}


class Sampler:
    def __init__(self):
        self.spent = 0.0                        # CPU seconds spent sampling
        self.at = []                            # clock() at each sample
        self.speed = {kind: [] for kind in KERNELS}  # REFERENCE_S / kernel time
        self._busy = False

    def clock(self) -> float:
        """CPU seconds of this thread, without the time spent sampling.

        The thread's clock, not the process's: while a profiling timer is
        armed, Linux advances the process clock only at scheduler ticks. The
        benchmark runs paracnn in this one thread (BLAS is pinned to one).
        """
        return time.thread_time() - self.spent

    def _sample(self, signum, frame):
        if self._busy:  # the timer fired again while sampling
            return
        self._busy = True
        t0 = time.thread_time()
        self.at.append(t0 - self.spent)
        for kind, kernel in KERNELS.items():
            k0 = time.thread_time()
            kernel()
            self.speed[kind].append(REFERENCE_S[kind] / max(time.thread_time() - k0, 1e-6))
        self.spent += time.thread_time() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> dict:
        """Stop sampling and forget the samples; returns what they showed."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)  # a late tick must not end the process
        summary = {"samples": len(self.at), "sampling_cpu_s": self.spent}
        for kind, speeds in self.speed.items():
            if len(speeds) > 1:
                q1, q2, q3 = statistics.quantiles(speeds, n=4)
                summary.update({f"{kind}_speed_mean": statistics.fmean(speeds),
                                f"{kind}_speed_q1": q1, f"{kind}_speed_median": q2,
                                f"{kind}_speed_q3": q3})
        self.at = []
        self.speed = {kind: [] for kind in KERNELS}
        return summary

    def factor(self, a: float, b: float, kind: str) -> float:
        """Mean speed of ``kind`` over [a, b] against the reference; 1.0 unsampled."""
        speeds = self.speed[kind]
        if not speeds:
            return 1.0
        mid, half = (a + b) / 2, max(b - a, MIN_WINDOW_S) / 2
        i = bisect.bisect_left(self.at, mid - half)
        j = bisect.bisect_right(self.at, mid + half)
        if j > i:
            return statistics.fmean(speeds[i:j])
        k = min(i, len(self.at) - 1)
        if k > 0 and abs(self.at[k - 1] - mid) < abs(self.at[k] - mid):
            k -= 1
        return speeds[k]

    def scaled(self, a: float, b: float, kind: str) -> float:
        """CPU seconds between clock readings ``a`` and ``b``, at the reference speed."""
        return (b - a) * self.factor(a, b, kind)


SAMPLER = Sampler()
clock = SAMPLER.clock
scaled = SAMPLER.scaled
