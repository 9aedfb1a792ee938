"""Host-speed reference for the end-to-end timings.

On a shared host the same code runs at a speed that drifts by up to 1.7x
over stretches of seconds to minutes, and CPU time drifts with wall time.
A fixed kernel, made of the kinds of numpy work hmmar does (calls on
3-vectors as in the filter recursions, pairwise arithmetic on a long array
as in the UCV score, small dense solves as in the QP), is timed next to the
measured work.  A time is rescaled to the host speed at which the kernel
takes ``REFERENCE_S``: it is multiplied by ``REFERENCE_S / mean(kernel
times)``.

An experiment is rescaled by kernels run from a ``SIGALRM`` handler every
``INTERVAL_S`` while it runs, whose time is taken out of its wall time.
Set-up time, which is mostly imports, tracks the kernel less well than it
tracks another start-up: it is rescaled by a reference process, spawned just
before, that only imports numpy, to the speed at which that takes
``SETUP_REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

#: Kernel time at the reference host speed.  A fixed value: on a 2-vCPU Intel
#: Xeon VM (Python 3.11, numpy 2.4) the median of 600 kernels was 8.8 ms in a
#: fast stretch, and slow stretches of that host run up to 1.7x longer.
REFERENCE_S = 0.0105
#: Seconds between kernels while an experiment runs.
INTERVAL_S = 0.5
#: Time to spawn Python and import numpy at the reference host speed.  A
#: fixed value: on the same host the median of 90 such processes was 0.12 s
#: in a fast stretch, and 0.19 s over 200 processes in a slower one.
SETUP_REFERENCE_S = 0.18

_P = np.array([[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.1, 0.05, 0.85]])
_MU = np.array([0.0, 0.5, 1.0])
_X = np.linspace(-0.5, 1.5, 64)
_D = np.linspace(-3.0, 3.0, 20_000)
_A = np.eye(10) * 4.0 + np.linspace(0.0, 1.0, 100).reshape(10, 10)
_B = np.ones(10)


def kernel() -> float:
    """Run the fixed kernel once; returns its duration in seconds."""
    start = time.perf_counter()
    v = np.full(3, 1.0 / 3.0)
    for i in range(1000):
        v = _P.T @ v
        v = v * np.exp(-0.5 * (_X[i % 64] - _MU) ** 2)
        v /= v.sum()
    for k in range(20):
        np.exp(-0.5 * (_D / (1.0 + k)) ** 2).sum()
    for _ in range(100):
        np.linalg.solve(_A, _B)
    return time.perf_counter() - start


def scale(kernel_times: list) -> float:
    """Factor that takes a time measured next to these kernels to the reference speed."""
    return REFERENCE_S / statistics.fmean(kernel_times)


def setup_scale() -> float:
    """Factor that takes a set-up time measured right after this call to the reference speed."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return SETUP_REFERENCE_S / (time.monotonic() - start)


class Sampler:
    """Runs the kernel every INTERVAL_S of wall time inside a ``with`` block.

    ``kernel_times`` holds every kernel's duration, with one before the block
    and one after it; ``handler_s`` is the time the handler took inside the
    block, to be subtracted from the block's wall time.
    """

    def __init__(self):
        self.kernel_times: list[float] = []
        self.handler_s = 0.0

    def _handle(self, signum, frame):
        start = time.perf_counter()
        self.kernel_times.append(kernel())
        self.handler_s += time.perf_counter() - start

    def __enter__(self):
        self.kernel_times.append(kernel())
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.kernel_times.append(kernel())
        return False
