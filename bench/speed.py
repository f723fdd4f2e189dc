"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the CPU speed drifts by tens of percent over
minutes, for interpreter loops, scipy splines and the package alike. Sets
of ten wall-clock runs of a workload spread 8-29% (IQR over median) on a
2-vCPU virtual machine. The benchmark therefore times a fixed reference
kernel between records and rescales each record's wall time to the speed
at which the kernel takes ``REFERENCE_S``; the same runs then spread
2-12% (see bench/README.md). The kernel calls nothing from the package,
so a change to the package cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.interpolate import CubicSpline

# Kernel time, in seconds, at the speed the adjusted timings refer to:
# about the median on the 2-vCPU virtual machine the benchmark was written on.
REFERENCE_S = 0.0035

_KNOTS = np.linspace(0.0, 2047.0, 160)
_VALUES = np.sin(0.37 * _KNOTS)
_GRID = np.arange(2048.0)


def _kernel() -> None:
    # Interpreter work and small numpy/scipy calls, the mix the package runs.
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(4):
        CubicSpline(_KNOTS, _VALUES, bc_type="natural")(_GRID)


def reference_seconds(repeats: int = 9) -> float:
    """Median wall time of the reference kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Reference-kernel timings taken during a run, and the scales they give."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (taken at, kernel seconds)

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), reference_seconds()))

    def scale(self, start: float, end: float, nearest: int = 8) -> float:
        """Wall-to-reference-speed scale for work done from start to end:
        REFERENCE_S over the median of the samples nearest its midpoint.

        The speed drifts over seconds while one sample is noisy, hence the
        median over several.
        """
        middle = 0.5 * (start + end)
        closest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:nearest]
        return REFERENCE_S / statistics.median(k for _, k in closest)
