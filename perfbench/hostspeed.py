"""The host's current speed, from a fixed calibration kernel.

A shared host changes speed by 20-40 % over seconds to minutes (other
tenants on the same cores), and interpreted code slows and speeds up with
it. On the workloads in `workloads.RESCALED`, whose experiments are short
runs of interpreted per-sample code, the benchmark runs this kernel, which
is its own code and never changes with the program, right before and
after every experiment, and rescales the experiment's time to what it
would have taken at the reference speed:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

A change in the program moves the rescaled time; a change in the host's
speed during a run mostly does not. `REFERENCE_S` is about the kernel's
median time on the reference host (2-core x86_64, Python 3.11).

The kernel is interpreted float arithmetic on one thread, pure Python
with no numpy, so nothing the program changes can change it.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.004  # about the median kernel time on the reference host
N_ITER = 8000  # kernel loop length
REPEATS = 3  # kernel runs per probe; the probe reports their median


def _kernel() -> float:
    acc = 0.0
    values = [0.5, 1.5, 2.5]
    for i in range(N_ITER):
        x = math.sin(i * 0.01) * 0.5 + (i % 7) * 0.25
        values[i % 3] = values[i % 3] * 0.999 + x * 0.001
        acc += values[0] * values[1] - values[2] / (1.0 + abs(x))
    return acc


def kernel_time() -> float:
    """Median wall time of the kernel, in seconds, measured now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def to_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time of an interval rescaled to the reference speed, given the
    kernel times measured right before and right after it."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
