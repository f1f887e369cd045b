"""Machine speed, measured by a fixed reference kernel.

Other tenants of a shared machine slow its CPU by 1.15-1.7x in phases that
last from a second to several minutes. They only ever slow it. A run can sit
in one such phase from start to end, so no statistic over a run's own
repetitions removes the effect. Instead the worker times this kernel before
and after every verb. A verb's wall time is then rescaled to the kernel's
speed on the reference machine:

    scaled_s = wall_s * REFERENCE_S / mean(kernel_s before, kernel_s after)

The kernel mixes what the workloads do: small matmuls and elementwise ops
from a Python loop, as in the small models' steps, and 784-wide gemms, as in
the wide model's. ``REFERENCE_S`` is the kernel's fastest time on the machine
of the first data point (a 2-vCPU x86-64 KVM guest, one BLAS thread). There
scaled seconds read as wall seconds in its fast state; on other hardware
they differ by a constant factor, which cancels between two commits.
"""

import time

REFERENCE_S = 0.0135


class Calibration:
    """Call to time the reference kernel; returns seconds (fastest of two)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = (rng.standard_normal((32, 64)), rng.standard_normal((64, 64)) / 8)
        self._wide = (rng.standard_normal((128, 784)), rng.standard_normal((784, 256)) / 28)

    def _once(self) -> float:
        np = self._np
        start = time.perf_counter()
        x, w = self._small
        for _ in range(500):
            np.maximum(x @ w, 0.0).sum()
        x, w = self._wide
        for _ in range(8):
            x @ w
        return time.perf_counter() - start

    def __call__(self) -> float:
        return min(self._once() for _ in range(2))


def scale(seconds: float, before: float, after: float) -> float:
    """Wall seconds measured between two kernel timings, at reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
