"""Host-speed adjustment for wall times measured on a shared host.

On a host whose cores are shared with other tenants, the speed of the same
code swings by up to 1.6x within seconds, and for minutes at a time (the
README's Noise section). A fixed reference kernel read just before and
just after a timed span measures the speed the span ran at; scaling the
span by REFERENCE_KERNEL_S over that reading turns its wall time into
seconds at a fixed reference speed. A change to the program moves the
adjusted time exactly as it moves the wall time.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on an uncontended core of the 2-core host the bounds
# were set on; it fixes the scale of adjusted seconds.
REFERENCE_KERNEL_S = 0.004

_VECTOR = np.arange(8.0)


def kernel_s() -> float:
    """Seconds for a fixed mix of interpreter loops and small numpy calls."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += float(_VECTOR @ _VECTOR) + i % 7
    for i in range(50000):
        acc += i * i
    return time.perf_counter() - t0


def adjusted_s(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """wall_s at the reference speed, from the kernel readings around it."""
    return wall_s * REFERENCE_KERNEL_S / (0.5 * (kernel_before + kernel_after))
