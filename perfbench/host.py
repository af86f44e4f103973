"""Calibrating measured times to a reference host speed.

The machine is shared, and its speed switches between two levels about a
factor of two apart, sometimes within a tenth of a second and sometimes
for minutes: other tenants' load makes the same code take twice the CPU
time, with no time stolen from the VM. No statistic over one run removes a
slow stretch that covers the run. So the runner times a short fixed
calibration loop between stretches of work and converts each stretch to
reference-host seconds: its wall time times CALIBRATION_REF_S over the
mean of the calibrations right before and right after it. The loop spends
its time as gesturelink does, in interpreter dispatch and small numpy
calls, so it slows with the program; it does not use gesturelink, so a
change to gesturelink moves the calibrated times fully.
"""

from __future__ import annotations

import time

import numpy

# The calibration loop's time on the reference host: a 2-vCPU VM in its
# fast phase.
CALIBRATION_REF_S = 0.0068
# A pass calibrates again after the first op that ends this long after the
# last calibration, so a switch of speed inside a long pass is caught.
CHECKPOINT_S = 0.1

_POINTS = numpy.random.default_rng(0).random((21, 3))


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    pts = _POINTS
    a = time.perf_counter()
    for _ in range(250):
        v = pts[5] - pts[0]
        c = numpy.cross(v, pts[9] - pts[0])
        float(numpy.dot(v, c) / (numpy.linalg.norm(v) + 1.0))
    return time.perf_counter() - a


class HostScale:
    """Splits the work since `restart` into segments at each `checkpoint`
    and keeps each segment's wall time with its scale (reference-host
    seconds per second measured). Calibration time falls outside the
    segments."""

    def __init__(self):
        self.before = calibrate()
        self.restart()

    def restart(self) -> None:
        self.mark = time.perf_counter()
        self.segments: list[tuple[float, float]] = []

    def due(self) -> bool:
        return time.perf_counter() - self.mark >= CHECKPOINT_S

    def checkpoint(self) -> float:
        """Close the segment since the last checkpoint; return its scale."""
        wall = time.perf_counter() - self.mark
        after = calibrate()
        scale = 2.0 * CALIBRATION_REF_S / (self.before + after)
        self.segments.append((wall, scale))
        self.before = after
        self.mark = time.perf_counter()
        return scale

    def take(self) -> float:
        """Reference-host seconds of the segments closed since `restart`."""
        return sum(wall * scale for wall, scale in self.segments)
