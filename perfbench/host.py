"""Host-speed calibration.

On a shared machine the host's speed drifts: neighbours on the same
cores slow every report by up to about 1.6 times, in stretches that
last from seconds to minutes.  A benchmark run is too short to average
that out, so the benchmark times a fixed kernel of its own next to each
report and states report times in reference seconds: wall seconds
times REFERENCE_S over the kernel's time around the report.  A change
to racgk does not touch the kernel, so it moves reference seconds as
much as wall seconds; host drift moves both equally and cancels.
"""

import statistics
import time

# The kernel's time on a quiet 2-vCPU VM with Python 3.11; with it,
# reference seconds read about as wall seconds on that host.
REFERENCE_S = 0.0011

CALIBRATION_MATRIX = [[(7 * i * i + 3 * j + i * j) % 19 - 9 for j in range(28)]
                      for i in range(28)]


def calibration_seconds():
    """Time of a fixed fraction-free integer elimination, pure Python
    like racgk's own elimination but sharing no code with it."""
    start = time.perf_counter()
    m = [row[:] for row in CALIBRATION_MATRIX]
    n, prev = len(m), 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return time.perf_counter() - start


def samples(count=3):
    return [calibration_seconds() for _ in range(count)]


def to_reference(seconds, calibration):
    """Wall `seconds` in reference seconds, given kernel times taken
    around them."""
    return seconds * REFERENCE_S / statistics.median(calibration)
