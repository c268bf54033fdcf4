"""Machine-speed reference for the timing metrics.

The benchmark runs on shared hosts whose speed drifts by 20% and more over
tens of seconds, which is longer than a request and shorter than a set of
runs.  ``SpeedProbe`` times a fixed reference kernel between requests, and
each request's latency is scaled by NOMINAL_S / (the median kernel time
around that request).  Reported timings are thus in milliseconds at the
reference speed: the speed at which the kernel takes NOMINAL_S.

The kernel imitates the program's two kinds of work, a NumPy budget sweep
and pure-Python list scans, and uses no shiftbribe code, so a change to the
program never changes the kernel's time.  On the 2-CPU machine the constant
was set on, fixed `A`, `maximin-log` and `exact` solves drifted over a 20-24%
range between 16 s windows; divided by the kernel time, over a 5-7% range.
"""

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.002  # the kernel's typical time on that machine
PROBE_EVERY_S = 0.25  # of request time between two probes
WINDOW = 5  # probes in the median around a request


def reference_kernel() -> int:
    size = 4001
    row = np.full(size, -1, dtype=np.int64)
    row[0] = 0
    for voter in range(24):
        new_row = row.copy()
        choice = np.zeros(size, dtype=np.int32)
        for k in range(1, 4):
            price = 7 * k + voter
            shifted = np.full(size, -1, dtype=np.int64)
            shifted[price:] = row[: size - price] + k
            better = shifted > new_row
            new_row[better] = shifted[better]
            choice[better] = k
        row = new_row
    order = list(range(40))
    acc = 0
    for i in range(400):
        order.insert(i % 40, order.pop(order.index(i % 40)))
        acc += order.index(7)
    return acc + int(row[-1])


class SpeedProbe:
    """Kernel timings, each tagged with how many requests preceded it."""

    def __init__(self):
        self.positions = []
        self.durations = []
        self._since = 0.0

    def probe(self, position: int):
        """Time the kernel once; ``position`` requests came before."""
        start = time.perf_counter()
        reference_kernel()
        self.durations.append(time.perf_counter() - start)
        self.positions.append(position)

    def after_request(self, position: int, latency: float):
        """Probe once PROBE_EVERY_S of request time has passed."""
        self._since += latency
        if self._since >= PROBE_EVERY_S:
            self._since = 0.0
            self.probe(position)

    def factor_at(self, position: int) -> float:
        """NOMINAL_S over the median of the WINDOW probes around the request
        at ``position``."""
        before = bisect.bisect_right(self.positions, position)
        low = max(0, min(before - (WINDOW + 1) // 2, len(self.durations) - WINDOW))
        return NOMINAL_S / statistics.median(self.durations[low : low + WINDOW])

    def scale(self, latencies) -> list:
        """Latencies at the reference speed, in request order."""
        return [lat * self.factor_at(i) for i, lat in enumerate(latencies)]
