"""Machine-speed probe: rescales timings to a fixed reference speed.

The benchmark host is shared.  On it, the same request can take 1.7 times
as long for seconds or minutes at a time while another job runs, which moves
a 25 s average by 30 % between runs.  The probe times a fixed piece of
interpreter work that never touches the package (tuple sorting, set inserts
and permutations, like the extractor's inner loops) every PROBE_EVERY_S
seconds.  A request timed between two probes is rescaled by
REFERENCE_S / (mean of the two probe times), so it reads as if the machine
ran at the speed where the probe takes REFERENCE_S.  A change to the
package moves the request times and not the probe times.
"""

from __future__ import annotations

import time
from itertools import permutations

PROBE_EVERY_S = 0.01
# the probe's duration in the host's fast state (x86-64, Python 3.11)
REFERENCE_S = 0.0005


def reference_work() -> int:
    acc = 0
    seen = set()
    for i in range(400):
        seen.add(tuple(sorted((i % 7, (i * 3) % 11, (i * 5) % 13))))
        acc += len(seen) & 3
        for a, b, c in permutations((i, i + 1, i + 2)):
            acc += a < b < c
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.samples = []
        self.last = float("-inf")

    def probe(self) -> int:
        """Time the reference work now; returns the sample's index."""
        start = time.perf_counter()
        reference_work()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        return len(self.samples) - 1

    def latest(self) -> int:
        """Index of the last sample, probing first if it is PROBE_EVERY_S old."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            return self.probe()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor for a timing made between samples k and k + 1."""
        return REFERENCE_S / ((self.samples[k] + self.samples[k + 1]) / 2)
