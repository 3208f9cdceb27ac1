"""Machine-speed probe: a fixed reference workload timed between measured
units, so each unit's wall time can be restated at a reference speed.

The 2-vCPU host the benchmark targets is shared, and its CPU speed drifts:
the same tracking pass, timed back to back for 100 s, had a coefficient of
variation of 0.20, and the means of consecutive 10-pass blocks one of 0.14.
The drift lasts tens of seconds, so whole runs land in fast or slow stretches
and no statistic over one run's units removes it. The probe's time follows the
same drift; the wall time of a unit divided by the mean of the probes on
either side of it varied about half as much (block CV 0.06).

The probe is the benchmark's own code and never calls ``semtrack``, so a
change to the program moves the unit's time and not the probe's. Its mix
resembles the program's: small float64 matrix products and row
normalisations, closures and dict traffic like the autodiff tape's.
"""

from __future__ import annotations

import time

import numpy as np

# typical seconds of one probe on the target host; scales restated times to it
REFERENCE_S = 0.085
_ITERATIONS = 1100


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((6, 256))
        self._w = rng.standard_normal((256, 256)) * 0.05
        self.samples: list[float] = []
        self._work()   # the first run pays for allocation and cold caches
        self._last = self._measure()

    def _work(self) -> float:
        records = []
        index: dict[int, float] = {}
        for i in range(_ITERATIONS):
            h = self._x @ self._w
            h = h - h.mean(axis=1, keepdims=True)
            h = np.maximum(h / np.sqrt((h * h).mean(axis=1, keepdims=True) + 1e-5), 0.0)

            def vjp(g, h=h):
                return g * (h > 0.0)
            records.append((h, vjp))
            for j in range(60):
                index[j] = index.get(j, 0.0) + j * 0.5
        return sum(float(vjp(h).sum()) for h, vjp in reversed(records))

    def _measure(self) -> float:
        start = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor from wall seconds of the unit that just ended to reference
        seconds: ``REFERENCE_S`` over the mean probe before and after it."""
        before, self._last = self._last, self._measure()
        return REFERENCE_S / ((before + self._last) / 2.0)
