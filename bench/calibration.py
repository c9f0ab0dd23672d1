"""How fast the host runs Python right now, to scale sweep times by.

On a shared machine the same sweep can take 1.5x to 2x longer for
seconds to minutes at a time while neighbours load the host, and such
slow spells outlast a run, so no statistic over one run's sweeps removes
them.  ``ScaledTimer`` times this fixed loop every ``SAMPLE_EVERY_S`` of
sweep time, at part boundaries the sweep reports, and scales each part
by ``REFERENCE_S / loop time``.  On a 2-vCPU VM, over ten 30 s runs
with different seeds, the quartile spread of the median sweep time fell
from 0.22-0.35 of the median unscaled to 0.03-0.06 scaled.  Sampling
often matters: scaled once per 7 s sweep, sensitivity got no steadier.

The loop does the kinds of work the simulator does (dataclass
construction and replacement, a heap, dict counters, truncated
HMAC-SHA1) but calls no ``pcsm`` code, so a change to ``pcsm`` moves the
sweep time and not the loop time.
"""

from __future__ import annotations

import hashlib
import hmac
import heapq
import random
import statistics
import time
from dataclasses import dataclass, replace

# What the loop takes on the machine the scaled figures are quoted for
# (about this on a 2.0 GHz Xeon vCPU with CPython 3.11).
REFERENCE_S = 0.010
REPEATS = 3
SAMPLE_EVERY_S = 0.5


@dataclass
class _Record:
    time: float
    source: int
    disposition: str = "stored"


def _loop() -> int:
    rng = random.Random(7)
    key = b"calibration-key!"
    heap, counts, out = [], {}, []
    for i in range(3000):
        rec = _Record(rng.random(), i % 17)
        heapq.heappush(heap, (rec.time, i, rec))
        counts[rec.source] = counts.get(rec.source, 0) + 1
        if i % 4 == 0:
            out.append(hmac.new(key, bytes(96) + i.to_bytes(4, "big"), hashlib.sha1).digest()[:8])
    while heap:
        out.append(replace(heapq.heappop(heap)[2], disposition="done"))
    return len(out)


def measure() -> float:
    """Median host seconds of ``REPEATS`` runs of the loop."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledTimer:
    """Host seconds of one sweep, raw and scaled to ``REFERENCE_S`` speed.

    Time spent measuring the speed is left out of both.
    """

    def __init__(self):
        self.running = False
        self.raw = self.scaled = 0.0

    def _sample(self) -> None:
        self.speed = REFERENCE_S / measure()
        self._mark = self._sampled_at = time.perf_counter()

    def _close_part(self, now: float) -> None:
        part = now - self._mark
        self.raw += part
        self.scaled += part * self.speed
        self._mark = now

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._sample()
        self.running = True

    def boundary(self) -> None:
        """A part of the sweep ends here; resample the speed if it is due."""
        if not self.running:
            return
        now = time.perf_counter()
        self._close_part(now)
        if now - self._sampled_at >= SAMPLE_EVERY_S:
            self._sample()

    def stop(self) -> None:
        self._close_part(time.perf_counter())
        self.running = False
