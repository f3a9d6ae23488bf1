"""Times scaled to a reference host speed.

The benchmark runs on shared machines whose speed drifts by up to 2x over
minutes, in wall and process CPU time alike: the same 20 runs took from 1.6 s
to 3.1 s within 90 s on a shared 2-vCPU VM. A fixed piece of interpreter work
(the probe) slows down with the host. It is timed after every measured piece
of work, and the work's time is multiplied by ``PROBE_REF_S`` over the mean
of the probes just before and just after it. On that VM this cut the
pass-to-pass spread of those 20 runs from 21% to 2.5% of the mean.

The probe does not touch gridform, so a change to gridform's own cost shows
in full in the scaled times. The unscaled events/s is printed next to them.
"""

from __future__ import annotations

import random
from time import perf_counter

PROBE_REF_S = 0.005  # about the probe's median time on that VM (Python 3.11)


def probe() -> float:
    """Seconds taken by fixed work like gridform's inner loops: sets of
    tuples, dict lookups, sorting and string joins."""
    start = perf_counter()
    rng = random.Random(7)
    pts = [(rng.randrange(40), rng.randrange(40)) for _ in range(300)]
    for r in range(12):
        cells = frozenset((x + r, y - r) for x, y in pts)
        rank = {p: i for i, p in enumerate(sorted(cells))}
        sum(rank.get((x, y), 0) for x in range(0, 40, 3) for y in range(0, 40, 3))
        "".join("1" if (x, y) in cells else "0"
                for x in range(40) for y in range(20))
    return perf_counter() - start


class HostClock:
    """Times calls and scales each time to the reference host speed."""

    def __init__(self):
        self._last = probe()
        self.raw_s = 0.0     # total unscaled time of the timed calls
        self.scaled_s = 0.0  # total scaled time of the same

    def time(self, fn, *args):
        """Return ``(fn(*args), scaled seconds)``."""
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        after = probe()
        scaled = raw * 2 * PROBE_REF_S / (self._last + after)
        self._last = after
        self.raw_s += raw
        self.scaled_s += scaled
        return result, scaled
