"""Host speed gauge: scales timings to one reference speed.

On a shared host the CPU's speed drifts by up to 2x within minutes as
other tenants come and go, and a program's wall time drifts with it.
The gauge times a fixed slice of interpreter and numpy work,
the same kind of work pairclone does, that pairclone never runs.  Slices
are interleaved with the program's calls, so both see the same host.
Multiplying a timing by ``REF_S`` over the mean of the slices around it
gives what it would read at the reference speed; a change in the program
moves it, a change in the host mostly does not.  Raw timings are printed
alongside.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# The unit: scaled timings read as seconds on a host where one slice takes
# REF_S.  That is about the slice time on an idle 2-vCPU Intel Xeon at
# 2.0 GHz with Python 3.11 and numpy 2.4, so there scaled and raw agree.
REF_S = 0.0064
# Interleave one slice per this much program time (about 6% overhead).
EVERY_S = 0.1


def work() -> float:
    """The fixed slice, in pairclone's proportions: short-lived strings,
    dicts and lists as argument parsing and CSV formatting make, kets
    through small numpy calls, and one vectorised pass over a 257 x 257
    grid as the oracle makes."""
    acc = 0.0
    ket = np.array([1.0, 0.0], dtype=complex)
    for i in range(250):
        pair = np.kron(ket, ket)
        acc += abs(np.vdot(pair, pair))
        record = {"phi": f"{i * 1e-3:.12g}", "fields": [f"{j * 0.1:.12g}" for j in range(8)]}
        acc += len(",".join(record["fields"])) + math.sin(i * 1e-3) ** 2
    grid = np.linspace(0.0, 1.0, 257 * 257)
    return acc + float(np.max(np.sin(grid) * np.cos(grid)))


class Gauge:
    def __init__(self):
        self.samples: list = []
        self._last = -math.inf
        work()  # the first slice of a process pays one-time costs

    def sample(self) -> None:
        start = perf_counter()
        work()
        self._last = end = perf_counter()
        self.samples.append(end - start)

    def due(self) -> bool:
        return perf_counter() - self._last >= EVERY_S

    def mark(self) -> int:
        """Call before a timing: the index of the slice just before it."""
        if not self.samples:
            self.sample()
        return len(self.samples) - 1

    def factor_since(self, mark: int) -> float:
        """Call after a timing: takes one more slice and returns the factor
        from raw seconds to the reference speed, from the mean of the
        slices since ``mark`` (before, during and after the timing)."""
        self.sample()
        return REF_S / statistics.fmean(self.samples[mark:])

    def host_speed(self) -> float:
        """The host's median speed over the run, as a share of the reference."""
        return REF_S / statistics.median(self.samples)
