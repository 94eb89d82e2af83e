"""Host-speed probe that scales every time the benchmark reports.

A time is scaled by ``PROBE_REF_S`` over the probe's time while it was
taken, so it reads as seconds on a host where the probe takes
``PROBE_REF_S``.  On the shared 2-vCPU Intel Xeon host this benchmark was
written on, one process's speed swings by up to 1.6x for seconds to
minutes at a time.  The swing slows the probe nearly as much as the
library, and raw times could not resolve a 25% bound.  ``PROBE_REF_S`` is near the
probe's time on that host when it is not loaded.  The probe is not tockta
code, so a change to the library moves a scaled time as much as a raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_REF_S = 500e-6


def _probe_work() -> int:
    # A small breadth-first search over (state, trace) pairs, then building
    # and splitting a 20 KB string: the tuple, set, list and string work of
    # the library's explorers and of its XML emitter and loader.
    seen = set()
    queue = [(0, ())]
    for state, trace in queue:
        for label in ("a", "b", "tock"):
            nxt = ((state * 3 + len(label)) % 97, trace[-3:] + (label,))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        if len(queue) >= 300:
            break
    document = "".join([f"<edge s='{i}' t='{i * 7 % 13}'/>" for i in range(1000)])
    return len(seen) + len(document.split("/>"))


def probe() -> float:
    """Seconds the probe takes now: the best of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Probes on entry, on exit, and every ``interval`` seconds in between
    from a SIGALRM handler.  ``spent`` is the time the probes took, which
    the caller subtracts from what it measured."""

    def __init__(self, interval: float):
        self.interval = interval
        self.probes: list[float] = []
        self.spent = 0.0

    def _take(self, *_) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.probes, self.spent = [], 0.0
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def scale(self) -> float:
        """Mean host speed over the probes, relative to the reference."""
        return statistics.fmean(PROBE_REF_S / p for p in self.probes)
