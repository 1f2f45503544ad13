"""The speed of the machine, from a fixed reference loop run beside the operations.

On a shared host the speed of a core drifts by a fifth or more between
runs, and the program's times drift with it.  ``Speed`` runs a fixed
pure-Python loop (sets, dicts, sorting: the kind of work stardeck does)
once at the start and then once per ``EVERY_S`` of operation time, so its
samples are spread over the run in proportion to the time the operations
took.  ``factor()`` is ``NOMINAL_S`` over their median: a time multiplied by
it is the time on a machine where the loop takes ``NOMINAL_S``.  The speed
also drifts within a run, on a scale of seconds, so ``scaled()`` scales
each operation by the median of the ``REACH`` samples taken before it and
the ``REACH`` taken after it.  The loop does not call the program, so a
change to the program moves the scaled times exactly as much as the raw
ones.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_S = 0.020
EVERY_S = 0.25
REACH = 3


def reference_work(size: int = 300, links: int = 8000, roots: int = 12) -> int:
    """A seeded random graph, breadth-first searches and a sorted edge list."""
    adj: dict[int, set[int]] = {v: set() for v in range(size)}
    x = 12345
    for _ in range(links):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x % size, (x >> 12) % size
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    total = 0
    for root in range(0, size, size // roots):
        seen, frontier = {root}, [root]
        while frontier:
            ahead = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        ahead.append(w)
            frontier = ahead
        total += len(seen)
    return total + len(sorted((a, b) for a in adj for b in adj[a] if a < b))


class Speed:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.ops: list[tuple[float, int]] = []  # seconds, samples taken before
        self.owed = 0.0

    def sample(self) -> float:
        """Time one reference loop, with the collector off so the heap does not count."""
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        self.samples.append(seconds)
        return seconds

    def after(self, seconds: float) -> None:
        """Account for an operation of ``seconds``; sample when a period is due."""
        if not self.samples:
            self.sample()
        self.ops.append((seconds, len(self.samples)))
        self.owed += seconds
        while self.owed >= EVERY_S:
            self.owed -= EVERY_S
            self.sample()

    def factor(self) -> float:
        return NOMINAL_S / statistics.median(self.samples) if self.samples else 1.0

    def scaled(self) -> list[float]:
        """The time of every operation, scaled by the samples around it."""
        return [
            seconds * NOMINAL_S
            / statistics.median(self.samples[max(0, at - REACH):at + REACH])
            for seconds, at in self.ops
        ]
