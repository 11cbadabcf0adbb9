"""Host speed, read from a fixed reference kernel.

The benchmark gets a few cores of a shared host.  Other tenants on the
same physical cores slow every instruction stream by up to about 2x, in
stretches of seconds to minutes, so a raw time measures the host as much
as distseq, and taking the fastest of many passes does not help when a
whole run falls in a slow stretch.  So a small kernel that lives here and
never changes (a breadth-first closure of S_6 under two generators:
tuple composition, set membership and a deque, the operations the
searches are made of) is timed between requests, at least every
REF_EVERY seconds, as the mean of REF_REPS runs back to back.  A
request's time is scaled by REF_SECONDS over the mean of the kernel
times just before and just after it: that is the time the request takes
on a core where the kernel takes REF_SECONDS, about an idle core of the
machine the benchmark was defined on (Intel Xeon at 2.1 GHz, Python
3.11).  Code in distseq that gets faster or slower moves the scaled time
by the same share as the raw one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from statistics import median
from time import perf_counter

REF_SECONDS = 1.10e-3   # about one kernel run on an idle core
REF_REPS = 3
REF_EVERY = 0.1

_N = 6
_GENS = (tuple(range(1, _N)) + (0,), (1, 0) + tuple(range(2, _N)))


def kernel() -> int:
    """Size of the closure of S_6 from the identity (720)."""
    start = tuple(range(_N))
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for g in _GENS:
            c = tuple(p[i] for i in g)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return len(seen)


class Pace:
    """Kernel times taken during a run, and request times scaled by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(REF_REPS):
            kernel()
        self.starts.append(start)
        self.seconds.append((perf_counter() - start) / REF_REPS)

    def sample_if_due(self) -> None:
        if not self.starts or perf_counter() - self.starts[-1] >= REF_EVERY:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """What to multiply a time taken from start to end by to get the
        time at the reference speed."""
        before = bisect_right(self.starts, start) - 1
        after = bisect_left(self.starts, end)
        around = [self.seconds[i] for i in (before, after)
                  if 0 <= i < len(self.starts)]
        return REF_SECONDS * len(around) / sum(around)

    def summary(self) -> dict:
        return {"kernel_samples": len(self.seconds),
                "kernel_min_ms": 1000 * min(self.seconds),
                "kernel_median_ms": 1000 * median(self.seconds)}
