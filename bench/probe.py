"""Machine-speed probe: rescales times to a reference speed.

The benchmark runs on shared machines whose cores other tenants load and
unload: the same op's wall time was seen to drift by 45% over four minutes,
and by 20% between neighbouring seconds (bench/NOTES.md). A run cannot
average that away, so `SpeedProbe` measures it. A probe times `bfs_loop`,
fixed interpreter-bound work that does not depend on the code under test.
One probe is taken just before and one just after each timed call, and
while ops run a SIGALRM timer takes one more every 0.5 s, in the main thread
between bytecodes. A call's time is its wall time minus the probes' own
time, multiplied by the machine's mean speed over the probes from the one
before the call to the one after it; a probe's speed is
``REFERENCE_S`` / its time.

The mean, not the median: the probe's time is bimodal on a loaded machine
(about 9 and 15 ms here), and a call slows by the share of its time spent in
the slow state, which the mean follows and the median does not.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from collections import deque
from time import perf_counter

INTERVAL_S = 0.5
#: Time of one `bfs_loop` on the machine the bounds were set on, unloaded
#: (2 vCPU Intel Xeon, Python 3.11.7); fixes the unit only.
REFERENCE_S = 9e-3


def _random_adjacency(n, edges, seed):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for _ in range(edges):
        a, b = rng.randrange(n), rng.randrange(n)
        adj[a].append(b)
        adj[b].append(a)
    return adj


_ADJ = _random_adjacency(300, 900, 0)


def bfs_loop():
    """Fixed work: breadth-first search from 100 sources of a 300-vertex graph.

    It uses dicts, lists and a deque, as the library's generators, BFS and
    pair loops do.
    """
    total = 0
    for src in range(0, len(_ADJ), 3):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    return total


class SpeedProbe:
    """Probe times; the timer adds probes only while the context is open."""

    def __init__(self):
        self.samples = []  # `bfs_loop` time, per probe
        self.stolen = []  # wall time each probe took from the code under test

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        # No collection runs inside the probe, so its time does not depend
        # on the heap the code under test has built.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        bfs_loop()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.stolen.append(perf_counter() - t0)

    def time(self, fn):
        """Call fn(): (its result, rescaled s, raw s)."""
        self._sample(None, None)
        mark = len(self.stolen)
        t0 = perf_counter()
        out = fn()
        wall = perf_counter() - t0
        end = len(self.stolen)
        self._sample(None, None)
        raw = wall - sum(self.stolen[mark:end])
        speed = statistics.fmean(REFERENCE_S / t for t in self.samples[mark - 1:])
        return out, raw * speed, raw
