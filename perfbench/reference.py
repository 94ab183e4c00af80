"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to twice as fast or slow from one
fraction of a second to the next, and its average speed drifts by a fifth or
more for tens of seconds at a time, longer than one benchmark run, so a
median over a run does not remove it. The benchmark therefore runs this
kernel just before and just after every timed step, on the same CPU (see
``pin_to_one_cpu``), and reports the step in reference seconds: its wall
time times ``REFERENCE_S`` over the mean kernel time around it, the wall
time it would take on a machine on which the kernel takes ``REFERENCE_S``.

The kernel is a miniature of the program, written here and importing
nothing from ``blockimpact`` so that no change to the program moves it: it
parses an edge-list text, builds adjacency lists, runs an iterative DFS with
low points and formats one line per vertex. Its mix of work is the
program's, so the two speed up and slow down together far more closely than
a plain loop does. The collector is off while it runs, so its time does not
depend on the heap of the process that runs it.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time

REFERENCE_S = 0.5  # about the kernel's median time on the 2-CPU x86-64 VM the benchmark was written on
KERNEL_N = 1 << 16  # vertices; the graph has twice as many edges
KERNEL_SEED = 20150401
RUNS_PER_SAMPLE = 2


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on the lowest CPU it
    may use. The speed of the CPUs of a shared host varies apart, so the
    kernel must run on the CPU the operation it scales runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Reference:
    def __init__(self) -> None:
        rng = random.Random(KERNEL_SEED)
        n = KERNEL_N
        self.text = "".join(f"{rng.randrange(n)} {rng.randrange(n)}\n" for _ in range(2 * n))

    def kernel(self) -> int:
        """Parse, DFS with low points, format; returns the output's length
        plus the number of cut edges and vertices found, so no step can be
        skipped."""
        n = KERNEL_N
        adj: list[list[int]] = [[] for _ in range(n)]
        for line in self.text.splitlines():
            u, v = map(int, line.split())
            adj[u].append(v)
            adj[v].append(u)
        disc = [0] * n
        low = [0] * n
        clock = cuts = 0
        for root in range(n):
            if disc[root]:
                continue
            clock += 1
            disc[root] = low[root] = clock
            stack = [(root, -1, iter(adj[root]))]
            while stack:
                u, parent, it = stack[-1]
                for w in it:
                    if w == parent:
                        continue
                    if disc[w]:
                        low[u] = min(low[u], disc[w])
                    else:
                        clock += 1
                        disc[w] = low[w] = clock
                        stack.append((w, u, iter(adj[w])))
                        break
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[u])
                        cuts += low[u] >= disc[p]
        out = "".join(f"{v}\t{disc[v]}\t{low[v]}\n" for v in range(n))
        return len(out) + cuts

    def sample(self) -> list[float]:
        """Wall times of a few kernel runs."""
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(RUNS_PER_SAMPLE):
                t0 = time.perf_counter()
                self.kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        return times


def scaled(walls: list[float], gaps: list[list[float]]) -> list[float]:
    """Each wall time in reference seconds. ``gaps`` holds one more entry
    than ``walls``: ``gaps[i]`` are the kernel times taken just before step
    ``i`` and ``gaps[i + 1]`` those just after it (either may be empty, not
    both). The mean, not the median, because a step's wall time too is the
    sum over its fast and slow moments."""
    assert len(gaps) == len(walls) + 1
    return [w * REFERENCE_S / statistics.fmean(gaps[i] + gaps[i + 1]) for i, w in enumerate(walls)]
