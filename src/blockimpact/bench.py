"""Timing harness for the linear-scaling claim.

Graph generation happens outside the measured region; only the analysis
(:func:`compute_all_impacts`: one lowpoint DFS, the impacts and the report)
is timed, by :mod:`timeit`, which also pauses GC inside each timed run, so
allocator pauses do not land on individual rows.
"""

from __future__ import annotations

import math
import statistics
import timeit
from dataclasses import dataclass

from .graph import GeneratorSpec, Graph, generate
from .impact import compute_all_impacts


@dataclass(frozen=True, slots=True)
class BenchRow:
    family: str
    n: int
    m: int
    seconds: float
    ns_per_element: float  # seconds / (n + m), in nanoseconds


def time_all_impacts(g: Graph, repeats: int = 1) -> float:
    """Median wall time of compute_all_impacts over ``repeats`` runs."""
    times = timeit.repeat(lambda: compute_all_impacts(g), number=1, repeat=repeats)
    return statistics.median(times)


def bench_graph(
    family: str, n: int, *, m_per_n: float = 2.0, k: int | None = None, seed: int = 0
) -> Graph:
    """The graph a sweep times at ``n`` vertices (gnm gets ``m_per_n * n``
    edges, capped at the complete graph). Raises ValueError on family
    parameters the generator rejects, and for gnm on an ``m_per_n`` that is
    negative, infinite or NaN."""
    m = None
    if family == "gnm":
        if not 0 <= m_per_n < math.inf:
            raise ValueError(f"m-per-n must be a finite number >= 0, got {m_per_n}")
        m = min(int(round(m_per_n * n)), n * (n - 1) // 2)
    return generate(GeneratorSpec(family, n, m=m, k=k, seed=seed))


def bench_row(family: str, g: Graph, repeats: int) -> BenchRow:
    seconds = time_all_impacts(g, repeats)
    return BenchRow(family, g.n, g.m, seconds, seconds / (g.n + g.m) * 1e9)


def sweep(
    family: str,
    sizes: list[int],
    *,
    m_per_n: float = 2.0,
    k: int | None = None,
    seed: int = 0,
    repeats: int = 1,
) -> list[BenchRow]:
    """One row per size. Raises ValueError unless every size and ``repeats``
    are >= 1, or when the family rejects its parameters."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if min(sizes, default=1) < 1:
        raise ValueError(f"sizes must be >= 1, got {min(sizes)}")
    return [
        bench_row(family, bench_graph(family, n, m_per_n=m_per_n, k=k, seed=seed), repeats)
        for n in sizes
    ]


def format_rows(rows: list[BenchRow]) -> str:
    out = ["family\tn\tm\tseconds\tns_per_element"]
    for r in rows:
        out.append(f"{r.family}\t{r.n}\t{r.m}\t{r.seconds:.6f}\t{r.ns_per_element:.2f}")
    return "\n".join(out) + "\n"
