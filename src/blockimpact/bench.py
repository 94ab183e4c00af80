"""Timing harness for the linear-scaling claim.

:func:`sweep` is the one size sweep, run by ``blockimpact bench`` and by the
scaling acceptance criterion. Graph generation happens outside the measured
region; only the analysis (:func:`compute_all_impacts`: one lowpoint DFS, the
impacts and the report) is timed, by :mod:`timeit`, which also pauses GC
inside each timed run, so allocator pauses do not land on individual rows.
"""

from __future__ import annotations

import math
import statistics
import timeit
from dataclasses import dataclass

from .graph import DecimalLabels, GeneratorSpec, Graph, generate
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


def sweep(
    family: str,
    sizes: list[int],
    *,
    m_per_n: float = 2.0,
    k: int | None = None,
    seed: int = 0,
    repeats: int = 1,
) -> list[BenchRow]:
    """One row per size, timing the ``generate`` graph of ``n`` vertices (gnm
    gets ``m_per_n * n`` edges, capped at the complete graph). Raises
    ValueError unless every size, then ``repeats``, is >= 1, on a gnm
    ``m_per_n`` that is negative, infinite or NaN, and on a vertex count or
    family parameters the generator rejects."""
    if min(sizes, default=1) < 1:
        raise ValueError(f"sizes must be >= 1, got {min(sizes)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if family == "gnm" and not 0 <= m_per_n < math.inf:
        raise ValueError(f"m-per-n must be a finite number >= 0, got {m_per_n}")
    rows = []
    for n in sizes:
        m = None
        if family == "gnm":
            DecimalLabels(0, n)  # refuses a count too large to multiply by a float
            # Capped before rounding, so a product that overflows to inf still rounds.
            m = round(min(m_per_n * n, n * (n - 1) // 2))
        g = generate(GeneratorSpec(family, n, m=m, k=k, seed=seed))
        seconds = time_all_impacts(g, repeats)
        rows.append(BenchRow(family, n, g.m, seconds, seconds / (n + g.m) * 1e9))
    return rows


def format_rows(rows: list[BenchRow]) -> str:
    out = ["family\tn\tm\tseconds\tns_per_element"]
    for r in rows:
        out.append(f"{r.family}\t{r.n}\t{r.m}\t{r.seconds:.6f}\t{r.ns_per_element:.2f}")
    return "\n".join(out) + "\n"
