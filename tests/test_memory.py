"""Memory regression bounds, in traced bytes per vertex.

``tracemalloc`` counts the bytes Python allocates, the same on every run, so
unlike the process's RSS these bounds do not move with allocator or VM noise.
Each bound sits about 10 % above the value measured on Python 3.11 when it
was set (in the comment beside it): storing the labels of an integer-labeled
graph as strings adds ~62 bytes per vertex, and a boxed int per suspended
vertex in the impact DFS ~32.
"""

import gc
import tracemalloc

from blockimpact import GeneratorSpec, compute_all_impacts, generate


def _traced(fn):
    """``fn()``'s result with the bytes it left allocated and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - base, peak - base


def test_generate_builds_no_label_strings():
    n = 2**16
    g, kept, peak = _traced(lambda: generate(GeneratorSpec("path", n)))
    assert g.n == n
    assert kept / n < 83, kept / n  # 75.1 measured
    assert peak / n < 345, peak / n  # 313.7 measured


def test_compute_all_impacts_peak_on_a_path():
    n = 2**18
    g = generate(GeneratorSpec("path", n))
    report, _, peak = _traced(lambda: compute_all_impacts(g))
    assert report.max_impact == (n - 1) // 2
    assert peak / n < 133, peak / n  # 120.8 measured
