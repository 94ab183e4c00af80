"""Brute-force ground truth: impact and articulation points by actual removal.

Every function here works by deleting a vertex and re-exploring what is left,
exactly as the definitions read. Nothing is shared with the fast path beyond
the graph container and the report schema -- this module re-derives even the
component labeling with its own BFS, so a bug in the linear-time code cannot
hide inside logic the oracle also uses. Cost is O(n(m+n)) over all vertices,
by design.
"""

from __future__ import annotations

from .graph import CcLabeling, Graph
from .impact import ImpactReport


def surviving_component_sizes(g: Graph, v: int) -> list[int]:
    """Sizes of the connected pieces of (v's component minus v).

    Empty when v is isolated; a single entry when v is not a cut vertex.
    """
    indptr = g.indptr
    nbr = g.nbr
    seen = bytearray(g.n)
    seen[v] = 1
    sizes: list[int] = []
    for w in nbr[indptr[v]:indptr[v + 1]]:
        if seen[w]:
            continue
        seen[w] = 1
        queue = [w]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in nbr[indptr[x]:indptr[x + 1]]:
                if not seen[y]:
                    seen[y] = 1
                    queue.append(y)
        sizes.append(len(queue))
    return sizes


def naive_impact(g: Graph, v: int) -> int:
    """Impact by removal: original component size - 1 - largest surviving piece.

    The pieces partition v's component minus v, so their sum alone gives the
    component size and a second sweep is unnecessary.
    """
    pieces = surviving_component_sizes(g, v)
    return sum(pieces) - max(pieces, default=0)


def naive_articulation_points(g: Graph) -> set[int]:
    """Vertices whose removal leaves their component in two or more pieces.

    Removing an isolated vertex leaves zero pieces and does not count as
    increasing the component count among the remaining vertices.
    """
    return {v for v in range(g.n) if len(surviving_component_sizes(g, v)) >= 2}


def _labeling(g: Graph) -> CcLabeling:
    # The oracle's own first-visit-order BFS labeling, independent of the
    # lowpoint DFS behind impact.connected_components.
    n = g.n
    indptr = g.indptr
    nbr = g.nbr
    comp = [-1] * n
    sizes: list[int] = []
    for s in range(n):
        if comp[s] >= 0:
            continue
        cid = len(sizes)
        comp[s] = cid
        queue = [s]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in nbr[indptr[x]:indptr[x + 1]]:
                if comp[y] < 0:
                    comp[y] = cid
                    queue.append(y)
        sizes.append(len(queue))
    return CcLabeling(comp, sizes)


def naive_all_impacts(g: Graph) -> ImpactReport:
    """Per-vertex removal sweep over the whole graph, packed into the same
    report schema the fast path produces."""
    impacts: list[int] = []
    flags: list[bool] = []
    for v in range(g.n):
        pieces = surviving_component_sizes(g, v)
        impacts.append(sum(pieces) - max(pieces, default=0))
        flags.append(len(pieces) >= 2)
    return ImpactReport.from_columns(g.labels, impacts, flags, _labeling(g), g.m)
