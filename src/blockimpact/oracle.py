"""Brute-force ground truth: impact and articulation points by actual removal.

Every function here works by deleting a vertex and re-exploring what is left,
exactly as the definitions read, with one BFS helper. Nothing is shared with
the fast path beyond the graph container and the report types -- this module
re-derives even the component labeling with that BFS, so a bug in the
linear-time code cannot hide inside logic the oracle also uses. Cost is
O(n(m+n)) over all vertices, by design.
"""

from __future__ import annotations

from .graph import Graph
from .impact import CcLabeling, ImpactReport


def _reach(g: Graph, s: int, seen: bytearray) -> list[int]:
    """The unseen vertices reachable from the unseen vertex ``s`` through
    unseen vertices, in BFS order from ``s``; marks them all seen."""
    indptr = g.indptr
    nbr = g.nbr
    seen[s] = 1
    queue = [s]
    for x in queue:  # grows while it is read
        for y in nbr[indptr[x]:indptr[x + 1]]:
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    return queue


def surviving_component_sizes(g: Graph, v: int) -> list[int]:
    """Sizes of the connected pieces of (v's component minus v).

    Empty when v is isolated; a single entry when v is not a cut vertex.
    """
    seen = bytearray(g.n)
    seen[v] = 1
    around = g.nbr[g.indptr[v]:g.indptr[v + 1]]
    return [len(_reach(g, w, seen)) for w in around if not seen[w]]


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
    # The oracle's own labeling, one BFS per component started in vertex
    # order, independent of the lowpoint DFS behind
    # impact.connected_components.
    comp = [0] * g.n
    seen = bytearray(g.n)
    sizes: list[int] = []
    for s in range(g.n):
        if not seen[s]:
            piece = _reach(g, s, seen)
            for x in piece:
                comp[x] = len(sizes)
            sizes.append(len(piece))
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
