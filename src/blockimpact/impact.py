"""Per-vertex impact values: one lowpoint DFS, and the block forest method.

The impact of a vertex is how many vertices end up outside the largest
surviving connected component of its own component once the vertex is
removed; it is 0 exactly for non-articulation vertices.

:func:`compute_all_impacts` reads every impact off one Hopcroft-Tarjan DFS.
When DFS child c of v has lowpoint(c) >= number(v), removing v cuts c's whole
subtree off as one piece, of as many vertices as were discovered while c was
open; what is left of v's component minus those pieces and v is the last
piece. No block forest is built on this path. The same DFS labels the
connected components (:class:`CcLabeling`), the one fast code that does.

The paper's method gets the same pieces from the rooted block forest: one per
child block of v's square node, plus the piece "above" v through its parent,
all read off the square counts of one subtree-size sweep,
:func:`compute_sq_sizes`, which holds under any rooting of the forest. It
stays here for ``dot`` and, chained into :func:`impact_vector`, as the
second linear-time oracle that the tests hold the DFS path against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .forest import BlockForest, build_block_forest
from .graph import Graph


@dataclass(frozen=True, slots=True)
class CcLabeling:
    """Connected-component labeling: ids are dense and assigned in order of
    each component's first-visited vertex. The lowpoint DFS of
    :func:`_separated_pieces` is the one fast code that computes it
    (:func:`connected_components`); the removal oracle keeps its own BFS."""

    component_id: list[int]  # per vertex
    component_size: list[int]  # per component


def compute_sq_sizes(bf: BlockForest) -> list[int]:
    """Per node id, the number of squares in the node's rooted subtree (the
    node itself included when it is a square), under any rooting of ``bf``.

    One leaves-up pass over ``parent`` alone: count each node's children,
    start from the nodes that have none, and fold each node into its parent;
    a parent joins the pass once its last child has been folded in, so its
    count is complete before it is read.
    """
    n = bf.n_squares
    parent = bf.parent
    # Children not yet folded in, per node; roots count into the extra slot.
    pending = [0] * (len(parent) + 1)
    for p in parent:
        pending[p] += 1
    sq = [1] * n + [0] * bf.num_rounds
    ready = [x for x in range(len(parent)) if not pending[x]]
    for x in ready:  # grows while it is read
        p = parent[x]
        if p >= 0:
            sq[p] += sq[x]
            pending[p] -= 1
            if not pending[p]:
                ready.append(p)
    return sq


def impact_vector(bf: BlockForest, sq: list[int], cc: CcLabeling) -> list[int]:
    """Impacts of all vertices in one pass over the round nodes.

    Deleting v leaves one piece per child block of v's square, the squares
    of that block's subtree, plus everything in v's component outside v's
    subtree; the impact is the component size minus the largest piece minus
    one. Grouping rounds by their parent square avoids materializing
    per-square adjacency.
    """
    n = bf.n_squares
    parent = bf.parent
    child_max = [0] * n
    for node in range(n, bf.num_nodes):
        p = parent[node]
        if p >= 0:
            s = sq[node]
            if s > child_max[p]:
                child_max[p] = s
    comp_id = cc.component_id
    comp_size = cc.component_size
    out = [0] * n
    for v in range(n):
        comp = comp_size[comp_id[v]]
        rest = comp - sq[v]
        cm = child_max[v]
        if rest > cm:
            cm = rest
        out[v] = comp - cm - 1
    return out


@dataclass(frozen=True, slots=True)
class ImpactReport:
    """Per-vertex impact records (column-oriented, indexed by internal vertex
    id) plus summary statistics."""

    labels: Sequence[str]
    impact: list[int]
    is_articulation: list[bool]
    component_id: list[int]
    component_size: list[int]
    n: int
    m: int
    articulation_count: int
    max_impact: int
    max_impact_label: str | None

    @classmethod
    def from_columns(
        cls,
        labels: Sequence[str],
        impact: list[int],
        is_articulation: list[bool],
        cc: CcLabeling,
        m: int,
    ) -> "ImpactReport":
        """Assemble a report; it keeps ``cc``'s component id list, not a copy."""
        n = len(labels)
        comp_id = cc.component_id
        comp_size_col = [cc.component_size[c] for c in comp_id]
        max_impact = max(impact, default=0)
        # Ties for the largest impact go to the smallest label. Labels may be
        # made on read (DecimalLabels), so only the tied vertices' labels are
        # read; each index call resumes where the last stopped, one C-level
        # pass over impact in all.
        at = -1
        ties = [at := impact.index(max_impact, at + 1) for _ in range(impact.count(max_impact))]
        max_label = min(map(labels.__getitem__, ties), default=None)
        return cls(
            labels=labels,
            impact=impact,
            is_articulation=is_articulation,
            component_id=comp_id,
            component_size=comp_size_col,
            n=n,
            m=m,
            articulation_count=sum(is_articulation),
            max_impact=max_impact,
            max_impact_label=max_label,
        )


def _separated_pieces(g: Graph) -> tuple[CcLabeling, list[int], list[int]]:
    """Component labeling plus, per vertex v, the largest size of the DFS
    child subtrees that removing v cuts off as separate pieces, and the
    total size of the other such pieces.

    One explicit-stack DFS over the CSR arrays, components started in vertex
    order, so component ids follow each component's first-visited vertex;
    :func:`connected_components` returns this labeling. The tree edge back to
    the parent p is not skipped: it can lower the child's lowpoint only to
    number(p), which leaves the test lowpoint(child) >= number(p) unchanged.

    Keeping the largest piece apart from the rest, rather than next to the
    total, leaves the rest at the shared small int 0 for a vertex that cuts
    off a single piece (every inner vertex of a path), so only one int
    object per such vertex is allocated. For the same reason a suspended
    vertex records how many of its adjacency slots are left to scan, not
    the position of the next one: below 257 that count is one of the
    interpreter's shared small ints, while a position past 256 is an int
    object of its own, kept alive as long as the vertex is suspended.
    """
    n = g.n
    indptr = g.indptr
    nbr = g.nbr
    number = [-1] * n
    # lowpt and cursor (how many adjacency slots are left to scan) are
    # written when a vertex is suspended and read when it is resumed.
    lowpt = [0] * n
    cursor = [0] * n
    comp = [0] * n
    cut_max = [0] * n
    cut_rest = [0] * n
    sizes: list[int] = []
    timer = 0
    for s in range(n):
        if number[s] >= 0:
            continue
        cid = len(sizes)
        first = timer
        # The open vertex v and its scan state (i, end, low) live in locals;
        # the stack holds only v's suspended ancestors.
        v = s
        i = indptr[s]
        end = indptr[s + 1]
        number[s] = low = timer
        timer += 1
        comp[s] = cid
        stack = [-1]  # under a sentinel for the root's missing parent
        push = stack.append
        pop = stack.pop
        while True:
            while i < end:
                u = nbr[i]
                i += 1
                nu = number[u]
                if nu < 0:
                    break
                if nu < low:
                    low = nu
            else:
                # v is finished; its subtree holds everything numbered since
                # v. Resume its parent p with v folded in.
                p = pop()
                if p < 0:
                    break
                if low >= number[p]:
                    size = timer - number[v]
                    big = cut_max[p]
                    if size > big:
                        cut_max[p] = size
                        size = big  # the old largest joins the rest
                    cut_rest[p] += size
                    low = lowpt[p]
                elif lowpt[p] < low:
                    low = lowpt[p]
                v = p
                end = indptr[p + 1]
                i = end - cursor[p]
                continue
            # Tree edge (v, u): suspend v, open u.
            cursor[v] = end - i
            lowpt[v] = low
            push(v)
            v = u
            i = indptr[u]
            end = indptr[u + 1]
            number[u] = low = timer
            timer += 1
            comp[u] = cid
        sizes.append(timer - first)
    return CcLabeling(comp, sizes), cut_max, cut_rest


def connected_components(g: Graph) -> CcLabeling:
    """Component labeling of ``g``, read off the lowpoint DFS of
    :func:`_separated_pieces`."""
    return _separated_pieces(g)[0]


def compute_all_impacts(g: Graph) -> ImpactReport:
    """Every vertex's impact, articulation flag and component, in O(n + m).

    Removing v leaves the separated child subtrees of :func:`_separated_pieces`
    and, unless v is a DFS root, the rest of its component; the impact is the
    component size minus one minus the largest of those pieces.
    """
    cc, cut_max, cut_rest = _separated_pieces(g)
    comp_id = cc.component_id
    comp_size = cc.component_size
    # With nothing cut off, the rest of the component stays whole: impact 0.
    impacts = [0] * g.n
    for v, big in enumerate(cut_max):
        if big:
            others = comp_size[comp_id[v]] - 1
            rest = others - big - cut_rest[v]
            impacts[v] = others - (big if big > rest else rest)
    flags = [x > 0 for x in impacts]
    return ImpactReport.from_columns(g.labels, impacts, flags, cc, g.m)


def build_forest_and_labeling(g: Graph) -> tuple[BlockForest, CcLabeling]:
    """The block forest and the component labeling, each from its own DFS.

    A seam for tracing, not a fused pass: the tests' forest oracle calls it,
    and the benchmark's tracer wraps ``impact.build_forest_and_labeling`` by
    name and reads the forest as ``result[0]``. It lives here, not in
    :mod:`blockimpact.forest`, because the labeling comes from this module,
    which imports that one.
    """
    return build_block_forest(g), connected_components(g)

