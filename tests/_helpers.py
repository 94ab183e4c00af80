"""Shared fixtures: named small graphs, corpora, the square -> rounds lists
of a block forest, the structural validator, the paper's block-forest method
as a second linear-time oracle, a recursive reference of the block forest's
member order, DFS shapes that scale, with the check that both DFSs agree on
them, and the tuple edge lists that ``generate`` is checked against."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import sys

from blockimpact import (
    BlockForest,
    CcLabeling,
    Graph,
    articulation_points,
    compute_all_impacts,
    compute_sq_sizes,
    generate,
    GeneratorSpec,
    impact,
    naive_articulation_points,
    parse_edge_list,
)
from blockimpact.forest import edge_rounds
from blockimpact.oracle import _labeling

BOWTIE_TEXT = "a b\na c\nb c\nc d\nc e\nd e\n"
PATH6_TEXT = "a b\nb c\nc d\nd e\ne f\n"
PENDANT_TRIANGLE_TEXT = "a b\nb c\nc a\na x\n"
# Two triangle blocks, two bridge blocks and a two-edge tail: five blocks,
# articulation points c, d (in three blocks), and g.
MULTIBLOCK_TEXT = "a b\nb c\nc a\nc d\nd e\ne f\nf d\nd g\ng h\n"


def graph_from(text: str) -> Graph:
    return parse_edge_list(text).graph


def bowtie() -> Graph:
    return graph_from(BOWTIE_TEXT)


def path6() -> Graph:
    return graph_from(PATH6_TEXT)


def pendant_triangle() -> Graph:
    return graph_from(PENDANT_TRIANGLE_TEXT)


def multiblock() -> Graph:
    return graph_from(MULTIBLOCK_TEXT)


def forest_impacts(g: Graph) -> tuple[list[int], CcLabeling]:
    """Impacts and the component labeling by the paper's block-forest method
    alone: the second linear-time oracle for ``compute_all_impacts``. Tree i
    is component i, as the roots are started in vertex order, and its size is
    its root's square count; the seam's lowpoint-DFS labeling is discarded.
    Each step is looked up on :mod:`blockimpact.impact` when called, so the
    benchmark's tracer, which rebinds them there, sees all three."""
    bf, _ = impact.build_forest_and_labeling(g)
    sq = impact.compute_sq_sizes(bf)
    tree = [-1] * bf.num_nodes
    for i, root in enumerate(bf.roots):
        tree[root] = i
    for v in range(g.n):
        passed = []
        x = v
        while tree[x] < 0:
            passed.append(x)
            x = bf.parent[x]
        for y in passed:
            tree[y] = tree[x]
    cc = CcLabeling(tree[:g.n], [sq[root] for root in bf.roots])
    return impact.impact_vector(bf, sq), cc


def square_rounds(bf: BlockForest) -> list[list[int]]:
    """Per square, the absolute ids of the round nodes whose block contains
    it, in round order. Read off the member lists alone, never ``parent``,
    so checks built on it test the orientation against the membership.
    Build it once per forest: each call walks every member list."""
    n = bf.n_squares
    rounds: list[list[int]] = [[] for _ in range(n)]
    for r in range(bf.num_rounds):
        for v in bf.round_members(r):
            rounds[v].append(n + r)
    return rounds


def forest_neighbors(bf: BlockForest, rounds: list[list[int]], node: int) -> list[int]:
    """The forest nodes adjacent to ``node``: a square's rounds, from
    ``rounds`` (:func:`square_rounds` of ``bf``), or a round's member
    squares."""
    if node < bf.n_squares:
        return rounds[node]
    return bf.round_members(node - bf.n_squares)


def all_graphs_up_to(max_n: int):
    """Every labeled simple graph with n <= max_n vertices (edge-subset lattice)."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def seeded_gnm_graphs(count: int, n_max: int, rng) -> list[Graph]:
    out = []
    for i in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(0, n * (n - 1) // 2)
        out.append(generate(GeneratorSpec("gnm", n, m=m, seed=rng.randrange(2**63))))
    return out


def reference_pair_from_index(idx: int, n: int) -> tuple[int, int]:
    """Pair ``idx`` of the lexicographic list of pairs (u, v), u < v, of
    ``range(n)``, with the row offset recomputed by a closure at every step:
    the reference for ``graph._pair_from_index``, which keeps it running."""
    a = 2 * n - 1
    u = (a - math.isqrt(a * a - 8 * idx)) // 2

    def offset(row: int) -> int:
        return row * n - (row * (row + 1)) // 2

    while u > 0 and offset(u) > idx:
        u -= 1
    while offset(u + 1) <= idx:
        u += 1
    return u, u + 1 + (idx - offset(u))


def reference_generated_edges(spec: GeneratorSpec) -> list[tuple[int, int]]:
    """The edges ``generate(spec)`` records, in order, as a list of tuples
    built per family with no stream: ``Graph.from_edges(spec.n, ...)`` of it,
    with its range, loop and repeat checks, is the reference for
    ``generate(spec)``. ``spec`` must be one ``generate`` accepts."""
    n, k = spec.n, spec.k
    if spec.family == "gnm":
        picks = random.Random(spec.seed).sample(range(n * (n - 1) // 2), spec.m) if spec.m else []
        return [reference_pair_from_index(i, n) for i in picks]
    if spec.family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if spec.family == "star":
        return [(0, i) for i in range(1, n)]
    if spec.family == "balanced-tree":
        k = 2 if k is None else k
        return [((i - 1) // k, i) for i in range(1, n)]
    k = 3 if k is None else k  # clique-chain
    edges = []
    for base in range(0, n - 1, k - 1):
        block = range(base, base + k)
        edges.extend((u, v) for u in block for v in block if u < v)
    return edges


def closure_components(g: Graph, without: int | None = None) -> list[int]:
    """Component id per vertex from a Warshall transitive closure, the
    brute-force reference; ids follow each component's smallest vertex.
    With ``without``, that vertex's edges are left out, so it stands alone."""
    reach = [[i == j for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        if without not in (u, v):
            reach[u][v] = reach[v][u] = True
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(g.n):
                    if row_k[j]:
                        row_i[j] = True
    comp = [-1] * g.n
    nxt = 0
    for v in range(g.n):
        if comp[v] < 0:
            for u in range(v, g.n):
                if reach[v][u]:
                    comp[u] = nxt
            nxt += 1
    return comp


def vertex(g: Graph, label: str) -> int:
    """Internal id of the vertex labeled ``label``."""
    return g.labels.index(label)


def components_without_edge(g: Graph, skip_edge: int) -> int:
    """Component count of g with one edge deleted (independent BFS)."""
    a, b = g.edges[skip_edge]  # a simple graph: the endpoints name the edge
    seen = bytearray(g.n)
    count = 0
    for s in range(g.n):
        if seen[s]:
            continue
        count += 1
        seen[s] = 1
        queue = [s]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in g.nbr[g.indptr[x]:g.indptr[x + 1]]:
                if (x == a and y == b) or (x == b and y == a):
                    continue
                if not seen[y]:
                    seen[y] = 1
                    queue.append(y)
    return count


def induced_connected_without(g: Graph, members: set[int], removed: int | None) -> bool:
    """Is the subgraph induced on ``members`` (minus ``removed``) connected?"""
    keep = set(members)
    if removed is not None:
        keep.discard(removed)
    if len(keep) <= 1:
        return True
    start = next(iter(keep))
    seen = {start}
    queue = [start]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in g.nbr[g.indptr[x]:g.indptr[x + 1]]:
            if y in keep and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == keep


def check_block_forest(g: Graph, bf: BlockForest, *, removal_checks: bool = False) -> None:
    """Assert every structural invariant of a built (or re-rooted) forest."""
    n, nrounds = bf.n_squares, bf.num_rounds
    assert n == g.n
    assert len(bf.parent) == n + nrounds
    assert bf.member_indptr[0] == 0
    assert bf.member_indptr[-1] == len(bf.member_flat)

    # Bipartite with no duplicate forest edges; every block has >= 2 vertices.
    for r in range(nrounds):
        mem = bf.round_members(r)
        assert len(mem) >= 2
        assert len(set(mem)) == len(mem)
        assert all(0 <= v < n for v in mem)
    rounds = square_rounds(bf)
    for v in range(n):
        assert len(set(rounds[v])) == len(rounds[v])
        assert all(node >= n for node in rounds[v])

    # Forest shape: edge count, acyclicity, and parent orientation agree.
    assert len(bf.member_flat) == (n + nrounds) - len(bf.roots)
    seen = [False] * (n + nrounds)
    for root in bf.roots:
        assert bf.parent[root] == -1
        assert not seen[root]
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y in forest_neighbors(bf, rounds, x):
                if y != bf.parent[x]:
                    assert not seen[y], "cycle or duplicate edge in the forest"
                    assert bf.parent[y] == x
                    seen[y] = True
                    stack.append(y)
    assert all(seen)

    # Roots are rounds except singleton-square trees; one tree per component,
    # counted by the oracle's BFS, which shares nothing with either DFS.
    cc = _labeling(g)
    assert len(bf.roots) == len(cc.component_size)
    for root in bf.roots:
        if root < n:
            assert g.indptr[root + 1] == g.indptr[root]

    # Articulation points: non-leaf squares, and the removal oracle agrees.
    aps = articulation_points(bf)
    assert aps == {v for v in range(n) if len(rounds[v]) >= 2}
    assert aps == naive_articulation_points(g)
    if n >= 2:
        assert len(aps) <= n - 2

    # Edge partition: each edge is inside exactly one block.
    edge_round = edge_rounds(g, bf)
    assert len(edge_round) == g.m
    for e, (u, w) in enumerate(g.edges):
        node = edge_round[e]
        assert n <= node < n + nrounds
        mem = set(bf.round_members(node - n))
        assert u in mem and w in mem
        containing = [
            rnode for rnode in rounds[u]
            if w in bf.round_members(rnode - n)
        ]
        assert containing == [node]

    # Subtree square counts: recurrence and root totals.
    sq = compute_sq_sizes(bf)
    child_sum = [0] * (n + nrounds)
    for x in range(n + nrounds):
        p = bf.parent[x]
        if p >= 0:
            child_sum[p] += sq[x]
    for x in range(n + nrounds):
        assert sq[x] == child_sum[x] + (1 if x < n else 0)
    for root in bf.roots:
        if root < n:
            assert sq[root] == 1 == cc.component_size[cc.component_id[root]]
        else:
            anyv = bf.round_members(root - n)[0]
            assert sq[root] == cc.component_size[cc.component_id[anyv]]

    if removal_checks:
        # Blocks with >= 3 vertices survive any single-vertex removal;
        # 2-vertex blocks are bridges (deleting the edge splits something).
        for r in range(nrounds):
            mem = set(bf.round_members(r))
            if len(mem) >= 3:
                for v in mem:
                    assert induced_connected_without(g, mem, v)
        base = len(cc.component_size)
        for e in range(g.m):
            node = edge_round[e]
            two = len(bf.round_members(node - n)) == 2
            split = components_without_edge(g, e) > base
            assert two == split


def long_cycle(n):
    """One block holding all n vertices."""
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def cactus(cycles, seed):
    """Edge-disjoint cycles of length 3..6, each hung on a random earlier vertex."""
    rng = random.Random(seed)
    n, edges = 1, []
    for _ in range(cycles):
        ring = [rng.randrange(n)] + list(range(n, n + rng.randint(2, 5)))
        n += len(ring) - 1
        edges += [(ring[i - 1], ring[i]) for i in range(len(ring))]
    return Graph.from_edges(n, edges)


def broom(handle, bristles):
    """A path of ``handle`` vertices with a star of ``bristles`` leaves at its end."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return Graph.from_edges(handle + bristles, edges)


def star_of_cliques(count, k):
    """``count`` k-cliques that share only vertex 0."""
    edges = []
    for c in range(count):
        clique = [0] + list(range(1 + c * (k - 1), 1 + (c + 1) * (k - 1)))
        edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
    return Graph.from_edges(1 + count * (k - 1), edges)


def isolated_and_small(pieces, seed):
    """Isolated vertices mixed with single edges, triangles and short paths,
    under a shuffled numbering so components interleave in vertex order."""
    rng = random.Random(seed)
    sizes = [rng.choice((1, 1, 1, 2, 3, 4)) for _ in range(pieces)]
    n = sum(sizes)
    ids = list(range(n))
    rng.shuffle(ids)
    edges, at = [], 0
    for size in sizes:
        vs = ids[at:at + size]
        at += size
        edges += [(vs[i], vs[i + 1]) for i in range(size - 1)]
        if size == 3:
            edges.append((vs[2], vs[0]))
    return Graph.from_edges(n, edges)


def assert_dfs_matches_forest(g):
    report = compute_all_impacts(g)
    impacts, cc = forest_impacts(g)
    assert report.impact == impacts
    assert report.component_id == cc.component_id
    assert report.component_size == [cc.component_size[c] for c in cc.component_id]
    assert report.is_articulation == [x > 0 for x in impacts]


def hub_with_pieces(pieces, above):
    """A hub vertex whose removal leaves one piece per entry of ``pieces``,
    which the DFS closes in the order given, plus a path of ``above``
    vertices the DFS comes down before reaching the hub; with ``above`` 0
    the hub is the DFS root. Pieces alternate between a path hanging off the
    hub and a cycle through it. Returns the graph and the hub's id."""
    hub = above
    edges = [(i, i + 1) for i in range(above)]  # the last one reaches the hub
    n = hub + 1
    for i, size in enumerate(pieces):
        piece = list(range(n, n + size))
        n += size
        edges.append((hub, piece[0]))
        edges += zip(piece, piece[1:])
        if i % 2 and size >= 2:
            edges.append((piece[-1], hub))
    return Graph.from_edges(n, edges), hub


DFS_SHAPES = {
    "long-cycle": long_cycle,
    "cactus": lambda size: cactus(size // 4, seed=size),
    "broom": lambda size: broom(size // 2, size - size // 2),
    "star-of-cliques": lambda size: star_of_cliques(max(size // 4, 1), 5),
    "isolated-and-small": lambda size: isolated_and_small(size // 2, seed=size),
}


@contextlib.contextmanager
def recursion_limit(limit):
    """Raise the interpreter's recursion limit to at least ``limit`` inside
    the block, and put the old one back on leaving it."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def reference_forest_fields(g: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """``member_flat``, ``member_indptr``, ``parent`` and ``roots`` of the
    block forest, built by a recursive DFS that follows the documented rule
    of ``build_block_forest`` and shares no code with it.

    Components start in vertex order and each vertex scans its adjacency in
    CSR order. Every tree edge, and every back edge to an ancestor other
    than the parent, is stacked as (tail, head). When a child v of p returns
    with lowpoint >= number(p), the edges whose tail was discovered at or
    after v are drained, then the tree edge (p, v); the round's members are
    the drained endpoints, newest edge first and tail before head, then v,
    then p, each taken once. A square's parent is the last round it joined,
    a round's parent is its p, and the last round closed in a component
    becomes that tree's root. Recursion is one frame per tree depth: call it
    under :func:`recursion_limit` for long paths.
    """
    n = g.n
    number = [-1] * n
    parent = [-1] * n
    member_flat: list[int] = []
    member_indptr: list[int] = []
    roots: list[int] = []
    edges: list[tuple[int, int]] = []

    def close(p, v):
        drained: list[int] = []
        while number[edges[-1][0]] >= number[v]:
            drained += edges.pop()
        assert edges.pop() == (p, v)
        members = list(dict.fromkeys(drained + [v, p]))
        node = len(parent)
        parent.append(p)
        member_indptr.append(len(member_flat))
        member_flat.extend(members)
        for x in members:
            parent[x] = node

    timer = 0

    def visit(v, p):
        nonlocal timer
        number[v] = low = timer
        timer += 1
        for u in g.nbr[g.indptr[v]:g.indptr[v + 1]]:
            if number[u] < 0:
                edges.append((v, u))
                child_low = visit(u, v)
                if child_low >= number[v]:
                    close(v, u)
                low = min(low, child_low)
            elif number[u] < number[v] and u != p:
                edges.append((v, u))
                low = min(low, number[u])
        return low

    for s in range(n):
        if number[s] < 0:
            visit(s, -1)
            root = parent[s]
            if root < 0:
                root = s
            else:
                parent[root] = -1
            roots.append(root)
    member_indptr.append(len(member_flat))
    return member_flat, member_indptr, parent, roots
