"""Shared fixtures: named small graphs, corpora, and the structural validator."""

from __future__ import annotations

import itertools

from blockimpact import (
    BlockForest,
    Graph,
    articulation_points,
    compute_sq_sizes,
    connected_components,
    generate,
    GeneratorSpec,
    naive_articulation_points,
    parse_edge_list,
)

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
    for v in range(n):
        rounds = bf.square_rounds(v)
        assert len(set(rounds)) == len(rounds)
        assert all(node >= n for node in rounds)

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
            for y in bf.neighbors(x):
                if y != bf.parent[x]:
                    assert not seen[y], "cycle or duplicate edge in the forest"
                    assert bf.parent[y] == x
                    seen[y] = True
                    stack.append(y)
    assert all(seen)

    # Roots are rounds except singleton-square trees; one tree per component.
    cc = connected_components(g)
    assert len(bf.roots) == cc.count
    for root in bf.roots:
        if root < n:
            assert g.degree(root) == 0

    # Articulation points: non-leaf squares, and the removal oracle agrees.
    aps = articulation_points(bf)
    degs = bf.square_degrees()
    assert aps == {v for v in range(n) if degs[v] >= 2}
    assert aps == naive_articulation_points(g)
    if n >= 2:
        assert len(aps) <= n - 2

    # Edge partition: each edge is inside exactly one block.
    for e, (u, w) in enumerate(g.edges):
        node = bf.edge_round[e]
        assert n <= node < n + nrounds
        mem = set(bf.round_members(node - n))
        assert u in mem and w in mem
        containing = [
            rnode for rnode in bf.square_rounds(u)
            if w in bf.round_members(rnode - n)
        ]
        assert containing == [node]

    # Subtree square counts: recurrence and root totals.
    sq = compute_sq_sizes(bf).values
    child_sum = [0] * (n + nrounds)
    for x in range(n + nrounds):
        p = bf.parent[x]
        if p >= 0:
            child_sum[p] += sq[x]
    for x in range(n + nrounds):
        assert sq[x] == child_sum[x] + (1 if x < n else 0)
    for root in bf.roots:
        if root < n:
            assert sq[root] == 1 == cc.size_of(root)
        else:
            assert sq[root] == cc.size_of(bf.round_members(root - n)[0])

    if removal_checks:
        # Blocks with >= 3 vertices survive any single-vertex removal;
        # 2-vertex blocks are bridges (deleting the edge splits something).
        for r in range(nrounds):
            mem = set(bf.round_members(r))
            if len(mem) >= 3:
                for v in mem:
                    assert induced_connected_without(g, mem, v)
        base = cc.count
        for e in range(g.m):
            node = bf.edge_round[e]
            two = bf.degree(node) == 2
            split = components_without_edge(g, e) > base
            assert two == split
