"""Block forest construction and structure queries.

The block forest is the bipartite forest with a *square* node per graph
vertex and a *round* node per biconnected component; a square is adjacent to
every round node of a block containing it. One function,
:func:`build_block_forest`, builds it in a single Hopcroft-Tarjan DFS with an
edge stack, run on an explicit vertex stack so million-vertex paths cannot
overflow the interpreter's call stack. It labels no components: the lowpoint
DFS in :mod:`blockimpact.impact` does that.

Node ids: squares reuse the graph's vertex ids 0..n-1; round node r gets the
absolute id n + r. ``parent`` orients every tree: each non-singleton tree is
rooted at a round node (the last block closed in its component, which always
contains the component's DFS start vertex); an isolated vertex forms a
single-square tree rooted at itself.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate

from .graph import Graph


@dataclass(slots=True)
class BlockForest:
    """Built block forest; treat as immutable.

    ``member_flat[member_indptr[r]:member_indptr[r+1]]`` lists round r's
    member squares in attachment order. ``parent`` covers all nodes (squares
    then rounds), -1 at roots. ``ends`` is the graph's flat edge table
    (:attr:`blockimpact.graph.Graph.ends`), held by reference, from which
    :attr:`edge_round` is derived on first use.
    """

    n_squares: int
    member_flat: list[int]
    member_indptr: list[int]
    parent: list[int]
    roots: list[int]
    ends: array
    _square_indptr: list[int] | None = None
    _square_rounds: list[int] | None = None
    _edge_round: list[int] | None = None

    @property
    def num_rounds(self) -> int:
        return len(self.member_indptr) - 1

    @property
    def num_nodes(self) -> int:
        return self.n_squares + self.num_rounds

    def round_members(self, r: int) -> list[int]:
        return self.member_flat[self.member_indptr[r]:self.member_indptr[r + 1]]

    @property
    def edge_round(self) -> list[int]:
        """Edge id -> the unique round node whose block contains the edge.

        Edge (a, b) lies in a round node adjacent to both squares: their
        shared parent, or a's parent when that round hangs below b, or else
        b's parent. This holds under any rooting, so re-rooted copies share
        the cached list.
        """
        if self._edge_round is None:
            parent = self.parent
            out = []
            append = out.append
            pairs = iter(self.ends)
            for a, b in zip(pairs, pairs):
                pa = parent[a]
                append(pa if parent[b] == pa or parent[pa] == b else parent[b])
            self._edge_round = out
        return self._edge_round

    def square_rounds(self, v: int) -> list[int]:
        """Absolute ids of the round nodes whose block contains vertex v."""
        if self._square_indptr is None:  # built on first use; later re-rootings share it
            n = self.n_squares
            indptr = [0, *accumulate(self.square_degrees())]
            out = [0] * indptr[n]
            cursor = indptr[:n]
            for r in range(self.num_rounds):
                for u in self.round_members(r):
                    out[cursor[u]] = n + r
                    cursor[u] += 1
            self._square_indptr = indptr
            self._square_rounds = out
        return self._square_rounds[self._square_indptr[v]:self._square_indptr[v + 1]]

    def square_degrees(self) -> list[int]:
        """Number of blocks containing each vertex (= BF degree of the square)."""
        counts = [0] * self.n_squares
        for v in self.member_flat:
            counts[v] += 1
        return counts


def build_block_forest(g: Graph) -> BlockForest:
    """Build the block forest of ``g`` (any graph, empty and edgeless included).

    One explicit-stack Hopcroft-Tarjan DFS per component, started in vertex
    order, with ``cursor[v]`` the next adjacency slot of v to scan; every
    slot is read once, 2m in all. Tree and back edges go onto an edge stack,
    a flat list of ints: the tail, then the head, so no pair object is
    allocated per edge. A tree edge (p, v) whose child came back with
    lowpt(v) >= number(p) closes a block: the stacked edges with a tail
    discovered at or after v (everything pushed inside v's subtree) are
    drained, then the tree edge itself. Their endpoints, newest edge first,
    then v, then p, each taken once, become the new round node's members.
    """
    n = g.n
    indptr = g.indptr
    nbr = g.nbr
    number = [-1] * n
    lowpt = [0] * n
    cursor = indptr[:n]
    # One slot per square, then one per round node: a round's id is
    # len(parent) at its creation. A square's parent is also the marker
    # that stops it joining the round being drained twice.
    parent = [-1] * n
    member_flat: list[int] = []
    member_add = member_flat.append
    member_indptr: list[int] = []
    roots: list[int] = []
    edges: list[int] = []  # tail, head, tail, head, ...
    push_edge = edges.append
    pop_edge = edges.pop
    timer = 0
    for s in range(n):
        if number[s] >= 0:
            continue
        number[s] = lowpt[s] = timer
        timer += 1
        stack = [-1, s]  # the DFS parent of stack[-1] is stack[-2]
        push = stack.append
        pop = stack.pop
        while True:
            v = stack[-1]
            p = stack[-2]
            i = cursor[v]
            end = indptr[v + 1]
            nv = number[v]
            low = lowpt[v]
            while i < end:
                u = nbr[i]
                i += 1
                nu = number[u]
                if nu < 0:
                    break
                if nu < nv and u != p:
                    # Back edge to an ancestor (the other direction is skipped).
                    push_edge(v)
                    push_edge(u)
                    if nu < low:
                        low = nu
            else:
                # v is finished.
                pop()
                if p < 0:
                    break
                if low < number[p]:
                    if low < lowpt[p]:
                        lowpt[p] = low
                    continue
                # Block boundary at tree edge (p, v): new round node.
                node = len(parent)
                member_indptr.append(len(member_flat))
                parent.append(p)
                b = pop_edge()
                a = pop_edge()
                while number[a] >= nv:
                    if parent[a] != node:
                        parent[a] = node
                        member_add(a)
                    if parent[b] != node:
                        parent[b] = node
                        member_add(b)
                    b = pop_edge()
                    a = pop_edge()
                # (a, b) is the tree edge (p, v).
                if parent[v] != node:
                    parent[v] = node
                    member_add(v)
                if parent[p] != node:
                    parent[p] = node
                    member_add(p)
                continue
            # Tree edge (v, u): suspend v, open u.
            push_edge(v)
            push_edge(u)
            cursor[v] = i
            lowpt[v] = low
            number[u] = lowpt[u] = timer
            timer += 1
            push(u)
        # The last block closed in the component holds s and becomes the
        # root; an s that joined no block is an isolated square tree.
        root = parent[s]
        if root < 0:
            root = s
        else:
            parent[root] = -1
        roots.append(root)
    member_indptr.append(len(member_flat))
    return BlockForest(
        n_squares=n,
        member_flat=member_flat,
        member_indptr=member_indptr,
        parent=parent,
        roots=roots,
        ends=g.ends,
    )


def articulation_points(bf: BlockForest) -> set[int]:
    """Vertices lying in two or more blocks: exactly the non-leaf squares."""
    return {v for v, c in enumerate(bf.square_degrees()) if c >= 2}


def biconnected_components(bf: BlockForest) -> list[set[int]]:
    """Member vertex set of every block, in round-node order."""
    return [set(bf.round_members(r)) for r in range(bf.num_rounds)]


def bridges(g: Graph, bf: BlockForest) -> set[int]:
    """Edge ids whose block has exactly two vertices."""
    indptr = bf.member_indptr
    n = bf.n_squares
    out = set()
    for e in range(g.m):
        r = bf.edge_round[e] - n
        if indptr[r + 1] - indptr[r] == 2:
            out.add(e)
    return out


def rerooted_at(bf: BlockForest, round_node: int) -> BlockForest:
    """Copy of ``bf`` with ``round_node``'s tree re-rooted there.

    Only the orientation (parent pointers, roots) changes; adjacency and
    members are shared. The copied parent pointers are reversed along the
    path from ``round_node`` up to the old root, a walk of O(depth) that
    reads no adjacency, and the old root, the last node on that path, is
    replaced in ``roots``. Raises ValueError unless ``round_node`` is the id
    of a round node.
    """
    if not bf.n_squares <= round_node < bf.num_nodes:
        raise ValueError("trees are re-rooted at round nodes only")
    parent = list(bf.parent)
    prev, node = -1, round_node
    while node != -1:
        parent[node], prev, node = prev, node, parent[node]
    roots = [round_node if r == prev else r for r in bf.roots]
    return BlockForest(
        n_squares=bf.n_squares,
        member_flat=bf.member_flat,
        member_indptr=bf.member_indptr,
        parent=parent,
        roots=roots,
        ends=bf.ends,
        _square_indptr=bf._square_indptr,
        _square_rounds=bf._square_rounds,
        _edge_round=bf._edge_round,
    )
