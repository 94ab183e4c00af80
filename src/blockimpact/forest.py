"""Block forest construction, structure queries and Graphviz DOT export.

The block forest is the bipartite forest with a *square* node per graph
vertex and a *round* node per biconnected component; a square is adjacent to
every round node of a block containing it. One function,
:func:`build_block_forest`, builds it in a single Hopcroft-Tarjan DFS with an
edge stack, run on an explicit vertex stack so million-vertex paths cannot
overflow the interpreter's call stack.

Node ids: squares reuse the graph's vertex ids 0..n-1; round node r gets the
absolute id n + r. ``parent`` orients every tree: each non-singleton tree is
rooted at a round node (the last block closed in its component, which always
contains the component's DFS start vertex); an isolated vertex forms a
single-square tree rooted at itself.

:func:`export_dot` writes every tree into one undirected DOT graph: squares
are boxes labeled with the vertex label, bold at cut vertices, and round
nodes are ellipses labeled with their subtree square count.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import compress, islice

from .graph import Graph


@dataclass(frozen=True, slots=True)
class BlockForest:
    """Built block forest: the tree shape and each round's members.

    ``member_flat[member_indptr[r]:member_indptr[r+1]]`` lists round r's
    member squares in attachment order. ``parent`` covers all nodes (squares
    then rounds), -1 at roots. The forest holds no part of the graph:
    :func:`edge_rounds` reads the edge table from the graph it is given.
    """

    n_squares: int
    member_flat: list[int]
    member_indptr: list[int]
    parent: list[int]
    roots: list[int]

    @property
    def num_rounds(self) -> int:
        return len(self.member_indptr) - 1

    @property
    def num_nodes(self) -> int:
        return self.n_squares + self.num_rounds

    def round_members(self, r: int) -> list[int]:
        return self.member_flat[self.member_indptr[r]:self.member_indptr[r + 1]]


def build_block_forest(g: Graph) -> BlockForest:
    """Build the block forest of ``g`` (any graph, empty and edgeless included).

    One explicit-stack Hopcroft-Tarjan DFS per component, started in vertex
    order, shaped like :func:`blockimpact.impact._separated_pieces`: a
    suspended v keeps in ``cursor[v]`` the count of slots it has left to
    scan, and every slot is read once, 2m in all. Tree and back edges go onto
    a flat edge stack, the tail then the head. A tree edge (p, v) whose child
    came back with lowpt(v) >= number(p) closes a block: the edges stacked
    inside v's subtree (tail discovered at or after v) are drained, then the
    tree edge itself. Their endpoints, newest edge first, then v, then p,
    each taken once, become the new round node's members.
    """
    n = g.n
    indptr = g.indptr
    nbr = g.nbr
    number = [-1] * n
    lowpt = [0] * n  # lowpt and cursor: written on suspend, read on resume
    cursor = [0] * n
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
        v, p = s, -1
        i = indptr[s]
        end = indptr[s + 1]
        number[s] = nv = low = timer
        timer += 1
        stack = []  # the suspended ancestors above p
        push = stack.append
        pop = stack.pop
        while True:
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
                # v is finished: resume p with v folded in.
                if p < 0:
                    break
                if low >= number[p]:
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
                if lowpt[p] < low:  # lowpt(p) <= number(p) <= low after a block closes
                    low = lowpt[p]
                v, p = p, pop()
                nv = number[v]
                end = indptr[v + 1]
                i = end - cursor[v]
                continue
            # Tree edge (v, u): suspend v, open u.
            push_edge(v)
            push_edge(u)
            cursor[v] = end - i
            lowpt[v] = low
            push(p)
            p, v = v, u
            i = indptr[u]
            end = indptr[u + 1]
            number[u] = nv = low = timer
            timer += 1
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
    )


def _cut_flags(bf: BlockForest) -> bytearray:
    """One byte per square, 1 at a cut vertex: trees with an edge are rooted at
    rounds, so a square lies in two or more blocks exactly when a round hangs below it."""
    cut = bytearray(bf.n_squares)
    for p in bf.parent[bf.n_squares:]:
        if p >= 0:
            cut[p] = 1
    return cut


def articulation_points(bf: BlockForest) -> set[int]:
    """Vertices lying in two or more blocks."""
    return set(compress(range(bf.n_squares), _cut_flags(bf)))


def biconnected_components(bf: BlockForest) -> list[set[int]]:
    """Member vertex set of every block, in round-node order."""
    return [set(bf.round_members(r)) for r in range(bf.num_rounds)]


def edge_rounds(g: Graph, bf: BlockForest) -> list[int]:
    """Edge id of ``g`` -> the unique round node of ``bf`` whose block
    contains the edge, a new list per call.

    Edge (a, b) lies in a round node adjacent to both squares: their shared
    parent, or a's parent when that round hangs below b, or else b's parent.
    This holds under any rooting, so every rooting gives the same list.
    """
    parent = bf.parent
    out = []
    append = out.append
    pairs = iter(g.ends)
    for a, b in zip(pairs, pairs):
        pa = parent[a]
        append(pa if parent[b] == pa or parent[pa] == b else parent[b])
    return out


def bridges(g: Graph, bf: BlockForest) -> set[int]:
    """Edge ids whose block has exactly two vertices."""
    indptr = bf.member_indptr
    n = bf.n_squares
    return {e for e, node in enumerate(edge_rounds(g, bf))
            if indptr[node - n + 1] - indptr[node - n] == 2}


def rerooted_at(bf: BlockForest, round_node: int) -> BlockForest:
    """Copy of ``bf`` with ``round_node``'s tree re-rooted there.

    Only the orientation (parent pointers, roots) changes; the member lists
    are shared. The copied parent pointers are reversed along the
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
    return replace(bf, parent=parent, roots=roots)


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Output lines per join, for the DOT text here and the report rows cli writes:
# no list of every line is held, only one join's worth beyond the output.
LINES_PER_JOIN = 4096


def _lines(labels: Sequence[str], bf: BlockForest, sizes: list[int]) -> Iterator[str]:
    """The DOT text, one newline-terminated line at a time."""
    cut = _cut_flags(bf)
    yield "graph block_forest {\n"
    for v, label in enumerate(labels):
        style = ", style=bold" if cut[v] else ""
        yield f"  s{v} [shape=box{style}, label={_quote(label)}];\n"
    for r, size in enumerate(sizes[bf.n_squares:]):
        yield f'  r{r} [shape=ellipse, label="{size}"];\n'
    for r in range(bf.num_rounds):
        for v in bf.round_members(r):
            yield f"  s{v} -- r{r};\n"
    yield "}\n"


def export_dot(labels: Sequence[str], bf: BlockForest, sizes: list[int]) -> str:
    """The whole DOT text, built from joins of at most LINES_PER_JOIN lines."""
    lines = _lines(labels, bf, sizes)
    chunks = []
    while chunk := "".join(islice(lines, LINES_PER_JOIN)):
        chunks.append(chunk)
    return "".join(chunks)
