"""Block forest construction and structure queries.

The block forest is the bipartite forest with a *square* node per graph
vertex and a *round* node per biconnected component; a square is adjacent to
every round node of a block containing it. Construction is a single
Hopcroft-Tarjan style DFS with an edge stack, run on an explicit work stack
so million-vertex paths cannot overflow the interpreter's call stack.

Node ids: squares reuse the graph's vertex ids 0..n-1; round node r gets the
absolute id n + r. ``parent`` orients every tree: each non-singleton tree is
rooted at a round node (the last block closed in its component, which always
contains the component's DFS start vertex); an isolated vertex forms a
single-square tree rooted at itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CcLabeling, Graph


@dataclass(slots=True)
class DfsState:
    """Bookkeeping shared by the DFS over all components of one graph.

    ``number`` is the discovery index (-1 = unvisited), ``lowpt`` the classic
    lowest reachable discovery index. ``edges`` holds (tail, head) pairs for
    visited edges not yet drained into a block; the frame_* lists are the
    explicit recursion stack, with ``frame_epos`` remembering where each
    frame's incoming tree edge sits in ``edges``. ``edge_examinations``
    counts adjacency slots scanned, for the linear-work regression test.
    """

    timer: int
    number: list[int]
    lowpt: list[int]
    edges: list[tuple[int, int]]
    order: list[int] = field(default_factory=list)  # vertices in discovery order
    frame_vertex: list[int] = field(default_factory=list)
    frame_parent: list[int] = field(default_factory=list)
    frame_cursor: list[int] = field(default_factory=list)
    frame_end: list[int] = field(default_factory=list)
    frame_epos: list[int] = field(default_factory=list)
    edge_examinations: int = 0

    @classmethod
    def fresh(cls, n: int) -> "DfsState":
        return cls(timer=0, number=[-1] * n, lowpt=[0] * n, edges=[])


@dataclass(slots=True)
class BlockForestBuilder:
    """Mutable accumulation target for :func:`dfs_visit`.

    ``parent`` starts with one slot per square and grows by one per round
    node, so a round's absolute id equals ``len(parent)`` at its creation.
    ``last_round`` is the per-square marker that stops a square from being
    attached twice to the same round while a block's edges are drained.
    """

    n_squares: int
    edges: list[tuple[int, int]]  # the graph's edge table, by reference
    member_flat: list[int] = field(default_factory=list)
    member_start: list[int] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)
    last_round: list[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, g: Graph) -> "BlockForestBuilder":
        b = cls(n_squares=g.n, edges=g.edges)
        b.parent = [-1] * g.n
        b.last_round = [-1] * g.n
        return b

    def finish_component(self, start: int) -> None:
        """Root the tree just built: the last round node closed in this
        component if there is one, else the lone square ``start``."""
        last = len(self.parent) - 1
        if last >= self.n_squares and self.parent[start] == last:
            # Non-singleton component: its final block contains start.
            self.parent[last] = -1
            self.roots.append(last)
        else:
            self.roots.append(start)

    def build(self) -> "BlockForest":
        self.member_start.append(len(self.member_flat))
        return BlockForest(
            n_squares=self.n_squares,
            member_flat=self.member_flat,
            member_indptr=self.member_start,
            parent=self.parent,
            roots=self.roots,
            edges=self.edges,
            construction_ordered=True,
        )


@dataclass(slots=True)
class BlockForest:
    """Built block forest; treat as immutable.

    ``member_flat[member_indptr[r]:member_indptr[r+1]]`` lists round r's
    member squares in attachment order. ``parent`` covers all nodes (squares
    then rounds), -1 at roots. ``edges`` is the graph's edge table, held by
    reference, from which :attr:`edge_round` is derived on first use.
    ``construction_ordered`` is true while round ids are still a
    children-before-parents order of the trees (fresh builds); re-rooting
    clears it.
    """

    n_squares: int
    member_flat: list[int]
    member_indptr: list[int]
    parent: list[int]
    roots: list[int]
    edges: list[tuple[int, int]]
    construction_ordered: bool
    _square_indptr: list[int] | None = None
    _square_rounds: list[int] | None = None
    _edge_round: list[int] | None = None

    @property
    def num_rounds(self) -> int:
        return len(self.member_indptr) - 1

    @property
    def num_nodes(self) -> int:
        return self.n_squares + self.num_rounds

    def is_square(self, node: int) -> bool:
        return node < self.n_squares

    def round_members(self, r: int) -> list[int]:
        return self.member_flat[self.member_indptr[r]:self.member_indptr[r + 1]]

    def _ensure_square_csr(self) -> None:
        if self._square_indptr is not None:
            return
        n = self.n_squares
        counts = [0] * n
        for v in self.member_flat:
            counts[v] += 1
        indptr = [0] * (n + 1)
        total = 0
        for i in range(n):
            indptr[i] = total
            total += counts[i]
        indptr[n] = total
        out = [0] * total
        cursor = indptr[:n]
        flat = self.member_flat
        start = self.member_indptr
        for r in range(self.num_rounds):
            node = self.n_squares + r
            for i in range(start[r], start[r + 1]):
                v = flat[i]
                out[cursor[v]] = node
                cursor[v] += 1
        self._square_indptr = indptr
        self._square_rounds = out

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
            for a, b in self.edges:
                pa = parent[a]
                append(pa if parent[b] == pa or parent[pa] == b else parent[b])
            self._edge_round = out
        return self._edge_round

    def square_rounds(self, v: int) -> list[int]:
        """Absolute ids of the round nodes whose block contains vertex v."""
        self._ensure_square_csr()
        assert self._square_indptr is not None and self._square_rounds is not None
        return self._square_rounds[self._square_indptr[v]:self._square_indptr[v + 1]]

    def square_degrees(self) -> list[int]:
        """Number of blocks containing each vertex (= BF degree of the square)."""
        counts = [0] * self.n_squares
        for v in self.member_flat:
            counts[v] += 1
        return counts

    def neighbors(self, node: int) -> list[int]:
        if node < self.n_squares:
            return self.square_rounds(node)
        return self.round_members(node - self.n_squares)

    def degree(self, node: int) -> int:
        if node < self.n_squares:
            self._ensure_square_csr()
            assert self._square_indptr is not None
            return self._square_indptr[node + 1] - self._square_indptr[node]
        r = node - self.n_squares
        return self.member_indptr[r + 1] - self.member_indptr[r]


def dfs_visit(g: Graph, start: int, state: DfsState, builder: BlockForestBuilder) -> None:
    """Number every vertex of ``start``'s component and emit its blocks.

    One explicit-stack DFS. A tree edge (p, child) whose child came back with
    lowpt(child) >= number(p) closes a block: every stacked edge above that
    tree edge is drained, then the tree edge itself. (Everything above it was
    pushed inside the child's subtree, so its tail was discovered at or after
    the child; anything pushed earlier has an older tail and must stay. The
    position cut and the discovery-order cut select the same edges, and the
    cut can never run off the bottom of the stack.) The endpoints of the
    drained edges, deduplicated via the builder's marker, become the new
    round node's members, newest edge first, then the child, then p.
    """
    indptr = g.indptr
    nbr = g.nbr
    number = state.number
    lowpt = state.lowpt
    estack = state.edges
    estack_append = estack.append
    fv = state.frame_vertex
    fp = state.frame_parent
    fc = state.frame_cursor
    fe = state.frame_end
    fep = state.frame_epos

    member_flat = builder.member_flat
    member_append = member_flat.append
    member_start = builder.member_start
    parent = builder.parent
    last_round = builder.last_round

    timer = state.timer
    examined = 0
    order_append = state.order.append

    number[start] = timer
    lowpt[start] = timer
    timer += 1
    order_append(start)
    fv.append(start)
    fp.append(-1)
    fc.append(indptr[start])
    fe.append(indptr[start + 1])
    fep.append(-1)  # the start frame has no incoming tree edge

    while fv:
        v = fv[-1]
        i = fc[-1]
        end = fe[-1]
        pv = fp[-1]
        nv = number[v]
        descended = False
        while i < end:
            u = nbr[i]
            if u == pv:
                i += 1
                continue
            nu = number[u]
            if nu < 0:
                # Tree edge: push it, open the child's frame.
                estack_append((v, u))
                i += 1
                fc[-1] = i
                number[u] = timer
                lowpt[u] = timer
                timer += 1
                order_append(u)
                fv.append(u)
                fp.append(v)
                fc.append(indptr[u])
                fe.append(indptr[u + 1])
                fep.append(len(estack) - 1)
                descended = True
                break
            if nu < nv:
                # Back edge to an ancestor (the other direction is skipped).
                estack_append((v, u))
                if nu < lowpt[v]:
                    lowpt[v] = nu
            i += 1
        if descended:
            continue

        # v's adjacency is exhausted: close its frame.
        examined += end - indptr[v]
        fv.pop()
        fp.pop()
        fc.pop()
        fe.pop()
        epos = fep.pop()
        if not fv:
            break
        p = fv[-1]
        lv = lowpt[v]
        if lv < lowpt[p]:
            lowpt[p] = lv
        if lv >= number[p]:
            # Block boundary at tree edge (p, v): new round node.
            round_node = len(parent)
            member_start.append(len(member_flat))
            parent.append(p)
            for idx in range(len(estack) - 1, epos, -1):
                a, b = estack[idx]
                if last_round[a] != round_node:
                    last_round[a] = round_node
                    member_append(a)
                    parent[a] = round_node
                if last_round[b] != round_node:
                    last_round[b] = round_node
                    member_append(b)
                    parent[b] = round_node
            del estack[epos:]  # the drained edges and the tree edge (p, v)
            if last_round[v] != round_node:
                last_round[v] = round_node
                member_append(v)
                parent[v] = round_node
            if last_round[p] != round_node:
                last_round[p] = round_node
                member_append(p)
                parent[p] = round_node

    state.timer = timer
    state.edge_examinations += examined


def build_forest_and_labeling(g: Graph) -> tuple[BlockForest, CcLabeling]:
    """Build the block forest and the component labeling in one DFS sweep.

    The labeling is identical to :func:`blockimpact.graph.connected_components`
    (component ids follow the first-visited vertex; the DFS discovery order
    groups each component into one contiguous run), it just comes for free
    here instead of costing a second traversal.
    """
    state = DfsState.fresh(g.n)
    builder = BlockForestBuilder.fresh(g)
    number = state.number
    order = state.order
    comp = [0] * g.n
    sizes: list[int] = []
    for s in range(g.n):
        if number[s] < 0:
            before = len(order)
            dfs_visit(g, s, state, builder)
            builder.finish_component(s)
            cid = len(sizes)
            for v in order[before:]:
                comp[v] = cid
            sizes.append(len(order) - before)
    return builder.build(), CcLabeling(comp, sizes)


def build_block_forest(g: Graph) -> BlockForest:
    """Build the block forest of ``g`` (any graph, empty and edgeless included)."""
    return build_forest_and_labeling(g)[0]


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
    members are shared. The result is no longer construction-ordered, so
    subtree-size computation falls back to a real traversal on it.
    """
    if round_node < bf.n_squares:
        raise ValueError("trees are re-rooted at round nodes only")
    parent = list(bf.parent)
    old_root = round_node
    while parent[old_root] != -1:
        old_root = parent[old_root]

    # Re-orient by DFS from the new root; parent-skip suffices on a tree.
    parent[round_node] = -1
    stack = [(round_node, -1)]
    while stack:
        node, par = stack.pop()
        parent[node] = par
        for nb in bf.neighbors(node):
            if nb != par:
                stack.append((nb, node))

    roots = [round_node if r == old_root else r for r in bf.roots]
    return BlockForest(
        n_squares=bf.n_squares,
        member_flat=bf.member_flat,
        member_indptr=bf.member_indptr,
        parent=parent,
        roots=roots,
        edges=bf.edges,
        construction_ordered=False,
        _square_indptr=bf._square_indptr,
        _square_rounds=bf._square_rounds,
        _edge_round=bf._edge_round,
    )
