import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockimpact import (
    GeneratorSpec,
    Graph,
    articulation_points,
    biconnected_components,
    bridges,
    build_block_forest,
    connected_components,
    generate,
    naive_articulation_points,
    rerooted_at,
)

from _helpers import (
    all_graphs_up_to,
    bowtie,
    check_block_forest,
    components_without_edge,
    forest_neighbors,
    graph_from,
    pendant_triangle,
    seeded_gnm_graphs,
    vertex,
)


def members_by_label(g, bf):
    return [sorted(g.labels[v] for v in bf.round_members(r)) for r in range(bf.num_rounds)]


class TestBuildExamples:
    def test_triangle_single_block(self):
        g = graph_from("a b\nb c\nc a")
        bf = build_block_forest(g)
        assert members_by_label(g, bf) == [["a", "b", "c"]]
        assert bf.roots == [g.n + 0]
        assert bf.square_degrees() == [1] * g.n  # all squares are leaves

    def test_single_edge(self):
        g = graph_from("u w")
        bf = build_block_forest(g)
        assert members_by_label(g, bf) == [["u", "w"]]
        assert bf.roots == [2]

    def test_two_triangles_sharing_a_vertex(self):
        g = bowtie()
        bf = build_block_forest(g)
        assert sorted(members_by_label(g, bf)) == [["a", "b", "c"], ["c", "d", "e"]]
        c = vertex(g, "c")
        assert bf.square_degrees() == [2 if v == c else 1 for v in range(g.n)]

    def test_isolated_vertex_is_singleton_square_tree(self):
        g = graph_from("v alone\na b")
        bf = build_block_forest(g)
        alone = vertex(g, "alone")
        assert alone in bf.roots
        assert bf.num_rounds == 1
        check_block_forest(g, bf)

    def test_empty_and_edgeless(self):
        for text in ("", "v a\nv b\nv c"):
            g = graph_from(text)
            bf = build_block_forest(g)
            assert bf.num_rounds == 0
            assert sorted(bf.roots) == list(range(g.n))
            check_block_forest(g, bf)


class TestDfsVisit:
    """The build's DFS, which starts each component at its smallest id."""

    def test_path_from_one_end(self):
        g = graph_from("a b\nb c")
        bf = build_block_forest(g)
        assert sorted(members_by_label(g, bf)) == [["a", "b"], ["b", "c"]]
        assert bf.square_degrees()[vertex(g, "b")] == 2

    @pytest.mark.parametrize("start", range(4))
    def test_k4_single_block_from_any_start(self, start):
        # Relabel so that vertex `start` of the K4 becomes vertex 0.
        k4 = graph_from("1 2\n1 3\n1 4\n2 3\n2 4\n3 4")
        g = Graph.from_edges(4, [((a - start) % 4, (b - start) % 4) for a, b in k4.edges])
        bf = build_block_forest(g)
        assert bf.num_rounds == 1
        assert sorted(bf.round_members(0)) == [0, 1, 2, 3]

    def test_bowtie_pop_order_from_a(self):
        # With adjacency in input order, the far triangle closes first (at c),
        # then the block containing the start vertex.
        g = bowtie()
        assert vertex(g, "a") == 0
        bf = build_block_forest(g)
        assert members_by_label(g, bf) == [["c", "d", "e"], ["a", "b", "c"]]


class TestArticulationPoints:
    def test_path_inner_vertex(self):
        g = graph_from("a b\nb c")
        assert articulation_points(build_block_forest(g)) == {vertex(g, "b")}

    def test_triangle_none(self):
        g = graph_from("a b\nb c\nc a")
        assert articulation_points(build_block_forest(g)) == set()

    def test_pendant_edge_endpoint_is_not_one(self):
        # x hangs off triangle vertex a by a bridge: a cuts, x does not.
        g = pendant_triangle()
        aps = articulation_points(build_block_forest(g))
        assert aps == {vertex(g, "a")}
        assert vertex(g, "x") not in aps


class TestBiconnectedComponents:
    def test_bowtie(self):
        g = bowtie()
        comps = biconnected_components(build_block_forest(g))
        as_labels = sorted(sorted(g.labels[v] for v in comp) for comp in comps)
        assert as_labels == [["a", "b", "c"], ["c", "d", "e"]]

    def test_single_edge(self):
        g = graph_from("u w")
        assert biconnected_components(build_block_forest(g)) == [{0, 1}]

    def test_edgeless(self):
        g = graph_from("v a\nv b")
        assert biconnected_components(build_block_forest(g)) == []


class TestBridges:
    def test_path_every_edge(self):
        g = graph_from("a b\nb c")
        assert bridges(g, build_block_forest(g)) == {0, 1}

    def test_triangle_none(self):
        g = graph_from("a b\nb c\nc a")
        assert bridges(g, build_block_forest(g)) == set()

    def test_pendant_only(self):
        g = pendant_triangle()
        found = bridges(g, build_block_forest(g))
        assert [g.edges[e] for e in found] == [(vertex(g, "a"), vertex(g, "x"))]
        # agreement with the edge-removal definition
        base = len(connected_components(g).component_size)
        for e in range(g.m):
            assert (e in found) == (components_without_edge(g, e) > base)


class TestInvariants:
    def test_exhaustive_small(self):
        for g in all_graphs_up_to(5):
            check_block_forest(g, build_block_forest(g), removal_checks=g.n <= 4)

    def test_seeded_random(self):
        rng = random.Random(7013)
        for g in seeded_gnm_graphs(150, 30, rng):
            check_block_forest(g, build_block_forest(g), removal_checks=True)

    def test_tree_count_matches_components(self):
        rng = random.Random(88)
        for g in seeded_gnm_graphs(60, 40, rng):
            bf = build_block_forest(g)
            assert len(bf.roots) == len(connected_components(g).component_size)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 9), seed=st.integers(0, 2**32), density=st.floats(0, 1))
    def test_articulation_oracle_property(self, n, seed, density):
        m = int(density * n * (n - 1) // 2)
        g = generate(GeneratorSpec("gnm", n, m=m, seed=seed))
        bf = build_block_forest(g)
        assert articulation_points(bf) == naive_articulation_points(g)


def reoriented_by_bfs(bf, new_root):
    """Reference re-rooting: parent pointers and roots from a BFS over the
    forest's adjacency, starting at ``new_root``."""
    parent = list(bf.parent)
    parent[new_root] = -1
    queue = [new_root]
    for x in queue:  # grows while it is read
        for y in forest_neighbors(bf, x):
            if y != parent[x]:
                parent[y] = x
                queue.append(y)
    tree = set(queue)
    roots = [new_root if r in tree else r for r in bf.roots]
    return parent, roots


def assert_reroot_matches_bfs(bf, new_root):
    before = list(bf.parent), list(bf.roots)
    bf2 = rerooted_at(bf, new_root)
    assert (bf2.parent, bf2.roots) == reoriented_by_bfs(bf, new_root)
    assert (bf.parent, bf.roots) == before


class TestRerooting:
    def test_rejects_square_nodes(self):
        g = bowtie()
        bf = build_block_forest(g)
        with pytest.raises(ValueError):
            rerooted_at(bf, 0)

    def test_rejects_ids_past_the_last_round(self):
        g = graph_from("a b\nb c\nc d")
        bf = build_block_forest(g)
        for node in (bf.num_nodes, 10**9):
            with pytest.raises(ValueError, match="round nodes only"):
                rerooted_at(bf, node)

    def test_reroot_keeps_structure(self):
        rng = random.Random(5150)
        for g in seeded_gnm_graphs(40, 25, rng):
            bf = build_block_forest(g)
            for r in range(bf.num_rounds):
                bf2 = rerooted_at(bf, g.n + r)
                assert bf2.parent[g.n + r] == -1
                assert len(bf2.roots) == len(bf.roots)
                check_block_forest(g, bf2)

    def test_derived_edge_round_under_every_rooting(self):
        # Each edge's round, derived from the parent pointers of each
        # rooting, holds both endpoints and is the only round that does.
        rng = random.Random(6021)
        for g in seeded_gnm_graphs(40, 20, rng):
            bf = build_block_forest(g)
            forests = [bf] + [rerooted_at(bf, g.n + r) for r in range(bf.num_rounds)]
            for rooted in forests:
                assert len(rooted.edge_round) == g.m
                for e, (u, w) in enumerate(g.edges):
                    node = rooted.edge_round[e]
                    both = [
                        rn for rn in rooted.square_rounds(u)
                        if w in rooted.round_members(rn - g.n)
                    ]
                    assert both == [node]
            # A copy re-rooted after the first use shares the list.
            assert all(
                rerooted_at(bf, g.n + r).edge_round is bf.edge_round
                for r in range(bf.num_rounds)
            )

    def test_matches_bfs_reorientation_on_seeded_graphs(self):
        rng = random.Random(7207)
        for g in seeded_gnm_graphs(80, 40, rng):
            bf = build_block_forest(g)
            for r in range(bf.num_rounds):
                assert_reroot_matches_bfs(bf, g.n + r)

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("path", 300),
            GeneratorSpec("star", 300),
            GeneratorSpec("balanced-tree", 300, k=3),
            GeneratorSpec("gnm", 300, m=330, seed=23),
            GeneratorSpec("clique-chain", 1 + 3 * 100, k=4),
        ],
        ids=lambda spec: spec.family,
    )
    def test_matches_bfs_reorientation_on_every_family(self, spec):
        g = generate(spec)
        bf = build_block_forest(g)
        for r in range(bf.num_rounds):
            assert_reroot_matches_bfs(bf, g.n + r)

    def test_far_end_of_a_long_path(self):
        n = 1 << 16
        g = generate(GeneratorSpec("path", n))
        bf = build_block_forest(g)
        far = bf.square_rounds(n - 1)[0]
        # The round holding the last vertex is the deepest one: its walk up
        # to the old root passes every round and every inner square.
        depth, node = 0, far
        while bf.parent[node] != -1:
            depth, node = depth + 1, bf.parent[node]
        assert depth == 2 * (n - 2)
        assert_reroot_matches_bfs(bf, far)

    def test_reroot_at_current_root_is_identity(self):
        g = bowtie()
        bf = build_block_forest(g)
        bf2 = rerooted_at(bf, bf.roots[0])
        assert bf2.roots == bf.roots
        assert bf2.parent == bf.parent
