import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockimpact import (
    GeneratorSpec,
    Graph,
    articulation_points,
    build_block_forest,
    compute_all_impacts,
    compute_sq_sizes,
    connected_components,
    generate,
    impact_vector,
    naive_all_impacts,
    naive_impact,
    rerooted_at,
    surviving_component_sizes,
)

from _helpers import (
    all_graphs_up_to,
    bowtie,
    forest_impacts,
    graph_from,
    path6,
    seeded_gnm_graphs,
    vertex,
)


class TestSqSizes:
    def test_triangle(self):
        g = graph_from("a b\nb c\nc a")
        bf = build_block_forest(g)
        sq = compute_sq_sizes(bf)
        assert sq == [1, 1, 1, 3]  # three leaf squares, root round holds all

    def test_singleton(self):
        g = graph_from("v only")
        bf = build_block_forest(g)
        assert compute_sq_sizes(bf) == [1]

    def test_bowtie_under_construction_rooting(self):
        # Root is the block containing the DFS start a, so the far triangle's
        # round node sits below c and counts just {d, e}.
        g = bowtie()
        bf = build_block_forest(g)
        sq = compute_sq_sizes(bf)
        by_label = {g.labels[v]: sq[v] for v in range(g.n)}
        assert by_label == {"a": 1, "b": 1, "c": 3, "d": 1, "e": 1}
        root = bf.roots[0]
        assert sq[root] == 5
        other_round = next(node for node in (5, 6) if node != root)
        assert sq[other_round] == 2

    def test_root_totals_equal_component_sizes(self):
        rng = random.Random(99182)
        for g in seeded_gnm_graphs(60, 40, rng):
            bf = build_block_forest(g)
            sq = compute_sq_sizes(bf)
            cc = connected_components(g)
            for root in bf.roots:
                anyv = root if root < g.n else bf.round_members(root - g.n)[0]
                assert sq[root] == cc.component_size[cc.component_id[anyv]]

    def test_rerooting_at_a_root_keeps_sizes(self):
        rng = random.Random(456)
        for g in seeded_gnm_graphs(50, 30, rng):
            bf = build_block_forest(g)
            direct = compute_sq_sizes(bf)
            for root in bf.roots:
                if root < g.n:
                    continue
                # Re-rooting at the existing root is a copy with the same
                # orientation, so its sizes must not change.
                again = rerooted_at(bf, root)
                assert compute_sq_sizes(again) == direct
                break


class TestComputeImpact:
    def test_path5_center(self):
        g = graph_from("a b\nb c\nc d\nd e")
        assert forest_impacts(g)[0][vertex(g, "c")] == 2

    def test_star_center(self):
        g = generate(GeneratorSpec("star", 5))
        assert forest_impacts(g)[0][0] == 3

    def test_bowtie_center_matches_oracle(self):
        g = bowtie()
        c = vertex(g, "c")
        assert naive_impact(g, c) == 2
        assert forest_impacts(g)[0][c] == 2

    def test_triangle_all_zero(self):
        g = graph_from("a b\nb c\nc a")
        assert forest_impacts(g)[0] == [0, 0, 0]


class TestComputeAllImpacts:
    def test_empty_graph(self):
        report = compute_all_impacts(graph_from(""))
        assert report.n == 0 and report.m == 0
        assert report.impact == []
        assert report.articulation_count == 0
        assert report.max_impact == 0 and report.max_impact_label is None

    def test_isolated_vertices(self):
        report = compute_all_impacts(graph_from("v a\nv b\nv c\nv d"))
        assert report.impact == [0, 0, 0, 0]
        assert report.articulation_count == 0

    def test_path6(self):
        report = compute_all_impacts(path6())
        assert report.impact == [0, 1, 2, 2, 1, 0]
        assert naive_all_impacts(path6()).impact == [0, 1, 2, 2, 1, 0]
        assert report.max_impact == 2
        assert report.max_impact_label == "c"  # tie with d broken by label

    def test_component_columns(self):
        g = graph_from("a b\nv z\nc d\nd e")
        report = compute_all_impacts(g)
        cc = connected_components(g)
        assert report.component_id == cc.component_id
        assert report.component_size == [cc.component_size[c] for c in cc.component_id]

    def test_report_invariants(self):
        rng = random.Random(777)
        for g in seeded_gnm_graphs(120, 40, rng):
            report = compute_all_impacts(g)
            assert report.articulation_count == sum(report.is_articulation)
            if g.n >= 2:
                assert 0 <= report.articulation_count <= g.n - 2
            for v in range(g.n):
                assert report.is_articulation[v] == (report.impact[v] >= 1)
                if report.component_size[v] >= 2:
                    assert 0 <= report.impact[v] <= report.component_size[v] - 2
                else:
                    assert report.impact[v] == 0

    def test_max_impact_label_is_the_smallest_tied_label(self):
        # Few ties and many, on DecimalLabels and on label lists, with string
        # order unlike id order: on a 20-vertex path "10" ties with "9" and wins.
        graphs = [generate(GeneratorSpec("path", n)) for n in (1, 2, 12, 20)]
        graphs += seeded_gnm_graphs(80, 30, random.Random(5))
        for g in graphs:
            relabeled = Graph.from_edges([str(g.n - v) for v in range(g.n)], g.edges)
            for h in (g, relabeled):
                report = compute_all_impacts(h)
                tied = [lab for lab, x in zip(h.labels, report.impact) if x == report.max_impact]
                assert report.max_impact_label == min(tied), (h, report.impact)
        assert compute_all_impacts(graphs[3]).max_impact_label == "10"

    def test_report_columns(self):
        report = compute_all_impacts(path6())
        assert report.labels == ["a", "b", "c", "d", "e", "f"]
        assert report.impact == [0, 1, 2, 2, 1, 0]
        assert report.is_articulation[1] and not report.is_articulation[0]


class TestDecompositionIdentity:
    def check(self, g):
        bf = build_block_forest(g)
        sq = compute_sq_sizes(bf)
        cc = connected_components(g)
        for v in range(g.n):
            comp = cc.component_size[cc.component_id[v]]
            pieces = [comp - sq[v]]
            pieces += [
                sq[node] for node in bf.square_rounds(v) if bf.parent[node] == v
            ]
            pieces = [p for p in pieces if p > 0]
            assert sum(pieces) == comp - 1
            assert Counter(pieces) == Counter(surviving_component_sizes(g, v))

    def test_exhaustive_small(self):
        for g in all_graphs_up_to(5):
            self.check(g)

    def test_random(self):
        rng = random.Random(2718)
        for g in seeded_gnm_graphs(80, 30, rng):
            self.check(g)


class TestRootInvariance:
    def test_rerooting_everywhere_keeps_impacts(self):
        rng = random.Random(1618)
        for g in seeded_gnm_graphs(40, 30, rng):
            bf = build_block_forest(g)
            cc = connected_components(g)
            base = impact_vector(bf, compute_sq_sizes(bf), cc)
            for r in range(bf.num_rounds):
                bf2 = rerooted_at(bf, g.n + r)
                assert impact_vector(bf2, compute_sq_sizes(bf2), cc) == base


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        for g in all_graphs_up_to(5):
            report = compute_all_impacts(g)
            naive = naive_all_impacts(g)
            assert report.impact == naive.impact
            assert report.is_articulation == naive.is_articulation
            assert report.component_id == naive.component_id
            assert report.component_size == naive.component_size

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 10), seed=st.integers(0, 2**32), density=st.floats(0, 1))
    def test_random_property(self, n, seed, density):
        m = int(density * n * (n - 1) // 2)
        g = generate(GeneratorSpec("gnm", n, m=m, seed=seed))
        assert compute_all_impacts(g).impact == [naive_impact(g, v) for v in range(g.n)]

    def test_impact_positive_iff_articulation(self):
        rng = random.Random(5)
        for g in seeded_gnm_graphs(60, 40, rng):
            bf = build_block_forest(g)
            impacts = forest_impacts(g)[0]
            assert {v for v in range(g.n) if impacts[v] >= 1} == articulation_points(bf)


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


DFS_SHAPES = {
    "long-cycle": long_cycle,
    "cactus": lambda size: cactus(size // 4, seed=size),
    "broom": lambda size: broom(size // 2, size - size // 2),
    "star-of-cliques": lambda size: star_of_cliques(max(size // 4, 1), 5),
    "isolated-and-small": lambda size: isolated_and_small(size // 2, seed=size),
}


class TestDfsAgainstForest:
    @pytest.mark.parametrize("shape", DFS_SHAPES)
    def test_small_shapes_match_oracle_and_forest(self, shape):
        for size in (3, 8, 13):
            g = DFS_SHAPES[shape](size)
            assert_dfs_matches_forest(g)
            assert compute_all_impacts(g).impact == naive_all_impacts(g).impact

    @pytest.mark.parametrize("shape", DFS_SHAPES)
    def test_large_shapes(self, shape):
        assert_dfs_matches_forest(DFS_SHAPES[shape](60_000))

    def test_closed_forms(self):
        assert compute_all_impacts(long_cycle(1000)).impact == [0] * 1000
        # Without the handle's end, the other 9 handle vertices are the
        # largest piece and all 30 bristles are stranded.
        assert compute_all_impacts(broom(10, 30)).impact[9] == 30
        assert compute_all_impacts(star_of_cliques(7, 4)).impact[0] == 18

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("path", 1 << 19),
            GeneratorSpec("star", 1 << 19),
            GeneratorSpec("balanced-tree", 1 << 19, k=2),
            GeneratorSpec("gnm", 349_525, m=699_050, seed=11),
            GeneratorSpec("clique-chain", 1 + 7 * 29_959, k=8),
        ],
        ids=lambda spec: spec.family,
    )
    def test_every_family_near_2_20_elements(self, spec):
        g = generate(spec)
        assert 0.9 * (1 << 20) <= g.n + g.m <= 1.1 * (1 << 20)
        assert_dfs_matches_forest(g)


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


class TestSeparatedPieces:
    """The DFS keeps each vertex's largest separated piece apart from the
    sum of the others; pieces arriving in any size order must give the same
    impact as the closed form and both oracles."""

    ORDERS = {
        "ascending": [1, 2, 3, 5],
        "descending": [5, 3, 2, 1],
        "tied": [3, 3, 3],
        "tied-largest-first": [4, 4, 2],
        "mixed": [2, 4, 1, 4, 3],
        "one-piece": [6],
    }

    @pytest.mark.parametrize("above", [0, 1, 4, 30], ids=lambda a: f"above{a}")
    @pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
    def test_hub_impact(self, order, above):
        g, hub = hub_with_pieces(order, above)
        everything = order + ([above] if above else [])
        report = compute_all_impacts(g)
        assert report.impact[hub] == sum(everything) - max(everything)
        assert report.impact == forest_impacts(g)[0]
        assert report.impact == naive_all_impacts(g).impact


class TestSampledOracleAtScale:
    """The removal oracle on a seeded sample of vertices of graphs far past
    the reach of a full O(n(n + m)) sweep."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("gnm", 40_000, m=60_000, seed=23),
            GeneratorSpec("clique-chain", 1 + 4 * 7_143, k=5),
        ],
        ids=lambda spec: spec.family,
    )
    def test_naive_impact_on_sampled_vertices(self, spec):
        g = generate(spec)
        assert 0.9e5 <= g.n + g.m <= 1.1e5
        report = compute_all_impacts(g)
        rng = random.Random(2024)
        cut = [v for v in range(g.n) if report.is_articulation[v]]
        rest = [v for v in range(g.n) if not report.is_articulation[v]]
        sample = rng.sample(cut, 50) + rng.sample(rest, 50)
        for v in sample:
            pieces = surviving_component_sizes(g, v)
            assert report.impact[v] == sum(pieces) - max(pieces, default=0), v
            assert report.is_articulation[v] == (len(pieces) >= 2), v
            assert report.component_size[v] == sum(pieces) + 1, v
