import random

from blockimpact import (
    GeneratorSpec,
    Graph,
    generate,
    naive_all_impacts,
    naive_articulation_points,
    naive_impact,
    surviving_component_sizes,
)

from _helpers import bowtie, graph_from, path6, pendant_triangle, seeded_gnm_graphs, vertex


class TestSurvivingPieces:
    def test_star_center(self):
        g = generate(GeneratorSpec("star", 5))
        assert surviving_component_sizes(g, 0) == [1, 1, 1, 1]

    def test_isolated_vertex(self):
        g = graph_from("v x\na b")
        assert surviving_component_sizes(g, vertex(g, "x")) == []

    def test_leaf(self):
        g = graph_from("a b\nb c")
        assert surviving_component_sizes(g, 0) == [2]


class TestNaiveImpact:
    def test_path_center(self):
        g = graph_from("a b\nb c")
        assert naive_impact(g, vertex(g, "b")) == 1

    def test_triangle(self):
        g = graph_from("a b\nb c\nc a")
        assert [naive_impact(g, v) for v in range(3)] == [0, 0, 0]

    def test_big_star_center(self):
        g = generate(GeneratorSpec("star", 7))
        assert naive_impact(g, 0) == 5

    def test_isolated(self):
        g = graph_from("v x")
        assert naive_impact(g, 0) == 0


class TestNaiveArticulationPoints:
    def test_path4_internals(self):
        g = graph_from("a b\nb c\nc d")
        assert naive_articulation_points(g) == {1, 2}

    def test_k4_none(self):
        g = graph_from("1 2\n1 3\n1 4\n2 3\n2 4\n3 4")
        assert naive_articulation_points(g) == set()

    def test_pendant_rule(self):
        g = pendant_triangle()
        aps = naive_articulation_points(g)
        assert aps == {vertex(g, "a")}
        assert vertex(g, "x") not in aps

    def test_consistent_with_impact(self):
        rng = random.Random(61)
        for g in seeded_gnm_graphs(80, 30, rng):
            assert naive_articulation_points(g) == {
                v for v in range(g.n) if naive_impact(g, v) >= 1
            }


class TestNaiveAllImpacts:
    def test_path6(self):
        assert naive_all_impacts(path6()).impact == [0, 1, 2, 2, 1, 0]

    def test_bowtie(self):
        g = bowtie()
        report = naive_all_impacts(g)
        expected = {"a": 0, "b": 0, "c": 2, "d": 0, "e": 0}
        assert {g.labels[v]: report.impact[v] for v in range(g.n)} == expected

    def test_empty(self):
        report = naive_all_impacts(graph_from(""))
        assert report.n == 0 and report.impact == []

    def test_schema_matches_fast_report(self):
        from blockimpact import compute_all_impacts

        g = bowtie()
        naive = naive_all_impacts(g)
        fast = compute_all_impacts(g)
        assert type(naive) is type(fast)
        assert naive.labels == fast.labels
        assert naive.component_id == fast.component_id
        assert naive.component_size == fast.component_size
        assert naive.max_impact == fast.max_impact
        assert naive.max_impact_label == fast.max_impact_label


class TestRelabelInvariance:
    def test_impacts_follow_a_permutation(self):
        rng = random.Random(9090)
        for g in seeded_gnm_graphs(40, 25, rng):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges])
            for v in range(g.n):
                assert naive_impact(g, v) == naive_impact(relabeled, perm[v])
            assert {perm[v] for v in naive_articulation_points(g)} == naive_articulation_points(
                relabeled
            )
