import io
import itertools
import os
import pickle
import random
from array import array
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockimpact import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    Graph,
    ParseError,
    compute_all_impacts,
    format_edge_list,
    generate,
    parse_dimacs,
    parse_edge_list,
)

import blockimpact.graph as graph_mod
from blockimpact.graph import DecimalLabels, PackedLabels
from blockimpact.oracle import _labeling

from _helpers import (
    all_graphs_up_to,
    closure_components,
    long_cycle,
    reference_generated_edges,
    reference_pair_from_index,
    vertex,
)


def degrees(g: Graph) -> list[int]:
    return [b - a for a, b in zip(g.indptr, g.indptr[1:])]


class TestParseEdgeList:
    def test_two_edge_path(self):
        g, dropped = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m, dropped) == (3, 2, 0)
        assert sorted(degrees(g)) == [1, 1, 2]

    def test_duplicates_collapse_both_orientations(self):
        g, dropped = parse_edge_list("a b\na b\nb a")
        assert (g.n, g.m, dropped) == (2, 1, 2)

    def test_self_loop_dropped(self):
        g, dropped = parse_edge_list("0 0\n0 1")
        assert (g.n, g.m, dropped) == (2, 1, 1)

    def test_comments_blanks_and_vertex_declarations(self):
        g, dropped = parse_edge_list("# header\n\nv lonely\na b\n   \n# tail\n")
        assert (g.n, g.m, dropped) == (3, 1, 0)
        assert vertex(g, "lonely") == 0
        assert degrees(g)[vertex(g, "lonely")] == 0

    def test_empty_input_is_empty_graph(self):
        g, dropped = parse_edge_list("")
        assert (g.n, g.m, dropped) == (0, 0, 0)

    def test_labels_follow_first_appearance(self):
        g, _ = parse_edge_list("x y\ny z")
        assert g.labels == ["x", "y", "z"]

    @pytest.mark.parametrize("text,line", [("a b c", 1), ("a b\nq", 2), ("a b\n\nx y z", 3)])
    def test_wrong_token_count_reports_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line
        assert f"line {line}" in str(exc.value)


    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_lines_end_only_at_line_feed_or_carriage_return(self, sep):
        text = f"a b{sep}c d\n"
        for source in (text, io.TextIOWrapper(io.BytesIO(text.encode()))):
            with pytest.raises(ParseError, match="got 4") as exc:
                parse_edge_list(source)
            assert exc.value.line == 1


class TestParseDimacs:
    def test_small_path(self):
        g, dropped = parse_dimacs("c a comment\np edge 3 2\ne 1 2\ne 2 3")
        assert (g.n, g.m, dropped) == (3, 2, 0)
        assert g.labels == ["1", "2", "3"]

    def test_isolated_vertices(self):
        g, _ = parse_dimacs("p edge 4 0")
        assert (g.n, g.m) == (4, 0)

    def test_id_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_dimacs("p edge 2 1\ne 1 3")
        assert exc.value.line == 2

    def test_missing_p_line(self):
        with pytest.raises(ParseError, match="missing 'p'"):
            parse_dimacs("c only a comment")

    def test_duplicate_p_line(self):
        with pytest.raises(ParseError) as exc:
            parse_dimacs("p edge 2 0\np edge 2 0")
        assert exc.value.line == 2

    def test_edge_before_p_line(self):
        with pytest.raises(ParseError) as exc:
            parse_dimacs("e 1 2\np edge 2 1")
        assert exc.value.line == 1

    def test_unknown_data_line(self):
        with pytest.raises(ParseError) as exc:
            parse_dimacs("p edge 2 1\nn 1 2")
        assert exc.value.line == 2

    def test_declared_count_loses_to_retained(self):
        g, dropped = parse_dimacs("p edge 3 5\ne 1 2\ne 2 1\ne 3 3")
        assert (g.m, dropped) == (1, 2)

    def test_declared_vertex_count_above_limit(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "MAX_VERTICES", 8)
        assert parse_dimacs("p edge 8 0").graph.n == 8
        with pytest.raises(ParseError, match="exceeds the limit of 8") as exc:
            parse_dimacs("c huge\np edge 9 0\ne 1 2")
        assert exc.value.line == 2

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="no sysconf to read physical memory")
    def test_vertex_limit_fits_physical_memory(self):
        # A vertex costs up to ~187 bytes, so the limit leaves a 'p' line or
        # any other builder no count that needs more memory than the machine has.
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert graph_mod.MAX_VERTICES * 190 <= physical

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "\uff13"],
                             ids=["underscore", "plus", "arabic-indic-3", "fullwidth-3"])
    def test_counts_and_ids_are_ascii_decimal(self, token):
        # int() reads each token (as 10, 1 or 3, all in range here); no
        # DecimalLabels label is written that way. A 'c' line may hold it.
        head = f"c {token}\np edge 12 1\n"
        assert parse_dimacs(f"{head}e 1 2\n").graph.m == 1
        for text, message in [
            (f"c {token}\np edge {token} 0\n", "non-integer counts in 'p' line"),
            (f"c {token}\np edge 12 {token}\n", "non-integer counts in 'p' line"),
            (f"{head}e 1 2\ne {token} 2\n", "non-integer vertex id in 'e' line"),
            (f"{head}e 1 2\ne 2 {token}\n", "non-integer vertex id in 'e' line"),
        ]:
            with pytest.raises(ParseError, match=message) as exc:
                parse_dimacs(text)
            assert exc.value.line == text.count("\n"), text

    def test_negative_counts_and_ids_keep_their_messages(self):
        for text, message, line in [
            ("p edge -1 0\n", "negative counts in 'p' line", 1),
            ("p edge 3 -1\n", "negative counts in 'p' line", 1),
            ("p edge 3 1\ne -1 2\n", r"vertex id out of range 1\.\.3", 2),
            ("p edge 3 1\ne 2 -3\n", r"vertex id out of range 1\.\.3", 2),
        ]:
            with pytest.raises(ParseError, match=message) as exc:
                parse_dimacs(text)
            assert exc.value.line == line, text

    def test_huge_declared_vertex_count_allocates_nothing(self):
        # Rejected on the 'p' line, before one label is built.
        with pytest.raises(ParseError) as exc:
            parse_dimacs(f"p edge {10**15} 1\n")
        assert exc.value.line == 1


def _dirty_input(rng: random.Random, dimacs: bool) -> tuple[str, list[str], list[tuple[int, int]], int]:
    """A random edge list or DIMACS text full of duplicates (both
    orientations), self-loops, comments, blank lines and, for edge lists,
    ``v`` lines; with the labels, the kept edges and the dropped count that
    the parser must arrive at."""
    n = rng.randint(1, 30)
    names = [str(i + 1) for i in range(n)] if dimacs else [f"x{i}" for i in range(n)]
    # Edge-list ids follow first appearance; DIMACS ids are fixed by the 'p' line.
    ids = {lab: i for i, lab in enumerate(names)} if dimacs else {}
    lines = [f"p edge {n} {rng.randint(0, 99)}"] if dimacs else []
    kept: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    dropped = 0
    for _ in range(rng.randint(0, 4 * n)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", "   ", "c note" if dimacs else "# note"]))
            continue
        if roll < 0.2 and not dimacs:
            lab = rng.choice(names)
            ids.setdefault(lab, len(ids))
            lines.append(f"v {lab}")
            continue
        if roll < 0.3:
            a = b = rng.choice(names)
        elif roll < 0.5 and kept:
            labels = list(ids)
            u, w = rng.choice(kept)
            a, b = labels[w], labels[u]  # a kept edge, reversed
        else:
            a, b = rng.choice(names), rng.choice(names)
        sep = rng.choice([" ", "\t", "  "])
        lines.append(f"e{sep}{a}{sep}{b}" if dimacs else f"{a}{sep}{b}")
        u, w = ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))
        key = (min(u, w), max(u, w))
        if u == w or key in seen:
            dropped += 1
        else:
            seen.add(key)
            kept.append((u, w))
    # Any mix of line endings, with or without one after the last line.
    ends = [rng.choice(["\n", "\r\n", "\r"]) for _ in lines[:-1]] + [rng.choice(["", "\n"])]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text, list(ids), kept, dropped


class TestDirtyInput:
    @pytest.mark.parametrize("dimacs", [False, True], ids=["edgelist", "dimacs"])
    def test_parse_matches_from_edges_on_the_cleaned_edges(self, dimacs):
        rng = random.Random(4242 + dimacs)
        parse = parse_dimacs if dimacs else parse_edge_list
        for _ in range(300):
            text, labels, kept, dropped = _dirty_input(rng, dimacs)
            want = Graph.from_edges(labels, kept)
            for source in (text, io.TextIOWrapper(io.BytesIO(text.encode()))):
                g, got_dropped = parse(source)
                assert got_dropped == dropped
                for field in fields(Graph):
                    name = field.name
                    assert getattr(g, name) == getattr(want, name), (name, text)

    @pytest.mark.parametrize("dimacs", [False, True], ids=["edgelist", "dimacs"])
    def test_repeats_and_loops_planted_at_scale(self, dimacs):
        # A ~10^5-edge text with repeated lines (either orientation, each after
        # the line it repeats) and self-loops on labels already seen: parsing
        # it must drop exactly those lines and give the clean text's graph.
        g = generate(GeneratorSpec("gnm", 2**15, m=100_000, seed=77))
        line = "e {} {}".format if dimacs else "{} {}".format
        rng = random.Random(7 + dimacs)
        clean, dirty, inserted = [], [], 0
        for u, w in g.edges:
            a, b = (u + 1, w + 1) if dimacs else (g.labels[u], g.labels[w])
            clean.append(line(a, b))
            dirty.append(clean[-1])
            roll = rng.random()
            if roll < 0.03:
                x, y = map(int, dirty[rng.randrange(len(dirty))].split()[-2:])
                dirty.append(line(*rng.choice([(x, y), (y, x)])))
                inserted += 1
            elif roll < 0.04:
                dirty.append(line(a, a))
                inserted += 1
        head = [f"p edge {g.n} {g.m + inserted}"] if dimacs else []
        parse = parse_dimacs if dimacs else parse_edge_list
        want, clean_dropped = parse("\n".join(head + clean))
        got, dropped = parse("\n".join(head + dirty))
        assert clean_dropped == 0 and inserted > 3000
        assert dropped == inserted
        for field in fields(Graph):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    @pytest.mark.parametrize("dimacs", [False, True], ids=["edgelist", "dimacs"])
    def test_repeats_between_and_at_hubs(self, dimacs):
        # Two hubs, each holding over an eighth of the neighbour slots, joined
        # to each other and to 200 leaves apiece. A repeat of the hub-hub edge
        # shows in no leaf's slice; a repeated hub-leaf edge shows in the leaf's.
        clean = [(0, 1)] + [(h, 2 + 2 * i + h) for i in range(200) for h in (0, 1)]
        line = "e {} {}".format if dimacs else "{} {}".format
        for extra in ([(1, 0)], [(0, 1), (1, 0)], [(7, 1)], [(1, 0), (4, 0)]):
            text = [line(u + dimacs, w + dimacs) for u, w in clean + extra]
            head = [f"p edge 402 {len(text)}"] if dimacs else []
            parse = parse_dimacs if dimacs else parse_edge_list
            want, _ = parse("\n".join(head + text[: len(clean)]))
            got, dropped = parse("\n".join(head + text))
            assert dropped == len(extra), extra
            for field in fields(Graph):
                assert getattr(got, field.name) == getattr(want, field.name), (field.name, extra)


def _dimacs_text(g: Graph) -> str:
    return f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {w + 1}\n" for u, w in g.edges)


class TestCsrBuilds:
    """Input without repeated edges has its CSR built once; only a repeat
    sends the parse through the filter and a second build. Both ways give
    equal graphs, so a repeat check that errs shows only in the count.
    ``Graph.from_edges`` goes through the same repeat check; ``generate``,
    whose edges cannot repeat, builds once with no check."""

    SHAPES = {
        "gnm": lambda: generate(GeneratorSpec("gnm", 600, m=2400, seed=3)),
        "path": lambda: generate(GeneratorSpec("path", 2000)),
        "star": lambda: generate(GeneratorSpec("star", 2000)),
        "balanced-tree": lambda: generate(GeneratorSpec("balanced-tree", 2000, k=3)),
        "clique-chain": lambda: generate(GeneratorSpec("clique-chain", 7 * 200 + 1, k=8)),
        "disjoint-edges": lambda: Graph.from_edges(2000, [(2 * i, 2 * i + 1) for i in range(1000)]),
        "long-cycle": lambda: long_cycle(2000),
    }

    @staticmethod
    def _builds(monkeypatch) -> list[int]:
        """The edge-table length of every CSR build from now on."""
        build, calls = graph_mod._from_clean_edges, []

        def counted(labels, ends):
            calls.append(len(ends))
            return build(labels, ends)

        monkeypatch.setattr(graph_mod, "_from_clean_edges", counted)
        return calls

    def test_shapes_cover_every_generator_family(self):
        assert set(GENERATOR_FAMILIES) <= set(self.SHAPES)

    @pytest.mark.parametrize("dimacs", [False, True], ids=["edgelist", "dimacs"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_clean_input_builds_once(self, monkeypatch, shape, dimacs):
        g = self.SHAPES[shape]()
        text = _dimacs_text(g) if dimacs else format_edge_list(g)
        builds = self._builds(monkeypatch)
        got, dropped = (parse_dimacs if dimacs else parse_edge_list)(text)
        assert (got.m, dropped, builds) == (g.m, 0, [2 * g.m])

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_generate_builds_once_without_the_repeat_check(self, monkeypatch, family):
        want = self.SHAPES[family]()
        builds, checks = self._builds(monkeypatch), []
        monkeypatch.setattr(graph_mod, "_lists_a_neighbour_twice", lambda *a: checks.append(1))
        assert self.SHAPES[family]() == want
        assert (builds, checks) == ([2 * want.m], [])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_from_edges_builds_once_through_the_repeat_check(self, monkeypatch, shape):
        g = self.SHAPES[shape]()
        builds, checks = self._builds(monkeypatch), []
        check = graph_mod._lists_a_neighbour_twice
        monkeypatch.setattr(graph_mod, "_lists_a_neighbour_twice", lambda *a: checks.append(1) or check(*a))
        assert Graph.from_edges(g.n, g.edges) == g
        assert (builds, checks) == ([2 * g.m], [1])

    @pytest.mark.parametrize("dimacs", [False, True], ids=["edgelist", "dimacs"])
    def test_only_a_repeat_builds_twice(self, monkeypatch, dimacs):
        # On TestDirtyInput's texts: one whose only dropped lines are
        # self-loops builds once, one with a repeated edge twice.
        rng = random.Random(99 + dimacs)
        parse = parse_dimacs if dimacs else parse_edge_list
        builds = self._builds(monkeypatch)
        counts = set()
        for _ in range(200):
            text, _, kept, dropped = _dirty_input(rng, dimacs)
            rows = [line.split() for line in text.splitlines()]
            if dimacs:
                pairs = [row[1:] for row in rows if row[:1] == ["e"]]
            else:
                pairs = [row for row in rows if row and row[0][0] != "#" and row[0] != "v"]
            repeats = sum(a != b for a, b in pairs) - len(kept)
            builds.clear()
            assert parse(text).dropped == dropped
            assert len(builds) == 1 + (repeats > 0), text
            counts.add(len(builds))
        assert counts == {1, 2}


class TestGraphInvariants:
    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError, match="duplicate vertex labels"):
            Graph.from_edges(["a", "a"], [])

    @pytest.mark.parametrize(
        "edges, named",
        [
            ([(0, 1), (1, 0)], (1, 0)),
            ([(0, 1), (1, 2), (0, 2), (2, 0), (0, 1)], (2, 0)),
            ([(0, 1), (1, 2), (2, 3), (3, 0), (3, 2)], (3, 2)),
            ([(2, 3), (2, 3), (2, 3)], (2, 3)),
        ],
        ids=["flipped", "first-of-two", "last-pair", "thrice"],
    )
    def test_from_edges_names_the_first_repeat_as_given(self, edges, named):
        with pytest.raises(ValueError, match=rf"^duplicate edge \({named[0]}, {named[1]}\)$"):
            Graph.from_edges(4, edges)

    def test_from_edges_names_repeats_like_a_key_set(self):
        rng = random.Random(16)
        raised = 0
        for _ in range(2000):
            n = rng.randint(2, 7)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12))]
            first, seen = None, set()
            for e in edges:
                if frozenset(e) in seen:
                    first = e
                    break
                seen.add(frozenset(e))
            if first is None:
                assert Graph.from_edges(n, edges).edges == edges
            else:
                raised += 1
                with pytest.raises(ValueError, match=rf"^duplicate edge \({first[0]}, {first[1]}\)$"):
                    Graph.from_edges(n, edges)
        assert 500 < raised < 1500

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 0), (0, 5)], "out of range"),
            ([(0, 1), (0, 1), (2, 2)], "self-loop"),
        ],
        ids=["range", "self-loop"],
    )
    def test_from_edges_finds_range_and_loop_errors_before_repeats(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(3, edges)

    def test_from_edges_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be >= 0"):
            Graph.from_edges(-3, [])
        assert Graph.from_edges(0, []).n == 0

    def test_from_edges_rejects_a_count_past_four_byte_ids(self, monkeypatch):
        # Refused before anything is allocated, and the limit is named.
        for count in (graph_mod.MAX_VERTICES + 1, 2**31, 10**30):
            with pytest.raises(ValueError, match=f"exceeds the limit of {graph_mod.MAX_VERTICES}"):
                Graph.from_edges(count, [])
        monkeypatch.setattr(graph_mod, "MAX_VERTICES", 4)
        assert Graph.from_edges(4, [(0, 3)]).n == 4
        with pytest.raises(ValueError, match="vertex count 5 exceeds the limit of 4"):
            Graph.from_edges(5, [(0, 3)])

    def test_each_edge_in_both_adjacencies(self):
        g, _ = parse_edge_list("a b\nb c\nc a\nc d")
        assert len(g.nbr) == 2 * g.m
        slots = sorted((v, u) for v in range(g.n) for u in g.nbr[g.indptr[v]:g.indptr[v + 1]])
        assert slots == sorted([*g.edges, *((w, u) for u, w in g.edges)])

    def test_adjacency_slice_in_edge_order(self):
        g, _ = parse_edge_list("a b\na c")
        assert list(g.nbr[g.indptr[0]:g.indptr[1]]) == [1, 2]
        assert degrees(g)[0] == 2


class TestStorage:
    """``nbr`` and ``ends`` are flat 4-byte ``array("i")`` on every way a
    graph is built, the CSR rebuilt after dropping repeats included;
    ``edges`` is derived from ``ends`` in recorded order. Labels are never a
    list: integer ids give a DecimalLabels and string labels a PackedLabels."""

    BUILDERS = {
        "edgelist": lambda: parse_edge_list("a b\nc a\nb c\nc d\nv e")[0],
        "dimacs": lambda: parse_dimacs("p edge 5 4\ne 1 2\ne 3 1\ne 2 3\ne 3 4\n")[0],
        "from_edges": lambda: Graph.from_edges(5, [(0, 1), (2, 0), (1, 2), (2, 3)]),
        "generate": lambda: generate(GeneratorSpec("gnm", 30, m=50, seed=5)),
        # The repeats "a c" and "b c" make the parser build its CSR a second time.
        "edgelist-repeats": lambda: parse_edge_list("a b\nc a\na c\nb c\nc b\nc d\nv e")[0],
    }
    LABELS = {"edgelist": PackedLabels, "dimacs": DecimalLabels, "from_edges": DecimalLabels,
              "generate": DecimalLabels, "edgelist-repeats": PackedLabels}

    @pytest.mark.parametrize("name", BUILDERS)
    def test_flat_four_byte_arrays(self, name):
        g = self.BUILDERS[name]()
        for field_name in ("nbr", "ends"):
            field = getattr(g, field_name)
            assert isinstance(field, array) and field.typecode == "i", field_name
            assert field.itemsize == 4, field_name
        assert type(g.indptr) is list and type(g.labels) is self.LABELS[name]
        assert len(g.ends) == 2 * g.m and len(g.nbr) == 2 * g.m

    def test_every_vertex_id_fits_the_slots(self):
        assert graph_mod.MAX_VERTICES <= 2**31 - 1
        assert array("i", [graph_mod.MAX_VERTICES - 1]).itemsize == 4

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_edges_in_recorded_order(self, build):
        g = build()
        assert g.edges == [(g.ends[2 * e], g.ends[2 * e + 1]) for e in range(g.m)]
        assert all(type(u) is int and type(w) is int for u, w in g.edges)
        assert g.edges is not g.edges  # built per call, never cached

    def test_recorded_order_of_each_builder(self):
        want = [(0, 1), (2, 0), (1, 2), (2, 3)]
        for name in ("edgelist", "dimacs", "from_edges", "edgelist-repeats"):
            assert self.BUILDERS[name]().edges == want, name

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_pickle_round_trip(self, build):
        g = build()
        again = pickle.loads(pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL))
        assert again == g
        assert again.nbr.typecode == "i" and again.ends.typecode == "i"


class TestDecimalLabels:
    """Labels made on read behave as the list of the same strings would."""

    def test_length_iteration_and_indexing(self):
        labels = DecimalLabels(1, 12)
        want = [str(i) for i in range(1, 13)]
        assert len(labels) == 12 and list(labels) == want
        assert [labels[i] for i in range(-12, 12)] == want + want
        for i in (12, -13):
            with pytest.raises(IndexError):
                labels[i]
        for part in (slice(2, 5), slice(None, None, -3), slice(-4, None), slice(5, 2)):
            assert labels[part] == want[part], part
        assert list(reversed(labels)) == want[::-1]
        assert len(DecimalLabels(7, 0)) == 0 and list(DecimalLabels(7, 0)) == []
        with pytest.raises(ValueError):
            DecimalLabels(0, -1)

    def test_index_and_membership(self):
        labels = DecimalLabels(0, 12)
        assert labels.index("0") == 0 and labels.index("11") == 11
        assert labels.index("5", 3, 6) == 5 and labels.index("5", -7) == 5
        assert "7" in labels and labels.count("7") == 1
        # Not the decimal form of an id in range, or not a string at all.
        for label in ("12", "01", "-1", "+1", " 1", "1_0", "1.0", "", "x", "٣", 3, None):
            assert label not in labels, label
            assert labels.count(label) == 0
            with pytest.raises(ValueError):
                labels.index(label)
        with pytest.raises(ValueError):
            labels.index("5", 6)
        assert "-1" in DecimalLabels(-3, 4) and "0" not in DecimalLabels(1, 4)

    def test_equality_with_sequences_both_ways(self):
        labels = DecimalLabels(1, 3)
        for same in (["1", "2", "3"], ("1", "2", "3"), DecimalLabels(1, 3)):
            assert labels == same and same == labels
            assert not labels != same and not same != labels
        for other in (["1", "2"], ["1", "2", "4"], [1, 2, 3], DecimalLabels(0, 3), "123"):
            assert labels != other and other != labels
        assert DecimalLabels(0, 0) == [] == DecimalLabels(5, 0)
        with pytest.raises(TypeError):
            hash(labels)

    def test_graph_equality_across_label_kinds(self):
        edges = [(0, 1), (1, 2)]
        counted = Graph.from_edges(3, edges)
        assert counted == Graph.from_edges(["0", "1", "2"], edges)
        assert Graph.from_edges(["0", "1", "2"], edges) == counted
        assert counted != Graph.from_edges(["0", "1", "x"], edges)
        assert parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")[0] == parse_edge_list("1 2\n2 3")[0]

    def test_pickle_stores_first_and_count(self):
        labels = DecimalLabels(1, 5)
        again = pickle.loads(pickle.dumps(labels))
        assert type(again) is DecimalLabels and again == labels and list(again) == list(labels)
        big = DecimalLabels(0, 2**20)
        assert len(pickle.dumps(big, protocol=pickle.HIGHEST_PROTOCOL)) < 100


class TestPackedLabels:
    """Labels packed into one string behave as the list of the same strings
    would, whatever the strings hold: a newline in a label too, which the
    text also puts between labels."""

    WANT = ["b", "", "a c", "\u00e9t\u00e9", "\U0001f600", "x\ty", "v", "#x", "ab", "c\nd", " ", "9"]

    def test_length_iteration_and_indexing(self):
        want = self.WANT
        labels = PackedLabels(want)
        assert len(labels) == 12 and list(labels) == want
        assert [labels[i] for i in range(-12, 12)] == want + want
        for i in (12, -13):
            with pytest.raises(IndexError):
                labels[i]
        for part in (slice(2, 5), slice(None, None, -3), slice(-4, None), slice(5, 2)):
            assert labels[part] == want[part], part
        assert list(reversed(labels)) == want[::-1]
        assert len(PackedLabels([])) == 0 and list(PackedLabels([])) == []
        with pytest.raises(IndexError):
            PackedLabels([])[0]
        assert list(PackedLabels([""])) == [""] and list(PackedLabels(["\n"])) == ["\n"]
        many = [f"{i}\n" if i % 97 == 0 else str(i) for i in range(5000)]
        assert list(PackedLabels(many)) == many

    def test_index_and_membership(self):
        labels = PackedLabels(self.WANT)
        assert labels.index("b") == 0 and labels.index("9") == 11 and labels.index("") == 1
        assert labels.index("ab", 3, 9) == 8 and labels.index("ab", -7) == 8
        assert "a c" in labels and labels.count(" ") == 1
        # Pieces of the joined text that are no label, or not a string at all.
        for label in ("bc", "c\u00e9", "a", "cd", "\n", "c", "d", "ab\nc", "x", "#", "9 ", 9, None):
            assert label not in labels, label
            assert labels.count(label) == 0
            with pytest.raises(ValueError):
                labels.index(label)
        with pytest.raises(ValueError):
            labels.index("ab", 9)

    def test_equality_with_sequences_both_ways(self):
        labels = PackedLabels(["1", "2", "3"])
        for same in (["1", "2", "3"], ("1", "2", "3"), DecimalLabels(1, 3), PackedLabels(["1", "2", "3"])):
            assert labels == same and same == labels
            assert not labels != same and not same != labels
        for other in (["1", "2"], ["1", "2", "4"], [1, 2, 3], DecimalLabels(0, 3), "123",
                      PackedLabels(["12", "3", ""]), PackedLabels(["1", "23", ""])):
            assert labels != other and other != labels
        assert PackedLabels([]) == [] == DecimalLabels(5, 0) == PackedLabels([])
        with pytest.raises(TypeError):
            hash(labels)

    def test_pickle_round_trip(self):
        for want in (self.WANT, [*self.WANT, "x" * 300]):  # one label too long for a byte
            labels = PackedLabels(want)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                again = pickle.loads(pickle.dumps(labels, protocol=protocol))
                assert type(again) is PackedLabels and list(again) == want, protocol
        many = [str(i) for i in range(2**16)]
        packed = len(pickle.dumps(PackedLabels(many), protocol=pickle.HIGHEST_PROTOCOL))
        assert packed < len(pickle.dumps(many, protocol=pickle.HIGHEST_PROTOCOL))

    def test_from_edges_keeps_any_label(self):
        g = Graph.from_edges(self.WANT, [(0, 1), (1, 2), (3, 4), (6, 7)])
        assert type(g.labels) is PackedLabels and g.labels == self.WANT
        assert [(g.labels[u], g.labels[w]) for u, w in g.edges] == [
            ("b", ""), ("", "a c"), ("\u00e9t\u00e9", "\U0001f600"), ("v", "#x")]


@st.composite
def token_labels(draw):
    label = draw(st.text(min_size=1, max_size=4))
    return "".join(c if not c.isspace() else "_" for c in label)


@st.composite
def labeled_graphs(draw):
    labels = sorted(draw(st.sets(token_labels(), min_size=0, max_size=8)))
    pairs = list(itertools.combinations(range(len(labels)), 2))
    picked = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
    return Graph.from_edges(labels, sorted(picked))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(labeled_graphs())
    def test_format_then_parse_preserves_labels_and_edges(self, g):
        try:
            text = format_edge_list(g)
        except ValueError:
            # Both endpoints would be misread in first position; such an edge
            # cannot have come from a parsed file in the first place.
            return
        g2, dropped = parse_edge_list(text)
        assert dropped == 0
        assert sorted(g2.labels) == sorted(g.labels)
        to_pair = lambda gr, u, w: tuple(sorted((gr.labels[u], gr.labels[w])))
        assert sorted(to_pair(g, u, w) for u, w in g.edges) == sorted(
            to_pair(g2, u, w) for u, w in g2.edges
        )

    @pytest.mark.parametrize(
        "labels",
        [["a b", "c", ""], ["a", "b\tc", "d"], ["a", "", "d"], ["a", "b", "c\n"], ["a", " ", "d"]],
    )
    def test_unserializable_label_raises(self, labels):
        g = Graph.from_edges(labels, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not serializable"):
            format_edge_list(g)
        isolated = Graph.from_edges(labels, [])  # 'v <label>' lines too
        with pytest.raises(ValueError, match="not serializable"):
            format_edge_list(isolated)

    def test_edge_between_second_only_labels_raises(self):
        g = Graph.from_edges(["v", "#x", "y"], [(1, 2), (0, 1)])
        with pytest.raises(ValueError, match="'v' -- '#x' is not serializable"):
            format_edge_list(g)

    def test_round_trip_keeps_awkward_labels(self):
        g, _ = parse_edge_list("x v\nx #y\nv #z")
        g2, _ = parse_edge_list(format_edge_list(g))
        assert sorted(g2.labels) == sorted(g.labels) == ["#y", "#z", "v", "x"]
        assert g2.m == g.m == 2


class TestConnectedComponents:
    """The report's component columns: the labeling of the lowpoint DFS,
    one id and one size per vertex."""

    def test_path_one_component(self):
        report = compute_all_impacts(generate(GeneratorSpec("path", 3)))
        assert report.component_id == [0, 0, 0]
        assert report.component_size == [3, 3, 3]

    def test_isolated_vertices(self):
        g, _ = parse_dimacs("p edge 4 0")
        report = compute_all_impacts(g)
        assert report.component_id == [0, 1, 2, 3]
        assert report.component_size == [1, 1, 1, 1]

    def test_two_disjoint_triangles(self):
        g, _ = parse_edge_list("a b\nb c\nc a\nd e\ne f\nf d")
        report = compute_all_impacts(g)
        assert report.component_id == closure_components(g)
        assert report.component_size == [3] * 6

    def test_matches_closure_on_small_graphs(self):
        rng = random.Random(424242)
        for _ in range(200):
            n = rng.randint(0, 8)
            m = rng.randint(0, n * (n - 1) // 2)
            g = generate(GeneratorSpec("gnm", n, m=m, seed=rng.randrange(2**32)))
            report = compute_all_impacts(g)
            closure = closure_components(g)
            assert report.component_id == closure
            assert report.component_size == [closure.count(c) for c in closure]

    def test_exhaustive_tiny(self):
        for g in all_graphs_up_to(4):
            report = compute_all_impacts(g)
            closure = closure_components(g)
            assert report.component_id == closure
            assert report.component_size == [closure.count(c) for c in closure]
            # ids appear in first-visit order
            first_seen = []
            for c in report.component_id:
                if c not in first_seen:
                    first_seen.append(c)
            assert first_seen == list(range(len(first_seen)))

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("path", 1 << 17),
            GeneratorSpec("star", 1 << 16),
            GeneratorSpec("balanced-tree", 1 << 16, k=3),
            GeneratorSpec("gnm", 1 << 16, m=1 << 16, seed=17),
            GeneratorSpec("gnm", 87_382, m=43_690, seed=18),
            GeneratorSpec("clique-chain", 1 + 7 * 3_745, k=8),
        ],
        ids=lambda spec: f"{spec.family}-{spec.n}-{spec.m}",
    )
    def test_matches_oracle_labeling_near_2_17_elements(self, spec):
        # The oracle's BFS shares nothing with the lowpoint DFS that labels
        # the components; the path is as deep as a DFS gets.
        g = generate(spec)
        assert 0.9 * (1 << 17) <= g.n + g.m <= 2.1 * (1 << 17)
        report = compute_all_impacts(g)
        ref = _labeling(g)
        assert report.component_id == ref.component_id
        assert report.component_size == [ref.component_size[c] for c in ref.component_id]


class TestGenerate:
    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_rejects_a_count_past_four_byte_ids(self, family, monkeypatch):
        # Refused before any edge is made, and the limit is named.
        for count in (graph_mod.MAX_VERTICES + 1, 2**31):
            with pytest.raises(ValueError, match=f"exceeds the limit of {graph_mod.MAX_VERTICES}"):
                generate(GeneratorSpec(family, count, m=1, k=2))
        monkeypatch.setattr(graph_mod, "MAX_VERTICES", 5)
        assert generate(GeneratorSpec(family, 5, m=1, k=2)).n == 5
        with pytest.raises(ValueError, match="vertex count 6 exceeds the limit of 5"):
            generate(GeneratorSpec(family, 6, m=1, k=2))

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_rejects_a_negative_count(self, family):
        with pytest.raises(ValueError, match="vertex count must be >= 0"):
            generate(GeneratorSpec(family, -1, m=0, k=2))

    def test_path(self):
        g = generate(GeneratorSpec("path", 5))
        assert (g.n, g.m) == (5, 4)
        assert max(degrees(g)) == 2

    def test_star(self):
        g = generate(GeneratorSpec("star", 6))
        degs = sorted(degrees(g))
        assert degs == [1, 1, 1, 1, 1, 5]

    def test_gnm_forced_complete(self):
        g = generate(GeneratorSpec("gnm", 10, m=45, seed=3))
        assert g.m == 45
        assert degrees(g) == [9] * 10

    def test_balanced_tree_shape(self):
        g = generate(GeneratorSpec("balanced-tree", 7, k=2))
        assert g.m == 6
        assert sorted(g.edges) == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]

    def test_clique_chain_is_bowtie_for_n5_k3(self):
        g = generate(GeneratorSpec("clique-chain", 5, k=3))
        assert (g.n, g.m) == (5, 6)
        assert sorted(map(sorted, (g.edges))) == [
            [0, 1], [0, 2], [1, 2], [2, 3], [2, 4], [3, 4],
        ]

    def test_deterministic_per_seed(self):
        a = generate(GeneratorSpec("gnm", 30, m=60, seed=11))
        b = generate(GeneratorSpec("gnm", 30, m=60, seed=11))
        c = generate(GeneratorSpec("gnm", 30, m=60, seed=12))
        assert a.edges == b.edges
        assert a.edges != c.edges

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("gnm", 4, m=7),
            GeneratorSpec("gnm", 4),  # m missing
            GeneratorSpec("gnm", -1, m=0),
            GeneratorSpec("clique-chain", 6, k=3),
            GeneratorSpec("balanced-tree", 5, k=0),
            GeneratorSpec("nosuch", 5),
        ],
    )
    def test_infeasible_parameters(self, spec):
        with pytest.raises(ValueError):
            generate(spec)

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(GENERATOR_FAMILIES),
        n=st.integers(0, 40),
        density=st.floats(0, 1),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32),
    )
    def test_handshake_lemma(self, family, n, density, k, seed):
        m = int(density * n * (n - 1) // 2)
        if family == "clique-chain":
            k = max(k, 2)
            n = 1 + (k - 1) * max(0, (n - 1) // (k - 1))
        spec = GeneratorSpec(family, n, m=m, k=k, seed=seed)
        g = generate(spec)
        assert sum(degrees(g)) == 2 * g.m
        again = generate(spec)
        assert again.edges == g.edges


def _assert_generates_reference(spec: GeneratorSpec) -> None:
    """``generate(spec)`` is ``Graph.from_edges`` of the reference tuple
    list, field for field, though it skips that builder's range, loop and
    repeat checks; and its CSR lists no neighbour twice."""
    g = generate(spec)
    want = Graph.from_edges(spec.n, reference_generated_edges(spec))
    for field in fields(Graph):
        assert getattr(g, field.name) == getattr(want, field.name), (field.name, spec)
    assert type(g.labels) is DecimalLabels
    assert not graph_mod._lists_a_neighbour_twice(g.indptr, g.nbr), spec


def _small_specs(family: str):
    """Every valid spec of ``family`` with n <= 60 and k <= 6; for gnm, edge
    counts from none to all and three seeds each."""
    for n in range(61):
        if family == "gnm":
            top = n * (n - 1) // 2
            for m in sorted({0, min(1, top), min(n, top), min(2 * n, top), top // 2, top}):
                for seed in range(3):
                    yield GeneratorSpec(family, n, m=m, seed=seed)
            continue
        for k in range(1, 7):
            if family != "clique-chain" or (k >= 2 and (n == 0 or (n - 1) % (k - 1) == 0)):
                yield GeneratorSpec(family, n, k=k)


class TestGenerateMatchesFromEdges:
    """``generate`` builds its CSR with none of ``Graph.from_edges``'s checks:
    its edges are in range, loop-free and distinct by construction. These
    tests carry that guarantee, on small graphs of every shape, on random
    specs and at ~2^20 elements per family."""

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_small_specs(self, family):
        for spec in _small_specs(family):
            _assert_generates_reference(spec)

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(GENERATOR_FAMILIES),
        n=st.integers(0, 400),
        density=st.floats(0, 1),
        k=st.integers(1, 9),
        seed=st.integers(0, 2**64),
    )
    def test_random_specs(self, family, n, density, k, seed):
        if family == "clique-chain":
            k = max(k, 2)
            n = 1 + (k - 1) * max(0, (n - 1) // (k - 1))
        _assert_generates_reference(
            GeneratorSpec(family, n, m=int(density * (n * (n - 1) // 2)), k=k, seed=seed)
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("path", 1 << 19),
            GeneratorSpec("star", 1 << 19),
            GeneratorSpec("balanced-tree", 1 << 19, k=3),
            GeneratorSpec("gnm", 1 << 18, m=3 << 18, seed=19),
            GeneratorSpec("clique-chain", 1 + 7 * 29_959, k=8),
        ],
        ids=lambda spec: spec.family,
    )
    def test_near_2_20_elements(self, spec):
        _assert_generates_reference(spec)

    def test_pair_from_index_exhaustively(self):
        for n in range(80):
            pairs = list(itertools.combinations(range(n), 2))
            assert [graph_mod._pair_from_index(i, n) for i in range(len(pairs))] == pairs, n

    @pytest.mark.parametrize("n", [1 << 17, 1 << 20, 1 << 26, 10**9])
    def test_pair_from_index_at_row_ends(self, n):
        # Row u starts with (u, u+1) and ends with (u, n-1); the last index
        # of all is the last row's one pair.
        rng = random.Random(n)
        unrank, ref = graph_mod._pair_from_index, reference_pair_from_index
        for u in [0, 1, n - 3, n - 2, *rng.sample(range(n - 1), 200)]:
            first = u * n - u * (u + 1) // 2
            last = first + n - 2 - u
            assert unrank(first, n) == ref(first, n) == (u, u + 1), (n, u)
            assert unrank(last, n) == ref(last, n) == (u, n - 1), (n, u)
        top = n * (n - 1) // 2 - 1
        assert unrank(top, n) == ref(top, n) == (n - 2, n - 1)
