"""Memory regression bounds, in traced bytes per vertex.

``tracemalloc`` counts the bytes Python allocates, the same on every run, so
unlike the process's RSS these bounds do not move with allocator or VM noise.
Each bound sits about 10 % above the value measured on Python 3.11 when it
was set (in the comment beside it): storing the labels of an integer-labeled
graph as strings adds ~62 bytes per vertex, a boxed int per suspended
vertex in a DFS ~32, and a set of one boxed key per edge in a graph
builder 64 to 72 bytes per kept edge.
"""

import gc
import tracemalloc

from blockimpact import (
    GeneratorSpec,
    build_block_forest,
    cli,
    compute_all_impacts,
    format_edge_list,
    generate,
    parse_dimacs,
    parse_edge_list,
)


def _traced(fn):
    """``fn()``'s result with the bytes it left allocated and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - base, peak - base


def test_generate_builds_no_label_strings():
    # Nor a per-edge key set, a tuple edge list or a repeat check: the pairs
    # stream into the edge table (249.7, 634.6 and 489.8 peak through a tuple
    # list and the repeat check; 313.7 and 908.8 with a key set as well).
    for spec, kept_bound, peak_bound in (
        (GeneratorSpec("path", 2**16), 63, 116),  # 57.0 and 104.9 measured (73.4 and 121.4 with 8-byte ids)
        (GeneratorSpec("clique-chain", 1 + 7 * 2**13, k=8), 116, 169),  # 105.2 and 153.2 (169.6 and 217.6)
        (GeneratorSpec("gnm", 2**15, m=2**16, seed=1), 81, 221),  # 73.3 and 200.7 (106.2 and 233.6)
    ):
        g, kept, peak = _traced(lambda: generate(spec))
        assert g.n == spec.n
        assert kept / g.n < kept_bound, (spec.family, kept / g.n)
        assert peak / g.n < peak_bound, (spec.family, peak / g.n)


def test_compute_all_impacts_peak_on_a_path():
    n = 2**18
    g = generate(GeneratorSpec("path", n))
    report, _, peak = _traced(lambda: compute_all_impacts(g))
    assert report.max_impact == (n - 1) // 2
    assert peak / n < 133, peak / n  # 120.8 measured


def test_parse_edge_list_peak_per_edge():
    text = format_edge_list(generate(GeneratorSpec("gnm", 2**15, m=2**16, seed=1)))
    (g, dropped), kept, peak = _traced(lambda: parse_edge_list(text))
    assert (g.m, dropped) == (2**16, 0)
    assert peak / g.m < 121, peak / g.m  # 109.4 measured (117.9 with 8-byte ids)
    # The labels are their characters and a newline each in one string, plus
    # an 8-byte offset each: not a str object and a list slot each.
    assert kept / g.n < 95, kept / g.n  # 85.8 measured (134.4 with a list of labels)


def test_parse_dimacs_peak_per_edge():
    clean = generate(GeneratorSpec("clique-chain", 7 * 2**12 + 1, k=8))
    text = f"p edge {clean.n} {clean.m}\n" + "".join(f"e {u + 1} {w + 1}\n" for u, w in clean.edges)
    (g, dropped), _, peak = _traced(lambda: parse_dimacs(text))
    assert (g.m, dropped) == (clean.m, 0)
    assert peak / g.m < 68, peak / g.m  # 61.2 measured (69.6 with 8-byte ids)


def test_parse_star_peak_per_edge():
    # One hub lists every leaf: the repeat check holds no set at all, only one
    # mark per vertex, however long the hub's slice.
    leaves = 2**16
    lines = "".join(f"e 1 {i}\n" for i in range(2, leaves + 2))
    for parse, text, bound in (
        (parse_edge_list, lines.replace("e ", ""), 184),  # 166.9 measured (183.3 with 8-byte ids)
        (parse_dimacs, f"p edge {leaves + 1} {leaves}\n" + lines, 116),  # 105.1 measured (121.5)
    ):
        (g, dropped), _, peak = _traced(lambda: parse(text))
        assert (g.m, dropped) == (leaves, 0)
        assert peak / g.m < bound, (parse.__name__, peak / g.m)


def test_parse_disjoint_edges_peak_per_edge():
    # n = 2m, so what is paid per vertex (labels, indptr, the repeat check's
    # marks) weighs more than what is paid per edge.
    edges = 2**16
    lines = "".join(f"e {2 * i + 1} {2 * i + 2}\n" for i in range(edges))
    for parse, text, bound in (
        (parse_edge_list, lines.replace("e ", ""), 350),  # 317.9 measured (334.4 with 8-byte ids)
        (parse_dimacs, f"p edge {2 * edges} {edges}\n" + lines, 213),  # 193.7 measured (210.1)
    ):
        (g, dropped), _, peak = _traced(lambda: parse(text))
        assert (g.n, g.m, dropped) == (2 * edges, edges, 0)
        assert peak / g.m < bound, (parse.__name__, peak / g.m)


def test_build_block_forest_peak_per_vertex():
    # A suspended vertex keeps the count of slots it has left, mostly a
    # shared small int, not a boxed position (217.9 and 297.6 with one).
    for spec, bound in (
        (GeneratorSpec("path", 2**16), 205),  # 185.9 measured
        (GeneratorSpec("clique-chain", 1 + 7 * 2**13, k=8), 292),  # 265.6 measured
    ):
        g = generate(spec)
        bf, _, peak = _traced(lambda: build_block_forest(g))
        assert bf.n_squares == g.n
        assert peak / g.n < bound, (spec.family, peak / g.n)


def test_dot_frees_the_csr_before_the_text(tmp_path, monkeypatch, capsys):
    # When the text is built only the labels, the forest and the subtree
    # sizes are left: not the CSR nor the edge table (259.3 with the CSR,
    # 155.3 with the 8-byte edge table held by the forest).
    clean = generate(GeneratorSpec("clique-chain", 1 + 7 * 2340, k=8))
    path = tmp_path / "chain.dimacs"
    path.write_text(f"p edge {clean.n} {clean.m}\n" + "".join(f"e {u + 1} {w + 1}\n" for u, w in clean.edges))
    n = clean.n
    del clean
    live = []
    export_dot = cli.export_dot

    def probe(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return export_dot(*args)

    monkeypatch.setattr(cli, "export_dot", probe)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = cli.run(["dot", "--format", "dimacs", str(path)])
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.startswith("graph block_forest {")
    assert (live[0] - base) / n < 97, (live[0] - base) / n  # 87.8 measured
