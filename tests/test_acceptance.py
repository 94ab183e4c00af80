"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear;
the slow sweeps carry the ``slow`` marker so day-to-day runs can deselect
them with ``-m "not slow"``.
"""

import itertools
import multiprocessing
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from blockimpact import (
    GeneratorSpec,
    Graph,
    articulation_points,
    build_block_forest,
    compute_all_impacts,
    compute_sq_sizes,
    generate,
    impact_vector,
    naive_all_impacts,
    naive_articulation_points,
    naive_impact,
    rerooted_at,
)
from blockimpact.bench import sweep, time_all_impacts
from blockimpact.cli import run as run_cli
from blockimpact.forest import edge_rounds

import _acceptance_log
from _helpers import (
    all_graphs_up_to,
    check_block_forest,
    graph_from,
    seeded_gnm_graphs,
    square_rounds,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {num} FAIL: {desc}"
        print(line)
        _acceptance_log.lines.append(line)
        raise
    line = f"ACCEPTANCE {num} PASS: {desc}"
    print(line)
    _acceptance_log.lines.append(line)


# --- criterion 1: exhaustive oracle equivalence on the 7-vertex lattice ----

PAIRS7 = tuple(itertools.combinations(range(7), 2))


def _check_mask_range(bounds: tuple[int, int]) -> tuple[int, int | None]:
    lo, hi = bounds
    for mask in range(lo, hi):
        edges = [PAIRS7[i] for i in range(21) if mask >> i & 1]
        g = Graph.from_edges(7, edges)
        fast = compute_all_impacts(g)
        naive = naive_all_impacts(g)
        if (
            fast.impact != naive.impact
            or fast.is_articulation != naive.is_articulation
            or fast.component_id != naive.component_id
            or fast.component_size != naive.component_size
        ):
            return mask - lo, mask
    return hi - lo, None


@pytest.mark.slow
def test_criterion_1_exhaustive_oracle_equivalence():
    """Every graph on a fixed 7-vertex set (all 2^21 edge subsets; graphs with
    isolated vertices cover the smaller vertex counts) gets identical impact,
    articulation, and component data from the fast path and the removal
    oracle."""
    total = 1 << 21
    step = 1 << 16
    chunks = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    t0 = time.perf_counter()
    workers = min(multiprocessing.cpu_count(), 4)
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        results = pool.map(_check_mask_range, chunks)
    checked = sum(count for count, _ in results)
    first_bad = next((bad for _, bad in results if bad is not None), None)
    elapsed = time.perf_counter() - t0
    with criterion(1, f"exhaustive n=7 lattice, {checked} graphs in {elapsed:.0f}s"):
        assert first_bad is None, f"first mismatching edge mask: {first_bad}"
        assert checked == total
        assert elapsed < 600


# --- criterion 2: randomized oracle equivalence ----------------------------


def test_criterion_2_randomized_oracle_equivalence():
    """500 seeded gnm graphs, n in [1,60], m uniform over the full range:
    impact vectors, articulation sets, and the block partition of the edges
    all check out exactly."""
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    for i in range(500):
        n = rng.randint(1, 60)
        m = rng.randint(0, n * (n - 1) // 2)
        g = generate(GeneratorSpec("gnm", n, m=m, seed=rng.randrange(2**63)))
        fast = compute_all_impacts(g)
        naive = naive_all_impacts(g)
        assert fast.impact == naive.impact, f"graph {i}"
        assert fast.is_articulation == naive.is_articulation, f"graph {i}"
        bf = build_block_forest(g)
        assert articulation_points(bf) == naive_articulation_points(g), f"graph {i}"
        # every edge lies in exactly one block, endpoints included
        edge_round = edge_rounds(g, bf)
        rounds = square_rounds(bf)
        assert len(edge_round) == g.m, f"graph {i}"
        for e, (u, w) in enumerate(g.edges):
            node = edge_round[e]
            members = set(bf.round_members(node - g.n))
            assert u in members and w in members, f"graph {i} edge {e}"
            containing = [
                rn for rn in rounds[u] if w in bf.round_members(rn - g.n)
            ]
            assert containing == [node], f"graph {i} edge {e}"
    elapsed = time.perf_counter() - t0
    with criterion(2, f"500 random gnm graphs vs oracle in {elapsed:.0f}s"):
        assert elapsed < 60


# --- criterion 3: structural invariants ------------------------------------


def test_criterion_3_structural_invariants():
    """On the whole test corpus: alternating square/round forest without
    duplicate edges, round roots except singletons, articulation points =
    non-leaf squares, root subtree count = component size, and a <= n-2."""
    corpora = []
    corpora.extend(all_graphs_up_to(5))
    for name in ("path6", "bowtie", "pendant_triangle", "multiblock"):
        corpora.append(graph_from((DATA / f"{name}.edges").read_text()))
    rng = random.Random(31337)
    corpora.extend(seeded_gnm_graphs(120, 60, rng))
    for spec in (
        GeneratorSpec("path", 120),
        GeneratorSpec("star", 90),
        GeneratorSpec("balanced-tree", 121, k=3),
        GeneratorSpec("clique-chain", 101, k=5),
        GeneratorSpec("gnm", 120, m=300, seed=9),
        GeneratorSpec("gnm", 80, m=0, seed=9),
    ):
        corpora.append(generate(spec))
    with criterion(3, f"structural invariants on {len(corpora)} graphs"):
        for g in corpora:
            check_block_forest(g, build_block_forest(g), removal_checks=g.n <= 25)


# --- criterion 4: root invariance -------------------------------------------


def test_criterion_4_root_invariance():
    """Re-rooting every tree at each of its round nodes never changes any
    impact value."""
    rng = random.Random(140982)
    graphs = seeded_gnm_graphs(100, 45, rng)
    rerooted = 0
    with criterion(4, "root invariance over 100 random graphs"):
        for g in graphs:
            bf = build_block_forest(g)
            base = impact_vector(bf, compute_sq_sizes(bf))
            for r in range(bf.num_rounds):
                bf2 = rerooted_at(bf, g.n + r)
                assert impact_vector(bf2, compute_sq_sizes(bf2)) == base
                rerooted += 1
    assert rerooted > 100  # the corpus actually exercised re-rooting


# --- criterion 5: linear scaling --------------------------------------------


@pytest.mark.slow
def test_criterion_5_linearity():
    """Per-element time stays within a 3x band across n = 2^17..2^21 for each
    family sweep, the 2^20 path completes in under 5 seconds, and the 2^21
    path (DFS depth 2^21) finishes without touching the recursion limit.
    Each size is timed as the median of 3 runs, so one slow or fast run
    cannot set a spread."""
    sizes = [1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21]
    path_rows = sweep("path", sizes, seed=5, repeats=3)
    gnm_rows = sweep("gnm", sizes, m_per_n=2.0, seed=5, repeats=3)
    for rows in (path_rows, gnm_rows):
        for r in rows:
            print(
                f"  bench {r.family} n={r.n} m={r.m}: {r.seconds:.2f}s "
                f"({r.ns_per_element:.0f} ns/element)"
            )
    path_spread = max(r.ns_per_element for r in path_rows) / min(
        r.ns_per_element for r in path_rows
    )
    gnm_spread = max(r.ns_per_element for r in gnm_rows) / min(
        r.ns_per_element for r in gnm_rows
    )
    big_path = next(r for r in path_rows if r.n == 1 << 20)
    with criterion(
        5,
        f"linearity: path spread {path_spread:.2f}x, gnm spread {gnm_spread:.2f}x, "
        f"2^20 path in {big_path.seconds:.2f}s",
    ):
        assert path_spread < 3.0
        assert gnm_spread < 3.0
        assert big_path.seconds < 5.0
        assert path_rows[-1].n == 1 << 21  # completed, no recursion crash


# --- criterion 6: separation from the per-removal baseline ------------------


def _star_of_paths(n: int) -> Graph:
    # A hub with two-edge arms (each middle vertex cuts its tip off) plus one
    # single-edge arm so the vertex count lands exactly on n; articulation
    # points: the hub and every arm middle = n/2.
    arms = (n - 2) // 2
    edges = []
    vid = 1
    for _ in range(arms):
        edges.append((0, vid))
        edges.append((vid, vid + 1))
        vid += 2
    edges.append((0, vid))
    return Graph.from_edges(vid + 1, edges)


@pytest.mark.slow
def test_criterion_6_baseline_separation():
    """The one-pass computation beats per-removal re-traversal by >= 100x on a
    50000-vertex graph with n/2 articulation points.

    The naive side is clocked vertex by vertex and stopped once its elapsed
    time already proves a 400x gap: the partial time is a strict lower bound
    on the full naive_all_impacts time, so the 100x claim follows a fortiori.
    """
    g = _star_of_paths(50_000)
    assert g.n == 50_000
    report = compute_all_impacts(g)
    assert report.articulation_count == g.n // 2

    fast_seconds = time_all_impacts(g, repeats=3)
    budget = 400.0 * fast_seconds
    naive_elapsed = 0.0
    processed = 0
    for v in range(g.n):
        t0 = time.perf_counter()
        imp = naive_impact(g, v)
        naive_elapsed += time.perf_counter() - t0
        assert imp == report.impact[v], f"vertex {v}"
        processed += 1
        if naive_elapsed > budget:
            break
    ratio_bound = naive_elapsed / fast_seconds
    full = processed == g.n
    with criterion(
        6,
        f"baseline separation: fast {fast_seconds:.3f}s vs naive "
        f"{'=' if full else '>'}{naive_elapsed:.1f}s "
        f"({processed}/{g.n} removals timed, >= {ratio_bound:.0f}x)",
    ):
        assert ratio_bound >= 100.0


# --- criterion 7: golden outputs --------------------------------------------


def test_criterion_7_golden_outputs(capsys):
    """Committed TSV, JSON, and DOT outputs reproduce byte for byte on the
    four fixtures, and the pendant fixture pins the bridge-endpoint corner
    rule."""
    with criterion(7, "golden TSV/JSON/DOT outputs on 4 fixtures"):
        for name in ("path6", "bowtie", "pendant_triangle", "multiblock"):
            src = str(DATA / f"{name}.edges")
            for args, suffix in [
                (("analyze", src, "--all"), "tsv"),
                (("analyze", src, "--all", "--output", "json"), "json"),
                (("dot", src), "dot"),
            ]:
                assert run_cli(list(args)) == 0
                out = capsys.readouterr().out
                assert out == (GOLDEN / f"{name}.{suffix}").read_text(), (name, suffix)
        tsv = (GOLDEN / "pendant_triangle.tsv").read_text()
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in tsv.splitlines()[1:] if "\t" in ln}
        assert rows["x"][1] == "0" and rows["x"][2] == "false"
        assert rows["a"][1] == "1" and rows["a"][2] == "true"
