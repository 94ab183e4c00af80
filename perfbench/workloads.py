"""The benchmark's workloads: input generation, one operation, output checks.

Every workload is a closed loop with one client: a single process issues one
operation, waits for it to finish, checks its output outside the timed
region, then issues the next. The seed only shapes the input; the program
sees nothing but the generated graph.

- ``analyze-gnm``: ``blockimpact analyze --all --quiet`` on a gnm edge list.
  A sparse random graph has a giant component plus many small trees, so the
  time is spread over parsing, the DFS and writing one row per vertex.
- ``impacts-path``: ``compute_all_impacts`` on an in-memory path. It has the
  deepest possible DFS and n - 1 two-vertex blocks, and no parsing or output.
- ``dot-cliquechain``: ``blockimpact dot --format dimacs --quiet`` on a
  chain of 8-cliques, edge lines shuffled by the seed. Large blocks, integer
  ids with no label interning, and no impact vector or report sort.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from blockimpact.graph import GeneratorSpec, Graph, format_edge_list, generate
from blockimpact.oracle import surviving_component_sizes
from reference import Reference, scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Each workload's generator parameters, command line and reasons.
SPECS = json.loads((BENCH_DIR / "workloads.json").read_text())
MIN_OPS = 3  # operations timed per run at least, whatever --seconds says
ORACLE_SAMPLE = 6  # articulation points, and as many other vertices
MAX_ERRORS = 5


@dataclass
class Input:
    """One workload's generated input. ``path`` is what the operation reads:
    the graph file for CLI workloads, a pickled ``Graph`` for impacts-path."""

    workload: str
    seed: int
    n: int
    m: int
    path: Path
    graph: Graph | None = None  # kept for the oracle sample of analyze-gnm
    k: int = 0
    oracle: dict[int, list[int]] = field(default_factory=dict)  # vertex -> surviving piece sizes


def setup(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Input:
    """Generate the workload's input from ``seed`` and write it to a file."""
    params = SPECS[workload]["tiny_generator" if tiny else "generator"]
    if workload == "dot-cliquechain":
        # Edges of the clique-chain family, then line and endpoint order
        # shuffled by the seed.
        n, k = params["n"], params["k"]
        rng = random.Random(seed)
        edges = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for base in range(0, n - 1, k - 1)
            for u in range(base, base + k)
            for v in range(u + 1, base + k)
        ]
        rng.shuffle(edges)
        path = workdir / "input.dimacs"
        with open(path, "w") as fh:
            fh.write(f"p edge {n} {len(edges)}\n")
            fh.writelines(f"e {u + 1} {v + 1}\n" for u, v in edges)
        return Input(workload, seed, n, len(edges), path, k=k)
    g = generate(GeneratorSpec(params["family"], params["n"], m=params.get("m"), seed=seed))
    if workload == "analyze-gnm":
        path = workdir / "input.edges"
        path.write_text(format_edge_list(g))
        return Input(workload, seed, g.n, g.m, path, graph=g)
    path = workdir / "input.pickle"
    with open(path, "wb") as fh:
        pickle.dump(g, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return Input(workload, seed, g.n, g.m, path)


def timed_setup(workload: str, seed: int, workdir: Path, repeats: int, ref: Reference, tiny: bool = False):
    """Set up ``repeats`` times from the same seed, timing the reference
    kernel before and after each; returns the last input, every set-up's wall
    time and every set-up's time in reference seconds."""
    times, gaps = [], [ref.sample()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        inp = setup(workload, seed, workdir, tiny)
        times.append(time.perf_counter() - t0)
        gaps.append(ref.sample())
    return inp, times, scaled(times, gaps)


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Launch:
    wall_s: float
    peak_rss_mib: float
    returncode: int
    stdout: Path
    stderr: Path


_launcher: subprocess.Popen | None = None


def _stop_launcher() -> None:
    _launcher.stdin.close()
    _launcher.wait()


def launch(argv: list[str], stdout: Path, stderr: Path) -> Launch:
    """Run one command through launcher.py, stdout going to a file. The wall
    time runs from launch to exit; the peak RSS is the child's own, from
    ``wait4``, with no share of this process's memory in it."""
    global _launcher
    if _launcher is None:
        _launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        atexit.register(_stop_launcher)
    request = {"argv": argv, "cwd": str(ROOT), "env": program_env(),
               "stdout": str(stdout), "stderr": str(stderr)}
    _launcher.stdin.write(json.dumps(request) + "\n")
    _launcher.stdin.flush()
    reply = json.loads(_launcher.stdout.readline())
    return Launch(reply["wall_s"], reply["peak_rss_mib"], reply["returncode"], stdout, stderr)


def cli_args(inp: Input) -> list[str]:
    """The command-line arguments of the workload's ``blockimpact`` command."""
    return [*SPECS[inp.workload]["cli_args"], str(inp.path)]


def check_cli(inp: Input, run: Launch, verdicts: dict[bytes, list[str]]) -> list[str]:
    """Errors in one CLI operation's exit status and output (empty if none).

    The program is deterministic, so ``verdicts`` keeps the errors found in
    each distinct output by digest, and a repeated output is not checked
    twice; the cost of a check then stays out of the loop's run time.
    """
    if run.returncode != 0:
        tail = run.stderr.read_text(errors="replace")[-500:]
        return [f"exit code {run.returncode}: {tail}"]
    data = run.stdout.read_bytes()
    digest = hashlib.sha256(data).digest()
    if digest not in verdicts:
        check = check_analyze if inp.workload == "analyze-gnm" else check_dot
        verdicts[digest] = check(inp, data.decode())
    return verdicts[digest]


def check_analyze(inp: Input, text: str) -> list[str]:
    """Check an ``analyze --all`` TSV report of the gnm input.

    Exact: the header, one row per vertex, the (-impact, label) order, the
    articulation flag against the impact, the component columns against each
    other, and the summary line against the rows. Sampled: ``naive_impact``
    style removal on seeded articulation points and non-articulation points,
    memoized on the input.
    """
    n, m = inp.n, inp.m
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        return ["output is not newline-terminated TSV"]
    if lines[0] != "label\timpact\tis_articulation\tcomponent_id\tcomponent_size":
        return [f"bad header {lines[0]!r}"]
    rows = [line.split("\t") for line in lines[1:-2]]
    if len(rows) != n:
        return [f"{len(rows)} rows for n={n}"]
    errors: list[str] = []
    try:
        labels = [r[0] for r in rows]
        impact = [int(r[1]) for r in rows]
        flags = [r[2] for r in rows]
        comp_id = [int(r[3]) for r in rows]
        comp_size = [int(r[4]) for r in rows]
    except (IndexError, ValueError) as exc:
        return [f"malformed row: {exc}"]
    if any(len(r) != 5 for r in rows):
        errors.append("a row does not have 5 columns")
    if set(labels) != {str(v) for v in range(n)}:
        errors.append("rows do not list every vertex exactly once")
    keys = list(zip((-i for i in impact), labels))
    bad = next((j for j in range(1, n) if keys[j - 1] >= keys[j]), None)
    if bad is not None:
        errors.append(f"rows {bad} and {bad + 1} are out of (-impact, label) order")
    for j in range(n):
        if flags[j] != ("true" if impact[j] > 0 else "false") or comp_size[j] <= impact[j]:
            errors.append(f"row {j + 1} is inconsistent: {lines[j + 1]!r}")
            break
    sizes: dict[int, int] = {}
    for c, s in zip(comp_id, comp_size):
        if sizes.setdefault(c, s) != s:
            errors.append(f"component {c} has two sizes")
            break
    if sum(sizes.values()) != n:
        errors.append("component sizes do not add up to n")
    articulation = [j for j in range(n) if impact[j] > 0]
    want = f"# n={n} m={m} a={len(articulation)} max_impact={impact[0]} max_impact_label={labels[0]}"
    if lines[-2] != want:
        errors.append(f"summary {lines[-2]!r}, expected {want!r}")

    rng = random.Random(inp.seed)
    others = [j for j in range(n) if impact[j] == 0]
    sample = rng.sample(articulation, min(ORACLE_SAMPLE, len(articulation)))
    sample += rng.sample(others, min(ORACLE_SAMPLE, len(others)))
    for j in sample:
        v = int(labels[j])
        if v not in inp.oracle:
            inp.oracle[v] = surviving_component_sizes(inp.graph, v)
        pieces = inp.oracle[v]
        want_row = (sum(pieces) - max(pieces, default=0), len(pieces) >= 2, sum(pieces) + 1)
        got_row = (impact[j], flags[j] == "true", comp_size[j])
        if got_row != want_row:
            errors.append(f"vertex {v}: (impact, is_articulation, component_size) {got_row}, oracle {want_row}")
    return errors[:MAX_ERRORS]


def check_dot(inp: Input, text: str) -> list[str]:
    """Check the DOT block forest of the clique chain against closed forms.

    With B = (n - 1)/(k - 1) blocks: n boxes, bold exactly at the B - 1
    shared vertices; B ellipses; B*k edges, each ellipse joined to exactly
    the k vertices of one block. The DFS starts at vertex 1, which lies only
    in block 0, so block 0 is the root and its badge is n; block b >= 1 hangs
    below its first vertex and its badge is (B - b)(k - 1).
    """
    n, k = inp.n, inp.k
    blocks = (n - 1) // (k - 1)
    lines = text.split("\n")
    if lines[0] != "graph block_forest {" or lines[-2:] != ["}", ""]:
        return ["output is not one newline-terminated DOT graph"]
    body = lines[1:-2]
    if len(body) != n + blocks + blocks * k:
        return [f"{len(body)} DOT lines, expected {n + blocks + blocks * k}"]
    errors: list[str] = []
    for v in range(n):
        style = ", style=bold" if v % (k - 1) == 0 and 0 < v < n - 1 else ""
        want = f'  s{v} [shape=box{style}, label="{v + 1}"];'
        if body[v] != want:
            errors.append(f"box line {body[v]!r}, expected {want!r}")
            break
    badges = []
    for r, line in enumerate(body[n : n + blocks]):
        head, _, rest = line.partition(' [shape=ellipse, label="')
        if head != f"  r{r}" or not rest.endswith('"];') or not rest[:-3].isdigit():
            return errors + [f"bad ellipse line {line!r}"]
        badges.append(int(rest[:-3]))
    members: list[set[int]] = [set() for _ in range(blocks)]
    for line in body[n + blocks :]:
        left, sep, right = line.partition(" -- r")
        if not (sep and left.startswith("  s") and right.endswith(";")):
            return errors + [f"bad edge line {line!r}"]
        try:
            v, r = int(left[3:]), int(right[:-1])
            members[r].add(v)
        except (ValueError, IndexError):
            return errors + [f"bad edge line {line!r}"]
    seen_blocks = set()
    for r, group in enumerate(members):
        b = min(group, default=0) // (k - 1)
        want_badge = n if b == 0 else (blocks - b) * (k - 1)
        if group != set(range(b * (k - 1), b * (k - 1) + k)) or b in seen_blocks:
            errors.append(f"ellipse r{r} joins {sorted(group)[:k + 1]}, not one whole block")
        elif badges[r] != want_badge:
            errors.append(f"ellipse r{r} (block {b}) has badge {badges[r]}, expected {want_badge}")
        seen_blocks.add(b)
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def check_path(report, n: int) -> list[str]:
    """Check a path report against its closed form: vertex i has impact
    min(i, n - 1 - i), vertices 1..n-2 are articulation points, and all n
    vertices share component 0."""
    errors: list[str] = []
    impact = report.impact
    want = [min(i, n - 1 - i) for i in range(n)]
    if impact != want:
        i = next((i for i in range(n) if i >= len(impact) or impact[i] != want[i]), len(want))
        errors.append(f"impact[{i}] is wrong (report has {len(impact)} vertices)")
    del want
    if report.is_articulation != [0 < i < n - 1 for i in range(n)]:
        errors.append("is_articulation differs from 1..n-2")
    if report.component_id != [0] * n or report.component_size != [n] * n:
        errors.append("component columns differ from one component of size n")
    max_impact = (n - 1) // 2
    label = min((str(i) for i in {(n - 1) // 2, n // 2} if min(i, n - 1 - i) == max_impact), default=None)
    got = (report.n, report.m, report.articulation_count, report.max_impact, report.max_impact_label)
    want_summary = (n, max(n - 1, 0), max(n - 2, 0), max(max_impact, 0), label)
    if got != want_summary:
        errors.append(f"summary (n, m, a, max_impact, label) {got}, expected {want_summary}")
    return errors
