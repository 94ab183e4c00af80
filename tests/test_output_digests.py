"""Output bytes pinned at benchmark scale.

The goldens cover four tiny fixtures, which fit in one write slice. Here the
inputs are generated from fixed seeds and are large enough that every output
crosses its slice size (``forest.LINES_PER_JOIN`` report rows or DOT lines,
``cli.CHARS_PER_WRITE`` characters) several times. The sha256 of each
output was recorded at commit ``9248749``, those of ``json`` (articulation
points only) at commit ``78f688e``. A change that alters output on purpose
updates the digest here and says so, as it would a golden.
"""

import hashlib
import random

import pytest

from blockimpact.cli import run

OUTPUTS = {
    "tsv": ["analyze"],
    "tsv-all": ["analyze", "--all"],
    "json": ["analyze", "--output", "json"],
    "json-all": ["analyze", "--all", "--output", "json"],
    "dot": ["dot"],
}


def _gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct edges on vertices 0..n-1, no self-loops, in drawing order."""
    rng = random.Random(seed)
    edges, seen = [], set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    return edges


def _dimacs(n: int, edges: list[tuple[int, int]]) -> str:
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


def _clique_chain_edges(count: int, k: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """``count`` k-cliques in a chain, each sharing one vertex with the next;
    vertex ids, edge order and edge orientation shuffled."""
    rng = random.Random(seed)
    n = count * (k - 1) + 1
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for c in range(count):
        members = range(c * (k - 1), c * (k - 1) + k)
        edges += [(perm[a], perm[b]) for a in members for b in members if a < b]
    rng.shuffle(edges)
    return n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def _tied_unicode_text(count: int, seed: int) -> str:
    """``count`` copies of one five-vertex tree (a path a-b-c-d with a leaf e
    on b), so impacts tie in large groups and the label breaks every tie.
    Labels are non-ASCII, and some carry a quote or a backslash, which JSON
    and DOT escape. Every tenth copy also has an isolated vertex."""
    rng = random.Random(seed)
    stems = ["日", "本", "ß", "é", 'q"', "\\ü", "Ж", "🙂"]
    lines = []
    for j in range(count):
        a, b, c, d, e = (f"{rng.choice(stems)}{rng.choice(stems)}{j}" for _ in range(5))
        lines += [f"{a} {b}\n", f"{b} {c}\n", f"{c} {d}\n", f"{e} {b}\n"]
        if j % 10 == 0:
            lines.append(f"v {rng.choice(stems)}-{j}\n")
    rng.shuffle(lines)
    return "".join(lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    gnm = _gnm_edges(40_000, 46_000, seed=2111)
    chain_n, chain = _clique_chain_edges(13_000, 5, seed=2112)
    texts = {
        "gnm-edgelist": ("edgelist", "".join(f"{u} {v}\n" for u, v in gnm)),
        "gnm-dimacs": ("dimacs", _dimacs(40_000, gnm)),
        "cliquechain-dimacs": ("dimacs", _dimacs(chain_n, chain)),
        "unicode-ties": ("edgelist", _tied_unicode_text(7_000, seed=2113)),
    }
    paths = {}
    for name, (fmt, text) in texts.items():
        path = root / name
        path.write_text(text, encoding="utf-8")
        paths[name] = ["--format", fmt, str(path)]
    return paths


DIGESTS = {
    ("gnm-edgelist", "tsv"): "b22eb18f2d0318785f765e22f8bcacbef6b8b3ed1eeb1efffabf6cdcaaa37a2d",
    ("gnm-edgelist", "tsv-all"): "5675a59275fdc8c660ed14ae0e135b9b6a28b3f5a08730dc962d746de9481782",
    ("gnm-edgelist", "json"): "4ff178f7cea09a3a4c5ec736803cba152fb7beba5689d2b29aec7660f9f20287",
    ("gnm-edgelist", "json-all"): "93f57f50837ac8a1a3c71ec30269d5e2ce55de5cd3786ea4a756165b7d121cb4",
    ("gnm-edgelist", "dot"): "e20df6b1b6fcae1dac917d27d8333fd02ac846b050e2afbd629058a1da641480",
    ("gnm-dimacs", "tsv"): "aa0a4f2e371c565a663a948b9f91546cd64399a4e2b15a773c83e6d3b553ee7c",
    ("gnm-dimacs", "tsv-all"): "1badb5dd1c585937c0711e890ed7c133f586ac4013d648d806b2c3a49cc930ea",
    ("gnm-dimacs", "json"): "428b111d14c53e01c9515c91f8c94262e01c572a6e72464643afce5191a9c310",
    ("gnm-dimacs", "json-all"): "b500cc6d63213b4abf480dd7498bb63f7f18d541bbc4d9b940e856c4f2bebebf",
    ("gnm-dimacs", "dot"): "a695f12fad7f9bded18f9e65d12cccf13ab99b44829dbb65ef5da6a52ccf0c19",
    ("cliquechain-dimacs", "tsv"): "a5e80f241d8c01304f6bff497b16a97cae5929c2d0f1d4a86776c82ccc8ab1ce",
    ("cliquechain-dimacs", "tsv-all"): "40ccc597f614597ee21dc22e4ef4647cae8b53f7ca2341b1e9aca2cb1c6c6faf",
    ("cliquechain-dimacs", "json"): "a5bca40fca7113913303596551bd917a533e85ead11b697df503a6a550b6f194",
    ("cliquechain-dimacs", "json-all"): "7ee96e5baa8bec4978d0b695d2f3cdd9f3c8fb8414f3b0a8a8141d08276d7bad",
    ("cliquechain-dimacs", "dot"): "d0106765b11f8d9618082a32d08234f04922e7234ac91ca5588804c59c4db916",
    ("unicode-ties", "tsv"): "501d7c9c61723a6f3993c46e70e303eadb6fe926442c6167d04adc95b24d71ad",
    ("unicode-ties", "tsv-all"): "dd9845e9749c23ddb4e360f16d0dfa5fdbbc361ec53949bda513fafd08a6db9c",
    ("unicode-ties", "json"): "39a23877abe621264f4eb7b1abda3b268c7f0496ccdacba51051b76648089817",
    ("unicode-ties", "json-all"): "45ce1088990e14cfebd10b5443d4d2cb3a42ad8ed9a41c0e3423b13148daa1ce",
    ("unicode-ties", "dot"): "9b105798f54db4477b4001fc35dd5978e600eae799fe410295d6ef951da4003b",
}


@pytest.mark.parametrize("name, output", sorted(DIGESTS), ids=[f"{n}-{o}" for n, o in sorted(DIGESTS)])
def test_output_digest(capsys, inputs, name, output):
    code = run([*OUTPUTS[output], *inputs[name]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name, output]
