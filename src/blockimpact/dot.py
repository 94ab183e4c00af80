"""Graphviz DOT rendering of a block forest.

Squares come out as boxes labeled with the original vertex label (bold when
the vertex is an articulation point); round nodes are ellipses labeled with
their subtree square count. All trees land in one undirected DOT graph.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice

from .forest import BlockForest


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Lines per join: the text is built from joins of this many lines, so no
# list of every line is held next to it.
LINES_PER_JOIN = 4096


def _lines(labels: Sequence[str], bf: BlockForest, sizes: list[int]) -> Iterator[str]:
    """The DOT text, one newline-terminated line at a time."""
    n = bf.n_squares
    cut = bytearray(n)  # a square is a cut vertex when a round hangs below it
    for p in bf.parent[n:]:
        if p >= 0:
            cut[p] = 1
    yield "graph block_forest {\n"
    for v, label in enumerate(labels):
        style = ", style=bold" if cut[v] else ""
        yield f"  s{v} [shape=box{style}, label={_quote(label)}];\n"
    for r in range(bf.num_rounds):
        yield f'  r{r} [shape=ellipse, label="{sizes[n + r]}"];\n'
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
