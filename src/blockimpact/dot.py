"""Graphviz DOT rendering of a block forest.

Squares come out as boxes labeled with the original vertex label (bold when
the vertex is an articulation point); round nodes are ellipses labeled with
their subtree square count. All trees land in one undirected DOT graph.
"""

from __future__ import annotations

from .forest import BlockForest
from .graph import Graph


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Graph, bf: BlockForest, sizes: list[int]) -> str:
    degs = bf.square_degrees()
    lines = ["graph block_forest {"]
    for v in range(bf.n_squares):
        style = ", style=bold" if degs[v] >= 2 else ""
        lines.append(f"  s{v} [shape=box{style}, label={_quote(g.labels[v])}];")
    for r in range(bf.num_rounds):
        badge = sizes[bf.n_squares + r]
        lines.append(f'  r{r} [shape=ellipse, label="{badge}"];')
    for r in range(bf.num_rounds):
        for v in bf.round_members(r):
            lines.append(f"  s{v} -- r{r};")
    lines.append("}")
    return "\n".join(lines) + "\n"
