"""Impact of every articulation point of an undirected graph in O(n + m).

The impact of a vertex is the number of vertices cut off from the largest
surviving connected component when that vertex is removed. All impacts, and
the component labeling they need, come from one Hopcroft-Tarjan lowpoint DFS:
a DFS child whose lowpoint does not reach above its parent hangs below that
parent as one piece of the size of its subtree. The block forest (square
nodes = vertices, round nodes = biconnected components, built by one DFS
with an edge stack) serves the structure queries, ``dot`` export, and the
paper's subtree-size method, which the tests use as a second linear-time
oracle. A brute-force removal oracle ships alongside for verification.
"""

from .bench import sweep, time_all_impacts
from .dot import export_dot
from .forest import (
    BlockForest,
    articulation_points,
    biconnected_components,
    bridges,
    build_block_forest,
    rerooted_at,
)
from .graph import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    Graph,
    ParseError,
    format_edge_list,
    generate,
    parse_dimacs,
    parse_edge_list,
)
from .impact import (
    CcLabeling,
    ImpactReport,
    compute_all_impacts,
    compute_sq_sizes,
    connected_components,
    impact_vector,
)
from .oracle import (
    naive_all_impacts,
    naive_articulation_points,
    naive_impact,
    surviving_component_sizes,
)

__version__ = "0.1.0"

__all__ = [
    "BlockForest",
    "CcLabeling",
    "GENERATOR_FAMILIES",
    "GeneratorSpec",
    "Graph",
    "ImpactReport",
    "ParseError",
    "articulation_points",
    "biconnected_components",
    "bridges",
    "build_block_forest",
    "compute_all_impacts",
    "compute_sq_sizes",
    "connected_components",
    "export_dot",
    "format_edge_list",
    "generate",
    "impact_vector",
    "naive_all_impacts",
    "naive_articulation_points",
    "naive_impact",
    "parse_dimacs",
    "parse_edge_list",
    "rerooted_at",
    "surviving_component_sizes",
    "sweep",
    "time_all_impacts",
    "__version__",
]
