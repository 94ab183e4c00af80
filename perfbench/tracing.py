"""Layer spans recorded from outside the package.

A traced operation rebinds, for its own duration only, the module-level names
through which ``blockimpact.cli`` and ``blockimpact.impact`` reach the other
layers, so every call into a layer's public entry point opens a span. Nothing
under ``src/`` changes. A span records its name, start, end, parent span, run
id, and the process's peak RSS read right after it closed. The counts that
describe a layer's work are read off the values the call returned, inside a
``trace.counters`` span so that their cost is not charged to any layer.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import resource
import statistics
import time
from operator import sub

LAYERS = ("graph", "forest", "impact", "cli", "dot")

# Self time of each named span goes to one per-layer metric.
SELF_TIME_METRIC = {
    "graph.parse_edge_list": "graph.parse_s",
    "graph.parse_dimacs": "graph.parse_s",
    "forest.build_forest_and_labeling": "forest.dfs_s",
    "forest.build_block_forest": "forest.dfs_s",
    "impact.compute_sq_sizes": "impact.sizes_s",
    "impact.impact_vector": "impact.vector_s",
    "impact.compute_all_impacts": "impact.report_s",
    "cli.run": "cli.self_s",
    "dot.export_dot": "dot.export_s",
}

# Every per-layer metric a traced run reports, with its unit. A layer that a
# workload never calls reports 0.
PER_LAYER_UNITS = {
    "graph.parse_s": "s",
    "graph.input_bytes": "bytes",
    "graph.n": "count",
    "graph.m": "count",
    "graph.dropped": "count",
    "forest.dfs_s": "s",
    "forest.blocks": "count",
    "forest.components": "count",
    "forest.articulation_points": "count",
    "forest.largest_block": "count",
    "impact.sizes_s": "s",
    "impact.vector_s": "s",
    "impact.report_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.output_bytes": "bytes",
    "dot.export_s": "s",
    "dot.output_bytes": "bytes",
    "process.gc_collections": "count",
    **{f"{layer}.rss_hwm_mib": "MiB" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


class Tracer:
    """Spans of one traced operation, kept in memory until it ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {
            "run": self.run_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            span["rss_hwm_mib"] = max_rss_mib()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span("trace.counters"):
                    count(self.counters, result)
            return result

        return traced


def _count_parse(counters: dict, result) -> None:
    graph, dropped = result
    counters["graph.n"] = graph.n
    counters["graph.m"] = graph.m
    counters["graph.dropped"] = dropped


def _count_forest(counters: dict, bf) -> None:
    # A square is an articulation point exactly when some round hangs below
    # it, i.e. when it is the parent of a round node.
    cut = set(bf.parent[bf.n_squares :])
    cut.discard(-1)
    starts = bf.member_indptr
    counters["forest.blocks"] = len(starts) - 1
    counters["forest.components"] = len(bf.roots)
    counters["forest.articulation_points"] = len(cut)
    counters["forest.largest_block"] = max(map(sub, starts[1:], starts[:-1]), default=0)


def _count_forest_and_labeling(counters: dict, result) -> None:
    _count_forest(counters, result[0])


def _count_dot(counters: dict, text: str) -> None:
    counters["dot.output_bytes"] = len(text.encode())


@contextlib.contextmanager
def rebound(tracer: Tracer):
    """Route the package's cross-layer calls through ``tracer`` until exit."""
    from blockimpact import cli, impact

    targets = [
        (cli, "parse_edge_list", "graph.parse_edge_list", _count_parse),
        (cli, "parse_dimacs", "graph.parse_dimacs", _count_parse),
        (cli, "build_block_forest", "forest.build_block_forest", _count_forest),
        (cli, "compute_all_impacts", "impact.compute_all_impacts", None),
        (cli, "compute_sq_sizes", "impact.compute_sq_sizes", None),
        (cli, "export_dot", "dot.export_dot", _count_dot),
        (impact, "build_forest_and_labeling", "forest.build_forest_and_labeling",
         _count_forest_and_labeling),
        (impact, "compute_sq_sizes", "impact.compute_sq_sizes", None),
        (impact, "impact_vector", "impact.impact_vector", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, count in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def op_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and RSS high-water marks of one traced operation.

    A span's self time is its duration minus the durations of its direct
    children; ``trace.counters`` spans are the tracer's own work and belong to
    no layer.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for s in spans:
        metric = SELF_TIME_METRIC.get(s["name"])
        if metric is None:
            continue
        out[metric] += s["end"] - s["start"] - child_time[s["id"]]
        key = s["name"].split(".")[0] + ".rss_hwm_mib"
        out[key] = max(out[key], s["rss_hwm_mib"])
    return out


def layer_self_times(metrics: dict[str, float]) -> dict[str, float]:
    return {
        layer: sum(v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith("_s"))
        for layer in LAYERS
    }


def summarize(ops: list[dict], plain_walls: list[float]) -> dict[str, float]:
    """Median over the traced operations of every per-layer metric, plus the
    tracing overhead against the untraced operations of the same run."""
    metrics = {name: statistics.median(op[name] for op in ops) for name in PER_LAYER_UNITS}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain_walls)
    return metrics


def format_table(metrics: dict[str, float], elements: int) -> str:
    """The per-layer self-time table: seconds, share of the traced wall time,
    and nanoseconds per (n + m) element."""
    wall = metrics["trace.wall_s"]
    self_times = layer_self_times(metrics)
    lines = [f"{'layer':<8}{'self_s':>10}{'share':>8}{'ns/el':>10}{'rss_hwm_mib':>13}"]
    for layer, self_s in self_times.items():
        lines.append(
            f"{layer:<8}{self_s:>10.4f}{self_s / wall:>8.1%}{self_s / elements * 1e9:>10.1f}"
            f"{metrics[layer + '.rss_hwm_mib']:>13.1f}"
        )
    total = sum(self_times.values())
    lines.append(f"{'sum':<8}{total:>10.4f}{total / wall:>8.1%}{total / elements * 1e9:>10.1f}")
    lines.append(f"traced wall {wall:.4f} s, trace.overhead_s {metrics['trace.overhead_s']:.4f} s")
    return "\n".join(lines)
