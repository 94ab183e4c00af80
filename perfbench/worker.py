"""Child processes of the benchmark, started through launcher.py.

``worker.py cli RECORD RUN_ID -- ARGS...`` runs ``blockimpact ARGS`` once
with the layer spans installed, then writes the spans, counters and the
number of GC collections to RECORD as JSON. Its exit code is the command's.

``worker.py path GRAPH SECONDS TRACE RECORD RUN_ID`` loads the pickled input
graph and calls ``compute_all_impacts`` on it in a closed loop until SECONDS
of calls have been timed (three at least). With TRACE=1 every other call is
traced. Each call's output is checked outside the timed region, and the
reference kernel is timed between calls. Until its first call the process
holds only the input graph, so its peak RSS after that call is that of the
library operation with its input in memory; the reference kernel's input is
built only then.
"""

from __future__ import annotations

import gc
import json
import pickle
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from blockimpact import cli, impact  # noqa: E402

import tracing  # noqa: E402
from reference import Reference, scaled  # noqa: E402
from workloads import MIN_OPS, check_path  # noqa: E402


def traced_cli(record: Path, run_id: str, argv: list[str]) -> int:
    tracer = tracing.Tracer(run_id)
    gc_before = tracing.gc_collections()
    with tracing.rebound(tracer):
        with tracer.span("cli.run"):
            code = cli.run(argv)
    collections = tracing.gc_collections() - gc_before
    sys.stdout.flush()
    record.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters,
                                  "gc_collections": collections}))
    return code


def path_loop(graph_file: Path, seconds: float, trace: bool, record: Path, run_id: str) -> None:
    with open(graph_file, "rb") as fh:
        g = pickle.load(fh)
    ops = []
    gaps: list[list[float]] = [[]]
    ref = None
    timed = 0.0
    while timed < seconds or len(ops) < MIN_OPS * (2 if trace else 1):
        traced = trace and len(ops) % 2 == 1
        op = {"traced": traced}
        gc.collect()
        try:
            if traced:
                tracer = tracing.Tracer(f"{run_id}-{len(ops)}")
                gc_before = tracing.gc_collections()
                t0 = time.perf_counter()
                with tracing.rebound(tracer):
                    report = tracer.wrap("impact.compute_all_impacts", impact.compute_all_impacts)(g)
                op["wall_s"] = time.perf_counter() - t0
                op["spans"] = tracer.spans
                op["counters"] = {**tracer.counters, "graph.n": g.n, "graph.m": g.m,
                                  "process.gc_collections": tracing.gc_collections() - gc_before}
            else:
                t0 = time.perf_counter()
                report = impact.compute_all_impacts(g)
                op["wall_s"] = time.perf_counter() - t0
            op["peak_rss_mib"] = tracing.max_rss_mib()
            op["errors"] = check_path(report, g.n)
            del report
        except Exception as exc:  # a crash counts as a failed operation
            op.setdefault("wall_s", time.perf_counter() - t0)
            op["peak_rss_mib"] = tracing.max_rss_mib()
            op["errors"] = [f"{type(exc).__name__}: {exc}"]
        timed += op["wall_s"]
        ops.append(op)
        ref = ref or Reference()
        gaps.append(ref.sample())
    for op, wall_ref in zip(ops, scaled([op["wall_s"] for op in ops], gaps)):
        op["wall_ref_s"] = wall_ref
    record.write_text(json.dumps({"ops": ops}))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        record, run_id, sep, *cli_args = rest
        assert sep == "--"
        return traced_cli(Path(record), run_id, cli_args)
    if mode == "path":
        graph_file, seconds, trace, record, run_id = rest
        path_loop(Path(graph_file), float(seconds), trace == "1", Path(record), run_id)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
