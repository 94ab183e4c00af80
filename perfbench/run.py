"""Benchmark of blockimpact, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is one of analyze-gnm, impacts-path, dot-cliquechain (see
workloads.py and workloads.json). A run generates the workload's input from
the seed several times, timing each set-up, then issues operations one at a
time until S seconds of operations have been timed, and checks every
operation's output outside the timed region.

With --trace 0 the run prints wall_s (plain wall time), wall_ref_s,
peak_rss_mib, setup_s and fail_ratio, and the last line of stdout is a JSON
object with the end-to-end metrics wall_ref_s, peak_rss_mib and setup_s;
fail_ratio is failed/attempted.
wall_ref_s and setup_s are in reference seconds: the reference kernel of reference.py
is timed before and after every operation and set-up, and each wall time is
scaled by the machine's speed around it (the plain wall times are printed
too). Every process of a run is pinned to one CPU, so the kernel runs on the
CPU the operations run on.
With --trace 1 every other operation runs with layer spans installed; the run
writes the spans to perfbench/out/spans-NAME.jsonl, prints the per-layer
self-time table, and the JSON carries the per-layer metrics. With --workload
all it runs every workload untraced and prints one table of end-to-end
metrics; the exit code is 1 if any output check failed.

The package is imported from src/ of the same checkout and nowhere else; a
run exits non-zero, printing no result, when src/ is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
PROGRAM = [sys.executable, "-m", "blockimpact.cli"]  # what `blockimpact` runs
END_TO_END_UNITS = {"wall_ref_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def load_package() -> None:
    """Make ``blockimpact`` importable from this checkout's src/ only."""
    if not (SRC / "blockimpact" / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockimpact

    if Path(blockimpact.__file__).resolve().parent != SRC / "blockimpact":
        raise SystemExit(f"error: imported blockimpact from {blockimpact.__file__}, not {SRC}")


load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import Reference, pin_to_one_cpu, scaled  # noqa: E402

WORKLOADS = tuple(workloads.SPECS)


def cli_ops(inp, seconds: float, trace: bool, workdir: Path, ref: Reference) -> list[dict]:
    """Closed loop over one CLI command; with ``trace`` every other command
    runs under worker.py with the layer spans installed."""
    verdicts: dict = {}
    ops: list[dict] = []
    gaps = [ref.sample()]
    timed = 0.0
    stdout, stderr, record = workdir / "stdout", workdir / "stderr", workdir / "record.json"
    while timed < seconds or len(ops) < workloads.MIN_OPS * (2 if trace else 1):
        traced = trace and len(ops) % 2 == 1
        if traced:
            run_id = f"{inp.workload}-seed{inp.seed}-op{len(ops)}"
            cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "cli", str(record), run_id, "--"]
        else:
            cmd = PROGRAM
        run = workloads.launch([*cmd, *workloads.cli_args(inp)], stdout, stderr)
        op = {"traced": traced, "wall_s": run.wall_s, "peak_rss_mib": run.peak_rss_mib,
              "errors": workloads.check_cli(inp, run, verdicts)}
        if traced and run.returncode == 0:
            data = json.loads(record.read_text())
            rows = stdout.read_bytes().count(b"\n") - 2 if inp.workload == "analyze-gnm" else 0
            op["spans"] = data["spans"]
            op["metrics"] = layer_metrics(data["spans"], run.wall_s, {
                **data["counters"],
                "process.gc_collections": data["gc_collections"],
                "graph.input_bytes": inp.path.stat().st_size,
                "cli.rows": rows,
                "cli.output_bytes": stdout.stat().st_size,
            })
        timed += run.wall_s
        ops.append(op)
        gaps.append(ref.sample())
    for op, wall_ref in zip(ops, scaled([op["wall_s"] for op in ops], gaps)):
        op["wall_ref_s"] = wall_ref
    return ops


def path_ops(inp, seconds: float, trace: bool, workdir: Path) -> list[dict]:
    """The library workload runs its whole loop inside one worker process, so
    that process holds nothing but the input graph."""
    record = workdir / "record.json"
    run_id = f"{inp.workload}-seed{inp.seed}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "path", str(inp.path), str(seconds),
           "1" if trace else "0", str(record), run_id]
    run = workloads.launch(cmd, workdir / "worker.out", workdir / "worker.err")
    if run.returncode != 0:
        tail = run.stderr.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"impacts-path worker exited {run.returncode}: {tail}")
    ops = json.loads(record.read_text())["ops"]
    for i, op in enumerate(ops):
        if i > 0:
            op["peak_rss_mib"] = None  # the process high-water mark after its first call
        if op["traced"] and "spans" in op:
            op["metrics"] = layer_metrics(op["spans"], op["wall_s"],
                                          {**op["counters"], "graph.input_bytes": 0})
    return ops


def layer_metrics(spans: list[dict], wall: float, counters: dict) -> dict:
    metrics = tracing.op_metrics(spans)
    metrics.update(counters)
    metrics["trace.wall_s"] = wall
    metrics["trace.coverage"] = sum(tracing.layer_self_times(metrics).values()) / wall
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: timed set-ups, then the operation loop; returns the ops and
    set-up times, with the workload input's size."""
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ref = Reference()
    try:
        inp, setup_times, setup_ref = workloads.timed_setup(name, seed, workdir, SETUP_REPEATS, ref, tiny)
        if name == "impacts-path":
            ops = path_ops(inp, seconds, trace, workdir)
        else:
            ops = cli_ops(inp, seconds, trace, workdir, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"name": name, "seed": seed, "n": inp.n, "m": inp.m, "ops": ops,
            "setup": setup_times, "setup_ref": setup_ref}


def end_to_end(result: dict) -> dict[str, float]:
    plain = [op for op in result["ops"] if not op["traced"]]
    return {
        "wall_ref_s": statistics.median(op["wall_ref_s"] for op in plain),
        "peak_rss_mib": statistics.median(
            op["peak_rss_mib"] for op in result["ops"] if op["peak_rss_mib"] is not None
        ),
        "setup_s": statistics.median(result["setup_ref"]),
    }


def plain_wall_s(result: dict) -> float:
    """Median plain wall time of the untraced operations: what the user
    waited on this machine, unscaled and too noisy to gate."""
    return statistics.median(op["wall_s"] for op in result["ops"] if not op["traced"])


def failures(result: dict) -> tuple[int, int]:
    ops = result["ops"]
    for op in ops:
        for error in op["errors"]:
            print(f"check failed ({result['name']}): {error}", file=sys.stderr)
    return len(ops), sum(1 for op in ops if op["errors"])


def header(result: dict) -> str:
    return (
        f"workload {result['name']}, seed {result['seed']}, n={result['n']} m={result['m']}, "
        f"closed loop, 1 client; python {platform.python_version()}, nproc {os.cpu_count()}"
    )


def report_end_to_end(result: dict) -> dict:
    metrics = end_to_end(result)
    attempted, failed = failures(result)
    walls = [op["wall_s"] for op in result["ops"]]
    refs = [op["wall_ref_s"] for op in result["ops"]]
    print(header(result))
    print(f"wall_s        {plain_wall_s(result):.4f} s    plain wall time, median of {len(walls)} operations, "
          f"min {min(walls):.4f}, max {max(walls):.4f}")
    print(f"wall_ref_s    {metrics['wall_ref_s']:.4f} s    in reference seconds, median of {len(refs)} operations, "
          f"min {min(refs):.4f}, max {max(refs):.4f}")
    print(f"peak_rss_mib  {metrics['peak_rss_mib']:.1f} MiB")
    print(f"setup_s       {metrics['setup_s']:.4f} s    median of {len(result['setup'])} set-ups; "
          f"plain wall time median {statistics.median(result['setup']):.4f} s")
    print(f"fail_ratio    {failed / attempted:g}        {failed} of {attempted} operations failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def report_traced(result: dict) -> dict:
    attempted, failed = failures(result)
    traced = [op for op in result["ops"] if "metrics" in op]
    if not traced:
        raise RuntimeError("no traced operation completed")
    plain_walls = [op["wall_s"] for op in result["ops"] if not op["traced"]]
    metrics = tracing.summarize([op["metrics"] for op in traced], plain_walls)
    spans_file = OUT / f"spans-{result['name']}.jsonl"
    with open(spans_file, "w") as fh:
        for op in traced:
            fh.writelines(json.dumps(span) + "\n" for span in op["spans"])
    print(header(result))
    print(f"{len(traced)} traced and {len(plain_walls)} untraced operations; spans in {spans_file}")
    print(tracing.format_table(metrics, result["n"] + result["m"]))
    for name, value in metrics.items():
        if not name.endswith("_s"):
            shown = int(value) if value == int(value) else f"{value:.4f}"
            print(f"  {name} = {shown} {tracing.PER_LAYER_UNITS[name]}")
    print(f"fail_ratio    {failed / attempted:g}        {failed} of {attempted} operations failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in metrics.items()}}


def summary(seed: int, seconds: float, tiny: bool) -> int:
    """Every end-to-end metric of every workload, with fail_ratio."""
    rows = []
    any_failed = False
    for name in WORKLOADS:
        result = measure(name, seed, seconds, trace=False, tiny=tiny)
        attempted, failed = failures(result)
        any_failed |= failed > 0
        rows.append((name, "wall_s", f"{plain_wall_s(result):.4f}", "s"))
        for metric, value in end_to_end(result).items():
            rows.append((name, metric, f"{value:.4f}", END_TO_END_UNITS[metric]))
        rows.append((name, "fail_ratio", f"{failed / attempted:g}", f"{failed}/{attempted} ops"))
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {seed}, "
          f"{seconds:g} s of operations per workload")
    for row in rows:
        print(f"{row[0]:<16} {row[1]:<13} {row[2]:>12} {row[3]}")
    return 1 if any_failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    pin_to_one_cpu()
    if args.workload == "all":
        return summary(args.seed, args.seconds, args.tiny)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    out = (report_traced if args.trace else report_end_to_end)(result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
