"""Command-line front end.

Subcommands: ``analyze`` prints the impact report, ``check`` cross-checks the
fast path against the removal oracle, ``dot`` emits the block forest as
Graphviz text, ``bench`` runs the scaling harness. Exit codes: 0 success
(also when the reader closes stdout early, as ``| head`` does), 1 check
mismatch, 2 usage or input errors (among them an input too large for
``check``'s oracle), 3 out of memory. Any other exception is a program fault
and is not reported as bad input.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
from itertools import compress
from typing import TextIO

from .bench import bench_graph, bench_row, format_rows
from .dot import export_dot
from .forest import build_block_forest
from .graph import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    Graph,
    ParseError,
    generate,
    parse_dimacs,
    parse_edge_list,
)
from .impact import ImpactReport, compute_all_impacts, compute_sq_sizes
from .oracle import naive_all_impacts

# Report rows per out.write call. No string of all the rows is built, so the
# output takes at most one slice's text beyond the report itself.
ROWS_PER_WRITE = 4096

# Characters per out.write call for the DOT text, so the text layer encodes
# one slice at a time, never a bytes copy of the whole text.
CHARS_PER_WRITE = 1 << 16

# The removal oracle behind ``check`` costs up to about ORACLE_NS_PER_UNIT
# nanoseconds per unit of n(n + m) (190-250 ns measured on gnm, path, star,
# clique-chain and balanced-tree graphs); above CHECK_MAX_UNITS units (about
# ten minutes at that rate) ``check`` refuses the input instead of running
# for hours.
ORACLE_NS_PER_UNIT = 250
CHECK_MAX_UNITS = 24 * 10**8

TSV_COLUMNS = ("label", "impact", "is_articulation", "component_id", "component_size")

# One vertex of the JSON report, byte for byte as json.dumps(..., indent=2)
# lays it out inside the "vertices" list; the label goes in JSON-encoded.
JSON_ROW = (
    "    {\n"
    '      "label": %s,\n'
    '      "impact": %d,\n'
    '      "is_articulation": %s,\n'
    '      "component_id": %d,\n'
    '      "component_size": %d\n'
    "    }"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockimpact",
        description="Per-vertex impact of removing articulation points, in linear time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-", help="graph file, or '-' for stdin")
        p.add_argument(
            "--format",
            choices=("edgelist", "dimacs"),
            default="edgelist",
            help="input format (default: edgelist)",
        )
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")

    p = sub.add_parser("analyze", help="compute and print the impact report")
    add_input_opts(p)
    p.add_argument(
        "--output", choices=("tsv", "json"), default="tsv", help="output format (default: tsv)"
    )
    p.add_argument(
        "--all",
        dest="all_vertices",
        action="store_true",
        help="report every vertex, not only articulation points",
    )

    p = sub.add_parser("check", help="compare the fast path against the removal oracle")
    add_input_opts(p)
    p.add_argument(
        "--sweep",
        type=int,
        metavar="COUNT",
        help="ignore the input and instead check COUNT random gnm graphs",
    )
    p.add_argument("--n-max", type=int, default=60, help="max vertices per sweep graph")
    p.add_argument("--seed", type=int, default=0, help="sweep RNG seed")

    p = sub.add_parser("dot", help="emit the block forest as Graphviz DOT")
    add_input_opts(p)

    p = sub.add_parser("bench", help="time compute_all_impacts over a size sweep")
    p.add_argument("--family", choices=GENERATOR_FAMILIES, default="path")
    p.add_argument(
        "--sizes",
        default="32768,65536,131072",
        help="comma-separated vertex counts (default: 32768,65536,131072)",
    )
    p.add_argument("--m-per-n", type=float, default=2.0, help="edge density for gnm")
    p.add_argument("--k", type=int, help="family parameter (branching / clique size)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1, help="median over this many runs per size")
    return parser


def _load_graph(args: argparse.Namespace, err: TextIO) -> Graph:
    """Parse the input straight off the open file (or stdin), line by line.

    Input is UTF-8; a leading byte order mark is skipped.
    """
    parse = parse_dimacs if args.format == "dimacs" else parse_edge_list
    try:
        if args.input == "-":
            stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
            try:
                graph, dropped = parse(stdin)
            finally:
                stdin.detach()  # leave sys.stdin's buffer open
        else:
            with open(args.input, "r", encoding="utf-8-sig") as fh:
                graph, dropped = parse(fh)
    except UnicodeDecodeError:
        name = "standard input" if args.input == "-" else args.input
        raise ParseError(f"{name}: not UTF-8 text") from None
    if dropped and not args.quiet:
        print(f"note: dropped {dropped} self-loop/duplicate line(s)", file=err)
    return graph


def _summary_pairs(report: ImpactReport) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [
        ("n", report.n),
        ("m", report.m),
        ("a", report.articulation_count),
        ("max_impact", report.max_impact),
    ]
    if report.max_impact_label is not None:
        pairs.append(("max_impact_label", report.max_impact_label))
    return pairs


def _report_order(report: ImpactReport, labels: list[str], all_vertices: bool) -> list[int]:
    """Vertex ids by decreasing impact, ties by label (``labels``, the
    report's labels as a list); only articulation points unless
    ``all_vertices``. Two stable sorts over the columns."""
    ids = range(report.n) if all_vertices else compress(range(report.n), report.is_articulation)
    order = sorted(ids, key=labels.__getitem__)
    order.sort(key=report.impact.__getitem__, reverse=True)
    return order


def _cmd_analyze(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    report = compute_all_impacts(_load_graph(args, err))
    labels = list(report.labels)  # made once if made on read; read per row
    order = _report_order(report, labels, args.all_vertices)
    impact = report.impact
    flag = report.is_articulation
    comp_id = report.component_id
    comp_size = report.component_size
    slices = (order[lo:lo + ROWS_PER_WRITE] for lo in range(0, len(order), ROWS_PER_WRITE))
    if args.output == "tsv":
        summary = " ".join(f"{k}={v}" for k, v in _summary_pairs(report))
        out.write("\t".join(TSV_COLUMNS) + "\n")
        for part in slices:
            out.write("".join([
                f"{labels[v]}\t{impact[v]}\t{'true' if flag[v] else 'false'}"
                f"\t{comp_id[v]}\t{comp_size[v]}\n"
                for v in part
            ]))
        out.write(f"# {summary}\n")
    else:
        # The bytes json.dumps(data, indent=2) writes, without its
        # pure-Python indenting encoder.
        dumps = json.dumps
        summary = ",\n".join(f"    {dumps(k)}: {dumps(v)}" for k, v in _summary_pairs(report))
        out.write(f'{{\n  "summary": {{\n{summary}\n  }},\n  "vertices": [')
        lead = "\n"  # before the first row; later slices go on after a ","
        for part in slices:
            out.write(lead + ",\n".join([
                JSON_ROW % (dumps(labels[v]), impact[v], "true" if flag[v] else "false",
                            comp_id[v], comp_size[v])
                for v in part
            ]))
            lead = ",\n"
        out.write("\n  ]\n}\n" if order else "]\n}\n")
    return 0


def _first_mismatch(fast: ImpactReport, naive: ImpactReport) -> str | None:
    for i in range(fast.n):
        for col in ("impact", "is_articulation", "component_id", "component_size"):
            got = getattr(fast, col)[i]
            want = getattr(naive, col)[i]
            if got != want:
                return f"vertex {fast.labels[i]!r}: fast {col}={got}, naive {col}={want}"
    if fast.articulation_count != naive.articulation_count:
        return f"articulation count: fast {fast.articulation_count}, naive {naive.articulation_count}"
    return None


def _refused_by_oracle_limit(n: int, m: int, err: TextIO) -> bool:
    """Whether the removal oracle on n vertices and m edges is over
    CHECK_MAX_UNITS; if so, one line on ``err`` says so."""
    units = n * (n + m)
    if units <= CHECK_MAX_UNITS:
        return False
    hours = units * ORACLE_NS_PER_UNIT / 3.6e12
    print(
        f"error: check runs the O(n(n+m)) removal oracle: n={n}, m={m} would take"
        f" about {hours:.1f} h at ~{ORACLE_NS_PER_UNIT} ns per n(n+m) unit"
        f" (limit {CHECK_MAX_UNITS:.1e} units)",
        file=err,
    )
    return True


def _cmd_check(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.sweep is not None:
        if args.sweep < 1 or args.n_max < 1:
            print("error: --sweep and --n-max must be positive", file=err)
            return 2
        # The largest graph a sweep may draw is complete.
        if _refused_by_oracle_limit(args.n_max, args.n_max * (args.n_max - 1) // 2, err):
            return 2
        rng = random.Random(args.seed)
        for i in range(args.sweep):
            n = rng.randint(1, args.n_max)
            m = rng.randint(0, n * (n - 1) // 2)
            g = generate(GeneratorSpec("gnm", n, m=m, seed=rng.randrange(2**63)))
            mismatch = _first_mismatch(compute_all_impacts(g), naive_all_impacts(g))
            if mismatch:
                print(f"mismatch (graph {i}, n={n}, m={m}): {mismatch}", file=out)
                return 1
        print(f"OK ({args.sweep} graphs)", file=out)
        return 0
    g = _load_graph(args, err)
    if _refused_by_oracle_limit(g.n, g.m, err):
        return 2
    mismatch = _first_mismatch(compute_all_impacts(g), naive_all_impacts(g))
    if mismatch:
        print(f"mismatch: {mismatch}", file=out)
        return 1
    print("OK", file=out)
    return 0


def _cmd_dot(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_graph(args, err)
    bf = build_block_forest(g)
    sizes = compute_sq_sizes(bf)
    text = export_dot(g, bf, sizes)
    for lo in range(0, len(text), CHARS_PER_WRITE):
        out.write(text[lo:lo + CHARS_PER_WRITE])
    return 0


def _cmd_bench(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        print(f"error: bad --sizes value {args.sizes!r}", file=err)
        return 2
    if not sizes:
        print("error: --sizes is empty", file=err)
        return 2
    if min(sizes) < 1:
        print(f"error: sizes must be >= 1, got {min(sizes)}", file=err)
        return 2
    if args.repeats < 1:
        print("error: repeats must be >= 1", file=err)
        return 2
    rows = []
    for n in sizes:
        try:
            g = bench_graph(args.family, n, m_per_n=args.m_per_n, k=args.k, seed=args.seed)
        except ValueError as exc:  # family parameters the generator rejects
            print(f"error: {exc}", file=err)
            return 2
        rows.append(bench_row(args.family, g, args.repeats))
    out.write(format_rows(rows))
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    handlers = {
        "analyze": _cmd_analyze,
        "check": _cmd_check,
        "dot": _cmd_dot,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args, sys.stdout, sys.stderr)
    except BrokenPipeError:
        # The reader went away (``| head``): stop quietly. Point stdout's
        # descriptor at devnull so the flush at interpreter exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # Out of memory. The message is written only once the handler is left:
    # the traceback, and through its frames whatever the failed command had
    # built, is released there.
    print("error: out of memory", file=sys.stderr)
    return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
