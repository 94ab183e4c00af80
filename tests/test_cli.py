import gc
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from blockimpact import (
    GeneratorSpec,
    build_block_forest,
    compute_all_impacts,
    compute_sq_sizes,
    export_dot,
    generate,
    naive_articulation_points,
    parse_edge_list,
    rerooted_at,
    sweep,
)
from blockimpact.cli import run

from _helpers import DFS_SHAPES, PATH6_TEXT, bowtie, seeded_gnm_graphs, square_rounds

SRC = Path(__file__).parent.parent / "src"
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
PATH6 = str(DATA / "path6.edges")


# Physical memory in bytes; 0 where the platform does not report it.
PHYSICAL_BYTES = (
    os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 0
)


def run_cli(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_path6_articulation_rows_only(self, capsys):
        code, out, err = run_cli(capsys, "analyze", str(DATA / "path6.edges"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label\timpact\tis_articulation\tcomponent_id\tcomponent_size"
        data = [ln.split("\t") for ln in lines[1:] if not ln.startswith("#")]
        assert [(row[0], row[1]) for row in data] == [("c", "2"), ("d", "2"), ("b", "1"), ("e", "1")]
        assert lines[-1].startswith("# n=6 m=5 a=4")

    def test_triangle_defaults_to_no_rows(self, capsys, tmp_path):
        path = tmp_path / "triangle.edges"
        path.write_text("a b\nb c\nc a\n")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2  # header + summary only
        assert lines[1] == "# n=3 m=3 a=0 max_impact=0 max_impact_label=a"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(PATH6_TEXT.encode())))
        code, out, _ = run_cli(capsys, "analyze", "-", "--all")
        assert code == 0
        assert out == (GOLDEN / "path6.tsv").read_text()

    def test_dimacs_format(self, capsys, tmp_path):
        path = tmp_path / "p.col"
        path.write_text("c path on three\np edge 3 2\ne 1 2\ne 2 3\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "dimacs")
        assert code == 0
        assert "2\t1\ttrue" in out  # the middle vertex, label "2"

    def test_dropped_note_and_quiet(self, capsys, tmp_path):
        path = tmp_path / "dups.edges"
        path.write_text("a b\nb a\na a\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "dropped 2" in err
        code, _, err = run_cli(capsys, "analyze", str(path), "--quiet")
        assert code == 0
        assert err == ""

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", str(DATA / "multiblock.edges"), "--all")
        _, second, _ = run_cli(capsys, "analyze", str(DATA / "multiblock.edges"), "--all")
        assert first == second

    def test_json_and_tsv_carry_identical_data(self, capsys):
        _, tsv_out, _ = run_cli(capsys, "analyze", str(DATA / "bowtie.edges"), "--all")
        _, json_out, _ = run_cli(
            capsys, "analyze", str(DATA / "bowtie.edges"), "--all", "--output", "json"
        )
        doc = json.loads(json_out)
        lines = tsv_out.splitlines()
        rows = [ln.split("\t") for ln in lines[1:] if not ln.startswith("#")]
        assert len(rows) == len(doc["vertices"])
        for row, vtx in zip(rows, doc["vertices"]):
            assert row[0] == vtx["label"]
            assert int(row[1]) == vtx["impact"]
            assert (row[2] == "true") == vtx["is_articulation"]
            assert int(row[3]) == vtx["component_id"]
            assert int(row[4]) == vtx["component_size"]
        summary = dict(item.split("=") for item in lines[-1][2:].split(" "))
        assert doc["summary"]["n"] == int(summary["n"])
        assert doc["summary"]["m"] == int(summary["m"])
        assert doc["summary"]["a"] == int(summary["a"])
        assert doc["summary"]["max_impact"] == int(summary["max_impact"])
        assert doc["summary"]["max_impact_label"] == summary["max_impact_label"]


class TestInputEncoding:
    DIMACS_TEXT = "c bowtie\np edge 5 6\ne 1 2\ne 1 3\ne 2 3\ne 3 4\ne 3 5\ne 4 5\n"

    @pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
    def test_bom_and_crlf_read_like_plain_text(self, capsys, tmp_path, fmt):
        text = (DATA / "bowtie.edges").read_text() if fmt == "edgelist" else self.DIMACS_TEXT
        plain = tmp_path / "plain"
        plain.write_bytes(text.encode())
        marked = tmp_path / "marked"
        marked.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        outputs = []
        for path in (plain, marked):
            for args in (("analyze", "--all"), ("analyze", "--all", "--output", "json"), ("dot",)):
                code, out, err = run_cli(capsys, *args, str(path), "--format", fmt)
                assert (code, err) == (0, "")
                outputs.append(out)
        assert outputs[:3] == outputs[3:]
        if fmt == "edgelist":
            assert outputs[0] == (GOLDEN / "bowtie.tsv").read_text()

    def test_bom_on_stdin(self, capsys, monkeypatch):
        data = b"\xef\xbb\xbf" + PATH6_TEXT.replace("\n", "\r\n").encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, _ = run_cli(capsys, "analyze", "--all")
        assert code == 0
        assert out == (GOLDEN / "path6.tsv").read_text()

    def test_undecodable_file_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"a b\n" * 5000 + b"b \xe9t\xe9\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text\n"

    def test_undecodable_stdin_is_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"p edge 2 1\ne 1 \xff\n")))
        code, _, err = run_cli(capsys, "analyze", "--format", "dimacs")
        assert code == 2
        assert err == "error: standard input: not UTF-8 text\n"

    def test_dimacs_id_that_is_not_ascii_decimal_exits_two(self, capsys, tmp_path):
        path = tmp_path / "plus.col"
        path.write_text("p edge 2 1\ne +1 2\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "--format", "dimacs")
        assert (code, out) == (2, "")
        assert err == "error: line 2: non-integer vertex id in 'e' line\n"

    def test_huge_declared_vertex_count_exits_two(self, capsys, tmp_path, monkeypatch):
        import blockimpact.graph as graph_mod

        monkeypatch.setattr(graph_mod, "MAX_VERTICES", 100)
        path = tmp_path / "huge.col"
        path.write_text("p edge 101 1\ne 1 2\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "--format", "dimacs")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: declared vertex count 101 exceeds the limit of 100")

    @pytest.mark.skipif(
        not PHYSICAL_BYTES or (2**31 - 1) * 190 <= PHYSICAL_BYTES,
        reason="2**31 - 1 declared vertices fit in physical memory here, or it is not reported",
    )
    def test_declared_count_past_physical_memory_is_refused_small(self, tmp_path):
        # A 20-byte file whose 2**31 - 1 vertices fit the 4-byte id slots but,
        # at up to ~187 bytes each, need more memory than the machine has:
        # refused on the 'p' line. The CLI is started from a small launcher,
        # as a child's peak RSS from wait4 also counts the process it was
        # forked from; a 1 GiB address-space cap turns a limit that lets the
        # count through into exit 3, not into an allocation past the
        # machine's memory.
        path = tmp_path / "huge.col"
        path.write_bytes(b"p edge 2147483647 0\n")
        assert path.stat().st_size == 20
        launcher = (
            "import os, resource, subprocess, sys\n"
            "cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL,"
            " stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=cap)\n"
            "out, err = proc.stdout.read(), proc.stderr.read()\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "proc.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(proc.returncode, len(out), usage.ru_maxrss)\n"
            "sys.stdout.write(err.decode())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher,
             sys.executable, "-m", "blockimpact.cli", "analyze", "--format", "dimacs", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        summary, *err = proc.stdout.splitlines()
        code, out_bytes, maxrss_kib = map(int, summary.split())
        assert (code, out_bytes) == (2, 0)
        assert err == ["error: line 1: declared vertex count 2147483647 exceeds the limit of "
                       f"{PHYSICAL_BYTES // 190}"]
        assert maxrss_kib < 100 * 1024  # ru_maxrss is in KiB on Linux


class TestOutputEncoding:
    @pytest.mark.parametrize("command", ["analyze", "dot"])
    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path, command):
        path = tmp_path / "cjk.edges"
        path.write_text("日 本\n本 x\n", encoding="utf-8")
        outputs = []
        for encoding in ("utf-8", "latin-1"):
            proc = subprocess.run(
                [sys.executable, "-m", "blockimpact.cli", command, str(path)],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": encoding},
                timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "本".encode("utf-8") in outputs[1]


class TestReportOrder:
    @staticmethod
    def tied_graph_file(tmp_path) -> Path:
        # Stars and paths under shuffled numeric labels: many equal impacts,
        # and labels whose string order differs from their numeric order.
        rng = random.Random(31)
        names = [str(i) for i in range(300)]
        rng.shuffle(names)
        lines, i = [], 0
        while i + 6 <= len(names):
            a, b, c, d, e, f = names[i : i + 6]
            lines += [f"{a} {b}", f"{a} {c}", f"{a} {d}", f"{d} {e}", f"{e} {f}"]
            i += 6
        lines += [f"v {x}" for x in names[i:]]
        rng.shuffle(lines)
        path = tmp_path / "tied.edges"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("all_vertices", [True, False])
    def test_tsv_and_json_order(self, capsys, tmp_path, all_vertices):
        path = self.tied_graph_file(tmp_path)
        with open(path) as fh:
            report = compute_all_impacts(parse_edge_list(fh).graph)
        impact, labels = report.impact, report.labels
        want = sorted(range(report.n), key=lambda i: (-impact[i], labels[i]))
        if not all_vertices:
            want = [i for i in want if report.is_articulation[i]]
        assert len(set(impact[i] for i in want)) < len(want) // 10  # many ties
        flags = ("--all",) if all_vertices else ()
        _, tsv, _ = run_cli(capsys, "analyze", str(path), *flags)
        _, doc, _ = run_cli(capsys, "analyze", str(path), *flags, "--output", "json")
        tsv_rows = [ln.split("\t") for ln in tsv.splitlines()[1:-1]]
        assert tsv_rows == [
            [labels[i], str(impact[i]), "true" if impact[i] else "false",
             str(report.component_id[i]), str(report.component_size[i])]
            for i in want
        ]
        assert [v["label"] for v in json.loads(doc)["vertices"]] == [labels[i] for i in want]

    # Labels json.dumps must escape: quote, backslash, non-ASCII (one outside
    # the BMP, written as a surrogate pair) and control characters.
    AWKWARD_LABELS = ['q"t', "b\\s", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600", "c\x01", "\x7f", "\\\""]

    @pytest.mark.parametrize("all_vertices", [True, False])
    @pytest.mark.parametrize("shape", ["path", "triangle"])
    def test_json_bytes_equal_json_dumps(self, capsys, tmp_path, all_vertices, shape):
        labels = self.AWKWARD_LABELS if shape == "path" else self.AWKWARD_LABELS[:3]
        pairs = list(zip(labels, labels[1:]))
        if shape == "triangle":
            pairs.append((labels[2], labels[0]))
        path = tmp_path / "awkward.edges"
        path.write_text("".join(f"{a} {b}\n" for a, b in pairs), encoding="utf-8")
        report = compute_all_impacts(parse_edge_list(path.read_text(encoding="utf-8")).graph)
        assert report.labels == labels
        flags = ("--all",) if all_vertices else ()
        code, doc, _ = run_cli(capsys, "analyze", str(path), *flags, "--output", "json")
        assert code == 0
        assert doc == self.expected_outputs(report, all_vertices)["json"]

    @staticmethod
    def expected_outputs(report, all_vertices) -> dict[str, str]:
        """The TSV and JSON reports, built row by row and by json.dumps."""
        order = sorted(range(report.n), key=lambda i: (-report.impact[i], report.labels[i]))
        if not all_vertices:
            order = [i for i in order if report.is_articulation[i]]
        summary = {"n": report.n, "m": report.m, "a": report.articulation_count,
                   "max_impact": report.max_impact}
        if report.max_impact_label is not None:
            summary["max_impact_label"] = report.max_impact_label
        data = {
            "summary": summary,
            "vertices": [
                {
                    "label": report.labels[i],
                    "impact": report.impact[i],
                    "is_articulation": report.is_articulation[i],
                    "component_id": report.component_id[i],
                    "component_size": report.component_size[i],
                }
                for i in order
            ],
        }
        tsv = ["label\timpact\tis_articulation\tcomponent_id\tcomponent_size"]
        tsv += [
            f"{label}\t{impact}\t{str(flag).lower()}\t{cid}\t{size}"
            for label, impact, flag, cid, size in (row.values() for row in data["vertices"])
        ]
        tsv.append("# " + " ".join(f"{k}={v}" for k, v in summary.items()))
        return {"tsv": "\n".join(tsv) + "\n", "json": json.dumps(data, indent=2) + "\n"}

    @pytest.mark.parametrize(
        "output, all_vertices",
        [("tsv", True), ("json", True), ("tsv", False), ("json", False)],
        ids=["tsv", "json", "tsv-articulation", "json-articulation"],
    )
    def test_rows_written_in_bounded_slices(self, monkeypatch, tmp_path, output, all_vertices):
        # With three rows per write, paths on 0-7 vertices give 0-7 rows with
        # --all and 0-5 articulation rows without: no rows, fewer than a
        # slice, exactly one and two slices, and a short last slice.
        import blockimpact.forest as forest_mod

        monkeypatch.setattr(forest_mod, "LINES_PER_JOIN", 3)
        row_mark = "\t" if output == "tsv" else '"label": '
        flags = ["--all"] if all_vertices else []
        for n in (0, 1, 2, 3, 4, 5, 6, 7):
            path = tmp_path / f"path{n}.edges"
            text = "v 0\n" if n == 1 else "".join(f"{i} {i + 1}\n" for i in range(n - 1))
            path.write_text(text)
            writes: list[str] = []
            monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
            assert run(["analyze", str(path), *flags, "--output", output]) == 0
            report = compute_all_impacts(parse_edge_list(text).graph)
            assert report.n == n
            assert "".join(writes) == self.expected_outputs(report, all_vertices)[output], n
            rows_per_write = [sum(row_mark in ln for ln in w.splitlines()) for w in writes]
            assert max(rows_per_write) <= 3, (n, rows_per_write)


class TestCheck:
    def test_ok_on_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(DATA / "multiblock.edges"))
        assert code == 0
        assert out == "OK\n"

    def test_sweep_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--sweep", "500")
        assert code == 0
        assert out == "OK (500 graphs)\n"

    @pytest.mark.parametrize(
        "col", ["impact", "is_articulation", "component_id", "component_size"]
    )
    def test_mismatch_exits_one(self, capsys, monkeypatch, col):
        # One column of the naive report skewed at every vertex: the first
        # vertex's mismatch names that column.
        from dataclasses import replace

        import blockimpact.cli as cli_mod
        from blockimpact import naive_all_impacts as real_naive

        def skewed(g):
            report = real_naive(g)
            values = getattr(report, col)
            skew = [not x for x in values] if col == "is_articulation" else [x + 1 for x in values]
            return replace(report, **{col: skew})

        monkeypatch.setattr(cli_mod, "naive_all_impacts", skewed)
        code, out, _ = run_cli(capsys, "check", str(DATA / "path6.edges"))
        assert code == 1
        assert out.startswith(f"mismatch: vertex 'a': fast {col}="), out
        assert f", naive {col}=" in out, out

    def test_bad_sweep_value(self, capsys):
        code, _, err = run_cli(capsys, "check", "--sweep", "0")
        assert code == 2
        assert "error" in err

    def test_input_beyond_the_oracle_exits_two(self, capsys, tmp_path):
        # n(n + m) = 4.0e10 units: about 2.8 h of removal oracle.
        path = tmp_path / "big.dimacs"
        path.write_text("p edge 200000 1\ne 1 2\n")
        code, out, err = run_cli(capsys, "check", "--format", "dimacs", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n=200000, m=1 " in err and "about 2.8 h" in err

    def test_oracle_limit_is_inclusive(self, capsys, monkeypatch):
        import blockimpact.cli as cli_mod

        g = parse_edge_list((DATA / "multiblock.edges").read_text()).graph
        units = g.n * (g.n + g.m)
        monkeypatch.setattr(cli_mod, "CHECK_MAX_UNITS", units)
        assert run_cli(capsys, "check", str(DATA / "multiblock.edges"))[:2] == (0, "OK\n")
        monkeypatch.setattr(cli_mod, "CHECK_MAX_UNITS", units - 1)
        code, out, err = run_cli(capsys, "check", str(DATA / "multiblock.edges"))
        assert (code, out) == (2, "")
        assert f"n={g.n}, m={g.m} " in err

    def test_sweep_beyond_the_oracle_exits_two(self, capsys, monkeypatch):
        # --n-max 100000 allows a complete graph of 5.0e9 edges, 5.0e14
        # units: refused before any graph is drawn.
        import blockimpact.cli as cli_mod

        def no_graph(spec):
            raise AssertionError(f"generated {spec}")

        monkeypatch.setattr(cli_mod, "generate", no_graph)
        code, out, err = run_cli(capsys, "check", "--sweep", "1", "--n-max", "100000")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n=100000, m=4999950000 " in err and "(limit 2.4e+09 units)" in err

    def test_sweep_limit_counts_the_complete_graph(self, capsys, monkeypatch):
        # --n-max 5 allows K5: 5 * (5 + 10) = 75 units.
        import blockimpact.cli as cli_mod

        monkeypatch.setattr(cli_mod, "CHECK_MAX_UNITS", 75)
        assert run_cli(capsys, "check", "--sweep", "3", "--n-max", "5")[:2] == (0, "OK (3 graphs)\n")
        monkeypatch.setattr(cli_mod, "CHECK_MAX_UNITS", 74)
        code, out, err = run_cli(capsys, "check", "--sweep", "3", "--n-max", "5")
        assert (code, out) == (2, "")
        assert "n=5, m=10 " in err


class TestDot:
    def test_bowtie_golden(self, capsys):
        code, out, _ = run_cli(capsys, "dot", str(DATA / "bowtie.edges"))
        assert code == 0
        assert out == (GOLDEN / "bowtie.dot").read_text()

    def test_single_edge_counts(self, capsys, tmp_path):
        path = tmp_path / "e.edges"
        path.write_text("u w\n")
        code, out, _ = run_cli(capsys, "dot", str(path))
        assert code == 0
        nodes = [ln for ln in out.splitlines() if re.match(r"^  [sr]\d+ \[", ln)]
        edges = [ln for ln in out.splitlines() if " -- " in ln]
        assert len(nodes) == 3 and len(edges) == 2
        assert sum("shape=box" in ln for ln in nodes) == 2
        assert 'label="2"' in next(ln for ln in nodes if "ellipse" in ln)

    def test_singleton_vertex(self, capsys, tmp_path):
        path = tmp_path / "one.edges"
        path.write_text("v solo\n")
        code, out, _ = run_cli(capsys, "dot", str(path))
        assert code == 0
        assert out.count("shape=box") == 1
        assert " -- " not in out

    def test_statement_counts_and_grammar(self):
        g = bowtie()
        bf = build_block_forest(g)
        text = export_dot(g.labels, bf, compute_sq_sizes(bf))
        lines = text.splitlines()
        assert lines[0] == "graph block_forest {"
        assert lines[-1] == "}"
        node_re = re.compile(r'^  [sr]\d+ \[shape=(box|ellipse)(, style=bold)?, label=".*"\];$')
        edge_re = re.compile(r"^  s\d+ -- r\d+;$")
        nodes = [ln for ln in lines[1:-1] if node_re.match(ln)]
        edges = [ln for ln in lines[1:-1] if edge_re.match(ln)]
        assert len(nodes) + len(edges) == len(lines) - 2  # nothing unaccounted
        assert len(nodes) == g.n + bf.num_rounds
        assert len(edges) == len(bf.member_flat)

    def test_text_built_from_bounded_joins(self, monkeypatch):
        # With three lines per join, DOT texts of 2, 3, 4, 6, 7, 9 and 11
        # lines, and the bowtie's, equal the text built line by line, and
        # each text of 4 or more lines is built from joins of at most 3.
        import blockimpact.forest as forest_mod

        joins = []  # the lines of each slice export_dot takes, in order

        def recording_islice(iterable, *args):
            joins.append(list(islice(iterable, *args)))
            return iter(joins[-1])

        monkeypatch.setattr(forest_mod, "LINES_PER_JOIN", 3)
        monkeypatch.setattr(forest_mod, "islice", recording_islice)
        texts = ["", "v a\n", "v a\nv b\n", "v a\nv b\nv c\nv d\n", "a b\n",
                 "a b\nb c\nc a\n", "a b\nb c\n", 'q"t b\\s\n']
        for g in [parse_edge_list(t).graph for t in texts] + [bowtie()]:
            bf = build_block_forest(g)
            sizes = compute_sq_sizes(bf)
            rounds = square_rounds(bf)
            want = ["graph block_forest {"]
            for v in range(g.n):
                bold = ", style=bold" if len(rounds[v]) >= 2 else ""
                label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
                want.append(f'  s{v} [shape=box{bold}, label="{label}"];')
            for r in range(bf.num_rounds):
                want.append(f'  r{r} [shape=ellipse, label="{sizes[g.n + r]}"];')
            for r in range(bf.num_rounds):
                want += [f"  s{v} -- r{r};" for v in bf.round_members(r)]
            want.append("}")
            joins.clear()
            text = export_dot(g.labels, bf, sizes)
            assert text == "".join(ln + "\n" for ln in want), g.labels
            made = [join for join in joins if join]
            assert "".join(map("".join, made)) == text
            assert all(len(join) <= 3 for join in made)
            assert len(made) > 1 or len(want) < 4, g.labels

    def test_text_written_in_bounded_slices(self, monkeypatch):
        # The text layer encodes one slice per write, never a bytes copy of
        # the whole text: every write holds at most CHARS_PER_WRITE characters.
        import blockimpact.cli as cli_mod

        g = bowtie()
        bf = build_block_forest(g)
        text = export_dot(g.labels, bf, compute_sq_sizes(bf))
        for limit in (1, 50, len(text) // 2, len(text) - 1):
            monkeypatch.setattr(cli_mod, "CHARS_PER_WRITE", limit)
            writes: list[str] = []
            monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
            assert run(["dot", str(DATA / "bowtie.edges")]) == 0
            assert "".join(writes) == text
            assert len(writes) >= 2 and max(map(len, writes)) <= limit, (limit, len(writes))

    def test_bold_squares_are_the_articulation_points(self):
        # Under the built rooting and every re-rooting at a round; the sparse
        # gnm graphs (m = n - 1) are the ones with many cut vertices.
        rng = random.Random(4242)
        graphs = seeded_gnm_graphs(40, 40, rng)
        graphs += [generate(GeneratorSpec("gnm", n, m=n - 1, seed=rng.randrange(2**63)))
                   for n in range(2, 100, 3)]
        graphs += [shape(size) for shape in DFS_SHAPES.values() for size in (3, 8, 13, 40)]
        bold = re.compile(r"^  s(\d+) \[shape=box, style=bold,", re.M)
        for g in graphs:
            bf = build_block_forest(g)
            want = naive_articulation_points(g)
            for rooted in [bf] + [rerooted_at(bf, g.n + r) for r in range(bf.num_rounds)]:
                text = export_dot(g.labels, rooted, compute_sq_sizes(rooted))
                assert {int(v) for v in bold.findall(text)} == want, g.edges

    def test_label_escaping(self, capsys, tmp_path):
        path = tmp_path / "weird.edges"
        path.write_text('he"llo wor\\ld\n')
        code, out, _ = run_cli(capsys, "dot", str(path))
        assert code == 0
        assert 'label="he\\"llo"' in out
        assert 'label="wor\\\\ld"' in out

    @pytest.mark.skipif(shutil.which("dot") is None, reason="graphviz not installed")
    def test_graphviz_accepts_output(self, tmp_path):
        g = bowtie()
        bf = build_block_forest(g)
        text = export_dot(g.labels, bf, compute_sq_sizes(bf))
        proc = subprocess.run(["dot", "-Tcanon"], input=text, capture_output=True, text=True)
        assert proc.returncode == 0


class TestBench:
    def test_small_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "path", "--sizes", "64,128", "--repeats", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family\tn\tm\tseconds\tns_per_element"
        assert len(lines) == 3
        for ln, n in zip(lines[1:], (64, 128)):
            family, n_s, m_s, sec, ns = ln.split("\t")
            assert family == "path" and int(n_s) == n and int(m_s) == n - 1
            assert float(sec) >= 0 and float(ns) >= 0

    def test_single_vertex_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--family", "path", "--sizes", "1")
        assert code == 0
        row = out.splitlines()[1].split("\t")
        assert row[1] == "1" and row[2] == "0"
        assert float(row[3]) >= 0

    def test_gnm_density(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "gnm", "--sizes", "100", "--m-per-n", "2.0"
        )
        assert code == 0
        assert out.splitlines()[1].split("\t")[2] == "200"

    def test_infeasible_family_parameters(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--family", "clique-chain", "--sizes", "6", "--k", "3"
        )
        assert code == 2
        assert "error" in err

    def test_size_past_four_byte_ids_is_one_line(self, capsys):
        from blockimpact.graph import MAX_VERTICES

        code, out, err = run_cli(capsys, "bench", "--sizes", "2147483648")
        assert code == 2
        assert out == ""
        assert err == f"error: vertex count 2147483648 exceeds the limit of {MAX_VERTICES}\n"

    def test_gnm_size_past_float_range_is_one_line(self, capsys):
        from blockimpact.graph import MAX_VERTICES

        big = "1" + "0" * 400
        code, out, err = run_cli(capsys, "bench", "--family", "gnm", "--sizes", big)
        assert code == 2
        assert out == ""
        assert err == f"error: vertex count {big} exceeds the limit of {MAX_VERTICES}\n"

    @pytest.mark.parametrize("m_per_n", ["10", "1e308"])
    def test_gnm_density_caps_at_the_complete_graph(self, capsys, m_per_n):
        # 1e308 * 4 overflows to inf; the cap comes before the rounding.
        code, out, err = run_cli(
            capsys, "bench", "--family", "gnm", "--sizes", "4", "--m-per-n", m_per_n
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 2 and lines[1].split("\t")[:3] == ["gnm", "4", "6"]
        assert sweep("gnm", [4], m_per_n=float(m_per_n))[0].m == 6

    def test_sizes_are_checked_before_repeats(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--sizes", "0", "--repeats", "0")
        assert code == 2
        assert out == ""
        assert err == "error: sizes must be >= 1, got 0\n"

    def test_bad_sizes_string(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--sizes", "12,oops")
        assert code == 2
        assert "bad --sizes" in err

    @pytest.mark.parametrize(
        "args, message",
        [(("--sizes", "8,0"), "sizes must be >= 1"), (("--repeats", "0"), "repeats must be >= 1")],
    )
    def test_nonpositive_sizes_and_repeats(self, capsys, args, message):
        code, out, err = run_cli(capsys, "bench", *args)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-1"])
    def test_gnm_density_not_finite_or_negative(self, capsys, value):
        code, out, err = run_cli(
            capsys, "bench", "--family", "gnm", "--sizes", "10", "--m-per-n", value
        )
        assert code == 2
        assert out == ""
        assert "m-per-n must be a finite number >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("m_per_n", [float("inf"), float("nan"), -1.0])
    def test_sweep_rejects_gnm_density(self, m_per_n):
        with pytest.raises(ValueError, match="m-per-n must be a finite number >= 0"):
            sweep("gnm", [10], m_per_n=m_per_n)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_timer_pauses_gc_and_restores_it(self, monkeypatch, enabled):
        import blockimpact.bench as bench_mod

        gc_during = []
        monkeypatch.setattr(
            bench_mod, "compute_all_impacts", lambda g: gc_during.append(gc.isenabled())
        )
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            bench_mod.time_all_impacts(bowtie(), repeats=3)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert gc_during == [False] * 3


class TestExitCodes:
    def test_unreadable_input(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/file.edges")
        assert code == 2
        assert "error" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b c\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "line 1" in err

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "analyze", "--no-such-flag")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_program_error_is_not_bad_input(self, monkeypatch):
        import blockimpact.cli as cli_mod

        def broken(g):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli_mod, "compute_all_impacts", broken)
        with pytest.raises(ValueError, match="internal failure"):
            run(["analyze", str(DATA / "path6.edges")])

    @pytest.mark.parametrize("output", ["tsv", "json"])
    def test_closed_stdout_pipe_exits_quietly(self, tmp_path, output):
        # About 1 MB of rows (TSV; JSON ~8 MB), far more than a pipe buffers,
        # so the writer is still writing its row slices when the reader goes
        # away.
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(50_000)))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "blockimpact.cli", "analyze", "--all", "--output", output,
             str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first_line = {"tsv": b"label\timpact\t", "json": b"{\n"}[output]
        assert proc.stdout.readline().startswith(first_line)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""

    @staticmethod
    def run_with_closed(fd, *args):
        """Run the CLI as a program started with descriptor ``fd`` closed."""
        return subprocess.run(
            [sys.executable, "-m", "blockimpact.cli", *args],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: os.close(fd),  # runs in the child only, before it execs
            timeout=60,
        )

    @pytest.mark.parametrize("command", ["analyze", "check", "dot"])
    def test_closed_stdin_is_one_line_and_exit_2(self, command):
        proc = self.run_with_closed(0, command)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: standard input is closed\n"

    @pytest.mark.parametrize(
        "args",
        [["analyze", PATH6], ["check", PATH6], ["dot", PATH6], ["check", "--sweep", "2"],
         ["bench", "--sizes", "4"]],
        ids=["analyze", "check", "dot", "check-sweep", "bench"],
    )
    def test_closed_stdout_is_one_line_and_exit_2(self, args):
        proc = self.run_with_closed(1, *args)
        assert proc.returncode == 2
        assert proc.stderr == b"error: standard output is closed\n"

    @pytest.mark.parametrize(
        "args, head", [(["analyze", PATH6], b"label\t"), (["check", "--sweep", "2"], b"OK (2 graphs)")]
    )
    def test_closed_stdin_is_fine_when_not_read(self, args, head):
        proc = self.run_with_closed(0, *args)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(head)

    @pytest.mark.parametrize("fd2", ["closed", "read-only"])
    @pytest.mark.parametrize(
        "args, code",
        [(["analyze", "/nonexistent"], 2), (["analyze", "LOOP"], 0), (["dot", "LOOP"], 0),
         (["check", "--sweep", "0"], 2), (["bench", "--sizes", "0"], 2), (["analyze", "--bogus"], 2)],
        ids=["missing-file", "analyze-note", "dot-note", "check-sweep-0", "bench-sizes-0", "bad-flag"],
    )
    def test_unwritable_stderr_keeps_exit_code_and_stdout(self, tmp_path, fd2, args, code):
        """With descriptor 2 closed at start or open read-only, every run
        exits as it does with stderr open and writes the same stdout bytes:
        none of its ``note:``, ``error:`` or usage lines land there."""
        loop = tmp_path / "loop.edges"
        loop.write_text("a a\na b\nb c\n")  # one self-loop: a ``note:`` line
        argv = [sys.executable, "-m", "blockimpact.cli",
                *(str(loop) if arg == "LOOP" else arg for arg in args)]
        common = {"stdin": subprocess.DEVNULL, "stdout": subprocess.PIPE, "timeout": 60,
                  "env": {**os.environ, "PYTHONPATH": str(SRC)}}
        reference = subprocess.run(argv, stderr=subprocess.PIPE, **common)
        assert reference.returncode == code
        assert reference.stderr.startswith((b"note:", b"error:", b"usage:"))
        if fd2 == "closed":
            proc = subprocess.run(argv, preexec_fn=lambda: os.close(2), **common)
        else:
            with open(os.devnull) as read_only:
                proc = subprocess.run(argv, stderr=read_only, **common)
        assert (proc.returncode, proc.stdout) == (code, reference.stdout)

    @pytest.mark.parametrize("kind", ["dimacs-declared", "edgelist"])
    def test_out_of_memory_is_one_line_and_exit_3(self, tmp_path, kind):
        resource = pytest.importorskip("resource")
        limit = 128 << 20  # bytes of address space; the interpreter starts in ~20 MiB

        def cap_child():  # runs in the child only, before it execs
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        if kind == "dimacs-declared":
            # Within the vertex limit, but its CSR alone needs GiBs.
            from blockimpact.graph import MAX_VERTICES

            path = tmp_path / "huge.dimacs"
            path.write_text(f"p edge {MAX_VERTICES} 0\n")
            args = ["--format", "dimacs", str(path)]
        else:
            # 500 000 disjoint edges: ~218 MiB peak RSS uncapped.
            path = tmp_path / "disjoint.edges"
            path.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(500_000)))
            args = ["--all", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "blockimpact.cli", "analyze", *args],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=cap_child,
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == b"error: out of memory\n"
        assert b"Traceback" not in proc.stdout + proc.stderr


class TestGolden:
    @pytest.mark.parametrize("name", ["path6", "bowtie", "pendant_triangle", "multiblock"])
    def test_tsv_json_dot(self, capsys, name):
        src = str(DATA / f"{name}.edges")
        for args, suffix in [
            (("analyze", src, "--all"), "tsv"),
            (("analyze", src, "--all", "--output", "json"), "json"),
            (("dot", src), "dot"),
        ]:
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            assert out == (GOLDEN / f"{name}.{suffix}").read_text(), (name, suffix)

    def test_pendant_corner_rule_in_golden(self):
        # The bridge endpoint x hangs by its only edge: never an articulation
        # point, while the attachment vertex a is one.
        tsv = (GOLDEN / "pendant_triangle.tsv").read_text()
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in tsv.splitlines()[1:] if "\t" in ln}
        assert rows["x"][1] == "0" and rows["x"][2] == "false"
        assert rows["a"][1] == "1" and rows["a"][2] == "true"
