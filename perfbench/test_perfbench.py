"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Every workload runs traced and untraced and reports exactly the metrics
BENCHMARK.json names; a corrupted output is counted as a failed operation;
and without src/ the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from blockimpact import impact  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args, "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_reports_its_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    section = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "fail_ratio    0 " in proc.stdout
    else:
        assert (BENCH_DIR / "out" / f"spans-{workload}.jsonl").stat().st_size > 0


def test_summary_lists_every_workload():
    proc = bench("--workload", "all", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    assert "nproc" in proc.stdout
    for workload in run.WORKLOADS:
        for metric in ("wall_s", "wall_ref_s", "peak_rss_mib", "setup_s", "fail_ratio"):
            assert any(line.split()[:2] == [workload, metric] for line in proc.stdout.splitlines())


def corrupt_cli(monkeypatch, edit) -> None:
    """Make every CLI operation's output go through ``edit`` before the check."""
    real = workloads.launch

    def corrupted(argv, stdout, stderr):
        result = real(argv, stdout, stderr)
        stdout.write_text(edit(stdout.read_text()))
        return result

    monkeypatch.setattr(workloads, "launch", corrupted)


def change_one_impact(text: str) -> str:
    lines = text.split("\n")
    label, value, *rest = lines[1].split("\t")
    lines[1] = "\t".join([label, str(int(value) + 1), *rest])
    return "\n".join(lines)


def drop_one_dot_edge(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(lines[:-3] + lines[-2:])


@pytest.mark.parametrize(
    "workload, edit",
    [("analyze-gnm", change_one_impact), ("dot-cliquechain", drop_one_dot_edge)],
)
def test_corrupted_cli_output_counts_as_failed(monkeypatch, workload, edit):
    result = run.measure(workload, seed=3, seconds=0.1, trace=False, tiny=True)
    assert run.failures(result)[1] == 0
    corrupt_cli(monkeypatch, edit)
    attempted, failed = run.failures(run.measure(workload, seed=3, seconds=0.1, trace=False, tiny=True))
    assert failed == attempted > 0


def test_corrupted_path_report_counts_as_failed(monkeypatch, tmp_path):
    inp = workloads.setup("impacts-path", 3, tmp_path, tiny=True)
    real = impact.compute_all_impacts

    def corrupted(g):
        report = real(g)
        report.impact[g.n // 3] += 1
        return report

    monkeypatch.setattr(impact, "compute_all_impacts", corrupted)
    record = tmp_path / "record.json"
    worker.path_loop(inp.path, 0.05, False, record, "corrupt")
    ops = json.loads(record.read_text())["ops"]
    assert ops and all(op["errors"] for op in ops)


def test_checks_reject_other_corruptions(tmp_path):
    inp = workloads.setup("dot-cliquechain", 2, tmp_path, tiny=True)
    out = workloads.launch([*run.PROGRAM, *workloads.cli_args(inp)], tmp_path / "out", tmp_path / "err")
    text = out.stdout.read_text()
    assert workloads.check_dot(inp, text) == []
    badge = text.replace('[shape=ellipse, label="', '[shape=ellipse, label="1', 1)
    assert workloads.check_dot(inp, badge)
    unbold = text.replace(", style=bold", "", 1)
    assert workloads.check_dot(inp, unbold)

    inp = workloads.setup("analyze-gnm", 2, tmp_path, tiny=True)
    out = workloads.launch([*run.PROGRAM, *workloads.cli_args(inp)], tmp_path / "out", tmp_path / "err")
    text = out.stdout.read_text()
    assert workloads.check_analyze(inp, text) == []
    lines = text.split("\n")
    assert workloads.check_analyze(inp, "\n".join(lines[:1] + lines[2:]))
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert workloads.check_analyze(inp, "\n".join(swapped))


def test_reference_seconds_scale_by_the_kernel_time_around_each_step():
    ref = reference.REFERENCE_S
    assert reference.scaled([2.0, 3.0], [[], [ref], [ref / 2]]) == [2.0, 4.0]
    assert reference.Reference().sample()[0] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "analyze-gnm", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
