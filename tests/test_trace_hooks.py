"""The benchmark's tracer (``perfbench/tracing.py``) rebinds package entry
points by name. Entering and leaving it here makes a rename or deletion of
one of those names fail the test suite, not only traced benchmark runs."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from blockimpact import cli, impact  # noqa: E402
from perfbench.tracing import Tracer, rebound  # noqa: E402

from _helpers import BOWTIE_TEXT, bowtie, forest_impacts  # noqa: E402


def test_rebound_wraps_entry_points_and_restores_them():
    before = {m: dict(vars(m)) for m in (cli, impact)}
    tracer = Tracer("t")
    with rebound(tracer):
        assert cli.build_block_forest is not before[cli]["build_block_forest"]
        impacts, _ = forest_impacts(bowtie())
    assert impacts == [0, 0, 2, 0, 0]
    assert [s["name"] for s in tracer.spans if s["name"] != "trace.counters"] == [
        "forest.build_forest_and_labeling",
        "impact.compute_sq_sizes",
        "impact.impact_vector",
    ]
    assert tracer.counters["forest.blocks"] == 2
    assert {m: dict(vars(m)) for m in (cli, impact)} == before


def test_dot_goes_through_the_traced_export(tmp_path, capsys):
    # The tracer counts dot.output_bytes off what cli.export_dot returns, so
    # `dot` must build its text through that module global.
    path = tmp_path / "bowtie.edges"
    path.write_text(BOWTIE_TEXT)
    tracer = Tracer("t")
    with rebound(tracer):
        assert cli.run(["dot", str(path)]) == 0
    written = capsys.readouterr().out.encode()
    assert "dot.export_dot" in [s["name"] for s in tracer.spans]
    assert tracer.counters["dot.output_bytes"] == len(written) > 0
