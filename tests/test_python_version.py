"""Every source file parses under the oldest Python that ``pyproject.toml``
declares (``requires-python``), whichever newer interpreter runs the suite.

This checks grammar only: ``ast.parse(..., feature_version=...)`` refuses
syntax the declared version lacks, such as ``except*``, but not a call into
the standard library that exists only in a later version (``tomllib``,
``datetime.UTC``), which parses as any other name.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_check_refuses_newer_grammar():
    # except* is 3.11 grammar.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_under_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_oldest_python())
