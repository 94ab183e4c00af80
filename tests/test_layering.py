"""The package's import layering, read from the source with ``ast``.

``graph`` is the bottom layer; each module above it imports only the layers
named here, so a concept cannot drift into a second module unnoticed.
``cli`` and ``__init__`` are the entry points and may import any module.
"""

import ast
from pathlib import Path

import blockimpact

PACKAGE = Path(blockimpact.__file__).parent
ENTRY_POINTS = {"__init__", "cli"}

# Module -> the package modules it imports.
LAYERS = {
    "graph": set(),
    "forest": {"graph"},
    "impact": {"forest", "graph"},
    "dot": {"forest", "graph"},
    "oracle": {"graph", "impact"},
    "bench": {"graph", "impact"},
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _package_imports(module: str) -> set[str]:
    # Relative imports name a sibling; absolute ones count when they name
    # a package module. (``from . import x`` would show up as "".)
    found = set()
    for node in ast.walk(_tree(PACKAGE / f"{module}.py")):
        if isinstance(node, ast.ImportFrom):
            names = [("blockimpact." if node.level else "") + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("blockimpact."):
                found.add(name.split(".")[1])
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules - ENTRY_POINTS == set(LAYERS)


def test_internal_import_map():
    assert {module: _package_imports(module) for module in LAYERS} == LAYERS


def test_component_labeling_type_lives_in_impact():
    homes = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and node.name == "CcLabeling"
    ]
    assert homes == ["impact"]
