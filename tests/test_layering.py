"""The package's import layering, read from the source with ``ast``.

``graph`` is the bottom layer; each module above it imports only the layers
named here, so a concept cannot drift into a second module unnoticed.
``cli`` and ``__init__`` are the entry points and may import any module.
Every function the package defines is exported, or used by the package, the
benchmark or the acceptance tests.
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


# Where a package name counts as used. Tests other than the acceptance tests
# do not count: a name that only they call is surface kept for tests alone.
CALLER_FILES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((PACKAGE.parents[1] / "perfbench").glob("*.py")),
    PACKAGE.parents[1] / "tests" / "test_acceptance.py",
]


def _references() -> dict[str, set[str]]:
    """Names read or given as a whole string (``perfbench`` rebinds module
    functions by name), attributes read, and attributes called."""
    refs = {"name": set(), "read": set(), "called": set()}
    for path in CALLER_FILES:
        tree = _tree(path)
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs["name"].add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs["name"].add(node.value)
            elif isinstance(node, ast.Attribute):
                refs["called" if id(node) in calls else "read"].add(node.attr)
    return refs


def _definitions():
    """(module, qualified name, kind) of every function, method and property
    of the package, dunders left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        scopes = [(_tree(path), "", "function")]
        while scopes:
            scope, prefix, kind = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, f"{prefix}{node.name}.", "method"))
                elif isinstance(node, ast.FunctionDef):
                    scopes.append((node, f"{prefix}{node.name}.", "function"))
                    if node.name.startswith("__"):
                        continue
                    decorators = {getattr(d, "id", None) for d in node.decorator_list}
                    yield path.stem, prefix + node.name, (
                        "property" if "property" in decorators else kind
                    )


def test_no_function_only_tests_use():
    # A function counts as used when it is named anywhere; a method when an
    # attribute of its name is read or called; a property only when one is
    # read, since a called ``.count`` is list.count.
    refs = _references()
    seen_by = {
        "function": refs["name"] | refs["read"] | refs["called"],
        "method": refs["read"] | refs["called"],
        "property": refs["read"],
    }
    unused = [
        f"{module}.{qualname}"
        for module, qualname, kind in _definitions()
        if qualname not in blockimpact.__all__
        and qualname.rsplit(".", 1)[-1] not in seen_by[kind]
    ]
    assert unused == []
