"""The CLI's error exit, read from ``cli.py`` with ``ast``.

Handlers raise; ``run`` alone turns a failure into an ``error:`` line and an
exit code. So exactly one function writes to standard error (every other
write goes to the handlers' ``out``), and no function other than ``run``
returns the usage or out-of-memory codes 2 and 3.
"""

import ast
from pathlib import Path

import blockimpact.cli

TREE = ast.parse(Path(blockimpact.cli.__file__).read_text(encoding="utf-8"))
FUNCTIONS = [node for node in ast.walk(TREE) if isinstance(node, ast.FunctionDef)]


def _writes_elsewhere_than_out(fn: ast.FunctionDef) -> bool:
    """Whether ``fn`` prints to, or calls ``write`` on, a stream other than
    ``out`` or ``sys.stdout``: in ``cli`` that stream is standard error."""
    stdout = {"out", "sys.stdout"}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", None) == "print":
            files = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
            target = files[0] if files else "sys.stdout"
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "write":
            target = ast.unparse(node.func.value)
        else:
            continue
        if target not in stdout:
            return True
    return False


def test_exactly_one_function_writes_to_stderr():
    assert [fn.name for fn in FUNCTIONS if _writes_elsewhere_than_out(fn)] == ["_diagnose"]


def test_only_run_returns_two_or_three():
    returners = {
        fn.name
        for fn in FUNCTIONS
        for node in ast.walk(fn)
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Constant)
        and node.value.value in (2, 3)
    }
    assert returners == {"run"}


def test_no_handler_takes_an_err_parameter():
    handlers = [fn for fn in FUNCTIONS if fn.name.startswith("_cmd_")]
    assert len(handlers) == 4
    assert [(fn.name, [a.arg for a in fn.args.args]) for fn in handlers] == [
        (fn.name, ["args", "out"]) for fn in handlers
    ]
