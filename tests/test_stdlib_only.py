"""The core package imports nothing outside the standard library.

The one exception is the lazy ``cryptography`` import on the Ed25519 path of
``keys.py``, which only runs when a scenario selects that scheme.

Only ``encoding.py`` opens, reads or writes files, so every file error is
named the same way. It imports nothing of the package but ``errors``, so the
declared-key reader that every module shares pulls in no domain module and
closes no import cycle.
"""

import ast
import sys
from pathlib import Path

import govsim

PACKAGE = Path(govsim.__file__).resolve().parent
# (file, package) pairs that may be imported, and only below module level.
ALLOWED = {("keys.py", "cryptography")}


def _third_party_imports(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    module_level = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            lazy = id(node) not in module_level
            if top not in sys.stdlib_module_names and not (
                    lazy and (path.name, top) in ALLOWED):
                found.append((name, node.lineno))
    return found


def test_core_package_is_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    offenders = {path.name: imports for path in sources
                 if (imports := _third_party_imports(path))}
    assert offenders == {}


# Calls that read or write a file: ``open(...)`` or ``x.open(...)`` and the
# ``Path`` methods below.
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _file_calls(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in FILE_CALLS:
                found.append((func.attr, node.lineno))
            elif isinstance(func, ast.Name) and func.id == "open":
                found.append(("open", node.lineno))
    return found


def test_only_encoding_touches_files():
    offenders = {path.name: calls for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "encoding.py" and (calls := _file_calls(path))}
    assert offenders == {}
    assert {name for name, _ in _file_calls(PACKAGE / "encoding.py")} == {
        "read_bytes", "write_bytes"}


def test_encoding_imports_only_errors_from_the_package():
    tree = ast.parse((PACKAGE / "encoding.py").read_text("utf-8"))
    relative = {(node.level, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names} | {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert relative == {(1, "errors")}
    assert not any(name.split(".")[0] == "govsim" for name in absolute)
